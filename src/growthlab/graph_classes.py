"""Labelled enumeration of small hereditary graph classes.

Provides the half-graph family, flipped disjoint paths with their
recovery formulas, exact labelled counting of hereditary classes given
by generators or forbidden induced subgraphs, and the largest
semi-induced half-graph in a graph.

Graphs are adjacency bitsets (one Python int per vertex), with no
limit on their size.  Induced embeddings are found by backtracking on
those bitsets.  Labelled counting enumerates the members on [n] only,
never all 2^C(n,2) graphs: in generators mode as the relabellings of
the generators' n-vertex induced subgraphs, in forbidden mode by
extending each member on [k] by one vertex.  A node Budget bounds a
whole count or semi-induced search; one Budget handed to several of them
bounds them together, and its ``spent`` is the work they did.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, Iterator

from .errors import DEFAULT_NODE_BUDGET, Budget, ParseError, numbered_lines
from .record import Record

MODE_GENERATORS = "generators"
MODE_FORBIDDEN = "forbidden"

#: byte translation tables: _BIT_DIGITS[j] maps a byte to b"1" when its
#: bit j is set and to b"0" otherwise
_BIT_DIGITS = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def _columns(rows: tuple[int, ...]) -> list[int]:
    """The columns of the square bit matrix with these rows.  Held as a
    v x width byte matrix, byte w // 8 of every row is one strided
    slice, and bit w % 8 of those bytes, spelled in binary digits, is
    column w."""
    v = len(rows)
    width = (v + 7) // 8
    full = (1 << v) - 1
    matrix = b"".join((mask & full).to_bytes(width, "little") for mask in rows)
    return [int(matrix[w >> 3 :: width].translate(_BIT_DIGITS[w & 7])[::-1], 2) for w in range(v)]


class Graph(Record):
    """Simple undirected graph on vertices 0..v-1 with adjacency bitsets.

    ``adj[u]`` has bit w set iff u and w are adjacent; no self-loops.
    ``colors``, when present, assigns every vertex one of the three
    classes used by the flip-recovery formulas.
    """

    v: int
    adj: tuple[int, ...]
    colors: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.v < 1:
            raise ValueError("graph needs at least one vertex")
        adj = tuple(int(m) for m in self.adj)
        if len(adj) != self.v:
            raise ValueError("adjacency list length differs from vertex count")
        full = (1 << self.v) - 1
        columns = _columns(adj)
        for u, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {u} mentions vertices >= {self.v}")
            if mask >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            odd = mask & ~columns[u]  # the w adjacent to u whose adjacency lacks u
            if odd:
                w = (odd & -odd).bit_length() - 1
                raise ValueError(f"asymmetric adjacency between {u} and {w}")
        object.__setattr__(self, "adj", adj)
        if self.colors is not None:
            colors = tuple(int(c) for c in self.colors)
            if len(colors) != self.v:
                raise ValueError("colors must be total")
            if any(c not in (0, 1, 2) for c in colors):
                raise ValueError("colors must be 0, 1 or 2")
            object.__setattr__(self, "colors", colors)

    @classmethod
    def from_edges(
        cls, v: int, edges: Iterable[tuple[int, int]], colors: Iterable[int] | None = None
    ) -> "Graph":
        adj = [0] * v
        for u, w in edges:
            if u == w:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        return cls(v, tuple(adj), None if colors is None else tuple(colors))

    def has_edge(self, u: int, w: int) -> bool:
        return bool(self.adj[u] >> w & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.v):
            for w in range(u + 1, self.v):
                if self.adj[u] >> w & 1:
                    yield (u, w)


class FlipSpec(Record):
    """A symmetric set of class pairs to complement between.

    Classes are 0..t-1.  ``rows[j]`` is the bitset of the classes that
    class j is complemented with, so bit j' of rows[j] is bit j of
    rows[j']; bit j of rows[j] complements within class j.
    """

    t: int
    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        if len(rows) != self.t or any(row >> self.t for row in rows):
            raise ValueError(f"a spec needs {self.t} rows of pairs inside classes 0..{self.t - 1}")
        for j, (row, column) in enumerate(zip(rows, _columns(rows))):
            odd = row & ~column  # the w paired with j that lack j
            if odd:
                w = (odd & -odd).bit_length() - 1
                raise ValueError(f"pairs must be symmetric; ({w}, {j}) is missing")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_pairs(cls, t: int, pairs: Iterable[tuple[int, int]]) -> "FlipSpec":
        """Build a spec closing the given pairs under symmetry."""
        rows = [0] * t
        for i, j in pairs:
            if not (0 <= i < t and 0 <= j < t):
                raise ValueError(f"pair ({i}, {j}) outside classes 0..{t - 1}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(t, tuple(rows))

    @classmethod
    def random(cls, t: int, rng: random.Random) -> "FlipSpec":
        """Uniformly random symmetric spec: each unordered pair (i, j),
        i <= j, with probability one half, drawn in that order."""
        return cls.from_pairs(t, ((i, j) for i in range(t) for j in range(i, t) if rng.random() < 0.5))

    def unordered(self) -> list[tuple[int, int]]:
        """The pairs (i, j) with i <= j, in increasing order."""
        return [(i, j) for i, row in enumerate(self.rows) for j in range(i, self.t) if row >> j & 1]


class ClassSpec(Record):
    """A hereditary graph class, by generators or forbidden subgraphs.

    generators: the class is every graph isomorphic to an induced
    subgraph of one of the listed graphs.  forbidden: every graph with
    no listed graph as induced subgraph.  Both are hereditary by
    construction.
    """

    mode: str
    graphs: tuple[Graph, ...]

    def __post_init__(self):
        if self.mode not in (MODE_GENERATORS, MODE_FORBIDDEN):
            raise ValueError(f"mode must be {MODE_GENERATORS!r} or {MODE_FORBIDDEN!r}")
        if not self.graphs:
            raise ValueError("a class spec needs at least one graph")


def half_graph(t: int) -> Graph:
    """The bipartite graph on a_0..a_{t-1}, b_0..b_{t-1} with an edge
    between a_i and b_j iff i <= j.  Vertices 0..t-1 are the a side and
    t..2t-1 the b side."""
    if t < 1:
        raise ValueError("t must be at least 1")
    return Graph.from_edges(
        2 * t, [(i, t + j) for i in range(t) for j in range(t) if i <= j]
    )


def flipped_paths(k: int, spec: FlipSpec | None = None) -> Graph:
    """Three disjoint paths of length k with classes complemented per spec.

    Vertex (path i, position j) is i*k + j; the base graph is three
    disjoint paths on positions 0..k-1, coloured by path index, one path
    per colour class of flip_recover.  The partition used for flips
    groups vertices by position, so class j is {(i, j) : all i}; a spec
    pair (j, j') complements all edges between class j and class j', and
    a diagonal pair (j, j) complements within the class.

    Each row is built whole: the row of (i, j) is its path rungs XOR
    spec.rows[j], the positions j is flipped with, repeated over the
    three paths, without (i, j) itself.
    """
    if k < 2:
        raise ValueError("paths need at least two vertices")
    flip = (0,) * k if spec is None else spec.rows
    if len(flip) != k:
        raise ValueError(f"spec has {spec.t} classes but paths have {k} positions")
    spread = 1 | 1 << k | 1 << 2 * k  # one copy of a position mask per path
    adj = []
    for i in range(3):
        for j in range(k):
            rungs = (1 << j - 1 if j else 0) | (1 << j + 1 if j + 1 < k else 0)
            adj.append(((rungs << i * k) ^ flip[j] * spread) & ~(1 << (i * k + j)))
    return Graph(3 * k, tuple(adj), tuple(i for i in range(3) for _ in range(k)))


# ---------------------------------------------------------------------------
# labelled counting
# ---------------------------------------------------------------------------


def _embeddings(pat: list[int], host: list[int], budget: Budget) -> list[list[int]]:
    """Induced embeddings of the pattern into the host, pure-int bitsets.

    Returns the host images of pattern vertices 0..p-1, one list per
    embedding.  Each host vertex tried spends one node of the budget.
    """
    p, h = len(pat), len(host)
    if p > h:
        return []
    if p == 0:
        return [[]]
    full = (1 << h) - 1
    limit = budget.limit - budget.spent
    found = []
    img = [0] * p
    cand = [0] * p
    cand[0] = full
    used = 0
    nodes = 0
    depth = 0
    while True:
        if not cand[depth]:
            depth -= 1
            if depth < 0:
                break
            used &= ~(1 << img[depth])
            continue
        low = cand[depth] & -cand[depth]
        cand[depth] ^= low
        nodes += 1
        if nodes > limit:
            break  # the spend below raises
        img[depth] = low.bit_length() - 1
        if depth == p - 1:
            found.append(img[:])
            continue
        used |= low
        nxt = full & ~used
        for e in range(depth + 1):
            nxt &= host[img[e]] if pat[depth + 1] >> e & 1 else ~host[img[e]]
        depth += 1
        cand[depth] = nxt
    budget.spend(nodes)
    return found


def _count_generated(gens: list[list[int]], n: int, budget: Budget) -> int:
    """Labelled graphs on [n] isomorphic to an induced subgraph of a
    generator: the union of the orbits, under relabelling, of the
    n-vertex induced subgraphs.

    Each graph on [n] is an edge mask, pair {a, b} (a < b) on bit
    ``bit[a][b]``.  An induced subgraph whose mask is already a member
    lies in an orbit already added, so the n! relabellings are spent
    once per isomorphism type, not once per subset.
    """
    bit = [[0] * n for _ in range(n)]
    pairs = list(combinations(range(n), 2))
    for index, (a, b) in enumerate(pairs):
        bit[a][b] = bit[b][a] = 1 << index
    orbit = factorial(n)
    members: set[int] = set()
    for g in gens:
        for sub in combinations(range(len(g)), n):
            budget.spend(1)
            edges = [(a, b) for a, b in pairs if g[sub[a]] >> sub[b] & 1]
            if sum(bit[a][b] for a, b in edges) in members:
                continue
            budget.spend(orbit)
            members.update(
                sum([bit[p[a]][p[b]] for a, b in edges]) for p in permutations(range(n))
            )
    return len(members)


def _rooted(forbidden: list[list[int]]) -> list[tuple[list[int], int]]:
    """Every forbidden graph F rooted at each of its vertices x: the
    pattern F - x, its vertices in breadth-first order from x so that
    the search prunes early, and the bitset of the pattern positions
    adjacent to x.  Roots that give the same pair are kept once."""
    out = {}
    for f in forbidden:
        for x in range(len(f)):
            order = [x]
            for u in order:
                order += [w for w in range(len(f)) if f[u] >> w & 1 and w not in order]
            order += [w for w in range(len(f)) if w not in order]
            rest = order[1:]
            pat = tuple(sum(1 << j for j, w in enumerate(rest) if f[u] >> w & 1) for u in rest)
            near = sum(1 << i for i, w in enumerate(rest) if f[x] >> w & 1)
            out[pat, near] = None
    return [(list(pat), near) for pat, near in out]


def _count_forbidden(forbidden: list[list[int]], n: int, budget: Budget) -> int:
    """Labelled graphs on [n] with no forbidden induced subgraph, by
    hereditary extension.

    A member on [k+1] restricts to exactly one member on [k], so the
    members on [n] are the leaves of a tree rooted at the empty graph on
    [0], walked depth first: a member on [k] has one child for each
    neighbourhood N of the new vertex k that creates no forbidden copy.
    Its parent is free of them, so only copies through k are sought.
    Such a copy is F - x embedded in the parent with x's neighbours
    inside N and its other vertices outside, and it rules out every N
    with those two properties at once.  The neighbourhoods are the bits
    of a 2^k-bit truth table: bit N of ``col[v]`` is set iff v is in N,
    so each copy clears the AND of its columns, and the last level
    counts the bits left set.  Each parent spends 2^k nodes, one per
    candidate neighbourhood, plus its embedding nodes.
    """
    rooted = _rooted(forbidden)
    # tables[k]: the all-ones table on 2^k bits and col[0..k-1]
    tables = [(1, [])]

    def extend(rows: list[int]) -> int:
        k = len(rows)
        budget.spend(1 << k)
        if k == len(tables):
            every, col = tables[-1]
            half = 1 << (k - 1)
            tables.append((every << half | every, [c << half | c for c in col] + [every << half]))
        every, col = tables[k]
        bad = 0
        for pat, near in rooted:
            for img in _embeddings(pat, rows, budget):
                copy = every
                for i, w in enumerate(img):
                    copy &= col[w] if near >> i & 1 else every ^ col[w]
                bad |= copy
        valid = every & ~bad
        if k + 1 == n:
            return valid.bit_count()
        # the binary digits of valid, lowest first, mark the children
        return sum(
            extend([r | 1 << k if nbrs >> i & 1 else r for i, r in enumerate(rows)] + [nbrs])
            for nbrs, digit in enumerate(bin(valid)[:1:-1])
            if digit == "1"
        )

    return extend([])


def count_labelled(spec: ClassSpec, n: int, *, budget: Budget | None = None) -> int:
    """Exact number of labelled graphs on [n] that belong to the class.

    Generators mode collects the relabellings of the n-vertex induced
    subgraphs of the generators; forbidden mode extends the members on
    [k] by one vertex at a time.  ``budget`` (a fresh one of
    DEFAULT_NODE_BUDGET nodes when None) bounds the whole count: every
    subset, relabelling, candidate neighbourhood and embedding node
    spends one, and running out raises CapacityError.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return 1
    graphs = [list(g.adj) for g in spec.graphs]
    budget = budget or Budget(DEFAULT_NODE_BUDGET)
    budget.stage = f"labelled count at n = {n}"
    if spec.mode == MODE_GENERATORS:
        return _count_generated(graphs, n, budget)
    return _count_forbidden(graphs, n, budget)


def semi_induced_order(G: Graph, *, lax: bool = False, budget: Budget | None = None) -> int:
    """Largest t such that the half-graph on 2t vertices is semi-induced.

    Searches for vertices a_0..a_{t-1} and b_0..b_{t-1} with an edge
    between a_i and b_j iff i <= j; pairs within one side are
    unconstrained.  The strict reading makes all 2t vertices distinct;
    with ``lax`` a vertex may appear on both sides when the pattern
    tolerates it (the pair it fills must then be a non-edge).  Each side
    is always distinct within itself.

    Backtracking chooses a_0, b_0, a_1, b_1, ... so each new vertex is
    constrained by every chosen vertex of the other side.  A failing t
    is exhausted or ruled out by the counting bound: the t - i distinct
    vertices a_i..a_{t-1} (likewise b_i..b_{t-1}) all lie in the
    candidate set of a_i, since the constraints only grow, so a node
    whose candidate set is smaller fails at once.  Every node spends
    one of ``budget`` (a fresh one of DEFAULT_NODE_BUDGET nodes when
    None) over all t, and running out raises CapacityError naming the t
    being searched.
    """
    full = (1 << G.v) - 1
    budget = budget or Budget(DEFAULT_NODE_BUDGET)

    def exists(t: int) -> bool:
        a_img = [0] * t
        b_img = [0] * t

        def rec(pos: int, used_a: int, used_b: int) -> bool:
            if pos == 2 * t:
                return True
            side_a = pos % 2 == 0
            i = pos // 2
            if side_a:
                cand = full & ~used_a
                if not lax:
                    cand &= ~used_b
                for j in range(i):
                    cand &= full & ~G.adj[b_img[j]]
            else:
                cand = full & ~used_b
                if not lax:
                    cand &= ~used_a
                for j in range(i + 1):
                    cand &= G.adj[a_img[j]]
            if cand.bit_count() < t - i:
                return False
            while cand:
                low = cand & -cand
                cand ^= low
                w = low.bit_length() - 1
                budget.spend(1)
                if side_a:
                    a_img[i] = w
                    if rec(pos + 1, used_a | low, used_b):
                        return True
                else:
                    b_img[i] = w
                    if rec(pos + 1, used_a, used_b | low):
                        return True
            return False

        budget.stage = f"semi-induced order t = {t}"
        return rec(0, 0, 0)

    best = 0
    while best < G.v and exists(best + 1):
        best += 1
    return best


def flip_recover(H: Graph) -> Graph:
    """Evaluate the recovery formulas on a 3-coloured graph.

    With classes C_0, C_1, C_2 and indices mod 3:

      pi_i(x, y):  x in C_i, y in C_{i+1}, x and y have the same
                   neighbourhood inside C_{i+2}
      psi_i(x, y): x, y in C_i and some z has pi_i(y, z) and an edge xz
      phi(x, y):   for some i, x != y, both in C_i, and psi_i(x, y)
                   holds exactly when xy is a non-edge

    Returns the graph of phi with the colours kept.  On a flipped
    disjoint-paths graph coloured by path this reconstructs the
    unflipped paths, because same-position vertices share cross-path
    neighbourhoods.

    phi is evaluated a column at a time on bitsets: psi_i(., y) is the
    union of the neighbourhoods of the z in C_{i+1} that see C_{i+2} as
    y does, one union per such view, and column y of phi is that union
    XOR y's own neighbourhood, within C_i and without y.  The columns
    are the rows of the result, so if phi ever disagrees with its
    transpose the symmetry check of Graph finds the pair, and a
    ValueError says the input was not a flip of coloured paths instead
    of guessing.
    """
    if H.colors is None:
        raise ValueError("flip recovery needs a total 3-colouring")
    members = [[u for u in range(H.v) if H.colors[u] == c] for c in range(3)]
    class_mask = [sum(1 << u for u in m) for m in members]
    adj = [0] * H.v
    for i in range(3):
        m0, m2 = class_mask[i], class_mask[(i + 2) % 3]
        # reach[view]: the vertices adjacent to some z in C_{i+1} that
        # sees C_{i+2} as view, so psi_i(., y) is reach[y's view] on C_i
        reach: dict[int, int] = {}
        for z in members[(i + 1) % 3]:
            view = H.adj[z] & m2
            reach[view] = reach.get(view, 0) | H.adj[z]
        for y in members[i]:
            psi = reach.get(H.adj[y] & m2, 0)
            adj[y] = (psi ^ H.adj[y]) & m0 & ~(1 << y)
    try:
        return Graph(H.v, tuple(adj), H.colors)
    except ValueError as exc:
        raise ValueError(f"recovery formula gives {exc}; input is not a flip of coloured paths") from None


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def _parse_graph_lines(lines: list[tuple[int, str]]) -> Graph:
    if not lines:
        raise ParseError("empty graph block")
    ln, first = lines[0]
    if not first.startswith("v="):
        raise ParseError(f"line {ln}: expected 'v=<count>', got {first!r}", ln)
    try:
        v = int(first[2:])
    except ValueError:
        raise ParseError(f"line {ln}: bad vertex count {first[2:]!r}", ln) from None
    if v < 1:
        raise ParseError(f"line {ln}: vertex count must be at least 1", ln)
    edges = []
    colors: dict[int, int] = {}
    for ln, line in lines[1:]:
        parts = line.split()
        if parts[0] == "color":
            if len(parts) != 3:
                raise ParseError(f"line {ln}: expected 'color <vertex> <class>'", ln)
            try:
                u, c = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {ln}: bad color line {line!r}", ln) from None
            if not 0 <= u < v:
                raise ParseError(f"line {ln}: colored vertex {u} outside 0..{v - 1}", ln)
            if u in colors:
                raise ParseError(f"line {ln}: vertex {u} colored twice", ln)
            colors[u] = c
            continue
        if len(parts) != 2:
            raise ParseError(f"line {ln}: expected an edge 'u w', got {line!r}", ln)
        try:
            u, w = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {ln}: bad edge {line!r}", ln) from None
        if not (0 <= u < v and 0 <= w < v):
            raise ParseError(f"line {ln}: edge {u} {w} outside 0..{v - 1}", ln)
        if u == w:
            raise ParseError(f"line {ln}: self-loop at {u}", ln)
        edges.append((u, w))
    color_tuple = None
    if colors:
        missing = [u for u in range(v) if u not in colors]
        if missing:
            raise ParseError(f"colors must be total; missing vertex {missing[0]}")
        color_tuple = tuple(colors[u] for u in range(v))
    try:
        return Graph.from_edges(v, edges, color_tuple)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: 'v=<n>', then 'u w' edge lines and
    optional 'color u c' lines.  '#' comments and blank lines are
    skipped."""
    return _parse_graph_lines(numbered_lines(text))


def parse_class_spec(text: str, mode: str) -> ClassSpec:
    """Parse a class file: graph blocks in the edge-list format
    separated by lines of '---'."""
    blocks: list[list[tuple[int, str]]] = [[]]
    for ln, line in numbered_lines(text):
        if set(line) == {"-"} and len(line) >= 3:
            blocks.append([])
            continue
        blocks[-1].append((ln, line))
    graphs = [_parse_graph_lines(b) for b in blocks if b]
    if not graphs:
        raise ParseError("class file holds no graphs")
    return ClassSpec(mode, tuple(graphs))
