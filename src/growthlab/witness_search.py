"""Search for order and coding witnesses in finite relations.

An order witness of size n in a binary relation D consists of
sequences a_1..a_n and b_1..b_n with (a_i, b_j) in D exactly when
i < j.  A coding witness of size m in a (2k+1)-ary relation consists
of k-tuple sequences x_1..x_m and y_1..y_m together with m^2 distinct
points z_ij such that, restricted to Z = {z_ij}, the fiber over
(x_i, y_j) is exactly {z_ij}.

Searches are exact backtracking with a counting look-ahead at every
node.  Each spends its nodes against a node Budget (errors.py) and
catches the budget's CapacityError itself: results are three-valued, so
an exhausted budget is reported as indeterminate rather than as
absence.  One coding search serves every side width k (k = 1 for
ternary relations): it holds sides as indices into the sorted distinct
k-tuple projections, and fibers and private sets as bitsets over the
universe.  The verifiers test raw tuple membership and share no
machinery with the searchers.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import or_
from typing import Union

from .errors import DEFAULT_NODE_BUDGET, Budget, CapacityError, ParseError, numbered_lines
from .record import Record

STATUS_FOUND = "found"
STATUS_NONE = "none"
STATUS_INDETERMINATE = "indeterminate"


class FinRelation(Record):
    """A finite relation: a set of arity-tuples over 0..universe-1."""

    universe: int
    arity: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.universe < 1:
            raise ValueError("universe must be non-empty")
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        tuples = frozenset(tuple(map(int, t)) for t in self.tuples)
        values = list(chain.from_iterable(tuples))
        # bulk checks; the loop runs only to name the first bad tuple
        if set(map(len, tuples)) - {self.arity} or values and not (
            0 <= min(values) <= max(values) < self.universe
        ):
            for t in tuples:
                if len(t) != self.arity:
                    raise ValueError(f"tuple {t} has length {len(t)}, arity is {self.arity}")
                for v in t:
                    if not 0 <= v < self.universe:
                        raise ValueError(f"tuple {t} leaves the universe 0..{self.universe - 1}")
        object.__setattr__(self, "tuples", tuples)


class OrderWitness(Record):
    """Sequences realising the i < j edge pattern."""

    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int(v) for v in self.a_seq)
        b = tuple(int(v) for v in self.b_seq)
        if not a or len(a) != len(b):
            raise ValueError("sides must be non-empty and of equal length")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("each side must consist of distinct points")
        object.__setattr__(self, "a_seq", a)
        object.__setattr__(self, "b_seq", b)

    @property
    def size(self) -> int:
        return len(self.a_seq)


class CodingWitness(Record):
    """An m x m grid of private points indexed by two k-tuple sides.

    Side entries are always tuples, even for k = 1.  The table is an
    m x m matrix whose entries are exactly z_points, each used once.
    """

    x_side: tuple[tuple[int, ...], ...]
    y_side: tuple[tuple[int, ...], ...]
    z_points: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = len(self.x_side)
        if m < 1 or len(self.y_side) != m:
            raise ValueError("sides must be non-empty and of equal length")
        k = len(self.x_side[0])
        for side in (self.x_side, self.y_side):
            for t in side:
                if len(t) != k:
                    raise ValueError("all side entries must be tuples of one width")
        if len(set(self.x_side)) != m or len(set(self.y_side)) != m:
            raise ValueError("each side must consist of distinct tuples")
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise ValueError(f"table must be {m} x {m}")
        flat = [v for row in self.table for v in row]
        if len(set(flat)) != m * m:
            raise ValueError("table entries must be pairwise distinct")
        if sorted(flat) != sorted(self.z_points) or len(self.z_points) != m * m:
            raise ValueError("z_points must list exactly the table entries")

    @property
    def size(self) -> int:
        return len(self.x_side)

    @property
    def width(self) -> int:
        return len(self.x_side[0])


Witness = Union[OrderWitness, CodingWitness]


class SearchResult(Record):
    """Outcome of a witness search.

    status is found, none, or indeterminate.  none means the search
    space was exhausted or ruled out by the counting bound;
    indeterminate means the node budget ran out first.  nodes is the
    number of candidate placements tried, the search's share of its
    budget's ``spent``.
    """

    status: str
    witness: Witness | None
    nodes: int

    def __post_init__(self):
        if self.status not in (STATUS_FOUND, STATUS_NONE, STATUS_INDETERMINATE):
            raise ValueError(f"unknown status {self.status!r}")
        if (self.witness is not None) != (self.status == STATUS_FOUND):
            raise ValueError("a witness accompanies exactly the found status")


# ---------------------------------------------------------------------------
# verifiers: raw membership tests only
# ---------------------------------------------------------------------------


def verify_order_witness(rel: FinRelation, w: OrderWitness) -> bool:
    if rel.arity != 2:
        return False
    n = w.size
    for i in range(n):
        for j in range(n):
            if ((w.a_seq[i], w.b_seq[j]) in rel.tuples) != (i < j):
                return False
    return True


def verify_coding_witness(rel: FinRelation, w: CodingWitness) -> bool:
    m, k = w.size, w.width
    if rel.arity != 2 * k + 1:
        return False
    zset = set(w.z_points)
    if len(zset) != m * m:
        return False
    for i in range(m):
        for j in range(m):
            for z in zset:
                member = w.x_side[i] + w.y_side[j] + (z,) in rel.tuples
                if member != (z == w.table[i][j]):
                    return False
    return True


# ---------------------------------------------------------------------------
# order witness search
# ---------------------------------------------------------------------------


def find_order_witness(rel: FinRelation, n: int, *, budget: Budget | None = None) -> SearchResult:
    """Backtracking search for an order witness of size n.

    Vertices interleave a_0, b_0, a_1, b_1, ... so every placement is
    checked against all placed points of the other side; candidate sets
    are bitsets over the universe and candidates are tried in ascending
    order, so the found witness is the lexicographically least one in
    placement order.  Distinctness inside each side needs no explicit
    check: a repeated point would have to be on both sides of one
    membership constraint.

    ``none`` means the space was exhausted or ruled out by the counting
    bound: the n - i distinct points a_i..a_{n-1} lie in the candidate
    set of a_i, and b_{i+1}..b_{n-1} lie in the intersection of
    row[a_j] over j <= i, so a node where either set is too small fails
    at once.  Each placement tried spends one node of ``budget`` (a
    fresh one of DEFAULT_NODE_BUDGET nodes when None); ``indeterminate``
    means it ran out.
    """
    if rel.arity != 2:
        raise ValueError(f"order witnesses need a binary relation, got arity {rel.arity}")
    if n < 1:
        raise ValueError("witness size must be at least 1")
    budget = budget or Budget(DEFAULT_NODE_BUDGET)
    row = [0] * rel.universe
    col = [0] * rel.universe
    for x, y in rel.tuples:
        row[x] |= 1 << y
        col[y] |= 1 << x
    full = (1 << rel.universe) - 1
    img = [0] * (2 * n)  # a_i at position 2i, b_i at 2i + 1
    cand = [0] * (2 * n)  # the candidates still to try at each position
    cand[0] = full if n <= rel.universe else 0
    # allowed[i]: the points outside col[b_j] for every j < i, where a_i
    # lies; common[i]: the points inside row[a_j] for every j < i
    allowed = [full] * (n + 1)
    common = [full] * (n + 1)
    limit = budget.limit - budget.spent
    nodes = pos = 0
    while pos >= 0:
        if not cand[pos]:
            pos -= 1
            continue
        low = cand[pos] & -cand[pos]
        cand[pos] ^= low
        nodes += 1
        if nodes > limit:
            break  # the spend below raises
        img[pos] = v = low.bit_length() - 1
        i = pos // 2
        pos += 1
        if pos == 2 * n:
            break
        if pos % 2:  # a_i placed; b_i lies in common[i], outside row[a_i]
            both = common[i + 1] = common[i] & row[v]
            cand[pos] = common[i] & ~row[v] if both.bit_count() >= n - i - 1 else 0
        else:  # b_i placed; a_{i+1} is next
            a_next = allowed[i + 1] = allowed[i] & ~col[v]
            cand[pos] = a_next if a_next.bit_count() >= n - i - 1 else 0
    try:
        budget.spend(nodes)
    except CapacityError:
        return SearchResult(STATUS_INDETERMINATE, None, nodes)
    if pos < 0:
        return SearchResult(STATUS_NONE, None, nodes)
    w = OrderWitness(tuple(img[0::2]), tuple(img[1::2]))
    assert verify_order_witness(rel, w)
    return SearchResult(STATUS_FOUND, w, nodes)


# ---------------------------------------------------------------------------
# coding witness search
# ---------------------------------------------------------------------------


def find_coding_witness(
    rel: FinRelation, m: int, k: int = 1, *, budget: Budget | None = None
) -> SearchResult:
    """Backtracking search for a size-m coding witness whose sides are
    k-tuples, in a (2k+1)-ary relation (ternary for the default k = 1).

    A witness needs, for every cell (i, j), a point z in the fiber over
    (x_i, y_j) lying in no other cell's fiber; such private points are
    automatically pairwise distinct, and a witness exists iff every
    cell keeps a non-empty private set, which only shrinks as cells are
    added.  Sides are indices into the sorted pools of distinct k-tuple
    projections.  The search interleaves x_0, y_0, x_1, y_1, ... with
    both sides strictly increasing (reordering a witness permutes table
    rows and columns, so this loses nothing) and prunes on an empty
    private set.  Fibers, keyed by pairs of pool indices, and private
    sets are bitsets over the universe.

    ``none`` means the space was exhausted or ruled out by the counting
    bound: the cells still to come need pairwise distinct private
    points outside every placed fiber, so a node fails at once when
    fewer than m^2 - (cells placed) points of the union of all fibers
    are left uncovered.  With fewer than m^2 points in that union the
    search answers at 0 nodes.  Each side loop also stops where too few
    pool entries remain for the rest of its increasing side.  Each
    placement tried spends one node of ``budget`` (a fresh one of
    DEFAULT_NODE_BUDGET nodes when None); ``indeterminate`` means it ran
    out.
    """
    if k < 1:
        raise ValueError("side width must be at least 1")
    if rel.arity != 2 * k + 1:
        raise ValueError(f"width-{k} coding witnesses need arity {2 * k + 1}, got {rel.arity}")
    if m < 1:
        raise ValueError("witness size must be at least 1")
    by_sides: dict[tuple[int, ...], int] = {}  # the fiber over each 2k-prefix
    for t in rel.tuples:
        sides = t[: 2 * k]
        by_sides[sides] = by_sides.get(sides, 0) | 1 << t[2 * k]
    xs_pool = sorted({s[:k] for s in by_sides})
    ys_pool = sorted({s[k:] for s in by_sides})
    if len(xs_pool) < m or len(ys_pool) < m:
        return SearchResult(STATUS_NONE, None, 0)
    x_index = {x: i for i, x in enumerate(xs_pool)}
    y_index = {y: i for i, y in enumerate(ys_pool)}
    # fibers keyed by pairs of pool indices, and their union
    fiber = {(x_index[s[:k]], y_index[s[k:]]): mask for s, mask in by_sides.items()}
    zall = reduce(or_, fiber.values(), 0)
    budget = budget or Budget(DEFAULT_NODE_BUDGET)
    # x_h sits at position 2h and y_h at 2h + 1; cells[pos] lists the
    # cells (i, j) that the point at pos completes, with the positions of
    # x_i and y_j, and stop[pos] ends its side where too few pool entries
    # remain for the rest of it
    img = [0] * (2 * m)
    cells = []
    for pos in range(2 * m):
        h = pos // 2
        done = [(h, j) for j in range(h)] if pos % 2 == 0 else [(i, h) for i in range(h + 1)]
        cells.append([((i, j), 2 * i, 2 * j + 1) for i, j in done])
    stop = [len(xs_pool if pos % 2 == 0 else ys_pool) - (m - 1 - pos // 2) for pos in range(2 * m)]
    # per position: the next pool index to try, its end, and the private
    # sets and covered points on entry
    nxt = [0] * (2 * m)
    end = [stop[0] if zall.bit_count() >= m * m else 0] + [0] * (2 * m - 1)
    state: list[tuple[dict[tuple[int, int], int], int]] = [({}, 0)] * (2 * m)
    limit = budget.limit - budget.spent
    nodes = pos = 0
    while pos >= 0:
        v = nxt[pos]
        if v >= end[pos]:
            pos -= 1
            continue
        nxt[pos] = v + 1
        nodes += 1
        if nodes > limit:
            break  # the spend below raises
        img[pos] = v
        privates, covered = state[pos]
        privates = dict(privates)
        ok = True
        for cell, xp, yp in cells[pos]:
            fib = fiber.get((img[xp], img[yp]), 0)
            priv = fib & ~covered
            if not priv:
                ok = False
                break
            for other, mask in privates.items():
                mask &= ~fib
                if not mask:
                    ok = False
                    break
                privates[other] = mask
            if not ok:
                break
            privates[cell] = priv
            covered |= fib
        if not ok:
            continue
        pos += 1
        if pos == 2 * m:
            break
        state[pos] = (privates, covered)
        nxt[pos] = img[pos - 2] + 1 if pos >= 2 else 0
        # the counting bound: too few points left uncovered ends the side
        fits = (zall & ~covered).bit_count() >= m * m - len(privates)
        end[pos] = stop[pos] if fits else 0
    try:
        budget.spend(nodes)
    except CapacityError:
        return SearchResult(STATUS_INDETERMINATE, None, nodes)
    if pos < 0:
        return SearchResult(STATUS_NONE, None, nodes)
    table = [[0] * m for _ in range(m)]
    for (i, j), mask in privates.items():
        low = mask & -mask
        table[i][j] = low.bit_length() - 1
    w = CodingWitness(
        tuple(xs_pool[i] for i in img[0::2]),
        tuple(ys_pool[j] for j in img[1::2]),
        tuple(sorted(v for r in table for v in r)),
        tuple(tuple(r) for r in table),
    )
    assert verify_coding_witness(rel, w)
    return SearchResult(STATUS_FOUND, w, nodes)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def parse_relation(text: str) -> FinRelation:
    """Parse a relation file: a header line 'a=<size> r=<arity>', then
    one tuple of integers per line.  '#' comments and blank lines are
    skipped.

    The tuple lines are validated in one pass: each is split, and
    FinRelation converts its entries to integers and checks the entry
    counts and the least and greatest entry of all of them at once.
    Only when that pass fails are the lines scanned one by one, so that
    the error names the first bad line and what is wrong with it.
    """
    lines = text.splitlines()
    for ln, line in enumerate(lines, start=1):
        header = line.strip()
        if header and not header.startswith("#"):
            break
    else:
        raise ParseError("empty relation file")
    parts = header.split()
    if len(parts) != 2 or not parts[0].startswith("a=") or not parts[1].startswith("r="):
        raise ParseError(f"line {ln}: expected 'a=<size> r=<arity>', got {header!r}", ln)
    try:
        universe = int(parts[0][2:])
        arity = int(parts[1][2:])
    except ValueError:
        raise ParseError(f"line {ln}: bad header {header!r}", ln) from None
    rows = (fields for fields in map(str.split, lines[ln:]) if fields and fields[0][0] != "#")
    try:
        return FinRelation(universe, arity, rows)
    except ValueError as exc:
        raise _first_bad_line(text, universe, arity) or ParseError(str(exc)) from None


def _first_bad_line(text: str, universe: int, arity: int) -> ParseError | None:
    """The error for the first tuple line of a relation file with the
    wrong entry count, a non-integer or an entry outside the universe,
    or None when every tuple line is sound."""
    for ln, line in numbered_lines(text)[1:]:
        fields = line.split()
        if len(fields) != arity:
            return ParseError(f"line {ln}: expected {arity} entries, got {len(fields)}", ln)
        try:
            t = tuple(int(f) for f in fields)
        except ValueError:
            return ParseError(f"line {ln}: bad tuple {line!r}", ln)
        for v in t:
            if not 0 <= v < universe:
                return ParseError(f"line {ln}: entry {v} outside 0..{universe - 1}", ln)
    return None
