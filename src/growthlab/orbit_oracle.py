"""Brute-force orbit counting for finite permutation groups.

Ground truth for the growth-sequence calculus: orbits of a generated
group on n-tuples are counted by BFS over the tuple graph whose edges
are generator applications.  No group theory beyond closure is used;
the point of this module is to be trustworthy first and fast second.

Tuples over a domain of size d are encoded as mixed-radix integers
sum p_i * d^i, and the visited set is a flat byte array, so the state
space d^n must fit the MAX_TUPLE_STATES cap.  One NumPy kernel does the
search.  It splits each code into its k = n // 2 low digits and its
n - k high digits, so the image of a code under a generator is the sum
of two lookup-table entries, one per half.  For injective counts, the
codes that repeat a point are marked before the search, with the same
split: repeats within the low half, repeats within the high half, and
equal digits across the two halves.

The search is a multi-source BFS over batches of seeds.  Each visited
byte holds the label of the seed that reached it, and seeds found to
share an orbit are merged in a union-find over the 254 labels of a
batch.  A level applies one generator at a time and marks its new codes
before the next generator reads them; images of a duplicate-free
frontier under a permutation are duplicate-free, so the frontier never
needs deduplicating.  The batch size follows the mean orbit size seen
so far, so many small orbits share their levels while a few deep ones
keep frontiers narrow.  Two budgets protect the caller: a tuple budget
on visited states (every BFS) and an element budget on group closure
(only stabilizer_bound_check enumerates group elements).  Hitting
either raises CapacityError, never a wrong count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_TUPLE_BUDGET = 10**7
DEFAULT_ELEMENT_BUDGET = 10**6
MAX_TUPLE_STATES = 1 << 28
MAX_TRUNC_DEGREE = 4096


@dataclass(frozen=True)
class FinPermGroup:
    """A finite permutation group on points 0..degree-1, by generators.

    Generators are image tuples: g maps point p to g[p].  The identity
    is implicit; an empty generator list is the trivial group.
    """

    degree: int
    generators: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be at least 1")
        gens = tuple(tuple(int(p) for p in g) for g in self.generators)
        for g in gens:
            if sorted(g) != list(range(self.degree)):
                raise ValueError(f"generator {g} is not a permutation of 0..{self.degree - 1}")
        object.__setattr__(self, "generators", gens)

    @classmethod
    def trivial(cls, degree: int) -> "FinPermGroup":
        return cls(degree, ())

    @classmethod
    def symmetric(cls, degree: int) -> "FinPermGroup":
        """The full symmetric group, generated by a swap and a cycle."""
        if degree == 1:
            return cls(1, ())
        swap = tuple([1, 0] + list(range(2, degree)))
        if degree == 2:
            return cls(2, (swap,))
        cycle = tuple(list(range(1, degree)) + [0])
        return cls(degree, (swap, cycle))


@dataclass(frozen=True)
class OrbitCount:
    """Result of one orbit count, with telemetry.

    ``tuples_visited`` is the number of tuples the BFS actually marked,
    and ``levels`` the number of BFS levels it expanded, summed over its
    batches of seeds; both are deterministic for a given group, n and
    injectivity flag.
    """

    n: int
    injective: bool
    count: int
    tuples_visited: int
    levels: int


def _digits(size: int, domain: int, width: int) -> np.ndarray:
    """Row c holds the base-``domain`` digits of c, least significant first."""
    powers = domain ** np.arange(width, dtype=np.int64)
    return (np.arange(size, dtype=np.int64)[:, None] // powers) % domain


def _repeats(digs: np.ndarray) -> np.ndarray:
    """True for each row of ``digs`` in which some digit occurs twice."""
    width = digs.shape[1]
    bad = np.zeros(digs.shape[0], dtype=bool)
    for i in range(width):
        for j in range(i + 1, width):
            bad |= digs[:, i] == digs[:, j]
    return bad


def _budget_error(budget: int, total: int, domain: int, n: int, injective: bool) -> CapacityError:
    kind = "injective" if injective else "all"
    return CapacityError(
        f"tuple budget {budget} exceeded after visiting {total} tuples"
        f" (orbits on {kind} {n}-tuples of degree {domain})"
    )


def _bfs_orbits_numpy(gens: np.ndarray, domain: int, n: int, injective: bool, budget: int):
    # A code splits into its k low digits and n - k high digits,
    # code = lo + lo_size * hi, so that every per-code quantity below is
    # assembled from tables of d^k and d^(n-k) entries instead of d^n.
    size = domain**n
    k = n // 2
    lo_size = domain**k
    hi_size = domain ** (n - k)
    lo_digs = _digits(lo_size, domain, k)
    hi_digs = _digits(hi_size, domain, n - k)
    # the image code of lo + lo_size * hi under generator j is
    # img_lo[j, lo] + img_hi[j, hi]; codes stay below MAX_TUPLE_STATES,
    # so int32 holds them and halves the memory traffic of the BFS
    img_lo = (gens[:, lo_digs] @ (domain ** np.arange(k, dtype=np.int64))).astype(np.int32)
    img_hi = (gens[:, hi_digs] @ (domain ** np.arange(k, n, dtype=np.int64))).astype(np.int32)
    chunk = 1 << 18

    # vis[hi, lo] in the flat order of the codes, one byte per code:
    # 0 unvisited, 1 not injective (marked in advance, a block of rows
    # at a time so that no temporary grows to the state space), and a
    # batch label 2..255 once visited
    vis = np.zeros((hi_size, lo_size), dtype=np.uint8)
    if injective and n >= 2:
        lo_rep = _repeats(lo_digs)
        hi_rep = _repeats(hi_digs)
        rows = max(1, chunk // lo_size)
        for r in range(0, hi_size, rows):
            block = vis[r : r + rows]
            block |= lo_rep
            block |= hi_rep[r : r + rows, None]
            for i in range(k):
                for j in range(n - k):
                    block |= hi_digs[r : r + rows, j, None] == lo_digs[:, i]
    vis = vis.reshape(size)

    # Multi-source BFS.  A batch seeds the next unvisited codes in scan
    # order, seed i with label i + 2, and spreads each label along the
    # generators.  When a label reaches a code that carries another
    # one, the two seeds share an orbit and their labels are merged in
    # ``root``, a union-find over the 256 byte values kept fully
    # compressed; the batch adds one orbit per distinct root among its
    # seeds.  The group is finite, so forward reachability along the
    # generators is exactly the orbit.  Earlier batches therefore left
    # only closed orbits behind, and injective codes never map to
    # non-injective ones: a batch never reaches a code that an earlier
    # batch labelled, and every batch reuses labels 2..255.
    count = 0
    total = 0
    levels = 0
    scan = 0
    while scan < size:
        # aim the batch's orbits, at the mean orbit size so far, at
        # about one chunk of codes; the first batch has one seed.  The
        # seeds are the next unvisited codes, looked for in windows of
        # a sixteenth of a chunk, so a batch scans little past its seeds.
        want = min(max(chunk * count // total, 1), 254) if total else 1
        seeds = []
        while scan < size:
            free = np.flatnonzero(vis[scan : scan + (chunk >> 4)] == 0)[:want]
            seeds.append(scan + free)
            want -= free.size
            if want == 0:
                scan += int(free[-1]) + 1
                break
            scan += chunk >> 4
        frontier = np.concatenate(seeds).astype(np.int32)
        if frontier.size == 0:
            break
        flab = np.arange(2, frontier.size + 2, dtype=np.uint8)
        vis[frontier] = flab
        total += frontier.size
        if total > budget:
            raise _budget_error(budget, total, domain, n, injective)
        root = np.arange(256, dtype=np.uint8)
        roots = frontier.size
        while frontier.size and gens.shape[0]:
            levels += 1
            hi, lo = np.divmod(frontier, lo_size)
            nxt = []
            nxt_lab = []
            for j in range(gens.shape[0]):
                img = img_lo[j].take(lo)
                img += img_hi[j].take(hi)
                seen = vis.take(img)
                new = seen == 0
                img_new = img[new]
                nxt.append(img_new)
                if roots == 1:
                    # one orbit is left in the batch, and one label
                    vis[img_new] = root[2]
                else:
                    # a hit on another root's code merges the two seeds;
                    # codes never reached before have root[0] = 0 here
                    rs = root.take(seen)
                    clash = rs != flab
                    if np.count_nonzero(clash) > img_new.size:
                        clash &= ~new
                        pairs = np.unique(rs[clash].astype(np.int32) * 256 + flab[clash])
                        for p in pairs.tolist():
                            a = root[p >> 8]
                            b = root[p & 255]
                            if a != b:
                                root[root == a] = b
                                roots -= 1
                        flab = root.take(flab)
                    lab_new = flab[new]
                    vis[img_new] = lab_new
                    nxt_lab.append(lab_new)
                total += img_new.size
                if total > budget:
                    raise _budget_error(budget, total, domain, n, injective)
            frontier = np.concatenate(nxt)
            if roots > 1:
                flab = root.take(np.concatenate(nxt_lab))
        count += roots
    return count, total, levels


def _count_orbits(group: FinPermGroup, n: int, injective: bool, budget: int) -> OrbitCount:
    if n < 0:
        raise ValueError("tuple length must be non-negative")
    if n == 0:
        return OrbitCount(0, injective, 1, 0, 0)
    if injective and n > group.degree:
        return OrbitCount(n, injective, 0, 0, 0)
    size = group.degree**n
    if size > MAX_TUPLE_STATES:
        raise CapacityError(
            f"state space {group.degree}^{n} = {size} exceeds the cap {MAX_TUPLE_STATES}"
        )
    gens = np.array(group.generators, dtype=np.int64).reshape(
        len(group.generators), group.degree
    )
    count, total, levels = _bfs_orbits_numpy(gens, group.degree, n, injective, budget)
    return OrbitCount(n, injective, count, total, levels)


def count_orbits_injective(
    group: FinPermGroup,
    n: int,
    *,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> OrbitCount:
    """Orbits of the generated group on injective n-tuples.

    1 for n = 0 and 0 for n above the degree, both without search.
    """
    return _count_orbits(group, n, True, budget)


def count_orbits_all(
    group: FinPermGroup,
    n: int,
    *,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> OrbitCount:
    """Orbits of the generated group on all n-tuples."""
    return _count_orbits(group, n, False, budget)


def truncate_expr(expr, m: int) -> FinPermGroup:
    """Finite stand-in for an expression: wreath layers become wreaths
    with the symmetric group on m copies.

    Finite leaves pass through; a product acts on the disjoint union of
    its factors' domains; a wreath layer with base domain b yields the
    group on b*m points (point p of copy c sits at c*b + p) generated by
    the base generators on copy 0 plus a copy swap and a copy m-cycle.
    Those copy permutations together with one embedded copy of the base
    group generate the full wreath product.
    """
    from .group_expr import DirectProduct, Finite, WreathSomega

    if m < 1:
        raise ValueError("truncation level m must be at least 1")
    if isinstance(expr, Finite):
        return expr.group
    if isinstance(expr, DirectProduct):
        parts = [truncate_expr(child, m) for child in expr.factors]
        degree = sum(p.degree for p in parts)
        if degree > MAX_TRUNC_DEGREE:
            raise CapacityError(f"truncated domain {degree} exceeds cap {MAX_TRUNC_DEGREE}")
        gens: list[tuple[int, ...]] = []
        offset = 0
        for part in parts:
            for g in part.generators:
                image = list(range(degree))
                for p, q in enumerate(g):
                    image[offset + p] = offset + q
                gens.append(tuple(image))
            offset += part.degree
        return FinPermGroup(degree, tuple(gens))
    if isinstance(expr, WreathSomega):
        base = truncate_expr(expr.base, m)
        b = base.degree
        degree = b * m
        if degree > MAX_TRUNC_DEGREE:
            raise CapacityError(f"truncated domain {degree} exceeds cap {MAX_TRUNC_DEGREE}")
        gens = []
        for g in base.generators:
            image = list(range(degree))
            for p, q in enumerate(g):
                image[p] = q
            gens.append(tuple(image))
        if m >= 2:
            swap = list(range(degree))
            for p in range(b):
                swap[p], swap[b + p] = b + p, p
            gens.append(tuple(swap))
        if m >= 3:
            cycle = [((c + 1) % m) * b + p for c in range(m) for p in range(b)]
            gens.append(tuple(cycle))
        return FinPermGroup(degree, tuple(gens))
    raise TypeError(f"not a group expression: {expr!r}")


def _enumerate_elements(group: FinPermGroup, cap: int) -> list[tuple[int, ...]]:
    identity = tuple(range(group.degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in group.generators:
                prod = tuple(g[p] for p in e)
                if prod not in elements:
                    elements.add(prod)
                    if len(elements) > cap:
                        raise CapacityError(
                            f"element budget {cap} exceeded while closing the group"
                        )
                    nxt.append(prod)
        frontier = nxt
    return sorted(elements)


def stabilizer_bound_check(
    group: FinPermGroup,
    a: int,
    n: int,
    *,
    element_budget: int = DEFAULT_ELEMENT_BUDGET,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> bool:
    """Check l_n(G_a) <= n * l_n(G) + l_{n+1}(G) for the point stabilizer.

    Any orbit of the stabilizer of a on injective n-tuples either maps
    into an orbit of G on injective (n+1)-tuples by appending a, or the
    tuple already contains a in one of its n positions; hence the bound
    whenever n + 1 points fit in the domain.

    This is the one operation that enumerates group elements: the full
    element set of the stabilizer doubles as its generator set for the
    tuple BFS.  The element budget applies here only.
    """
    if not 0 <= a < group.degree:
        raise ValueError(f"point {a} outside domain of size {group.degree}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n + 1 > group.degree:
        raise ValueError("need n + 1 points in the domain")
    elements = _enumerate_elements(group, element_budget)
    stab_gens = tuple(e for e in elements if e[a] == a)
    stabilizer = FinPermGroup(group.degree, stab_gens)
    l_n_stab = count_orbits_injective(stabilizer, n, budget=tuple_budget).count
    l_n = count_orbits_injective(group, n, budget=tuple_budget).count
    l_n1 = count_orbits_injective(group, n + 1, budget=tuple_budget).count
    return l_n_stab <= n * l_n + l_n1
