"""Orbit counting for finite permutation groups, by search.

Ground truth for the growth-sequence calculus: the orbits of a generated
group on injective n-tuples, or on all n-tuples, are counted by a search
along generator applications.  It shares no formula with the sequence
calculus: it reads the group only through its generators, and counts
with one fact about orbits (Cameron, Oligomorphic Permutation Groups,
1990), stated below.

States.  The state of a tuple is the set of its points, or for counts
of all tuples the multiset.  The group permutes states.  Let a state X
have s distinct points with multiplicities mu_1..mu_s, and let K be the
group that the stabilizer of X induces on those points.  The
n! / prod mu_i! tuples over X then fall into (n! / prod mu_i!) / |K|
orbits, because only the identity of K fixes such a tuple, and each
orbit of states adds that many orbits of tuples.  So the search visits
the C(d, n) sets or C(d + n - 1, n) multisets of a domain of size d,
not its d^n tuples.  The MAX_TUPLE_STATES cap applies to d^n, the
number of tuples, and under it s <= min(n, d) <= 8.

Frames and Schreier elements.  A search starts from a seed state and
numbers its distinct points 0..s-1.  Every state it reaches keeps its
frame, the ordering of its points in which the seed's numbering first
arrived there.  When a generator maps a reached state onto another
reached state, the ordering it brings and the stored frame differ by an
element of K, a Schreier element; over all generator edges of the
orbit these generate K (Schreier's lemma), and |K| comes from closing
them in Sym(s), at most 8! elements.

Two searches.  The NumPy kernel ranks states in the combinatorial
number system (multisets by stars and bars) and keeps one byte per
state, the label of the seed that reached it, and the frame as the rank
of its ordering, one byte up to s = 5.  It runs a multi-source BFS from
batches of up to 254 seeds in scan order.  A level applies one
generator at a time and labels its new states before the next generator
reads them; the images of a duplicate-free frontier are duplicate-free,
so no deduplication is needed.  Every image that lands on a state with
another label, or in another ordering, records its seed pair and
Schreier element, and after the batch the seeds that met are merged
with Sym(s)-valued potentials.  The batch size follows the mean orbit
size seen so far.  State spaces whose size times the number of
generators plus one is at most PYTHON_SEARCH_WORK, such as the leaves
of an expression, are searched in plain Python from one seed at a
time: there the kernel's fixed cost per call and per level outweighs
its work.

Telemetry.  OrbitCount.states counts the visited states, the work done.
OrbitCount.tuples_visited counts the tuples those states settle,
n! / prod mu_i! each, so it ends at d (d - 1) ... (d - n + 1) or d^n.
Two budgets protect the caller: a tuple budget, checked against
tuples_visited after each generator step of every search, and an
element budget on group closure (only stabilizer_bound_check enumerates
group elements).  Hitting either raises CapacityError, never a wrong
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, permutations, repeat
from math import comb, factorial, prod

import numpy as np

from .errors import CapacityError

DEFAULT_TUPLE_BUDGET = 10**7
DEFAULT_ELEMENT_BUDGET = 10**6
MAX_TUPLE_STATES = 1 << 28
MAX_TRUNC_DEGREE = 4096
# states times (generators + 1) up to which the plain Python search runs;
# the two searches took equal time at about 800 on a 2-core x86 host
PYTHON_SEARCH_WORK = 1 << 10


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

    ``states`` is the number of sets (injective counts) or multisets of
    n points the search visited, ``tuples_visited`` the number of
    tuples they settle, and ``levels`` the number of BFS levels it
    expanded, summed over its seeds; all three are deterministic for a
    given group, n and injectivity flag.
    """

    n: int
    injective: bool
    count: int
    tuples_visited: int
    levels: int
    states: int


def _budget_error(budget: int, total: int, domain: int, n: int, injective: bool) -> CapacityError:
    kind = "injective" if injective else "all"
    return CapacityError(
        f"tuple budget {budget} exceeded after visiting {total} tuples"
        f" (orbits on {kind} {n}-tuples of degree {domain})"
    )


def _generate(gens, degree: int) -> tuple[list[tuple[int, ...]], set[tuple[int, ...]]]:
    """The generators that each enlarge the group generated so far, in
    order, and the elements of the group they all generate."""
    elements = {tuple(range(degree))}
    kept: list[tuple[int, ...]] = []
    for g in gens:
        if g in elements:
            continue
        kept.append(g)
        queue = list(elements)
        while queue:
            x = queue.pop()
            for k in kept:
                y = tuple([k[i] for i in x])
                if y not in elements:
                    elements.add(y)
                    queue.append(y)
    return kept, elements


def _merge_batch(keys: np.ndarray, weights: np.ndarray, s: int) -> tuple[int, int]:
    """Orbits on states and on tuples of one batch, from its meetings.

    A key packs (a, b, e): a state that seed a reached had been reached
    from seed b, so some group element maps point i of seed a to point
    e[i] of seed b.  Each seed takes the smallest seed it is linked to
    as its root, with a potential rho that maps its points to the
    root's.  Every key then gives rho_b e rho_a^-1, an element of K,
    the group that the stabilizer of the root's state induces on its
    points, and the elements of all keys generate K (Schreier's lemma).
    The orbit adds weight / |K| orbits on tuples.
    """
    seeds = weights.size
    ident = np.arange(s)[:, None]
    pair, code = np.divmod(keys, s**s)
    a, b = np.divmod(pair, 256)
    a -= 1
    b -= 1
    e = code // s**ident % s
    cross = np.flatnonzero(a != b)
    src = np.concatenate([a[cross], b[cross]])
    dst = np.concatenate([b[cross], a[cross]])
    back = np.empty_like(e[:, cross])
    np.put_along_axis(back, e[:, cross], ident, axis=0)
    step = np.concatenate([e[:, cross], back], axis=1)
    root = np.arange(seeds)
    rho = np.repeat(ident, seeds, axis=1)
    while True:
        # each seed that meets a smaller root moves to the smallest one
        better = np.flatnonzero(root[dst] < root[src])
        if better.size == 0:
            break
        better = better[np.lexsort((root[dst[better]], src[better]))]
        first = np.ones(better.size, dtype=bool)
        first[1:] = src[better[1:]] != src[better[:-1]]
        better = better[first]
        x, y = src[better], dst[better]
        rho[:, x] = np.take_along_axis(rho[:, y], step[:, better], axis=0)
        root[x] = root[y]
    rho_inv = np.empty_like(rho)
    np.put_along_axis(rho_inv, rho, ident, axis=0)
    elem = rho[np.take_along_axis(e, rho_inv[:, a], axis=0), b]
    moved = (elem != ident).any(axis=0)
    heads = root == np.arange(seeds)
    count = int(weights[heads].sum())
    if moved.any():
        by_root: dict[int, list] = {}
        for key in np.unique(root[a[moved]] * s**s + (elem[:, moved] * s**ident).sum(axis=0)).tolist():
            r, code = divmod(key, s**s)
            by_root.setdefault(r, []).append(tuple(code // s**i % s for i in range(s)))
        for r, gens in by_root.items():
            w = int(weights[r])
            count -= w - w // len(_generate(gens, s)[1])
    return int(heads.sum()), count


def _bfs_orbits_python(gens, domain: int, n: int, injective: bool, budget: int):
    """The same search in plain Python, one seed at a time.

    A state maps to the ordering it was first reached in, as a tuple of
    its seed's distinct points; a generator image that lands on a known
    state in another ordering gives a Schreier element directly.
    """
    pool = combinations if injective else combinations_with_replacement
    n_fact = factorial(n)
    frames: dict[tuple[int, ...], tuple[int, ...]] = {}
    count = tuples = levels = 0
    for seed in pool(range(domain), n):
        if seed in frames:
            continue
        points = tuple(sorted(set(seed)))
        mult = [seed.count(p) for p in points]
        weight = n_fact // prod(map(factorial, mult))
        frames[seed] = points
        tuples += weight
        if tuples > budget:
            raise _budget_error(budget, tuples, domain, n, injective)
        frontier = [points]
        schreier = []
        while frontier and gens:
            levels += 1
            nxt = []
            for g in gens:
                for row in frontier:
                    img = tuple([g[p] for p in row])
                    if injective:
                        state = tuple(sorted(img))
                    else:
                        state = tuple(sorted(chain.from_iterable(map(repeat, img, mult))))
                    old = frames.get(state)
                    if old is None:
                        frames[state] = img
                        nxt.append(img)
                        tuples += weight
                    elif old != img:
                        schreier.append(tuple([old.index(p) for p in img]))
                if tuples > budget:
                    raise _budget_error(budget, tuples, domain, n, injective)
            frontier = nxt
        count += weight // len(_generate(schreier, len(points))[1])
    return count, tuples, len(frames), levels


def _bfs_orbits_numpy(gens: np.ndarray, domain: int, n: int, injective: bool, budget: int):
    """The multi-source BFS over ranked states (module docstring)."""
    d = domain
    s = n if injective else min(n, d)
    shift = 0 if injective else 1
    width = d + shift * (n - 1)
    # pas[k, x] = C(x, k).  A state is a sorted tuple p_0 <= ... <= p_{n-1}
    # (strictly increasing for sets); with q_i = p_i + shift * i its rank
    # sum_i C(q_i, i + 1) numbers the C(width, n) states from 0.
    pas = np.zeros((n + 1, width + n + 1), dtype=np.int64)
    pas[0] = 1
    for k in range(1, n + 1):
        np.cumsum(pas[k - 1, :-1], out=pas[k, 1:])
    size = int(pas[n, width])
    # term[j, p]: the rank term of point p at sorted position j.  For
    # multisets a frontier row is padded with the sentinel points
    # d..d+s-1, fixed by every generator, and cum[j] sums the terms of
    # the positions below j, zero at the sentinels.
    point = np.min_scalar_type(-(d + s))
    term = np.stack([pas[j + 1, shift * j : shift * j + d] for j in range(n)])
    if injective:
        term = term.reshape(-1)
        table = gens.astype(point)
    else:
        cum = np.zeros((n + 1, d + s), dtype=np.int64)
        np.cumsum(term, axis=0, out=cum[1:, :d])
        cum = cum.reshape(-1)
        pad = np.broadcast_to(np.arange(d, d + s), (gens.shape[0], s))
        table = np.concatenate([gens, pad], axis=1).astype(point)
    # an ordering of s points as its lexicographic rank (one byte up to
    # s = 5), looked up by its first s - 1 digits in base s
    perms = np.array(list(permutations(range(s))), dtype=np.int8).reshape(-1, s)
    ranked = np.uint8 if perms.shape[0] <= 256 else np.uint16
    radix = s ** np.arange(s - 1, dtype=np.int64)
    lex = np.zeros(s ** (s - 1), dtype=ranked)
    lex[radix @ perms[:, :-1].T] = np.arange(perms.shape[0])
    inverses = np.argsort(perms, axis=1).astype(np.int8).reshape(-1)
    digits = s ** np.arange(s, dtype=np.int64)[:, None]
    n_fact = factorial(n)

    # label[r]: 0 unvisited, else the label 1..254 of the seed of its
    # batch that reached state r; frame[r]: the rank of the ordering of
    # the seed's points it was first reached in (there is nothing to
    # order with one point, and nothing reached without generators)
    label = np.zeros(size, dtype=np.uint8)
    ngens = gens.shape[0]
    frame = np.zeros(size, dtype=ranked) if ngens and s > 1 else None

    # A batch seeds the next unvisited states in scan order, as many as
    # fill about one chunk of states at the mean orbit size so far.  The
    # group is finite, so forward reachability along the generators is
    # exactly the orbit: earlier batches leave only closed orbits behind,
    # a batch never reaches a state that an earlier one labelled, and
    # every batch reuses the labels 1..254.
    chunk = 1 << 16
    count = tuples = states = levels = orbits = 0
    scan = 0
    while scan < size:
        want = min(max(chunk * orbits // states, 1), 254) if states else 1
        seeds = []
        while scan < size:
            free = np.flatnonzero(label[scan : scan + (chunk >> 4)] == 0)[:want]
            seeds.append(scan + free)
            want -= free.size
            if want == 0:
                scan += int(free[-1]) + 1
                break
            scan += chunk >> 4
        seed_rank = np.concatenate(seeds)
        nseeds = seed_rank.size
        if nseeds == 0:
            break
        flab = np.arange(1, nseeds + 1, dtype=np.uint8)
        label[seed_rank] = flab
        # unrank the seeds: q_i is the largest q with C(q, i + 1) <= rest
        rest = seed_rank.copy()
        pts = np.empty((n, nseeds), dtype=np.int64)
        for i in range(n - 1, -1, -1):
            q = np.searchsorted(pas[i + 1, :width], rest, side="right") - 1
            rest -= pas[i + 1, q]
            pts[i] = q - shift * i
        if injective:
            frontier = pts.astype(point)
            weights = np.full(nseeds, n_fact, dtype=np.int64)
        else:
            # a seed's distinct points, each with its multiplicity
            first = np.ones((n, nseeds), dtype=bool)
            first[1:] = pts[1:] != pts[:-1]
            slot = np.cumsum(first, axis=0) - 1
            cols = np.arange(nseeds)
            frontier = np.repeat(np.arange(d, d + s, dtype=point)[:, None], nseeds, axis=1)
            frontier[slot, cols] = pts
            seed_mult = np.bincount((slot * nseeds + cols).ravel(), minlength=s * nseeds)
            seed_mult = np.pad(seed_mult.reshape(s, nseeds), ((0, 0), (1, 0))).astype(np.int8)
            weights = np.array(
                [n_fact // prod(map(factorial, m)) for m in seed_mult[:, 1:].T.tolist()],
                dtype=np.int64,
            )
            seed_weight = np.concatenate([[0], weights])
        states += nseeds
        tuples += int(weights.sum())
        if tuples > budget:
            raise _budget_error(budget, tuples, d, n, injective)

        keys = []
        while frontier.shape[1] and ngens:
            levels += 1
            nxt = []
            nxt_lab = []
            reached = []
            if not injective:
                mult = seed_mult.take(flab, axis=1)
                span = mult * np.intp(d + s)
            for g in range(ngens):
                img = table[g].take(frontier)
                # less[i, j]: point j of the row lies below point i;
                # order[i]: how many of its points lie below point i
                less = img[:, None] > img[None]
                order = less.sum(axis=1, dtype=np.int8)
                code = lex.take(radix @ order[:-1])
                if injective:
                    at = order.astype(np.intp)
                    at *= d
                    at += img
                    rank = term.take(at).sum(axis=0)
                else:
                    at = (less * mult[None]).sum(axis=1, dtype=np.intp)
                    at *= d + s
                    at += img
                    rank = cum.take(at + span).sum(axis=0) - cum.take(at).sum(axis=0)
                new = label.take(rank) == 0
                fresh = rank[new]
                new_lab = flab[new]
                label[fresh] = new_lab
                if frame is not None:
                    frame[fresh] = code[new]
                nxt.append(img.compress(new, axis=1))
                nxt_lab.append(new_lab)
                reached.append((rank, code, order))
                states += fresh.size
                tuples += fresh.size * n_fact if injective else int(seed_weight.take(new_lab).sum())
                if tuples > budget:
                    raise _budget_error(budget, tuples, d, n, injective)
            # Every image whose state carries another label, or was first
            # reached in another ordering, records a key: the seeds of the
            # two labels met, or one seed found a Schreier element.
            rank, code, order = (np.concatenate(x, axis=-1) for x in zip(*reached))
            la = np.tile(flab, ngens).astype(np.int64)
            lb = label.take(rank).astype(np.int64)
            if frame is None:
                keep = la != lb
                elem = 0
            else:
                fy = frame.take(rank).astype(np.int64)
                keep = (la != lb) | (fy != code)
                elem = inverses.take(fy[keep] * s + order.compress(keep, axis=1))
                elem = (elem * digits).sum(axis=0)
            if keep.any():
                keys.append(np.unique((la[keep] * 256 + lb[keep]) * s**s + elem))
            frontier = np.concatenate(nxt, axis=1)
            flab = np.concatenate(nxt_lab)
        if keys:
            found, tuple_orbits = _merge_batch(np.unique(np.concatenate(keys)), weights, s)
        else:
            found, tuple_orbits = nseeds, int(weights.sum())
        orbits += found
        count += tuple_orbits
    return count, tuples, states, levels


def _count_orbits(group: FinPermGroup, n: int, injective: bool, budget: int) -> OrbitCount:
    if n < 0:
        raise ValueError("tuple length must be non-negative")
    if n == 0:
        return OrbitCount(0, injective, 1, 0, 0, 0)
    if injective and n > group.degree:
        return OrbitCount(n, injective, 0, 0, 0, 0)
    size = group.degree**n
    if size > MAX_TUPLE_STATES:
        raise CapacityError(
            f"state space {group.degree}^{n} = {size} exceeds the cap {MAX_TUPLE_STATES}"
        )
    d = group.degree
    gens = group.generators
    states = comb(d, n) if injective else comb(d + n - 1, n)
    if states * (len(gens) + 1) <= PYTHON_SEARCH_WORK:
        found = _bfs_orbits_python(gens, d, n, injective, budget)
    else:
        table = np.array(gens, dtype=np.int64).reshape(len(gens), d)
        found = _bfs_orbits_numpy(table, d, n, injective, budget)
    count, total, states, levels = found
    return OrbitCount(n, injective, count, total, levels, states)


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

    This is the one operation that enumerates group elements.  The
    stabilizer's elements are taken in order and each is kept as a
    generator only if the ones kept before do not generate it; that
    closure stays inside the enumerated elements, so the element budget,
    which applies here only, bounds it too.
    """
    if not 0 <= a < group.degree:
        raise ValueError(f"point {a} outside domain of size {group.degree}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n + 1 > group.degree:
        raise ValueError("need n + 1 points in the domain")
    elements = _enumerate_elements(group, element_budget)
    stab_gens, _ = _generate((e for e in elements if e[a] == a), group.degree)
    stabilizer = FinPermGroup(group.degree, tuple(stab_gens))
    l_n_stab = count_orbits_injective(stabilizer, n, budget=tuple_budget).count
    l_n = count_orbits_injective(group, n, budget=tuple_budget).count
    l_n1 = count_orbits_injective(group, n + 1, budget=tuple_budget).count
    return l_n_stab <= n * l_n + l_n1
