"""Independent brute-force oracles for the test suite.

Everything here is written against the definitions, not against the
package: set partitions are enumerated by block insertion, orbits are
counted by minimising over the full element list of the group (or, for
groups too large for that, by a search over sets of points), graph
membership tries every injection, flipped paths toggle one edge at a
time and the flip recovery formula is read pair by pair.  Values frozen
below were computed by these routines (and agree with the library under
test only if both are right).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations, combinations_with_replacement, permutations, product, repeat
from math import comb, factorial
from typing import Iterator

# first values of the partition count (number of set partitions of [n])
BELL = (
    1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597,
    27644437, 190899322, 1382958545, 10480142147, 82864869804,
    682076806159, 5832742205057, 51724158235372,
)

# pairs of partitions (P, Q) with P refining Q
REFINEMENT_PAIRS = (
    1, 1, 3, 12, 60, 358, 2471, 19302, 167894, 1606137, 16733779,
    188378402, 2276423485, 29367807524, 402577243425, 5840190914957,
)

# pairs of partitions whose meet is the all-singletons partition
MEET_TRIVIAL = (1, 1, 3, 15, 113, 1153, 15125, 245829, 4815403)

# self-inverse permutations of [n]
INVOLUTIONS = (1, 1, 2, 4, 10, 26, 76, 232)


def iter_partitions(n: int) -> Iterator[list[frozenset[int]]]:
    """Every set partition of {0..n-1} once, by inserting points one at a
    time: point x joins each block of a partition of {0..x-1} in turn, or
    opens a block of its own.  Depth first, so memory stays linear in n."""

    def grow(part: list[frozenset[int]], x: int) -> Iterator[list[frozenset[int]]]:
        if x == n:
            yield part
            return
        for i in range(len(part)):
            yield from grow(part[:i] + [part[i] | {x}] + part[i + 1 :], x + 1)
        yield from grow(part + [frozenset([x])], x + 1)

    return grow([], 0)


def brute_partitions(n: int) -> list[list[frozenset[int]]]:
    """All set partitions of {0..n-1}."""
    return list(iter_partitions(n))


def brute_bell(n: int) -> int:
    return len(brute_partitions(n))


def bell_by_triangle(n: int) -> int:
    """B_n from the Bell triangle: each row opens with the last entry of
    the row above, and each further entry adds the entry above it to its
    left neighbour.  Row n opens with B_n."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def refines(p: list[frozenset[int]], q: list[frozenset[int]]) -> bool:
    return all(any(block <= other for other in q) for block in p)


def brute_refinement_pairs(n: int) -> int:
    """Pairs (P, Q) with P refining Q.  The double loop is exact but
    quadratic in the partition count, so past n = 6 the count is taken
    per Q as a product over blocks: the refinements of Q restricted to
    one block are just the partitions of that block."""
    parts = brute_partitions(n)
    if n <= 6:
        return sum(refines(p, q) for p in parts for q in parts)
    return sum(
        _prod(brute_bell(len(block)) for block in q) for q in parts
    )


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def brute_meet_trivial(n: int) -> int:
    """Pairs of partitions every two blocks of which share at most one
    point."""
    parts = brute_partitions(n)
    count = 0
    for p in parts:
        for q in parts:
            if all(len(bp & bq) <= 1 for bp in p for bq in q):
                count += 1
    return count


def meet_trivial_by_meets(n_max: int) -> list[int]:
    """A059849 a_0..a_{n_max} without Stirling numbers of the first kind.

    Every pair of partitions of [n] has exactly one meet R.  The pairs
    whose meet is R are the pairs above R whose images on R's k blocks
    have the discrete meet, so B_n^2 = sum_k S(n, k) * a_k.  S(n, n) = 1,
    so the system is solved from the bottom up, one S row at a time."""
    a: list[int] = []
    row = [1]  # S(n, k), k = 0..n
    for n in range(n_max + 1):
        if n:
            above = row + [0]
            row = [0] + [above[k - 1] + k * above[k] for k in range(1, n + 1)]
        a.append(bell_by_triangle(n) ** 2 - sum(row[k] * a[k] for k in range(n)))
    return a


def brute_involutions(n: int) -> int:
    return sum(
        all(p[p[i]] == i for i in range(n)) for p in permutations(range(n))
    )


def involutions_by_recurrence(n: int) -> list[int]:
    """Involution numbers a_0..a_n: point n is fixed or swapped with one
    of the n - 1 others, so a_n = a_{n-1} + (n - 1) * a_{n-2}."""
    a = [1, 1]
    for m in range(2, n + 1):
        a.append(a[m - 1] + (m - 1) * a[m - 2])
    return a[: n + 1]


def convolution_by_comb(a, b) -> list[int]:
    """c_n = sum_k C(n, k) * a_k * b_{n-k}, each binomial from math.comb."""
    return [sum(comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


def exp_shift_by_comb(a) -> list[int]:
    """b_0 = 1, b_n = sum_{k=1}^{n} C(n-1, k-1) * a_k * b_{n-k}, each
    binomial from math.comb."""
    b = [1]
    for n in range(1, len(a)):
        b.append(sum(comb(n - 1, k - 1) * a[k] * b[n - k] for k in range(1, n + 1)))
    return b


def stirling_by_comb(a) -> list[int]:
    """s_n = sum_k S(n, k) * a_k, each Stirling number of the second kind
    from the explicit sum S(n, k) = sum_j (-1)^j C(k, j) (k - j)^n / k!."""

    def s2(n: int, k: int) -> int:
        return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)

    return [sum(s2(n, k) * a[k] for k in range(n + 1)) for n in range(len(a))]


def lseq_by_x_basis(tree, n_max: int) -> list[int]:
    """l_0..l_{n_max} of an expression tree, every level in the plain
    (x) basis.  A tree is ("finite", degree, gens), whose counts come
    from brute_orbit_count, ("prod", factor, factor, ...), combined by
    convolution_by_comb, or ("wr", base), by exp_shift_by_comb."""
    head = tree[0]
    if head == "finite":
        _, degree, gens = tree
        return [brute_orbit_count(gens, degree, n, True) if n <= degree else 0 for n in range(n_max + 1)]
    if head == "prod":
        return reduce(convolution_by_comb, (lseq_by_x_basis(f, n_max) for f in tree[1:]))
    assert head == "wr", tree
    return exp_shift_by_comb(lseq_by_x_basis(tree[1], n_max))


def brute_exp_shift(a) -> list[Fraction]:
    """The sequence whose EGF is exp(f - 1), f the EGF of a (a_0 = 1),
    by series composition: the partial sums of sum_k (f - 1)^k / k!,
    truncated at the length of a, in exact rationals.  Entry n is the
    coefficient times n!, so a non-integral value shows as a Fraction."""
    order = len(a) - 1
    g = [Fraction(v, factorial(i)) for i, v in enumerate(a)]
    g[0] -= 1
    acc = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # g^0
    for k in range(order + 1):
        inv = Fraction(1, factorial(k))
        for i in range(order + 1):
            acc[i] += power[i] * inv
        nxt = [Fraction(0)] * (order + 1)
        for i in range(order + 1):
            if power[i] == 0:
                continue
            for j in range(order + 1 - i):
                nxt[i + j] += power[i] * g[j]
        power = nxt
    return [c * factorial(n) for n, c in enumerate(acc)]


def brute_wreath(inner, outer) -> list[Fraction]:
    """The sequence whose EGF is f_h(f_g - 1), f_g the EGF of inner
    (inner_0 = 1) and f_h that of outer, by Horner steps on truncated
    series in exact rationals; both must have the same length.  Entry n
    is the coefficient times n!."""
    order = len(inner) - 1
    assert len(outer) == order + 1 and inner[0] == 1
    g = [Fraction(v, factorial(i)) for i, v in enumerate(inner)]
    g[0] = Fraction(0)
    acc = [Fraction(outer[order], factorial(order))] + [Fraction(0)] * order
    for i in range(order - 1, -1, -1):
        nxt = [Fraction(0)] * (order + 1)
        for p, c in enumerate(acc):
            for q in range(order + 1 - p):
                nxt[p + q] += c * g[q]
        nxt[0] += Fraction(outer[i], factorial(i))
        acc = nxt
    return [c * factorial(n) for n, c in enumerate(acc)]


def group_closure(gens, degree: int) -> list[tuple[int, ...]]:
    """Every element of the permutation group the generators produce."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[v] for v in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def brute_orbit_count(gens, degree: int, n: int, injective: bool) -> int:
    """Orbits on n-tuples, counted as distinct canonical (minimal)
    images over the full element list."""
    elements = group_closure(gens, degree)
    if injective:
        pool = permutations(range(degree), n)
    else:
        pool = product(range(degree), repeat=n)
    canon = set()
    for t in pool:
        canon.add(min(tuple(g[v] for v in t) for g in elements))
    return len(canon)


def _order_in_sym(gens, s: int) -> int:
    """Order of the subgroup of Sym(s) that the generators produce.  A
    generator already in the group built so far adds nothing; a new one
    is kept, and every element found so far is multiplied again by all
    kept generators."""
    elements = {tuple(range(s))}
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
    return len(elements)


def orbit_count_by_sets(gens, degree: int, n: int, injective: bool) -> tuple[int, int]:
    """Orbits on injective or all n-tuples, and the tuples they settle,
    by a search over the sets (multisets for all tuples) of n points.

    A set X with distinct points p_1..p_s of multiplicities mu_1..mu_s
    carries n! / prod mu_i! tuples; only the identity of K, the group
    that the stabilizer of X induces on its points, fixes one of them,
    so they fall into (n! / prod mu_i!) / |K| orbits.  The search grows
    each orbit of sets from a seed, one generator step at a time, and
    remembers for each set the ordering of the seed's points it was
    first reached in.  A generator that maps a reached set onto a
    reached set in another ordering gives an element of K, and over the
    whole orbit these generate K (Schreier's lemma).  The second value
    is the number of tuples over all visited sets, perm(degree, n) or
    degree^n.
    """
    pool = combinations if injective else combinations_with_replacement
    n_fact = factorial(n)
    frames: dict[tuple[int, ...], tuple[int, ...]] = {}
    count = tuples = 0
    for seed in pool(range(degree), n):
        if seed in frames:
            continue
        points = tuple(sorted(set(seed)))
        mult = [seed.count(p) for p in points]
        weight = n_fact // _prod(factorial(m) for m in mult)
        frames[seed] = points
        frontier = [points]
        schreier = []
        size = 1
        while frontier:
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
                        size += 1
                    elif old != img:
                        schreier.append(tuple([old.index(p) for p in img]))
            frontier = nxt
        tuples += size * weight
        count += weight // _order_in_sym(schreier, len(points))
    return count, tuples


def brute_stirling2(n: int, k: int) -> int:
    """Partitions of {0..n-1} into k blocks, counted once per n for every k."""
    row = _blocks_histogram(n)
    return row[k] if k < len(row) else 0


@lru_cache(maxsize=None)
def _blocks_histogram(n: int) -> tuple[int, ...]:
    row = [0] * (n + 1)
    for part in iter_partitions(n):
        row[len(part)] += 1
    return tuple(row)


def brute_embeds(pat: list[set[int]], host: list[set[int]]) -> bool:
    """Induced embedding test trying every injection."""
    p, h = len(pat), len(host)
    if p > h:
        return False
    for img in permutations(range(h), p):
        if all(
            (img[b] in host[img[a]]) == (b in pat[a])
            for a in range(p)
            for b in range(a + 1, p)
        ):
            return True
    return False


def adjacency_fault(v: int, adj) -> str | None:
    """The first fault of v adjacency bitsets, read pair by pair in
    vertex order: a bit at or past v, a self-loop, or a pair (u, w) with
    w in adj[u] but u not in adj[w]; None for a simple graph."""
    for u in range(v):
        if adj[u] >> v:
            return f"adjacency of vertex {u} mentions vertices >= {v}"
        if adj[u] >> u & 1:
            return f"self-loop at vertex {u}"
        for w in range(v):
            if adj[u] >> w & 1 and not adj[w] >> u & 1:
                return f"asymmetric adjacency between {u} and {w}"
    return None


def flipped_paths_by_toggles(k: int, pairs) -> list[int]:
    """Adjacency bitsets of three disjoint paths on positions 0..k-1,
    vertex (i, j) numbered i*k + j, with one edge toggled at a time: for
    each unordered pair {j, j'} of positions among the ordered ``pairs``,
    every vertex pair between position j and position j' (for j = j',
    between distinct paths)."""
    adj = [0] * (3 * k)

    def toggle(x: int, y: int) -> None:
        adj[x] ^= 1 << y
        adj[y] ^= 1 << x

    for i in range(3):
        for j in range(k - 1):
            toggle(i * k + j, i * k + j + 1)
    for j, j2 in sorted({(min(a, b), max(a, b)) for a, b in pairs}):
        for i in range(3):
            for i2 in range(3):
                if j != j2 or i < i2:
                    toggle(i * k + j, i2 * k + j2)
    return adj


def flip_recover_by_pairs(adj, colors) -> list[int]:
    """The recovery formula phi evaluated pair by pair: for x != y in one
    class C_i, phi(x, y) holds iff "some z in C_{i+1} has the same
    neighbours in C_{i+2} as y and is adjacent to x" holds exactly when
    xy is a non-edge.  Raises ValueError at the first pair, in vertex
    order, where phi(x, y) and phi(y, x) differ."""
    v = len(adj)
    members = [[u for u in range(v) if colors[u] == c] for c in range(3)]

    def view(u: int, c: int) -> set[int]:
        return {w for w in members[c] if adj[u] >> w & 1}

    def phi(x: int, y: int, i: int) -> bool:
        near, far = members[(i + 1) % 3], (i + 2) % 3
        psi = any(adj[x] >> z & 1 and view(z, far) == view(y, far) for z in near)
        return psi == (not adj[x] >> y & 1)

    out = [0] * v
    for i in range(3):
        for x, y in combinations(members[i], 2):
            fwd = phi(x, y, i)
            if fwd != phi(y, x, i):
                raise ValueError(f"recovery formula is asymmetric at ({x}, {y})")
            if fwd:
                out[x] |= 1 << y
                out[y] |= 1 << x
    return out


def _mask_to_sets(n: int, mask: int) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    bit = 0
    for i in range(n):
        for j in range(i + 1, n):
            if mask >> bit & 1:
                adj[i].add(j)
                adj[j].add(i)
            bit += 1
    return adj


def brute_count_labelled(mode: str, graphs: list[list[set[int]]], n: int) -> int:
    """Labelled members on [n] of the class the graphs generate or
    forbid, deciding membership with the all-injections embedding
    test."""
    count = 0
    for mask in range(1 << (n * (n - 1) // 2)):
        adj = _mask_to_sets(n, mask)
        if mode == "generators":
            member = any(brute_embeds(adj, g) for g in graphs)
        else:
            member = not any(brute_embeds(g, adj) for g in graphs)
        count += member
    return count


def brute_order_witness_exists(universe: int, tuples, n: int) -> bool:
    """Try every pair of sequences; sides are distinct internally."""
    pool = range(universe)
    for a in permutations(pool, n):
        for b in permutations(pool, n):
            if all(
                ((a[i], b[j]) in tuples) == (i < j)
                for i in range(n)
                for j in range(n)
            ):
                return True
    return False


def brute_coding_witness_exists(universe: int, tuples, m: int, k: int = 1) -> bool:
    """Try every side pair and every table assignment, checking the
    witness definition literally: restricted to the table's point set,
    the fiber over (x_i, y_j) must be exactly the table entry.  Sides
    are the k-tuples t[:k] and t[k:2k] of the (2k+1)-tuples t, and the
    point is t[2k]."""
    tupleset = set(tuples)
    xs = sorted({t[:k] for t in tuples})
    ys = sorted({t[k : 2 * k] for t in tuples})
    cells = [(i, j) for i in range(m) for j in range(m)]
    for xc in permutations(xs, m):
        for yc in permutations(ys, m):
            fibs = [
                [z for z in range(universe) if xc[i] + yc[j] + (z,) in tupleset]
                for i, j in cells
            ]
            for flat in product(*fibs):
                zset = set(flat)
                if len(zset) != m * m:
                    continue
                if all(
                    (xc[i] + yc[j] + (z,) in tupleset) == (z == flat[idx])
                    for idx, (i, j) in enumerate(cells)
                    for z in zset
                ):
                    return True
    return False


def brute_semi_induced_order(v: int, adj: list[set[int]], lax: bool) -> int:
    """Largest t with sequences a_0..a_{t-1} and b_0..b_{t-1}, each
    injective within its side, such that b_j is adjacent to a_i exactly
    when i <= j.  Strict mode also makes the two sides disjoint.  Every
    injective a is tried, with every b whose entry b_j matches column j
    of the pattern on its own; t grows until none fits, since a
    half-graph of order t contains one of order t - 1."""

    def fits(t: int) -> bool:
        for a in permutations(range(v), t):
            columns = [
                [
                    w
                    for w in range(v)
                    if (lax or w not in a)
                    and all((w in adj[a[i]]) == (i <= j) for i in range(t))
                ]
                for j in range(t)
            ]
            if any(len(set(b)) == t for b in product(*columns)):
                return True
        return False

    t = 0
    while t < v and fits(t + 1):
        t += 1
    return t
