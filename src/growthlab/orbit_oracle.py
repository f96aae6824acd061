"""Orbit counting for finite permutation groups, by stabilizer descent.

Ground truth for the growth-sequence calculus: the orbits of a generated
group G on injective n-tuples, or on all n-tuples, are counted from its
generators alone.  The count shares no formula with the sequence
calculus.  It rests on one fact about orbits (Cameron, Oligomorphic
Permutation Groups, 1990): two tuples that start with the same point x
lie in one orbit of G if and only if their tails lie in one orbit of
the stabilizer G_x.  So the orbits of G on n-tuples are, over the orbits
of G on points, one point x from each, the orbits of G_x on (n - 1)-tuples
of the other points, or of all points for counts of all tuples.

Descent.  A node holds the pointwise stabilizer H of a tuple prefix, by
generators, and the free points: those outside the prefix, or all points
for counts of all tuples (H fixes the prefix, so its points are then
fixed points of H).  The node finds the orbits of H on the free points.
Each orbit O is one child, whose prefix takes the first point x of O.
Along the generator edges of O (its Schreier tree) the node builds,
for every y in O, an element u_y that maps x to y.  By Schreier's
lemma the elements u_y s u_{s(y)}^-1 (applied left to right), over y in
O and generators s of H, generate H_x.  Sims' filter (Sims, Computational
methods in the study of permutation groups, 1970; Seress, Permutation
Group Algorithms, 2003) keeps at most one of them per pair of first
moved point i and its image: an element whose pair is taken is divided
by the kept one, which leaves it fixing i and every point before i,
until it is new or the identity.  So a node has at most d (d - 1) / 2
generators on d points.  With r positions left, a node returns its
orbits on j-tuples for j = 0..r, each the sum of its children's orbits
on (j - 1)-tuples, so one descent to depth n counts every length up to
n.  There is no array per state: each level of the descent holds its
generators and, while it builds a child, one transversal of at most d
elements, all permutations of the d points.

Three rules keep the work small.  At the last position a node only
counts the orbits.  A trivial H closes with the falling factorials
perm(f, j) of its f free points, or d^j for counts of all tuples.  And
a node expands one orbit per class of interchangeable orbits.  Two
orbits O and O' of H on the free points are interchangeable when a
bijection phi: O -> O' has phi(s(p)) = s(phi(p)) for every generator s
of H and every p in O.  The permutation pi that swaps O with O' along
phi and fixes every other point then commutes with every generator, so
with H, and maps the free points to themselves.  So H_phi(x) =
pi H_x pi^-1, and the children at x and at phi(x) count the same
orbits: the node descends from the first orbit of a class only, and
counts its child once per orbit of the class.  The points that H fixes
are one class, whose child keeps the generators of H, as H_x = H.  A
map phi is found by following the generator edges of O from a guess
phi(x) = t, which either defines phi or fails.  Orbits are compared
only within a bucket of equal size that the same generators fix
pointwise, and t is guessed only where its cycle lengths under the
generators equal those of x.  So a node with no interchangeable orbits
pays about |O| |S| steps per orbit O, with S its generators, as it did
to find the orbit.  The work grows with the classes of orbits of the
prefixes, not with the number of tuples or sets of points.

Telemetry.  OrbitCount.nodes counts the stabilizers whose orbits were
computed and OrbitCount.sifted the Schreier elements put through the
filter.  The tuple budget caps perm(d, t), or d^t for all tuples, with
t the depth of the descent: a count over budget raises CapacityError
before it starts, never with a wrong count.  This caps the size of the
tuple space, not the work of the descent.
"""

from __future__ import annotations

from math import perm
from operator import itemgetter

from .errors import CapacityError
from .record import Record

DEFAULT_TUPLE_BUDGET = 10**7


class FinPermGroup(Record):
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


class OrbitCount(Record):
    """Result of one orbit count, with telemetry.

    ``counts`` holds the orbits on k-tuples for k = 0..n, ``count`` is
    counts[n] and ``tuples_visited`` the n-tuples counted, perm(d, n)
    or d^n (0 for n = 0).  ``nodes`` and ``sifted`` are the stabilizers
    expanded and the Schreier elements sifted.  All are deterministic.
    """

    n: int
    injective: bool
    counts: tuple[int, ...]
    tuples_visited: int
    nodes: int
    sifted: int

    @property
    def count(self) -> int:
        return self.counts[self.n]


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(g)
    for p, q in enumerate(g):
        inv[q] = p
    return tuple(inv)


def _classes(gens: list, orbits: list[list[int]]) -> list[tuple[list[int], int]]:
    """The orbits in classes of interchangeable ones (module docstring):
    the first orbit of each class, with the number of orbits in it."""
    found = {}  # bucket key -> [[first orbit of a class, its size], ...]
    for orbit in orbits:
        if len(orbit) == 1:
            key = 1
        else:
            # the orbits of a class agree on their size and on which
            # generators fix them pointwise
            images = itemgetter(*orbit)
            fixed = tuple(orbit)
            key = (len(orbit), *[images(s) == fixed for s in gens])
        bucket = found.setdefault(key, [])
        if not bucket:
            bucket.append([orbit, 1])
        elif key == 1:
            # any two fixed points are interchangeable
            bucket[0][1] += 1
        else:
            lengths = _cycle_lengths(gens, orbit)
            for entry in bucket:
                first = entry[0]
                root = _cycle_lengths(gens, first)[first[0]]
                if any(lengths[t] == root and _commutes(gens, first, t) for t in orbit):
                    entry[1] += 1
                    break
            else:
                bucket.append([orbit, 1])
    return [(first, size) for bucket in found.values() for first, size in bucket]


def _cycle_lengths(gens: list, orbit: list[int]) -> dict[int, tuple[int, ...]]:
    """For each point of the orbit, the length of its cycle under each
    generator in turn."""
    lengths = {p: [] for p in orbit}
    for s in gens:
        done = set()
        for p in orbit:
            if p in done:
                continue
            cycle = [p]
            q = s[p]
            while q != p:
                cycle.append(q)
                q = s[q]
            done.update(cycle)
            for q in cycle:
                lengths[q].append(len(cycle))
    return {p: tuple(v) for p, v in lengths.items()}


def _commutes(gens: list, orbit: list[int], t: int) -> bool:
    """Whether x -> t, x the first point of the orbit, extends along the
    generator edges to a map phi with phi(s(p)) = s(phi(p)) for every
    generator s and every point p of the orbit.  Such a phi maps the orbit
    onto the orbit of t, so it is one-to-one when the two have one size."""
    phi = {orbit[0]: t}
    # the orbit lists its points in the order the generators reached them
    # from x, so phi is known at each y before its edges are followed
    for y in orbit:
        py = phi[y]
        for s in gens:
            image = s[py]
            if phi.setdefault(s[y], image) != image:
                return False
    return True


class _Descent:
    """One count: its constants, its counters, and the descent itself."""

    def __init__(self, degree: int, injective: bool):
        self.degree = degree
        self.injective = injective
        self.identity = tuple(range(degree))
        self.nodes = self.sifted = 0

    def descend(self, gens: list, free: list[int], r: int) -> list[int]:
        """Orbits of H, generated by gens, on the j-tuples that extend a
        prefix (module docstring), for j = 0..r."""
        if not gens:
            return [perm(len(free), j) if self.injective else self.degree**j for j in range(r + 1)]
        self.nodes += 1
        seen = set()
        orbits = []
        for x in free:
            if x in seen:
                continue
            orbit = [x]
            seen.add(x)
            for y in orbit:
                for g in gens:
                    z = g[y]
                    if z not in seen:
                        seen.add(z)
                        orbit.append(z)
            orbits.append(orbit)
        if r == 1:
            return [1, len(orbits)]
        counts = [1] + [0] * r
        for orbit, size in _classes(gens, orbits):
            x = orbit[0]
            # H_x = H when H fixes x
            child = gens if len(orbit) == 1 else self.stabilizer(gens, x)
            for j, c in enumerate(self.descend(child, self.after(free, x), r - 1), 1):
                counts[j] += size * c
        return counts

    def after(self, free: list[int], x: int) -> list[int]:
        """The free points of a child whose prefix takes x."""
        return [p for p in free if p != x] if self.injective else free

    def stabilizer(self, gens: list, x: int) -> list:
        """Generators of the stabilizer of x: the Schreier elements of its
        orbit under gens, through Sims' filter."""
        identity = self.identity
        # A permutation is the tuple of its images, and itemgetter(*g)(h)
        # is the product "g, then h".  u[y] maps x to y, v[y] = u[y]^-1.
        u = {x: identity}
        v = {x: identity}
        orbit = [x]
        kept = {}
        find = kept.get
        inverse = {}
        sifted = 0
        for y in orbit:
            from_x = itemgetter(*u[y])
            for s in gens:
                z = s[y]
                w = from_x(s)
                uz = u.get(z)
                if uz is None:
                    u[z] = w
                    v[z] = _inverse(w)
                    orbit.append(z)
                    continue
                if w == uz:
                    continue
                # u_y, then s, then u_z^-1 fixes x (Schreier's lemma)
                h = itemgetter(*w)(v[z])
                sifted += 1
                # Sims' filter: kept[i, j] has first moved point i and maps
                # it to j.  When h does too, "h, then kept[i, j]^-1" fixes i
                # and every point before it.
                i = 0
                while True:
                    while h[i] == i:
                        i += 1
                    key = (i, h[i])
                    k = find(key)
                    if k is None:
                        kept[key] = h
                        break
                    undo = inverse.get(key)
                    if undo is None:
                        undo = inverse[key] = _inverse(k)
                    h = itemgetter(*h)(undo)
                    if h == identity:
                        break
        self.sifted += sifted
        return list(kept.values())


def _count_orbits(group: FinPermGroup, n: int, injective: bool, budget: int) -> OrbitCount:
    if n < 0:
        raise ValueError("tuple length must be non-negative")
    if n == 0:
        return OrbitCount(0, injective, (1,), 0, 0, 0)
    d = group.degree
    # the tuples at the depth t the descent reaches; none are injective past d
    t = min(n, d) if injective else n
    size, space = (perm(d, t), f"perm({d}, {t})") if injective else (d**n, f"{d}^{n}")
    if size > budget:
        raise CapacityError(
            f"tuple budget {budget} exceeded by {space} = {size} tuples"
            f" (orbits on {'injective' if injective else 'all'} {n}-tuples of degree {d})"
        )
    descent = _Descent(d, injective)
    # the generators that move a point, each once
    gens = list(dict.fromkeys(g for g in group.generators if g != descent.identity))
    counts = descent.descend(gens, list(range(d)), t) + [0] * (n - t)
    tuples = perm(d, n) if injective else size
    return OrbitCount(n, injective, tuple(counts), tuples, descent.nodes, descent.sifted)


def count_orbits_injective(
    group: FinPermGroup,
    n: int,
    *,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> OrbitCount:
    """Orbits of the generated group on injective k-tuples, k = 0..n.

    1 for n = 0 without search.  Above the degree d the search stops at
    depth d, and the budget caps perm(d, d); the counts above d are 0.
    """
    return _count_orbits(group, n, True, budget)


def count_orbits_all(
    group: FinPermGroup,
    n: int,
    *,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> OrbitCount:
    """Orbits of the generated group on all k-tuples, k = 0..n."""
    return _count_orbits(group, n, False, budget)

