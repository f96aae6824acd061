"""Orbit counting for finite permutation groups, by stabilizer descent.

Ground truth for the growth-sequence calculus: the orbits of a generated
group G on injective n-tuples are counted from its generators alone.
The count shares no formula with the sequence calculus.  It rests on one
fact about orbits (Cameron, Oligomorphic Permutation Groups, 1990): two
tuples that start with the same point x lie in one orbit of G if and
only if their tails lie in one orbit of the stabilizer G_x.  So the
orbits of G on n-tuples are, over the orbits of G on points, one point x
from each, the orbits of G_x on (n - 1)-tuples of the other points.
The orbits on all n-tuples follow by the Stirling transform
(seq_core.stirling_transform), as an n-tuple factors through the
partition of its positions by coordinate equality.

Descent.  A node holds the pointwise stabilizer H of a tuple prefix, by
generators, and the free points: those outside the prefix.  The node
finds the orbits of H on the free points.  Each orbit O is one child,
whose prefix takes the first point x of O.  Along the generator edges
of O (its Schreier tree) the node builds, for every y in O, an element
u_y that maps x to y.  By Schreier's
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

Repeats.  Most Schreier elements of a stabilizer repeat one met before
in it, and two rules spare them the filter, while the filter keeps the
same elements in the same order.  (1) The filter keeps the set of the
Schreier elements it has sifted and does not sift one in that set
again.  Kept elements are never replaced, so a repeat would divide by
the same kept elements as before and end at the identity, or at the
element kept then, which divides to the identity.  (2) For y other than
x, let e be the generator of the tree edge into y, so that u_y = u_p e
with p = e^-1(y) reached before y.  If a generator s moves no point
that e moves, then s commutes with e and fixes p and y, which e moves,
so the element of y and s is u_y s u_y^-1 = u_p e s e^-1 u_p^-1 =
u_p s u_p^-1, the element of p and s, met before (s itself when p = x).
It is counted, but neither of its products is formed.  A bit mask of
the points each generator moves makes the test one AND.

Three rules keep the work small.  At the last position a node only
counts the orbits.  A trivial H closes with the falling factorials
perm(f, j) of its f free points.  And a node expands one orbit per
class of interchangeable orbits.  Two orbits O and O' of H on the free
points are interchangeable when a bijection phi: O -> O' has
phi(s(p)) = s(phi(p)) for every generator s of H and every p in O.
The permutation pi that swaps O with O' along phi and fixes every other
point then commutes with every generator, so with H, and maps the free
points to themselves.  So H_phi(x) =
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

Telemetry and budget.  OrbitCount.nodes counts the stabilizers whose
orbits were computed and OrbitCount.sifted the Schreier elements other
than the identity, repeats included, so neither depends on the rules
for repeats.  The descent spends the caller's errors.Budget as
it works, one unit per point it lists and per point image it reads or
writes.  The root spends d for its free points, a node |free| |S| for
the scan that finds its orbits, and a stabilizer d for each permutation
of the d points that it forms: its transversal, d (|S| + 1) per orbit
point other than x, before it forms any product or inverse, then each
Schreier element, quotient in the filter and inverse of a kept element
as it forms it.  The set of Schreier elements met holds only elements
so spent.  The test for interchangeable orbits spends |O| |S| for the
cycle lengths of an orbit O and for each guess t that it follows.  So
the budget bounds the work and the memory of the descent, not the size
of the tuple space: the trivial group on d points spends d, and S_d
spends 3 d (d - 1) on its first transversal, which refuses S_20000
before it is built.  A count over budget raises CapacityError in the
middle of the descent; it never returns a partial count.
"""

from __future__ import annotations

from math import perm
from operator import itemgetter, ne

from .errors import DEFAULT_NODE_BUDGET, Budget
from .record import Record


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

    ``counts`` holds the orbits on injective k-tuples for k = 0..n and
    ``count`` is counts[n].  ``nodes`` is the stabilizers expanded and
    ``sifted`` their Schreier elements other than the identity, repeats
    included, whether the filter sifted them again or not.  All are
    deterministic.
    """

    n: int
    counts: tuple[int, ...]
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


def _classes(gens: list, orbits: list[list[int]], budget: Budget) -> list[tuple[list[int], int]]:
    """The orbits in classes of interchangeable ones (module docstring):
    the first orbit of each class, with the number of orbits in it."""
    # bucket key -> [[first orbit of a class, its size, the cycle lengths
    # of its first point or None until they are needed], ...]
    found = {}
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
            bucket.append([orbit, 1, None])
        elif key == 1:
            # any two fixed points are interchangeable
            bucket[0][1] += 1
        else:
            lengths = _cycle_lengths(gens, orbit, budget)
            for entry in bucket:
                first, _, root = entry
                if root is None:
                    root = entry[2] = _cycle_lengths(gens, first, budget)[first[0]]
                if any(lengths[t] == root and _commutes(gens, first, t, budget) for t in orbit):
                    entry[1] += 1
                    break
            else:
                bucket.append([orbit, 1, lengths[orbit[0]]])
    return [(first, size) for bucket in found.values() for first, size, _ in bucket]


def _cycle_lengths(gens: list, orbit: list[int], budget: Budget) -> dict[int, tuple[int, ...]]:
    """For each point of the orbit, the length of its cycle under each
    generator in turn.  Spends the |orbit| |gens| point images read."""
    budget.spend(len(orbit) * len(gens))
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


def _commutes(gens: list, orbit: list[int], t: int, budget: Budget) -> bool:
    """Whether x -> t, x the first point of the orbit, extends along the
    generator edges to a map phi with phi(s(p)) = s(phi(p)) for every
    generator s and every point p of the orbit.  Such a phi maps the orbit
    onto the orbit of t, so it is one-to-one when the two have one size.
    Spends the |orbit| |gens| point images that a success reads."""
    budget.spend(len(orbit) * len(gens))
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
    """One count: its constants, its counters, its budget, and the
    descent itself."""

    def __init__(self, degree: int, budget: Budget):
        self.identity = tuple(range(degree))
        self.budget = budget
        self.nodes = self.sifted = 0

    def descend(self, gens: list, free: list[int], r: int) -> list[int]:
        """Orbits of H, generated by gens, on the j-tuples that extend a
        prefix (module docstring), for j = 0..r."""
        if not gens:
            return [perm(len(free), j) for j in range(r + 1)]
        self.budget.spend(len(free) * len(gens))
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
        for orbit, size in _classes(gens, orbits, self.budget):
            x = orbit[0]
            # H_x = H when H fixes x
            child = gens if len(orbit) == 1 else self.stabilizer(gens, orbit)
            rest = [p for p in free if p != x]
            for j, c in enumerate(self.descend(child, rest, r - 1), 1):
                counts[j] += size * c
        return counts

    def stabilizer(self, gens: list, orbit: list[int]) -> list:
        """Generators of the stabilizer of x = orbit[0]: the Schreier
        elements of its orbit under gens, through Sims' filter.  The
        orbit lists its points in the order the generators reach them
        from x, as descend finds it.  A Schreier element that the filter
        has met before is counted but not sifted again, and one that a
        generator commuting with the tree edge into y shows to be a
        repeat is counted but not formed (module docstring)."""
        identity = self.identity
        d = len(identity)
        # the transversal forms, per orbit point other than x, one product
        # per generator and one inverse: spent before any is formed
        self.budget.spend(d * (len(orbit) - 1) * (len(gens) + 1))
        # each sifted element and each quotient spends d more
        room = (self.budget.limit - self.budget.spent) // d
        # A permutation is the tuple of its images, and itemgetter(*g)(h)
        # is the product "g, then h".  u[y] maps x to y, v[y] = u[y]^-1.
        # moved[s] has a bit for each point that s moves, and edge[y] is
        # moved[e] for the generator e of the tree edge into y, where u[y]
        # = u[e^-1(y)] e; at x it has every bit.
        x = orbit[0]
        u = {x: identity}
        v = {x: identity}
        moved = [int.from_bytes(bytes(map(ne, s, identity)), "little") for s in gens]
        edge = {x: -1}
        kept = {}
        find = kept.get
        inverse = {}
        met = set()
        formed = sifted = 0
        for y in orbit:
            last = edge[y]
            # u[x] is the identity, so the products from x are the generators
            times = None if y == x else itemgetter(*u[y])
            for s, m in zip(gens, moved):
                if not m & last:
                    # s commutes with e and fixes y and e^-1(y), so the
                    # element is the one of e^-1(y) and s, met before
                    sifted += 1
                    continue
                z = s[y]
                w = s if times is None else times(s)
                uz = u.get(z)
                if uz is None:
                    u[z] = w
                    v[z] = _inverse(w)
                    edge[z] = m
                    continue
                if w == uz:
                    continue
                # u_y, then s, then u_z^-1 fixes x (Schreier's lemma)
                sifted += 1
                if z == x:
                    h = w
                else:
                    h = itemgetter(*w)(v[z])
                    formed += 1
                    if formed > room:
                        self.budget.spend(formed * d)  # raises
                size = len(met)
                met.add(h)
                if len(met) == size:
                    continue  # met before: its sift would change nothing
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
                        formed += 1
                    h = itemgetter(*h)(undo)
                    formed += 1
                    if formed > room:
                        self.budget.spend(formed * d)  # raises
                    if h == identity:
                        break
        self.budget.spend(formed * d)
        self.sifted += sifted
        return list(kept.values())


def count_orbits_injective(group: FinPermGroup, n: int, *, budget: Budget | None = None) -> OrbitCount:
    """Orbits of the generated group on injective k-tuples, k = 0..n.

    1 for n = 0 without search.  Above the degree d the search stops at
    depth d, and the counts above d are 0.  The descent spends ``budget``
    (a fresh one of DEFAULT_NODE_BUDGET units when None) by the point
    images it reads and writes (module docstring), and raises
    CapacityError as soon as it is spent.
    """
    if n < 0:
        raise ValueError("tuple length must be non-negative")
    if n == 0:
        return OrbitCount(0, (1,), 0, 0)
    d = group.degree
    budget = budget or Budget(DEFAULT_NODE_BUDGET)
    budget.stage = f"orbits on injective {n}-tuples of degree {d}"
    budget.spend(d)  # the root's list of free points
    descent = _Descent(d, budget)
    # the generators that move a point, each once
    gens = list(dict.fromkeys(g for g in group.generators if g != descent.identity))
    t = min(n, d)  # no tuple is injective past d
    counts = descent.descend(gens, list(range(d)), t) + [0] * (n - t)
    return OrbitCount(n, tuple(counts), descent.nodes, descent.sifted)
