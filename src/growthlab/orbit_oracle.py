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
Each orbit O is one child, whose prefix takes the first point x of O and
whose weight, the number of prefixes it stands for, is the parent's
times |O|.  Along the generator edges of O (its Schreier tree) the node
builds, for every y in O, an element u_y that maps x to y.  By Schreier's
lemma the elements u_y s u_{s(y)}^-1 (applied left to right), over y in
O and generators s of H, generate H_x.  Sims' filter (Sims, Computational
methods in the study of permutation groups, 1970; Seress, Permutation
Group Algorithms, 2003) keeps at most one of them per pair of first
moved point i and its image: an element whose pair is taken is divided
by the kept one, which leaves it fixing i and every point before i,
until it is new or the identity.  So a node has at most d (d - 1) / 2
generators on d points.  There is no array per state: each level of the
descent holds its generators and, while it builds a child, one
transversal of at most d elements, all permutations of the d points.

Three rules keep the work small.  At the last position a node only
counts the orbits.  A trivial H closes with the falling factorial
perm(f, r) of its f free points and r positions, or d^r for counts of
all tuples.  The free points that H fixes are one child, counted once
per such point, because a permutation that swaps two of them commutes
with H.  The work grows with the orbits of the prefixes, not with the
number of tuples or sets of points.

Telemetry.  OrbitCount.nodes counts the stabilizers whose orbits were
computed and OrbitCount.sifted the Schreier elements put through the
filter.  OrbitCount.tuples_visited counts the tuples the closed nodes
settle, their weight times the tuples below them, so it ends at
d (d - 1) ... (d - n + 1) or d^n.  The tuple budget is checked against
it each time a node settles tuples, so a count raises CapacityError
exactly when the tuples exceed the budget, never with a wrong count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import perm
from operator import itemgetter

from .errors import CapacityError

DEFAULT_TUPLE_BUDGET = 10**7
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

    ``tuples_visited`` is the number of tuples the count settled, all
    d (d - 1) ... (d - n + 1) injective or d^n tuples once it is done;
    ``nodes`` the number of stabilizers whose orbits it computed and
    ``sifted`` the number of Schreier elements it put through Sims'
    filter.  All three are deterministic for a given group, n and
    injectivity flag.
    """

    n: int
    injective: bool
    count: int
    tuples_visited: int
    nodes: int
    sifted: int


def _budget_error(budget: int, total: int, domain: int, n: int, injective: bool) -> CapacityError:
    kind = "injective" if injective else "all"
    return CapacityError(
        f"tuple budget {budget} exceeded after visiting {total} tuples"
        f" (orbits on {kind} {n}-tuples of degree {domain})"
    )


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(g)
    for p, q in enumerate(g):
        inv[q] = p
    return tuple(inv)


class _Descent:
    """One count: its constants, its counters, and the descent itself."""

    def __init__(self, degree: int, n: int, injective: bool, budget: int):
        self.degree = degree
        self.n = n
        self.injective = injective
        self.budget = budget
        self.identity = tuple(range(degree))
        self.tuples = self.nodes = self.sifted = 0

    def settle(self, tuples: int) -> None:
        self.tuples += tuples
        if self.tuples > self.budget:
            raise _budget_error(self.budget, self.tuples, self.degree, self.n, self.injective)

    def descend(self, gens: list, free: list[int], r: int, weight: int) -> int:
        """Orbits of H, generated by gens, on the r-tuples that extend a
        prefix (module docstring); weight prefixes settle with them."""
        if not gens:
            closed = perm(len(free), r) if self.injective else self.degree**r
            self.settle(weight * closed)
            return closed
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
            self.settle(weight * len(free))
            return len(orbits)
        total = 0
        fixed = []
        for orbit in orbits:
            x = orbit[0]
            if len(orbit) == 1:
                fixed.append(x)
            else:
                total += self.descend(self.stabilizer(gens, x), self.after(free, x), r - 1, weight * len(orbit))
        if fixed:
            # H_x = H for each fixed x, and the children of all of them agree
            total += len(fixed) * self.descend(gens, self.after(free, fixed[0]), r - 1, weight * len(fixed))
        return total

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
        return OrbitCount(0, injective, 1, 0, 0, 0)
    if injective and n > group.degree:
        return OrbitCount(n, injective, 0, 0, 0, 0)
    # the tuples the count settles: perm(d, n) injective ones or d^n
    if injective:
        size, space = perm(group.degree, n), f"perm({group.degree}, {n})"
    else:
        size, space = group.degree**n, f"{group.degree}^{n}"
    if size > MAX_TUPLE_STATES:
        raise CapacityError(f"state space {space} = {size} exceeds the cap {MAX_TUPLE_STATES}")
    descent = _Descent(group.degree, n, injective, budget)
    # the generators that move a point, each once
    gens = list(dict.fromkeys(g for g in group.generators if g != descent.identity))
    found = descent.descend(gens, list(range(group.degree)), n, 1)
    return OrbitCount(n, injective, found, descent.tuples, descent.nodes, descent.sifted)


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

