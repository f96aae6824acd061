"""Orbit counting by stabilizer descent and truncations."""
from __future__ import annotations

import resource
import time
from math import comb, factorial, gcd, perm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthlab import Budget, CapacityError, FinPermGroup, Finite, IntSeq
from growthlab import count_orbits_injective, parse_expr, stirling_transform
from growthlab import eval_lseq, truncate_expr
from growthlab.orbit_oracle import _Descent

import oracles

# A small zoo of groups with distinct orbit structure, degree <= 6.
ZOO = {
    "trivial3": FinPermGroup.trivial(3),
    "s3": FinPermGroup.symmetric(3),
    "s4": FinPermGroup.symmetric(4),
    "c4": FinPermGroup(4, ((1, 2, 3, 0),)),
    "c6": FinPermGroup(6, ((1, 2, 3, 4, 5, 0),)),
    "klein4": FinPermGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    "d4": FinPermGroup(4, ((1, 2, 3, 0), (2, 1, 0, 3))),
    "a4": FinPermGroup(4, ((1, 2, 0, 3), (1, 0, 3, 2))),
    "s3xs2": FinPermGroup(5, ((1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3))),
    # S3 on {0, 2, 5} times C3 on {1, 3, 4}, by (0 5 2) and (0 2)(1 3 4)
    "s3xc3": FinPermGroup(6, ((5, 1, 0, 3, 4, 2), (2, 3, 0, 4, 1, 5))),
    # C3 x C3 = <a, b> on its cosets of <ab>, <ab^2> and <ab> again: three
    # orbits on which a and b are 3-cycles, but only the first and the
    # last are interchangeable (ab fixes the first, not the second)
    "c3xc3-cosets": FinPermGroup(9, ((1, 2, 0, 4, 5, 3, 7, 8, 6), (2, 0, 1, 4, 5, 3, 8, 6, 7))),
}


def all_tuple_counts(g: FinPermGroup, n: int) -> IntSeq:
    """Orbits on all k-tuples, k = 0..n: the Stirling transform of the
    injective counts, as an n-tuple factors through the partition of its
    positions by coordinate equality."""
    return stirling_transform(IntSeq(count_orbits_injective(g, n).counts))


@st.composite
def small_groups(draw, max_degree: int = 7):
    degree = draw(st.integers(min_value=1, max_value=max_degree))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return FinPermGroup(degree, tuple(tuple(g) for g in gens))


@st.composite
def cycle_groups(draw, max_degree: int):
    """Groups generated by products of disjoint cycles on a few points,
    which give direct-product-like groups with many small orbits."""
    degree = draw(st.integers(min_value=2, max_value=max_degree))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        image = list(range(degree))
        points = draw(st.permutations(range(degree)))[: draw(st.integers(min_value=2, max_value=degree))]
        while len(points) >= 2:
            length = draw(st.integers(min_value=2, max_value=len(points)))
            cycle, points = points[:length], points[length:]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                image[a] = b
        gens.append(tuple(image))
    return FinPermGroup(degree, tuple(gens))


@st.composite
def copied_groups(draw):
    """A small group acting on 2 or 3 disjoint copies of its points, each
    copy relabelled.  In some copies after the first, each generator acts
    by a power of itself prime to its order instead: that keeps the cycle
    lengths of every point but can change the stabilizers, so the orbits
    of such a copy are alike to those of the first, yet need not be
    interchangeable with them."""
    d = draw(st.integers(min_value=2, max_value=4))
    base = draw(st.lists(st.permutations(range(d)), min_size=2, max_size=3))
    copies = draw(st.integers(min_value=2, max_value=3))
    gens = [[] for _ in base]
    for c in range(copies):
        relabel = draw(st.permutations(range(d)))
        twist = c > 0 and draw(st.booleans())
        for g, image in zip(base, gens):
            powers = [tuple(range(d))]
            while powers[-1] != powers[0] or len(powers) == 1:
                powers.append(tuple(g[p] for p in powers[-1]))
            order = len(powers) - 1
            e = draw(st.sampled_from([e for e in range(1, order + 1) if gcd(e, order) == 1])) if twist else 1
            image.extend(c * d + relabel[powers[e][relabel.index(p)]] for p in range(d))
    return FinPermGroup(copies * d, tuple(tuple(image) for image in gens))


# ---------------------------------------------------------------------------
# Construction


def test_group_rejects_bad_generator_length():
    with pytest.raises(ValueError):
        FinPermGroup(3, ((0, 1),))


def test_group_rejects_non_permutation():
    with pytest.raises(ValueError):
        FinPermGroup(3, ((0, 0, 1),))


def test_group_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        FinPermGroup(0, ())


def test_symmetric_and_trivial_constructors():
    assert FinPermGroup.symmetric(4).degree == 4
    assert FinPermGroup.trivial(5).generators == ()


# ---------------------------------------------------------------------------
# Closed forms


def test_symmetric_group_orbit_counts():
    g = FinPermGroup.symmetric(4)
    for n in range(6):
        expect = 1 if n <= 4 else 0
        assert count_orbits_injective(g, n).count == expect


def test_trivial_group_counts_injections():
    g = FinPermGroup.trivial(4)
    for n in range(6):
        expect = factorial(4) // factorial(4 - n) if n <= 4 else 0
        assert count_orbits_injective(g, n).count == expect


def test_empty_tuple_has_one_orbit():
    g = FinPermGroup.symmetric(3)
    assert count_orbits_injective(g, 0).count == 1
    assert all_tuple_counts(g, 0)[0] == oracles.brute_orbit_count(g.generators, 3, 0, injective=False) == 1


# ---------------------------------------------------------------------------
# Against the brute-force oracle (full element enumeration)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_injective_orbits_match_brute(name):
    g = ZOO[name]
    for n in range(6):
        got = count_orbits_injective(g, n).count
        want = oracles.brute_orbit_count(g.generators, g.degree, n, injective=True)
        assert got == want, (name, n)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_stirling_identity_links_all_and_injective(name):
    g = ZOO[name]
    s = all_tuple_counts(g, 5)
    for n in range(6):
        assert s[n] == oracles.brute_orbit_count(g.generators, g.degree, n, injective=False), n


# ---------------------------------------------------------------------------
# Against the set search (oracles.orbit_count_by_sets), beyond brute force


def disjoint_transpositions(k: int) -> FinPermGroup:
    """The k transpositions (2i 2i+1) on 2k points."""
    return FinPermGroup(
        2 * k, tuple(tuple(p ^ 1 if p // 2 == i else p for p in range(2 * k)) for i in range(k))
    )


def oracle_check_shapes(text: str, top: int):
    """The truncations that seq --oracle-check counts for n <= top."""
    expr = parse_expr(text)
    return [(truncate_expr(expr, m), n) for n in range(1, top + 1) for m in (n, n + 1)]


SET_SEARCH_SHAPES = {
    "e_rel": [
        (truncate_expr(parse_expr("(wr (wr (finite 1)))"), m), n)
        for m in range(1, 6)
        for n in range(1, 6)
    ],
    "wide-2628": [(truncate_expr(parse_expr("(wr (prod (finite 3) (wr (finite 1))))"), 4), 4)],
    "cell-s3": oracle_check_shapes("(wr (finite 3 gens=[(0 1 2), (0 1)]))", 5),
    "cell-s2c3": oracle_check_shapes("(wr (prod (finite 2 gens=[(0 1)]) (finite 3 gens=[(0 1 2)])))", 4),
    "free-c3": [(FinPermGroup(9, ((1, 2, 0, 4, 5, 3, 7, 8, 6),)), n) for n in range(1, 6)],
    "transpositions-8": [(disjoint_transpositions(8), 5)],
}


@pytest.mark.parametrize("name", sorted(SET_SEARCH_SHAPES))
def test_orbits_match_the_set_search(name):
    # all tuples too, by the Stirling transform, where the multisets stay few
    for g, n in SET_SEARCH_SHAPES[name]:
        r = count_orbits_injective(g, n)
        assert r.count == oracles.orbit_count_by_sets(g.generators, g.degree, n, injective=True), (g.degree, n)
        if g.degree <= 16:
            want = oracles.orbit_count_by_sets(g.generators, g.degree, n, injective=False)
            assert stirling_transform(IntSeq(r.counts))[n] == want, (g.degree, n)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(small_groups(max_degree=12), cycle_groups(max_degree=12)),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_random_groups_match_the_set_search(g, n, injective):
    counts = count_orbits_injective(g, n).counts if injective else all_tuple_counts(g, n)
    # one descent counts every shorter length too
    for k in range(n + 1):
        assert counts[k] == oracles.orbit_count_by_sets(g.generators, g.degree, k, injective=injective), k


# ---------------------------------------------------------------------------
# Many orbits


def test_free_c3_has_more_orbits_than_a_batch():
    # (0 1 2)(3 4 5)(6 7 8) acts freely on injective tuples, so its
    # 9 * 8 * 7 * 6 = 3024 injective 4-tuples fall into 1008 orbits of 3;
    # the stabilizer of the first point is trivial, so every child of the
    # root closes with a falling factorial, and the root is the only node.
    g = FinPermGroup(9, ((1, 2, 0, 4, 5, 3, 7, 8, 6),))
    want = oracles.brute_orbit_count(g.generators, g.degree, 4, injective=True)
    r = count_orbits_injective(g, 4)
    assert want == 1008
    assert (r.count, r.nodes, r.sifted) == (want, 1, 0)


def test_trivial_group_has_more_orbits_than_a_batch():
    # no generators: every injective 4-tuple of 7 points is its own orbit,
    # and the root closes with perm(7, 4) without a Schreier element
    g = FinPermGroup.trivial(7)
    want = oracles.brute_orbit_count(g.generators, g.degree, 4, injective=True)
    r = count_orbits_injective(g, 4)
    assert want == 840
    assert (r.count, r.nodes, r.sifted) == (want, 0, 0)


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.integers(min_value=0, max_value=4), st.booleans())
def test_random_generators_match_brute(g, n, injective):
    # keep the brute-force oracle, |G| * d^n tuple images, small
    assume(len(oracles.group_closure(g.generators, g.degree)) * g.degree**n <= 100_000)
    counts = count_orbits_injective(g, n).counts if injective else all_tuple_counts(g, n)
    for k in range(n + 1):
        assert counts[k] == oracles.brute_orbit_count(g.generators, g.degree, k, injective=injective), k


def test_many_small_orbits_share_their_levels():
    # wide-2628: a node stands for a class of interchangeable orbits of
    # prefixes of at most n - 1 points.  At the root the three orbits of
    # the points of (finite 3), each through every copy, are one class,
    # and deeper nodes have more, so 47 nodes do the work of 189 (one per
    # orbit).
    g = truncate_expr(parse_expr("(wr (prod (finite 3) (wr (finite 1))))"), 5)
    r = count_orbits_injective(g, 4)
    assert (r.counts, r.nodes, r.sifted) == ((1, 4, 29, 254, 2628), 47, 3945)


def test_acceptance_01_expands_one_node_per_prefix_orbit():
    # (wr (wr (finite 1))) at m = 6: the prefixes of 0..4 points fall
    # into 1, 1, 2, 5 and 15 orbits, the Bell numbers.  No two orbits at
    # a node are interchangeable, so the classes do no extra descent.
    g = truncate_expr(parse_expr("(wr (wr (finite 1)))"), 6)
    r = count_orbits_injective(g, 5)
    assert (r.count, r.nodes, r.sifted) == (52, 1 + 1 + 2 + 5 + 15, 5714)


@pytest.mark.parametrize(
    "group, n, counts, nodes, sifted",
    [
        # the 12,254-orbit shape: 540 nodes, one per orbit of prefixes
        (
            truncate_expr(parse_expr("(wr (wr (prod (finite 3) (finite 3 full-sym))))"), 4),
            4,
            (1, 4, 45, 666, 12254),
            102,
            19245,
        ),
        # each pair is moved by its own generator, so no two of its
        # orbits are interchangeable: one node per orbit of prefixes
        (disjoint_transpositions(16), 4, (1, 16, 256, 4080, 64560), 4113, 101280),
    ],
    ids=["wreath-12254", "transpositions-16"],
)
def test_descent_work_with_and_without_interchangeable_orbits(group, n, counts, nodes, sifted):
    r = count_orbits_injective(group, n)
    assert (r.counts, r.nodes, r.sifted) == (counts, nodes, sifted)


# ---------------------------------------------------------------------------
# Against the plain Sims filter (oracles.sims_filter), which sifts every
# Schreier element


def stabilizer_calls(g: FinPermGroup, n: int) -> list:
    """The generators, orbit and kept generators of every stabilizer
    that the descent of g to depth n builds."""
    calls = []
    stabilizer = _Descent.stabilizer

    def record(self, gens, orbit):
        kept = stabilizer(self, gens, orbit)
        calls.append((list(gens), list(orbit), kept))
        return kept

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Descent, "stabilizer", record)
        count_orbits_injective(g, n)
    return calls


def oracle_check_levels(text: str, top: int, trunc_m: int | None = None):
    """The truncations that seq --oracle-check counts for n <= top, each
    once, with the depth it counts it to."""
    expr = parse_expr(text)
    levels = sorted({m for n in range(1, top + 1) for m in (n, n + 1)} if trunc_m is None else {trunc_m, trunc_m + 1})
    return [(truncate_expr(expr, m), min(m, top)) for m in levels]


# the four oracle-check lines of the benchmark, with their generators as
# written (the benchmark relabels the points of some leaves)
ORACLE_CHECK_LINES = {
    "acceptance-01": oracle_check_levels("(wr (wr (finite 1)))", 5),
    "wide-2628": oracle_check_levels("(wr (prod (finite 3) (wr (finite 1))))", 4, trunc_m=4),
    "cell-s3": oracle_check_levels("(wr (finite 3 gens=[(0 1 2), (0 1)]))", 5),
    "cell-s2c3": oracle_check_levels("(wr (prod (finite 2 gens=[(0 1)]) (finite 3 gens=[(0 1 2)])))", 4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CHECK_LINES))
def test_stabilizers_keep_the_generators_of_the_plain_filter(name):
    # skipping repeats and generators that commute with u_y keeps the
    # same generators, in the same order
    for g, n in ORACLE_CHECK_LINES[name]:
        for gens, orbit, kept in stabilizer_calls(g, n):
            assert kept == oracles.sims_filter(gens, orbit), (g.degree, orbit)


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_groups(max_degree=10), cycle_groups(max_degree=10), copied_groups()))
def test_random_stabilizers_keep_the_generators_of_the_plain_filter(g):
    for gens, orbit, kept in stabilizer_calls(g, min(g.degree, 4)):
        assert kept == oracles.sims_filter(gens, orbit), orbit


def test_e_rel_truncation_at_seven_fits_the_default_budget():
    # (wr (wr (finite 1))) at m = 7 acts on 49 points; its descent to
    # depth 7 has no interchangeable orbits, and takes 279 nodes and
    # 106,858 sifted elements, most of them repeats
    expr = parse_expr("(wr (wr (finite 1)))")
    r = count_orbits_injective(truncate_expr(expr, 7), 7)
    assert list(r.counts) == list(eval_lseq(expr, 7))
    assert (r.nodes, r.sifted) == (279, 106858)


@settings(max_examples=150, deadline=None)
@given(copied_groups())
def test_copies_of_a_group_match_brute(g):
    # the longest tuples that keep the brute-force oracle's |G| d^n
    # tuple images few
    size = len(oracles.group_closure(g.generators, g.degree))
    n = max(k for k in range(1, 5) if size * g.degree**k <= 50_000 or k == 1)
    for injective, counts in ((True, count_orbits_injective(g, n).counts), (False, all_tuple_counts(g, n))):
        for k in range(n + 1):
            assert counts[k] == oracles.brute_orbit_count(g.generators, g.degree, k, injective=injective), (k, injective)


def test_telemetry_counts_nodes_and_sifted_elements():
    # S3 on pairs: the root, and the stabilizer S2 of point 0, which only
    # counts its orbits.  The root lists 3 points, scans them under 2
    # generators and forms the transversal of the orbit {0, 1, 2}: 2
    # products and 1 inverse for each of 2 points.  It sifts 3 Schreier
    # elements, each the transposition (1 2).  The first and second are
    # formed as quotients by u_z^-1, the third is a product from u_2 to x;
    # the first is kept, and the other two are repeats that skip the
    # filter: 2 permutations.  The child scans 2 points under the one
    # generator kept.
    budget = Budget(100)
    r = count_orbits_injective(FinPermGroup.symmetric(3), 2, budget=budget)
    assert (r.n, r.counts, r.nodes, r.sifted) == (2, (1, 1, 1), 2, 3)
    assert budget.spent == 3 + 3 * 2 + 3 * 2 * (2 + 1) + 3 * 2 + 2 * 1


@pytest.mark.parametrize("name", sorted(ZOO))
def test_nodes_are_at_most_the_prefix_orbits(name):
    # A node stands for at least one orbit of prefixes of fewer than n
    # points, so there are at most as many nodes as such orbits.
    g = ZOO[name]
    for n in range(1, 6):
        prefixes = sum(oracles.brute_orbit_count(g.generators, g.degree, k, injective=True) for k in range(n))
        assert count_orbits_injective(g, n).nodes <= prefixes, n


def test_bell_truncation_count_and_telemetry():
    # (wr (wr (finite 1))) at m = 5 acts on 25 points; its orbits on
    # injective 5-tuples are the B_5 = 52 set partitions of the positions,
    # and its nodes the orbits of prefixes of 0..4 points, B_0..B_4.
    g = truncate_expr(parse_expr("(wr (wr (finite 1)))"), 5)
    r = count_orbits_injective(g, 5)
    assert (r.count, r.nodes) == (52, 1 + 1 + 2 + 5 + 15)


# ---------------------------------------------------------------------------
# Budgets and capacity


def test_tuple_budget_exhaustion_raises():
    # the descent of S_10 to depth 4 spends more than 20 units
    with pytest.raises(CapacityError):
        count_orbits_injective(FinPermGroup.symmetric(10), 4, budget=Budget(20))


def test_tuple_budget_exhaustion_inside_the_frontier_raises():
    # S_40 to n = 40 sifts 170,973 elements.  The root's points, scan and
    # transversal spend 40 + 40 * 2 + 40 * 39 * 3 = 4,800 units; the count
    # raises in the middle of the root stabilizer's sifting, at the first
    # permutation of 40 points past the limit
    budget = Budget(5000)
    with pytest.raises(CapacityError):
        count_orbits_injective(FinPermGroup.symmetric(40), 40, budget=budget)
    assert 5000 < budget.spent <= 5000 + 40


def test_tuple_budget_error_names_its_stage():
    with pytest.raises(CapacityError) as err:
        count_orbits_injective(FinPermGroup.symmetric(6), 3, budget=Budget(5))
    assert str(err.value) == "orbits on injective 3-tuples of degree 6: node budget 5 exceeded"


def test_small_budget_on_a_large_state_space_fails_fast():
    # S_100 has perm(100, 4) injective 4-tuples in one orbit; its root
    # sifts more Schreier elements than the budget of 5 allows
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        count_orbits_injective(FinPermGroup.symmetric(100), 4, budget=Budget(5))
    assert time.perf_counter() - start < 0.1
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 25 * 1024


def test_a_leaf_of_large_degree_is_refused_before_its_transversal():
    # the transversal of S_20000 at the root would form 3 * 19999
    # permutations of 20000 points; the default budget refuses them
    # before the first is formed
    g = FinPermGroup.symmetric(20000)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        count_orbits_injective(g, 2)
    assert time.perf_counter() - start < 0.1
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 25 * 1024


def test_all_tuples_of_many_positions():
    # S2 swaps the two points of every tuple, so its 2^20 tuples of length
    # 20 pair up; the stabilizer of the first point is trivial, so the
    # root is the only node
    r = count_orbits_injective(FinPermGroup.symmetric(2), 20)
    assert (stirling_transform(IntSeq(r.counts))[20], r.nodes, r.sifted) == (2**19, 1, 0)


def test_the_size_of_the_tuple_space_is_not_spent():
    # the trivial group on 1000 points closes at the root: its
    # perm(1000, 4) injective 4-tuples are each an orbit, and only the
    # root's 1000 free points are spent
    budget = Budget(1000)
    r = count_orbits_injective(FinPermGroup.trivial(1000), 4, budget=budget)
    assert (r.count, r.nodes, budget.spent) == (perm(1000, 4), 0, 1000)


def test_rejects_negative_n():
    with pytest.raises(ValueError):
        count_orbits_injective(FinPermGroup.trivial(2), -1)


# ---------------------------------------------------------------------------
# Expression truncation


def test_truncate_finite_is_identity():
    g = FinPermGroup.symmetric(3)
    t = truncate_expr(Finite(g), 5)
    assert t == g


def test_truncate_product_concatenates():
    t = truncate_expr(parse_expr("(prod (finite 2) (finite 3))"), 4)
    assert t.degree == 5


def test_truncate_wreath_closure_size():
    # G wr S_m has order |G|^m * m!; S_2 wr S_3 on 6 points has 48 elements.
    t = truncate_expr(parse_expr("(wr (finite 2 full-sym))"), 3)
    assert t.degree == 6
    assert len(oracles.group_closure(t.generators, t.degree)) == 8 * 6


def test_truncate_wreath_of_trivial_gives_symmetric_copies():
    # 1 wr S_m acting on m singleton copies is just S_m.
    t = truncate_expr(parse_expr("(wr (finite 1))"), 4)
    assert t.degree == 4
    assert len(oracles.group_closure(t.generators, t.degree)) == 24


def test_truncate_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        truncate_expr(parse_expr("(wr (finite 2))"), 0)


def test_truncate_spends_each_generator_before_building_it():
    # (wr (finite 3)) at m = 4096: a copy swap and a copy cycle, each of
    # 12,288 images, which do not fit in 20,000 units
    expr = parse_expr("(wr (finite 3))")
    budget = Budget(20_000)
    with pytest.raises(CapacityError, match=r"^truncation at m = 4096: node budget 20000 exceeded$"):
        truncate_expr(expr, 4096, budget=budget)
    assert budget.spent == 2 * 12_288
    assert truncate_expr(expr, 4096).degree == 12_288


def test_truncation_stabilizes_orbit_counts():
    # For m >= n the count at level m equals the count at level n.
    for text in ("(wr (finite 2 full-sym))", "(prod (wr (finite 1)) (finite 2))"):
        expr = parse_expr(text)
        for n in range(4):
            m0 = max(n, 1)
            base = count_orbits_injective(truncate_expr(expr, m0), n).count
            for m in (m0 + 1, m0 + 2):
                assert count_orbits_injective(truncate_expr(expr, m), n).count == base


# ---------------------------------------------------------------------------
# Determinism


def test_counts_are_deterministic():
    g = ZOO["a4"]
    runs = [count_orbits_injective(g, 3) for _ in range(2)]
    assert runs[0] == runs[1]


def test_injective_zero_beyond_degree():
    g = ZOO["s3"]
    assert count_orbits_injective(g, 4).count == 0


def test_all_tuples_count_equals_bell_partition_bound():
    # For the full symmetric group, orbits on all n-tuples are set
    # partitions of the index positions, capped by the degree.
    g = FinPermGroup.symmetric(6)
    s = all_tuple_counts(g, 4)
    for n in range(5):
        want = sum(oracles.brute_stirling2(n, k) for k in range(min(n, 6) + 1))
        assert s[n] == want == oracles.brute_orbit_count(g.generators, 6, n, injective=False), n


def test_direct_product_counts_multiply_via_convolution():
    # l_n(G x H) = sum C(n,k) l_k(G) l_{n-k}(H) when supports are disjoint.
    expr = parse_expr("(prod (finite 2 full-sym) (finite 3 full-sym))")
    g = truncate_expr(expr, 1)
    l2 = [1, 1, 1, 0, 0]
    l3 = [1, 1, 1, 1, 0]
    for n in range(5):
        want = sum(comb(n, k) * l2[k] * l3[n - k] for k in range(n + 1))
        assert count_orbits_injective(g, n).count == want
