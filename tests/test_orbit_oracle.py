"""Orbit counting by generator BFS, truncations, and the stabilizer bound."""
from __future__ import annotations

import resource
import time
from math import comb, factorial, perm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from growthlab import CapacityError, DirectProduct, FinPermGroup, Finite, WreathSomega
from growthlab import count_orbits_all, count_orbits_injective, parse_expr
from growthlab import orbit_oracle, stabilizer_bound_check, truncate_expr
from growthlab.orbit_oracle import MAX_TRUNC_DEGREE, MAX_TUPLE_STATES

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
}


def each_search(count, group, n, **kwargs):
    """The count on the NumPy kernel and on the plain Python search."""
    results = []
    for work in (0, 1 << 62):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbit_oracle, "PYTHON_SEARCH_WORK", work)
            results.append(count(group, n, **kwargs))
    return results


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
    assert count_orbits_injective(FinPermGroup.symmetric(3), 0).count == 1
    assert count_orbits_all(FinPermGroup.symmetric(3), 0).count == 1


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
@pytest.mark.usefixtures("kernel")
def test_all_tuple_orbits_match_brute(name):
    g = ZOO[name]
    for n in range(6):
        got = count_orbits_all(g, n).count
        want = oracles.brute_orbit_count(g.generators, g.degree, n, injective=False)
        assert got == want, (name, n)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_python_and_numpy_searches_agree(name):
    g = ZOO[name]
    for n in range(6):
        for count in (count_orbits_injective, count_orbits_all):
            on_numpy, on_python = (
                (r.count, r.tuples_visited, r.states) for r in each_search(count, g, n)
            )
            assert on_numpy == on_python, (count.__name__, n)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_stirling_identity_links_all_and_injective(name):
    g = ZOO[name]
    for n in range(5):
        all_n = count_orbits_all(g, n).count
        assert all_n == sum(
            oracles.brute_stirling2(n, k) * count_orbits_injective(g, k).count
            for k in range(n + 1)
        )


# ---------------------------------------------------------------------------
# Multi-source BFS: more orbits than one batch of 254 seeds holds


def test_free_c3_has_more_orbits_than_a_batch():
    # (0 1 2)(3 4 5)(6 7 8) acts freely on injective tuples, so its
    # 9 * 8 * 7 * 6 = 3024 injective 4-tuples fall into 1008 orbits of 3;
    # batches of seeds in scan order hold seeds that share an orbit.
    g = FinPermGroup(9, ((1, 2, 0, 4, 5, 3, 7, 8, 6),))
    want = oracles.brute_orbit_count(g.generators, g.degree, 4, injective=True)
    r = count_orbits_injective(g, 4)
    assert want == 1008
    assert (r.count, r.tuples_visited) == (want, 3024)


def test_trivial_group_has_more_orbits_than_a_batch():
    # no generators: every injective 4-tuple of 7 points is its own orbit
    g = FinPermGroup.trivial(7)
    want = oracles.brute_orbit_count(g.generators, g.degree, 4, injective=True)
    r = count_orbits_injective(g, 4)
    assert want == 840
    assert (r.count, r.tuples_visited, r.levels) == (want, 840, 0)


@st.composite
def small_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=7))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return FinPermGroup(degree, tuple(tuple(g) for g in gens))


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.integers(min_value=0, max_value=4), st.booleans())
def test_random_generators_match_brute(g, n, injective):
    # keep the brute-force oracle, |G| * d^n tuple images, small
    assume(len(oracles.group_closure(g.generators, g.degree)) * g.degree**n <= 100_000)
    count = count_orbits_injective if injective else count_orbits_all
    want = oracles.brute_orbit_count(g.generators, g.degree, n, injective=injective)
    for r in each_search(count, g, n):
        assert r.count == want
        if n:
            assert r.tuples_visited == (perm(g.degree, n) if injective else g.degree**n)


def test_many_small_orbits_share_their_levels():
    # wide-2628: one BFS per orbit ran 35,507 levels; batches of seeds
    # expand fewer levels than there are orbits
    g = truncate_expr(parse_expr("(wr (prod (finite 3) (wr (finite 1))))"), 5)
    r = count_orbits_injective(g, 4)
    assert r.count == 2628
    assert 0 < r.levels < r.count


def test_telemetry_counts_visited_tuples():
    r = count_orbits_injective(FinPermGroup.symmetric(3), 2)
    assert r.tuples_visited == 6  # all injective pairs from 3 points
    assert r.n == 2 and r.injective


@pytest.mark.parametrize("name", sorted(ZOO))
@pytest.mark.usefixtures("kernel")
def test_tuples_visited_covers_the_state_space(name):
    # Every tuple of the counted kind lies in exactly one orbit, so the
    # BFS settles each of them once: deg^n tuples in all, and the falling
    # factorial deg (deg - 1) ... (deg - n + 1) of them injective.  It
    # visits each set of n points, or multiset of n points, once.
    g = ZOO[name]
    for n in range(1, 6):
        falling = perm(g.degree, n)
        injective = count_orbits_injective(g, n)
        assert injective.tuples_visited == falling, n
        assert injective.states == comb(g.degree, n), n
        every = count_orbits_all(g, n)
        assert every.tuples_visited == g.degree**n, n
        assert every.states == comb(g.degree + n - 1, n), n


def test_bell_truncation_count_and_telemetry():
    # (wr (wr (finite 1))) at m = 5 acts on 25 points; its orbits on
    # injective 5-tuples are the B_5 = 52 set partitions of the positions.
    g = truncate_expr(parse_expr("(wr (wr (finite 1)))"), 5)
    r = count_orbits_injective(g, 5, budget=10**7)
    assert (r.count, r.tuples_visited) == (52, 6_375_600)


# ---------------------------------------------------------------------------
# Budgets and capacity


def test_tuple_budget_exhaustion_raises():
    with pytest.raises(CapacityError):
        count_orbits_injective(FinPermGroup.trivial(10), 4, budget=100)


def test_tuple_budget_exhaustion_inside_the_frontier_raises():
    # S_6 has one orbit of 120 injective triples: the budget runs out
    # while the BFS grows that orbit, not between orbit starts.
    with pytest.raises(CapacityError):
        count_orbits_injective(FinPermGroup.symmetric(6), 3, budget=50)


def test_tuple_budget_error_names_its_stage():
    with pytest.raises(CapacityError) as err:
        count_orbits_all(FinPermGroup.symmetric(6), 3, budget=50)
    message = str(err.value)
    assert message.startswith("tuple budget 50 exceeded after visiting ")
    assert message.endswith("(orbits on all 3-tuples of degree 6)")


def test_small_budget_on_a_large_state_space_fails_fast():
    # C(100, 4) sets: the first seed spends the budget of 5, before any
    # state beyond it is touched
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        count_orbits_injective(FinPermGroup.trivial(100), 4, budget=5)
    assert time.perf_counter() - start < 0.1
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before < 25 * 1024


def test_all_tuples_of_many_positions():
    # S2 swaps the two points of every tuple, so its 2^20 tuples of length
    # 20 pair up; they lie on the 21 multisets of 20 points from 2
    for r in each_search(count_orbits_all, FinPermGroup.symmetric(2), 20):
        assert (r.count, r.tuples_visited, r.states) == (2**19, 2**20, 21)


def test_state_space_cap():
    big = FinPermGroup.trivial(1000)
    assert 1000**4 > MAX_TUPLE_STATES
    with pytest.raises(CapacityError):
        count_orbits_injective(big, 4)


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


def test_truncate_degree_cap():
    with pytest.raises(CapacityError):
        truncate_expr(parse_expr("(wr (finite 3))"), MAX_TRUNC_DEGREE)


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
# Stabilizer bound


@pytest.mark.parametrize("name", ["s3", "c4", "klein4", "d4"])
def test_stabilizer_bound_holds(name):
    g = ZOO[name]
    for a in range(g.degree):
        for n in range(1, 3):
            assert stabilizer_bound_check(g, a, n)


def test_stabilizer_bound_rejects_bad_point():
    with pytest.raises(ValueError):
        stabilizer_bound_check(FinPermGroup.symmetric(3), 7, 1)


def test_stabilizer_bound_keeps_few_generators(monkeypatch):
    # the stabilizer of a point in S7 has 720 elements; the check passes
    # only those that enlarge the group generated so far
    sizes = []

    def spy(group, n, **kwargs):
        sizes.append(len(group.generators))
        return count_orbits_injective(group, n, **kwargs)

    monkeypatch.setattr(orbit_oracle, "count_orbits_injective", spy)
    assert stabilizer_bound_check(FinPermGroup.symmetric(7), 0, 4)
    assert 0 < sizes[0] <= 10


def test_stabilizer_bound_element_budget():
    with pytest.raises(CapacityError):
        stabilizer_bound_check(FinPermGroup.symmetric(6), 0, 1, element_budget=10)


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
    for n in range(5):
        assert count_orbits_all(g, n).count == sum(
            oracles.brute_stirling2(n, k) for k in range(min(n, 6) + 1)
        )


def test_direct_product_counts_multiply_via_convolution():
    # l_n(G x H) = sum C(n,k) l_k(G) l_{n-k}(H) when supports are disjoint.
    expr = parse_expr("(prod (finite 2 full-sym) (finite 3 full-sym))")
    g = truncate_expr(expr, 1)
    l2 = [1, 1, 1, 0, 0]
    l3 = [1, 1, 1, 1, 0]
    for n in range(5):
        want = sum(comb(n, k) * l2[k] * l3[n - k] for k in range(n + 1))
        assert count_orbits_injective(g, n).count == want
