"""Integer sequences, Stirling machinery, and bound checkers."""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import CapacityError, IntSeq, bell, bell2, check_bounds, meet_trivial_pairs
from growthlab import stirling2, stirling_transform
from growthlab import seq_core
from growthlab.seq_core import KIND_BELL_LOWER, KIND_CELLULAR, KIND_FACTORIAL_UPPER
from growthlab.seq_core import MEET_TRIVIAL_MAX_N

import oracles

# ---------------------------------------------------------------------------
# IntSeq


def test_intseq_basic():
    s = IntSeq((1, 1, 2), label="l")
    assert len(s) == 3
    assert s[2] == 2
    assert list(s) == [1, 1, 2]
    assert s.label == "l"


def test_intseq_rejects_empty():
    with pytest.raises(ValueError):
        IntSeq(())


def test_intseq_rejects_negative():
    with pytest.raises(ValueError):
        IntSeq((1, -1))


def test_intseq_rejects_non_integer():
    with pytest.raises(ValueError):
        IntSeq((1, 1.5))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Stirling numbers and Bell numbers


def test_stirling2_against_brute():
    for n in range(8):
        for k in range(n + 2):
            assert stirling2(n, k) == oracles.brute_stirling2(n, k)


def test_stirling2_row_sums_are_bell():
    for n in range(12):
        assert sum(stirling2(n, k) for k in range(n + 1)) == bell(n)


def test_stirling2_deep_row_builds_without_recursion(monkeypatch):
    # from an empty row cache all 700 rows are built in one call, deeper
    # than the default recursion limit allows one stack frame per row
    monkeypatch.setattr(seq_core, "_STIRLING_ROWS", [(1,)])
    assert sum(stirling2(700, k) for k in range(701)) == oracles.bell_by_triangle(700)


def test_stirling2_rejects_negative():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(3, -1)


def test_bell_matches_frozen_and_brute():
    assert [bell(n) for n in range(len(oracles.BELL))] == list(oracles.BELL)
    for n in range(9):
        assert bell(n) == oracles.brute_bell(n)


def test_bell2_matches_frozen():
    assert [bell2(n) for n in range(len(oracles.REFINEMENT_PAIRS))] == list(
        oracles.REFINEMENT_PAIRS
    )


def test_bell2_matches_brute_refinement_pairs():
    for n in range(7):
        assert bell2(n) == oracles.brute_refinement_pairs(n)


# ---------------------------------------------------------------------------
# Stirling transform


def test_stirling_transform_of_ones_is_bell():
    ones = IntSeq((1,) * 13)
    assert list(stirling_transform(ones)) == [bell(n) for n in range(13)]


def test_stirling_transform_of_unit_vector():
    # l = delta at index 1 -> s_n = S(n, 1) = 1 for n >= 1.
    s = stirling_transform(IntSeq((0, 1, 0, 0, 0)))
    assert list(s) == [0, 1, 1, 1, 1]


@given(
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
)
def test_stirling_transform_is_linear(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    lhs = stirling_transform(IntSeq(tuple(x + y for x, y in zip(a, b))))
    sa = stirling_transform(IntSeq(tuple(a)))
    sb = stirling_transform(IntSeq(tuple(b)))
    assert list(lhs) == [x + y for x, y in zip(sa, sb)]


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=7))
def test_stirling_transform_definition(l):
    s = stirling_transform(IntSeq(tuple(l)))
    for n in range(len(l)):
        assert s[n] == sum(
            oracles.brute_stirling2(n, k) * l[k] for k in range(min(n, len(l) - 1) + 1)
        )


# ---------------------------------------------------------------------------
# Meet-trivial partition pairs


def test_meet_trivial_matches_frozen():
    assert [meet_trivial_pairs(n) for n in range(len(oracles.MEET_TRIVIAL))] == list(
        oracles.MEET_TRIVIAL
    )


def test_meet_trivial_matches_brute():
    for n in range(7):
        assert meet_trivial_pairs(n) == oracles.brute_meet_trivial(n)


def test_meet_trivial_capacity_cap():
    with pytest.raises(CapacityError):
        meet_trivial_pairs(MEET_TRIVIAL_MAX_N + 1)


def test_meet_trivial_rejects_negative():
    with pytest.raises(ValueError):
        meet_trivial_pairs(-1)


# ---------------------------------------------------------------------------
# Bound checks


def _bell_seq(n_max: int) -> IntSeq:
    return IntSeq(tuple(bell(n) for n in range(n_max + 1)), label="l")


def test_bell_lower_passes_on_bell():
    r = check_bounds(_bell_seq(50), KIND_BELL_LOWER)
    assert r.passed
    assert r.verified_range == (1, 50)
    assert r.first_fail is None


def test_bell_lower_reports_first_failure():
    vals = [bell(n) for n in range(21)]
    vals[7] = bell(7) - 1
    r = check_bounds(IntSeq(tuple(vals)), KIND_BELL_LOWER)
    assert not r.passed
    assert r.first_fail == 7


def test_factorial_upper_minimal_n0_for_bell():
    r = check_bounds(_bell_seq(50), KIND_FACTORIAL_UPPER, c=2)
    assert r.passed
    assert r.n0 == 35
    assert r.c == Fraction(2)
    # Minimality: the bound must genuinely fail at n0 - 1.
    assert bell(34) * 2**34 > factorial(34)
    assert bell(35) * 2**35 <= factorial(35)


def test_factorial_upper_holds_for_all_n_at_or_after_n0():
    r = check_bounds(_bell_seq(60), KIND_FACTORIAL_UPPER, c=2)
    for n in range(r.n0, 61):
        assert bell(n) * 2**n <= factorial(n)


def test_factorial_upper_fails_when_last_index_violates():
    # At n_max = 20 the bell sequence still violates l_n * 2^n <= n!.
    r = check_bounds(_bell_seq(20), KIND_FACTORIAL_UPPER, c=2)
    assert not r.passed
    assert r.n0 is None


def test_factorial_upper_requires_c():
    with pytest.raises(ValueError):
        check_bounds(_bell_seq(20), KIND_FACTORIAL_UPPER)


def test_cellular_bound_reports_least_passing_entry():
    ones = IntSeq((1,) * 21)
    grid = [(Fraction(1), Fraction(4, 5)), (Fraction(1), Fraction(1, 2))]
    r = check_bounds(ones, KIND_CELLULAR, grid=grid)
    assert r.passed
    assert (r.c, r.d) == (Fraction(1), Fraction(1, 2))


def test_cellular_bound_fails_on_bell():
    # B_n eventually exceeds c * n^(d*n) for every d < 1; at c=1, d=1/2
    # the violation appears within n <= 50.
    r = check_bounds(_bell_seq(50), KIND_CELLULAR, grid=[(Fraction(1), Fraction(1, 2))])
    assert not r.passed
    assert r.first_fail is not None


def test_cellular_grid_rejects_d_at_least_one():
    with pytest.raises(ValueError):
        check_bounds(IntSeq((1,) * 21), KIND_CELLULAR, grid=[(Fraction(1), Fraction(1))])


def test_check_bounds_rejects_short_sequences():
    with pytest.raises(ValueError):
        check_bounds(IntSeq((1, 1, 2, 5)), KIND_BELL_LOWER)


def test_check_bounds_rejects_unknown_kind():
    with pytest.raises(ValueError):
        check_bounds(_bell_seq(10), "no-such-kind")


@given(st.integers(min_value=5, max_value=30))
@settings(deadline=None)
def test_bell_lower_tight_at_equality(n_max):
    # The bell sequence itself is the boundary case: equality everywhere.
    r = check_bounds(_bell_seq(n_max), KIND_BELL_LOWER)
    assert r.passed and r.verified_range == (1, n_max)


def test_binomial_convolution_of_bell():
    # Sanity tie-in used elsewhere: B_{n+1} = sum C(n,k) B_k.
    for n in range(12):
        assert bell(n + 1) == sum(comb(n, k) * bell(k) for k in range(n + 1))
