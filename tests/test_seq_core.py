"""Integer sequences, Stirling machinery, and bound checkers."""
from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import Budget, CapacityError, IntSeq, bell, bell2, binomial_convolution, check_bounds
from growthlab import exp_shift, meet_trivial_pairs, stirling_transform
from growthlab.seq_core import KIND_BELL_LOWER, KIND_CELLULAR, KIND_FACTORIAL_UPPER

import oracles

# ---------------------------------------------------------------------------
# IntSeq


def test_intseq_basic():
    s = IntSeq((1, 1, 2))
    assert len(s) == 3
    assert s[2] == 2
    assert list(s) == [1, 1, 2]


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


def _unit(k: int, n_max: int) -> IntSeq:
    return IntSeq(tuple(int(i == k) for i in range(n_max + 1)))


def test_stirling2_against_brute():
    # the transform of the unit vector at k is the column S(., k)
    for k in range(9):
        col = stirling_transform(_unit(k, 7))
        for n in range(8):
            assert col[n] == oracles.brute_stirling2(n, k)


def test_stirling2_row_sums_are_bell():
    cols = [stirling_transform(_unit(k, 11)) for k in range(12)]
    b = bell(11)
    for n in range(12):
        assert sum(col[n] for col in cols) == b[n]


def test_stirling2_deep_row_builds_without_recursion():
    # row 700 is built from the 699 rows below it in one call
    s = stirling_transform(IntSeq((1,) * 701))
    assert s[700] == oracles.bell_by_triangle(700)


def test_bell_matches_frozen_and_brute():
    b = bell(len(oracles.BELL) - 1)
    assert list(b) == list(oracles.BELL)
    for n in range(9):
        assert b[n] == oracles.brute_bell(n)


def test_bell_rejects_negative():
    with pytest.raises(ValueError):
        bell(-1)
    with pytest.raises(ValueError):
        bell2(-1)


def test_bell_prefix_keeps_no_rows_alive():
    # peak RSS (KiB on Linux) of a fresh interpreter after the import and
    # after B_0..B_700: the triangle keeps one row, so the peak hardly moves
    code = (
        "import resource, growthlab\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "growthlab.bell(700)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert int(proc.stdout) < 15 * 1024


def test_bell2_matches_frozen():
    assert list(bell2(len(oracles.REFINEMENT_PAIRS) - 1)) == list(oracles.REFINEMENT_PAIRS)


def test_bell2_matches_brute_refinement_pairs():
    b2 = bell2(6)
    for n in range(7):
        assert b2[n] == oracles.brute_refinement_pairs(n)


# ---------------------------------------------------------------------------
# Stirling transform


def test_stirling_transform_of_ones_is_bell():
    ones = IntSeq((1,) * 13)
    assert list(stirling_transform(ones)) == list(bell(12))


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


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0), st.integers(min_value=0, max_value=10**30)),
        min_size=1,
        max_size=12,
    )
)
def test_stirling_transform_matches_brute_on_big_entries(l):
    s = stirling_transform(IntSeq(tuple(l)))
    assert list(s) == [
        sum(oracles.brute_stirling2(n, k) * l[k] for k in range(n + 1)) for n in range(len(l))
    ]


# ---------------------------------------------------------------------------
# Meet-trivial partition pairs


def test_meet_trivial_matches_frozen():
    assert list(meet_trivial_pairs(len(oracles.MEET_TRIVIAL) - 1)) == list(oracles.MEET_TRIVIAL)


def test_meet_trivial_matches_brute():
    a = meet_trivial_pairs(6)
    for n in range(7):
        assert a[n] == oracles.brute_meet_trivial(n)


def test_meet_trivial_matches_meet_oracle_to_300():
    assert list(meet_trivial_pairs(300)) == oracles.meet_trivial_by_meets(300)


def test_meet_trivial_rejects_negative():
    with pytest.raises(ValueError):
        meet_trivial_pairs(-1)


# ---------------------------------------------------------------------------
# Bound checks


def test_bell_lower_passes_on_bell():
    r = check_bounds(bell(50), KIND_BELL_LOWER)
    assert r.passed
    assert r.verified_range == (1, 50)
    assert r.first_fail is None


def test_bell_lower_reports_first_failure():
    vals = list(bell(20))
    vals[7] -= 1
    r = check_bounds(IntSeq(tuple(vals)), KIND_BELL_LOWER)
    assert not r.passed
    assert r.first_fail == 7


def test_factorial_upper_minimal_n0_for_bell():
    r = check_bounds(bell(50), KIND_FACTORIAL_UPPER, c=2)
    assert r.passed
    assert r.n0 == 35
    assert r.c == Fraction(2)
    # Minimality: the bound must genuinely fail at n0 - 1.
    b = bell(35)
    assert b[34] * 2**34 > factorial(34)
    assert b[35] * 2**35 <= factorial(35)


def test_factorial_upper_holds_for_all_n_at_or_after_n0():
    b = bell(60)
    r = check_bounds(b, KIND_FACTORIAL_UPPER, c=2)
    for n in range(r.n0, 61):
        assert b[n] * 2**n <= factorial(n)


def test_factorial_upper_fails_when_last_index_violates():
    # At n_max = 20 the bell sequence still violates l_n * 2^n <= n!.
    r = check_bounds(bell(20), KIND_FACTORIAL_UPPER, c=2)
    assert not r.passed
    assert r.n0 is None


def test_factorial_upper_requires_c():
    with pytest.raises(ValueError):
        check_bounds(bell(20), KIND_FACTORIAL_UPPER)


def test_cellular_bound_reports_least_passing_entry():
    ones = IntSeq((1,) * 21)
    grid = [(Fraction(1), Fraction(4, 5)), (Fraction(1), Fraction(1, 2))]
    r = check_bounds(ones, KIND_CELLULAR, grid=grid)
    assert r.passed
    assert (r.c, r.d) == (Fraction(1), Fraction(1, 2))


def test_cellular_bound_fails_on_bell():
    # B_n eventually exceeds c * n^(d*n) for every d < 1; at c=1, d=1/2
    # the violation appears within n <= 50.
    r = check_bounds(bell(50), KIND_CELLULAR, grid=[(Fraction(1), Fraction(1, 2))])
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
        check_bounds(bell(10), "no-such-kind")


@given(st.integers(min_value=5, max_value=30))
@settings(deadline=None)
def test_bell_lower_tight_at_equality(n_max):
    # The bell sequence itself is the boundary case: equality everywhere.
    r = check_bounds(bell(n_max), KIND_BELL_LOWER)
    assert r.passed and r.verified_range == (1, n_max)


def test_binomial_convolution_of_bell():
    # Sanity tie-in used elsewhere: B_{n+1} = sum C(n,k) B_k.
    b = bell(12)
    for n in range(12):
        assert b[n + 1] == sum(comb(n, k) * b[k] for k in range(n + 1))


# ---------------------------------------------------------------------------
# work spent on a Budget

FULL = IntSeq((1, 2, 5, 15, 52))  # full support, five terms
LEAF = IntSeq((1, 3, 6, 6, 0))  # a leaf of degree 3: top = 3
ONES = IntSeq((1,) * 5)


@pytest.mark.parametrize(
    "step, spent",
    [
        (lambda b: stirling_transform(FULL, budget=b), 15),
        (lambda b: stirling_transform(ONES, budget=b), 15),
        (lambda b: bell(4, budget=b), 15),
        (lambda b: bell2(4, budget=b), 15 + 15),
        (lambda b: binomial_convolution(ONES, FULL, budget=b), 15),
        (lambda b: binomial_convolution(FULL, LEAF, budget=b), 5 * 4),
        (lambda b: exp_shift(LEAF, budget=b), 5 * 4),
        (lambda b: meet_trivial_pairs(4, budget=b), 15 + 15),
    ],
    ids=["stirling", "stirling-pure-set", "bell", "bell2", "binomial-transform", "convolution", "exp-shift", "meet-trivial"],
)
def test_each_step_spends_its_closed_form_term_count(step, spent):
    # L(L+1)/2 for a triangle over L = 5 terms, L * min(L, top + 1) with a
    # leaf; the same again once the Bell prefix is kept
    for _ in range(2):
        budget = Budget(100)
        step(budget)
        assert budget.spent == spent


def test_a_step_over_budget_names_its_stage():
    budget = Budget(10**6)
    with pytest.raises(CapacityError, match=r"^Stirling transform to n = 9999: node budget 1000000 exceeded$"):
        stirling_transform(IntSeq((1, 2) * 5000), budget=budget)
    assert budget.spent == 10_000 * 10_001 // 2


@pytest.mark.parametrize(
    "step",
    [
        lambda: stirling_transform(IntSeq((1, 2) * 2500)),
        lambda: bell(4999),
        lambda: bell2(4999),
        lambda: exp_shift(IntSeq((1, 2) * 2500)),
        lambda: meet_trivial_pairs(4999),
    ],
    ids=["stirling", "bell", "bell2", "exp-shift", "meet-trivial"],
)
def test_a_step_without_a_budget_spends_a_fresh_default_one(step):
    # 5000 * 5001 / 2 terms are past the default of 10^7, and are spent
    # before any is formed
    with pytest.raises(CapacityError, match=r"node budget 10000000 exceeded$"):
        step()
