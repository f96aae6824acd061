"""The sequence calculus: binomial convolution and the exponential formula.

These are the EGF product and exp(f - 1), worked on the integer
coefficients a_n rather than on a_n / n!.  The file keeps its name so
that test ids compare with earlier records.
"""
from __future__ import annotations

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from growthlab import IntSeq, bell, binomial_convolution, exp_shift

import oracles

seqs = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=10)


def _ones(n_max: int) -> IntSeq:
    return IntSeq((1,) * (n_max + 1))


# ---------------------------------------------------------------------------
# Product = binomial convolution of the counting sequences


@given(seqs, seqs)
def test_product_is_binomial_convolution(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    prod = binomial_convolution(IntSeq(tuple(a)), IntSeq(tuple(b)))
    for m in range(n):
        assert prod[m] == sum(comb(m, k) * a[k] * b[m - k] for k in range(m + 1))


@given(seqs, seqs)
def test_product_commutes(a, b):
    n = min(len(a), len(b))
    sa, sb = IntSeq(tuple(a[:n])), IntSeq(tuple(b[:n]))
    assert binomial_convolution(sa, sb) == binomial_convolution(sb, sa)


def test_product_rejects_order_mismatch():
    with pytest.raises(ValueError):
        binomial_convolution(IntSeq((1,)), IntSeq((1, 1)))


# ---------------------------------------------------------------------------
# Exp shift: the exponential formula, checked against series composition


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=8))
def test_exp_shift_matches_series_composition(tail):
    a = (1, *tail)
    assert list(exp_shift(IntSeq(a))) == oracles.brute_exp_shift(a)


def test_exp_shift_of_exp_prefix_is_bell():
    assert list(exp_shift(_ones(12))) == list(bell(12))


def test_exp_shift_of_pair_structure_counts_involutions():
    # Blocks of size <= 2 with full symmetry: l = (1, 1, 1).
    a = IntSeq((1, 1, 1, 0, 0, 0, 0, 0))
    assert list(exp_shift(a)) == list(oracles.INVOLUTIONS)


def test_exp_shift_requires_constant_term_one():
    with pytest.raises(ValueError):
        exp_shift(IntSeq((2, 1)))


# ---------------------------------------------------------------------------
# Wreath layer: e wr S_omega composes the EGF of S_omega, exp(x), with
# f_e - 1; exp_shift is that composition on the integer coefficients


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7))
def test_wreath_with_exp_outer_equals_exp_shift(tail):
    a = (1, *tail)
    outer = (1,) * len(a)
    assert list(exp_shift(IntSeq(a))) == oracles.brute_wreath(a, outer)


def test_wreath_requires_inner_constant_one():
    with pytest.raises(ValueError):
        exp_shift(IntSeq((0, 1)))


def test_wreath_nested_exp_gives_second_order_bell_sequence():
    assert list(exp_shift(exp_shift(_ones(10)))) == list(oracles.REFINEMENT_PAIRS[:11])
