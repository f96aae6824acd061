"""The sequence calculus: binomial convolution and the exponential formula.

These are the EGF product and exp(f - 1), worked on the integer
coefficients a_n rather than on a_n / n!.  The file keeps its name so
that test ids compare with earlier records.
"""
from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import IntSeq, bell, binomial_convolution, exp_shift

import oracles
from conftest import DATA

seqs = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=10)

# entries up to 10^30, often zero
big_entries = st.one_of(st.just(0), st.integers(min_value=0, max_value=10**30))


@st.composite
def zero_tailed(draw, size: int) -> list[int]:
    """A prefix of the given length whose entries past a random support
    are zero, like the sequence of a finite leaf; exp_shift cuts its
    Pascal row at the last non-zero entry for the later terms."""
    support = draw(st.integers(min_value=0, max_value=size))
    head = draw(st.lists(big_entries, min_size=support, max_size=support))
    return head + [0] * (size - support)


@st.composite
def full_support(draw, size: int) -> list[int]:
    """A prefix of the given length with big entries whose last entry is
    non-zero, like the sequence of an infinite structure."""
    head = draw(st.lists(big_entries, min_size=size - 1, max_size=size - 1))
    return head + [draw(st.integers(min_value=1, max_value=10**30))]


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


# ---------------------------------------------------------------------------
# The running Pascal row against per-term binomials, on long prefixes with
# big entries: the row grows while n <= top and is cut at top afterwards


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=80).flatmap(lambda n: st.tuples(zero_tailed(n), zero_tailed(n))))
def test_product_matches_convolution_by_comb(pair):
    a, b = pair
    assert list(binomial_convolution(IntSeq(tuple(a)), IntSeq(tuple(b)))) == oracles.convolution_by_comb(a, b)


def test_product_with_a_finite_factor_on_either_side():
    # (finite 2) x e_rel: the row is cut at the finite factor's last
    # non-zero entry, whichever side it is on; a zero factor gives zeros
    finite = [1, 2, 2] + [0] * 118
    bell_row = [oracles.bell_by_triangle(n) for n in range(121)]
    want = oracles.convolution_by_comb(finite, bell_row)
    assert list(binomial_convolution(IntSeq(tuple(finite)), IntSeq(tuple(bell_row)))) == want
    assert list(binomial_convolution(IntSeq(tuple(bell_row)), IntSeq(tuple(finite)))) == want
    zero = IntSeq((0,) * 121)
    assert list(binomial_convolution(zero, IntSeq(tuple(bell_row)))) == [0] * 121


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=79).flatmap(zero_tailed))
def test_exp_shift_matches_exp_shift_by_comb(tail):
    a = (1, *tail)
    assert list(exp_shift(IntSeq(a))) == oracles.exp_shift_by_comb(a)


def test_exp_shift_twice_matches_every_b000258_entry():
    bfile = {}
    for line in (DATA / "b000258.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            n, value = line.split()
            bfile[int(n)] = int(value)
    got = exp_shift(exp_shift(_ones(max(bfile))))
    assert {n: got[n] for n in bfile} == bfile


def test_exp_shift_of_ones_is_bell_to_400():
    assert list(exp_shift(_ones(400))) == [oracles.bell_by_triangle(n) for n in range(401)]


# ---------------------------------------------------------------------------
# The pure set, l constant 1 (EGF e^x): a product with it is the binomial
# transform of the other factor, taken by additions when that factor has
# full support, and its wreath is the Bell sequence


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=120).flatmap(lambda n: st.one_of(full_support(n), zero_tailed(n))),
    st.booleans(),
)
def test_product_with_the_pure_set_matches_convolution_by_comb(other, pure_first):
    ones = [1] * len(other)
    a, b = (ones, other) if pure_first else (other, ones)
    assert list(binomial_convolution(IntSeq(tuple(a)), IntSeq(tuple(b)))) == oracles.convolution_by_comb(a, b)


@pytest.mark.parametrize("other", ["e_rel", "finite 3"])
def test_product_with_the_pure_set_on_either_side(other):
    # e_rel has full support and takes the additions; (finite 3) ends at
    # index 3 and keeps the cut Pascal row
    if other == "e_rel":
        values = [oracles.bell_by_triangle(n) for n in range(121)]
    else:
        values = [1, 3, 6, 6] + [0] * 117
    ones = [1] * 121
    want = oracles.convolution_by_comb(values, ones)
    assert list(binomial_convolution(IntSeq(tuple(values)), IntSeq(tuple(ones)))) == want
    assert list(binomial_convolution(IntSeq(tuple(ones)), IntSeq(tuple(values)))) == want


@pytest.mark.parametrize("n_max", [0, 1, 2, 120])
def test_pure_set_squared_is_powers_of_two(n_max):
    assert list(binomial_convolution(_ones(n_max), _ones(n_max))) == [2**n for n in range(n_max + 1)]


@pytest.mark.parametrize("n_max", [0, 1, 2, 150])
def test_exp_shift_of_ones_matches_exp_shift_by_comb(n_max):
    assert list(exp_shift(_ones(n_max))) == oracles.exp_shift_by_comb([1] * (n_max + 1))
