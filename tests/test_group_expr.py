"""Expression DSL: parsing, formatting, classification, sequence evaluation."""
from __future__ import annotations

from math import comb, perm

import pytest

from growthlab import DirectProduct, FinPermGroup, Finite, ParseError, WreathSomega
from growthlab import bell, classify, count_orbits_injective, eval_lseq
from growthlab import format_expr, gap_verdict, parse_expr, stirling_transform, truncate_expr

import oracles

ROUNDTRIP = [
    "(finite 1)",
    "(finite 4)",
    "(finite 2 full-sym)",
    "(finite 3 gens=[(0 1 2), (0 1)])",
    "(wr (finite 1))",
    "(wr (wr (finite 1)))",
    "(prod (finite 2) (wr (finite 3 full-sym)))",
    "(prod (finite 1) (finite 1) (finite 1))",
    "(wr (prod (wr (finite 2 full-sym)) (finite 1)))",
]


# ---------------------------------------------------------------------------
# Parse / format


@pytest.mark.parametrize("text", ROUNDTRIP)
def test_parse_format_roundtrip(text):
    expr = parse_expr(text)
    assert parse_expr(format_expr(expr)) == expr


def test_format_is_canonical():
    assert format_expr(parse_expr("( wr   ( finite  2 ) )")) == "(wr (finite 2))"


def test_parse_gens_keyword():
    expr = parse_expr("(finite 3 gens=[(0 1 2), (0 1)])")
    assert isinstance(expr, Finite)
    assert expr.group.degree == 3
    assert len(oracles.group_closure(expr.group.generators, 3)) == 6


def test_full_sym_matches_explicit_symmetric():
    a = parse_expr("(finite 4 full-sym)")
    assert a == Finite(FinPermGroup.symmetric(4))


def test_parse_builds_expected_tree():
    expr = parse_expr("(prod (wr (finite 1)) (finite 2))")
    assert isinstance(expr, DirectProduct)
    assert isinstance(expr.factors[0], WreathSomega)
    assert isinstance(expr.factors[1], Finite)


BAD = [
    ("", 0),
    ("finite 2", 0),
    ("(finite 0)", 9),
    ("(finite 2", 9),
    ("(wr)", 3),
    ("(prod (finite 1))", 16),
    ("(finite 2 gens=[(0 5)])", 20),
    ("(finite 2) junk", 11),
    ("(badop 1)", 6),
]


@pytest.mark.parametrize("text,pos", BAD)
def test_parse_errors_carry_positions(text, pos):
    with pytest.raises(ParseError) as exc_info:
        parse_expr(text)
    assert exc_info.value.position == pos


# ---------------------------------------------------------------------------
# Classification


def test_classify_finite():
    assert classify(parse_expr("(finite 3)")) == "finite"
    assert classify(parse_expr("(prod (finite 2) (finite 3 full-sym))")) == "finite"


def test_classify_cellular():
    for text in (
        "(wr (finite 1))",
        "(wr (finite 3 gens=[(0 1 2), (0 1)]))",
        "(prod (wr (finite 2 full-sym)) (wr (finite 1)))",
        "(prod (wr (finite 2)) (finite 3))",
    ):
        assert classify(parse_expr(text)) == "cellular", text


def test_classify_msnc():
    for text in (
        "(wr (wr (finite 1)))",
        "(wr (prod (wr (finite 1)) (finite 1)))",
        "(prod (wr (wr (finite 1))) (finite 2))",
    ):
        assert classify(parse_expr(text)) == "msnc", text


# ---------------------------------------------------------------------------
# Sequence evaluation


def test_bell_structure_lseq():
    got = eval_lseq(parse_expr("(wr (wr (finite 1)))"), 12)
    assert list(got) == list(bell(12))


def test_involution_structure_lseq():
    got = eval_lseq(parse_expr("(wr (finite 2 full-sym))"), 7)
    assert list(got) == list(oracles.INVOLUTIONS)


def test_bell_structure_deep_prefix():
    got = eval_lseq(parse_expr("(wr (wr (finite 1)))"), 400)
    for n in (100, 250, 400):
        assert got[n] == oracles.bell_by_triangle(n), n


def test_involution_structure_deep_prefix():
    # leaf terms past degree 2 are zero, the case exp_shift skips
    assert oracles.involutions_by_recurrence(7) == list(oracles.INVOLUTIONS)
    got = eval_lseq(parse_expr("(wr (finite 2 full-sym))"), 300)
    assert list(got) == oracles.involutions_by_recurrence(300)


def test_pure_cells_lseq_is_constant_one():
    assert list(eval_lseq(parse_expr("(wr (finite 1))"), 9)) == [1] * 10


def test_finite_leaf_lseq():
    assert list(eval_lseq(parse_expr("(finite 3 full-sym)"), 5)) == [1, 1, 1, 1, 0, 0]
    assert list(eval_lseq(parse_expr("(finite 2)"), 4)) == [1, 2, 2, 0, 0]


def test_leaves_of_degree_nine_and_ten_fit_the_state_space_cap():
    # an injective count settles perm(d, n) tuples, 10! at most here,
    # although 9^9 and 10^9 tuples of all kinds exceed the cap
    assert list(eval_lseq(parse_expr("(finite 10)"), 11)) == [perm(10, n) for n in range(12)]
    assert list(eval_lseq(parse_expr("(finite 9)"), 10)) == [perm(9, n) for n in range(11)]
    assert list(eval_lseq(parse_expr("(finite 10 full-sym)"), 11)) == [1] * 11 + [0]
    # partitions of [11] into blocks of at most 10 points
    assert eval_lseq(parse_expr("(wr (finite 10 full-sym))"), 11)[11] == bell(11)[11] - 1


def test_product_lseq_is_binomial_convolution():
    a = parse_expr("(wr (finite 2 full-sym))")
    b = parse_expr("(finite 3)")
    la, lb = eval_lseq(a, 6), eval_lseq(b, 6)
    lp = eval_lseq(parse_expr(f"(prod {format_expr(a)} {format_expr(b)})"), 6)
    for n in range(7):
        assert lp[n] == sum(comb(n, k) * la[k] * lb[n - k] for k in range(n + 1))


def test_second_order_bell_sseq():
    got = stirling_transform(eval_lseq(parse_expr("(wr (wr (finite 1)))"), 8))
    assert list(got) == list(oracles.REFINEMENT_PAIRS[:9])
    for n in range(7):
        assert got[n] == oracles.brute_refinement_pairs(n)


def test_lseq_matches_truncation_oracle_small():
    for text in ROUNDTRIP[:6]:
        expr = parse_expr(text)
        lseq = eval_lseq(expr, 3)
        for n in range(4):
            g = truncate_expr(expr, max(n, 1))
            assert count_orbits_injective(g, n).count == lseq[n], (text, n)


def test_lseq_matches_brute_closure_oracle():
    # Fully independent route: enumerate the closure of the truncation and
    # count orbits by canonical minimum image.
    expr = parse_expr("(wr (finite 2 full-sym))")
    lseq = eval_lseq(expr, 3)
    for n in range(4):
        g = truncate_expr(expr, max(n, 1))
        want = oracles.brute_orbit_count(g.generators, g.degree, n, injective=True)
        assert lseq[n] == want


def test_eval_rejects_negative_order():
    with pytest.raises(ValueError):
        eval_lseq(parse_expr("(finite 2)"), -1)


# ---------------------------------------------------------------------------
# Gap verdicts


def test_gap_verdict_finite_has_no_bounds():
    assert gap_verdict(parse_expr("(finite 5)"), 50) == []


def test_gap_verdict_msnc_reports_both_bounds():
    reports = gap_verdict(parse_expr("(wr (wr (finite 1)))"), 50)
    kinds = {r.kind: r for r in reports}
    assert set(kinds) == {"bell-lower", "factorial-upper"}
    assert kinds["bell-lower"].passed
    assert kinds["factorial-upper"].passed
    assert kinds["factorial-upper"].n0 == 35


def test_gap_verdict_cellular_reports_grid_bound():
    reports = gap_verdict(parse_expr("(wr (finite 1))"), 30)
    assert len(reports) == 1
    r = reports[0]
    assert r.kind == "cellular-bound" and r.passed
    assert r.d is not None and r.d < 1


def test_gap_verdict_requires_enough_terms():
    with pytest.raises(ValueError):
        gap_verdict(parse_expr("(wr (wr (finite 1)))"), 9)


def test_gap_verdict_msnc_bell_lower_is_tight_for_bell():
    # The bell structure's l_n equals B_n, so the lower bound is equality.
    reports = gap_verdict(parse_expr("(wr (wr (finite 1)))"), 20)
    lower = next(r for r in reports if r.kind == "bell-lower")
    assert lower.passed and lower.verified_range == (1, 20)
