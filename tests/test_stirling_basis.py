"""The evaluator's Stirling basis: each subexpression is carried as (h, k),
standing for l = St^k(h), and St is applied once at the root.

The values are checked against an evaluator that works every level in
the plain basis (oracles.lseq_by_x_basis), the two identities the rules
rest on are checked on random sequences, and two work tests pin what
the basis saves: exp_shift never sees a full-support input on the wreath
towers over the pure set, and one bounds run builds the Bell triangle
once.
"""
from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from growthlab import IntSeq, binomial_convolution, cli, eval_lseq, exp_shift, parse_expr, stirling_transform
from growthlab import group_expr, seq_core

import oracles
from conftest import DATA

OMEGA = "(wr (finite 1))"

#: the oracle's leaf trees and their expression text
LEAVES = {
    ("finite", 1, ()): "(finite 1)",
    ("finite", 2, ()): "(finite 2)",
    ("finite", 2, ((1, 0),)): "(finite 2 full-sym)",
    ("finite", 3, ((1, 2, 0),)): "(finite 3 gens=[(0 1 2)])",
}


def _trees(depth: int):
    leaves = st.sampled_from(sorted(LEAVES))
    if depth == 0:
        return leaves
    sub = _trees(depth - 1)
    return st.one_of(
        leaves,
        sub.map(lambda base: ("wr", base)),
        st.lists(sub, min_size=2, max_size=3).map(lambda factors: ("prod", *factors)),
    )


def _text(tree) -> str:
    if tree[0] == "finite":
        return LEAVES[tree]
    return f"({tree[0]} " + " ".join(map(_text, tree[1:])) + ")"


@settings(deadline=None, max_examples=80)
@given(_trees(4), st.integers(min_value=1, max_value=40))
def test_eval_lseq_matches_the_x_basis_evaluator(tree, n_max):
    got = eval_lseq(parse_expr(_text(tree)), n_max)
    assert list(got) == oracles.lseq_by_x_basis(tree, n_max)


# h_0 = 1, the rest small and often zero, as at a finite leaf
unit_heads = st.lists(st.one_of(st.just(0), st.integers(min_value=0, max_value=10**6)), min_size=0, max_size=24).map(
    lambda tail: [1, *tail]
)


@settings(deadline=None, max_examples=60)
@given(unit_heads)
def test_stirling_transform_commutes_with_exp_shift(h):
    want = oracles.stirling_by_comb(oracles.exp_shift_by_comb(h))
    assert want == oracles.exp_shift_by_comb(oracles.stirling_by_comb(h))
    assert list(stirling_transform(exp_shift(IntSeq(h)))) == want
    assert list(exp_shift(stirling_transform(IntSeq(h)))) == want


@settings(deadline=None, max_examples=60)
@given(unit_heads, unit_heads)
def test_stirling_transform_commutes_with_the_binomial_convolution(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    want = oracles.stirling_by_comb(oracles.convolution_by_comb(a, b))
    assert want == oracles.convolution_by_comb(oracles.stirling_by_comb(a), oracles.stirling_by_comb(b))
    st_a, st_b = stirling_transform(IntSeq(a)), stirling_transform(IntSeq(b))
    assert list(binomial_convolution(st_a, st_b)) == want


def test_stirling_transform_of_the_one_point_and_of_the_pure_set():
    one_point = IntSeq((1, 1) + (0,) * 59)
    ones = stirling_transform(one_point)
    assert list(ones) == [1] * 61 == oracles.stirling_by_comb(one_point.values)
    assert list(stirling_transform(ones)) == [oracles.bell_by_triangle(n) for n in range(61)]


def test_w3_matches_every_b000258_entry():
    bfile = {}
    for line in (DATA / "b000258.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            n, value = line.split()
            bfile[int(n)] = int(value)
    got = eval_lseq(parse_expr(f"(wr (wr {OMEGA}))"), max(bfile))
    assert {n: got[n] for n in bfile} == bfile


def test_wreath_towers_over_the_pure_set_pass_exp_shift_no_full_support_input(monkeypatch):
    seen = []

    def recording(a):
        seen.append(a)
        return exp_shift(a)

    monkeypatch.setattr(group_expr, "exp_shift", recording)
    towers = [OMEGA]
    for _ in range(3):
        towers.append(f"(wr {towers[-1]})")
    for text in [*towers[1:], f"(wr (prod {OMEGA} {OMEGA}))"]:
        eval_lseq(parse_expr(text), 120)
    assert seen, "(wr (prod Ω Ω)) takes exp_shift over its finite base"
    assert all(a[-1] == 0 for a in seen), [a.values[:4] for a in seen if a[-1]]


def test_one_bounds_run_on_e_rel_builds_the_bell_triangle_once(monkeypatch, capsys):
    rows = []
    accumulate = seq_core.accumulate

    def counting(row, initial):
        rows.append(initial)
        return accumulate(row, initial=initial)

    monkeypatch.setattr(seq_core, "accumulate", counting)
    monkeypatch.setattr(seq_core, "_BELL", [1])
    monkeypatch.setattr(seq_core, "_BELL_ROW", [1])
    argv = ["bounds", str(DATA / "e_rel.expr"), "--max-n", "350", "--deterministic"]
    assert cli.main(argv) == cli.EXIT_OK
    verdicts = [row.get("verdict") for row in json.loads(capsys.readouterr().out)["results"]]
    assert "pass" in verdicts
    # rows 1..350 of the triangle, B_0 being row 0
    assert len(rows) == 350
