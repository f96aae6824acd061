"""Each output check accepts growthlab's real answer and rejects a wrong one.

The envelopes come from growthlab.cli.main on small inputs; each test
then corrupts one answer the way a bug would and expects the check to
report it.  Run from the root of the repository:
python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as w  # noqa: E402
from growthlab.cli import main as growthlab_main  # noqa: E402


def _envelope(op: w.Op) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = growthlab_main(list(op.argv))
    assert code == op.expected_exit
    env = json.loads(out.getvalue())
    assert op.check(env) == []
    return env


def _row(env: dict, name: str, n: int | None = None) -> dict:
    return next(r for r in env["results"] if r["name"] == name and (n is None or int(r["n"]) == n))


@pytest.fixture
def inputs(tmp_path):
    return w._Inputs(tmp_path)


def test_seq_check_rejects_an_l_off_by_one(inputs):
    op = w._seq_op(inputs, "t", ("wr", ("wr", w.F1)), 5, oracle=True, trunc_m=3)
    env = _envelope(op)
    for name in ("l", "s", "oracle-l"):
        bad = copy.deepcopy(env)
        row = _row(bad, name, 3)
        row["value"] = str(int(row["value"]) + 1)
        assert op.check(bad), name
    bad = copy.deepcopy(env)
    _row(bad, "classification")["verdict"] = "syntactic-cellular"
    assert op.check(bad)


def test_bounds_check_rejects_a_flipped_verdict(inputs):
    cases = [
        (w.E_REL, [(w.Fraction(2), None)]),
        (("wr", ("wr", ("wr", w.F1))), [(w.Fraction(2), None)]),
        (("wr", w.S2), [(w.Fraction(1), w.Fraction(1, 2)), (w.Fraction(2), w.Fraction(4, 5))]),
    ]
    for expr, grid in cases:
        op = w._bounds_op(inputs, "t", expr, 60, grid)
        env = _envelope(op)
        for i, row in enumerate(env["results"]):
            if row["name"] == "classification":
                continue
            bad = copy.deepcopy(env)
            bad["results"][i]["verdict"] = "fail" if row["verdict"] == "pass" else "pass"
            assert op.check(bad), (expr, row)
        n0_rows = [i for i, r in enumerate(env["results"]) if "n0" in r]
        for i in n0_rows:
            bad = copy.deepcopy(env)
            bad["results"][i]["n0"] = str(int(bad["results"][i]["n0"]) + 1)
            assert op.check(bad)


def test_oeis_check_rejects_a_wrong_term(inputs):
    path = inputs.write(".txt", w._bfile_text("A000110", w.ref.bell_numbers(30)))
    op = w._oeis_op("t", ["--seq", "bell"], w.ref.bell_numbers(30), path, 30)
    env = _envelope(op)
    bad = copy.deepcopy(env)
    row = _row(bad, "term", 17)
    row["value"] = str(int(row["value"]) + 1)
    assert op.check(bad)


def test_count_check_rejects_a_member_count_off_by_one(inputs):
    h3 = (6, w._half_graph_edges(3))
    ops = [
        w._count_op(inputs, "t", "generators", [h3], 4, w.ref.generated_class_count([h3], 4)),
        w._count_op(inputs, "t", "forbidden", [(3, [(0, 1), (1, 2)]), (3, [(0, 1), (1, 2), (0, 2)])], 5, 26),
    ]
    for op in ops:
        env = _envelope(op)
        for delta in (-1, 1):
            bad = copy.deepcopy(env)
            row = _row(bad, "count_labelled")
            row["value"] = str(int(row["value"]) + delta)
            assert op.check(bad)


def test_semiinduced_check_rejects_a_wrong_order(inputs):
    op = w._semi_op(inputs, "t", random.Random(1), 5)
    env = _envelope(op)
    bad = copy.deepcopy(env)
    _row(bad, "semi_induced_order")["value"] = "4"
    assert op.check(bad)


def test_witness_checks_reject_one_changed_cell(inputs):
    rng = random.Random(3)
    order = w._order_op(inputs, "t", rng, 20, 4, 0.6)
    env = _envelope(order)
    bad = copy.deepcopy(env)
    a_row = _row(bad, "a_seq")
    unused = next(str(p) for p in range(20) if str(p) not in a_row["value"] + _row(bad, "b_seq")["value"])
    a_row["value"][1] = unused
    assert order.check(bad)

    coding = w._coding_op(inputs, "t", rng, 30, 3, 0.1)
    env = _envelope(coding)
    table = _row(env, "table")["value"]
    for i, j in ((0, 0), (0, 1), (2, 1)):
        bad = copy.deepcopy(env)
        bad_table = _row(bad, "table")["value"]
        bad_table[i][j], bad_table[0][2] = table[0][2], table[i][j]
        assert coding.check(bad), (i, j)
    bad = copy.deepcopy(env)
    _row(bad, "search")["verdict"] = "none"
    assert coding.check(bad)


def test_coding_none_is_forced_by_the_pigeonhole(inputs):
    op = w._coding_none_op(inputs, "t", random.Random(5), 12, 3, 8, 0.4)
    env = _envelope(op)
    bad = copy.deepcopy(env)
    _row(bad, "search")["verdict"] = "found"
    assert op.check(bad)
    with pytest.raises(ValueError):
        w._coding_none_op(inputs, "t", random.Random(5), 12, 3, 9, 0.4)


def test_workloads_are_a_function_of_the_seed(tmp_path):
    for workload in w.WORKLOADS:
        dirs = [tmp_path / workload / name for name in "abc"]
        for d in dirs:
            d.mkdir(parents=True)
        first = w.build(workload, 7, dirs[0])
        again = w.build(workload, 7, dirs[1])
        other = w.build(workload, 8, dirs[2])
        texts = [
            [Path(a).read_text() for op in ops for a in op.argv if a.startswith(str(tmp_path))]
            for ops in (first, again, other)
        ]
        assert texts[0] == texts[1]
        assert texts[0] != texts[2]
        assert [op.label for op in first] == [op.label for op in other]


def test_layer_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["group_expr.eval_lseq", 1.0, 7.0, 0, {}],
        ["egf_algebra.exp_shift", 2.0, 5.0, 1, {"terms": 300}],
        ["orbit_oracle.leaf_count", 5.0, 6.0, 1, {"tuples": 12}],
        ["seq_core.stirling_transform", 8.0, 9.0, 0, {}],
    ]
    m = tracing.layer_metrics([spans, spans])
    assert m["cli.self_s"] == 2 * (10 - 6 - 1)
    assert m["group_expr.eval_lseq_s"] == 12.0
    assert m["group_expr.eval_self_s"] == 2 * (6 - 3 - 1)
    assert m["egf_algebra.terms"] == 600
    assert m["orbit_oracle.leaf_tuples"] == 24
    assert m["graph_classes.count_s"] == 0.0
    assert set(m) | {"run.cpu_s", "trace.overhead_s"} == set(tracing.PER_LAYER)
