"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single
pass/fail line per criterion.  Budgets and wall-clock limits are pinned
here; a failure means the release gate is not met.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

from growthlab import Budget, ClassSpec, FlipSpec, IntSeq, bell, count_labelled
from growthlab import count_orbits_injective, eval_lseq, find_coding_witness
from growthlab import flip_recover, flipped_paths, gap_verdict, half_graph, parse_expr
from growthlab import parse_relation, stirling_transform, truncate_expr, verify_coding_witness
from growthlab import FinPermGroup
from growthlab.witness_search import STATUS_FOUND, STATUS_NONE

import oracles
from conftest import DATA, run_cli

TUPLE_BUDGET = 200_000_000

MSNC_FIXTURES = (
    "(wr (wr (finite 1)))",
    "(prod (wr (wr (finite 1))) (wr (finite 1)))",
    "(prod (wr (wr (finite 1))) (finite 2))",
)

CELLULAR_FIXTURES = (
    "(wr (finite 1))",
    "(wr (finite 2 full-sym))",
    "(wr (finite 3 gens=[(0 1 2), (0 1)]))",
    "(prod (wr (finite 2 full-sym)) (wr (finite 1)))",
)

LEAVES = (
    "(finite 1)",
    "(finite 2)",
    "(finite 3)",
    "(finite 2 full-sym)",
    "(finite 3 full-sym)",
    "(finite 3 gens=[(0 1 2)])",
)

TEN_GROUPS = (
    FinPermGroup.trivial(3),
    FinPermGroup.symmetric(3),
    FinPermGroup.symmetric(4),
    FinPermGroup.symmetric(6),
    FinPermGroup(4, ((1, 2, 3, 0),)),                       # C4
    FinPermGroup(6, ((1, 2, 3, 4, 5, 0),)),                 # C6
    FinPermGroup(4, ((1, 0, 3, 2), (2, 3, 0, 1))),          # Klein four
    FinPermGroup(4, ((1, 2, 3, 0), (2, 1, 0, 3))),          # D4
    FinPermGroup(4, ((1, 2, 0, 3), (1, 0, 3, 2))),          # A4
    FinPermGroup(5, ((1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 2, 4, 3))),  # S3 x S2
)


def _sample_expr_text(rng: random.Random, depth: int = 0) -> str:
    if depth >= 3 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    if rng.random() < 0.65:
        return f"(wr {_sample_expr_text(rng, depth + 1)})"
    left = _sample_expr_text(rng, depth + 1)
    right = _sample_expr_text(rng, depth + 1)
    return f"(prod {left} {right})"


def test_criterion_01_bell_identity_via_cli():
    start = time.monotonic()
    proc = run_cli(
        "seq",
        str(DATA / "e_rel.expr"),
        "--max-n", "12",
        "--oracle-check",
        "--budget-tuples", str(TUPLE_BUDGET),
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0
    env = json.loads(proc.stdout)
    l_rows = {int(r["n"]): int(r["value"]) for r in env["results"] if r["name"] == "l"}
    assert l_rows == {n: oracles.brute_bell(n) if n <= 9 else bell(12)[n] for n in range(13)}
    oracle_rows = [r for r in env["results"] if r["name"].startswith("oracle")]
    assert oracle_rows and all(r["verdict"] == "match" for r in oracle_rows)
    assert elapsed < 30.0


def test_criterion_02_second_order_bell_exact():
    got = stirling_transform(eval_lseq(parse_expr("(wr (wr (finite 1)))"), 8))
    for n in range(9):
        assert got[n] == oracles.brute_refinement_pairs(n)


def test_criterion_03_egf_calculus_vs_truncation_oracle():
    start = time.monotonic()
    rng = random.Random(7)
    texts = [_sample_expr_text(rng) for _ in range(20)]
    for text in texts:
        expr = parse_expr(text)
        lseq = eval_lseq(expr, 4)
        for n in range(5):
            g = truncate_expr(expr, max(n, 1))
            got = count_orbits_injective(g, n, budget=Budget(TUPLE_BUDGET)).count
            assert got == lseq[n], (text, n, got, lseq[n])
    assert time.monotonic() - start < 300.0


def test_criterion_04_gap_bounds_on_fixtures():
    for text in MSNC_FIXTURES:
        reports = {r.kind: r for r in gap_verdict(parse_expr(text), 50)}
        lower = reports["bell-lower"]
        assert lower.passed and lower.verified_range == (1, 50), text
        assert eval_lseq(parse_expr(text), 1)[0] == 1 == bell(0)[0], text
        upper = reports["factorial-upper"]
        assert upper.passed and upper.c == 2 and upper.n0 is not None, text
        assert upper.n0 <= 50, text
    for text in CELLULAR_FIXTURES:
        (report,) = gap_verdict(parse_expr(text), 30)
        assert report.kind == "cellular-bound" and report.passed, text
        assert report.d is not None and report.d <= Fraction(4, 5), text


def test_criterion_05_stirling_identity_for_ten_groups():
    assert len(TEN_GROUPS) == 10
    for g in TEN_GROUPS:
        s = stirling_transform(IntSeq(count_orbits_injective(g, 4).counts))
        for n in range(5):
            assert s[n] == oracles.brute_orbit_count(g.generators, g.degree, n, injective=False), (g.degree, n)


def test_criterion_06_half_graph_class_lower_bound():
    start = time.monotonic()
    spec = ClassSpec("generators", (half_graph(8),))
    host_sets = [set() for _ in range(16)]
    for u, w in half_graph(8).edges():
        host_sets[u].add(w)
        host_sets[w].add(u)
    n4 = count_labelled(spec, 4)
    assert n4 == oracles.brute_count_labelled("generators", [host_sets], 4)
    assert n4 >= 4
    n6 = count_labelled(spec, 6)
    assert n6 >= 36
    assert n6 == 2342  # frozen from an earlier run that a second kernel agreed with
    assert time.monotonic() - start < 120.0


def test_criterion_07_flip_recovery_roundtrips():
    failures = 0
    rng = random.Random(7)
    for _ in range(100):
        spec = FlipSpec.random(6, rng)
        if flip_recover(flipped_paths(6, spec=spec)) != flipped_paths(6):
            failures += 1
    pairs = list(itertools.combinations_with_replacement(range(3), 2))
    for mask in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
        spec = FlipSpec.from_pairs(3, chosen)
        if flip_recover(flipped_paths(3, spec=spec)) != flipped_paths(3):
            failures += 1
    assert failures == 0


def test_criterion_08_coding_witness_on_pairing_fixture():
    rel = parse_relation((DATA / "pairing64.rel").read_text())
    start = time.monotonic()
    result = find_coding_witness(rel, 4)
    elapsed = time.monotonic() - start
    assert result.status == STATUS_FOUND
    assert result.witness.size == 4
    assert verify_coding_witness(rel, result.witness)
    assert elapsed < 60.0
    empty = parse_relation((DATA / "empty64.rel").read_text())
    assert find_coding_witness(empty, 1).status == STATUS_NONE


def test_criterion_09_oeis_bfile_agreement():
    cases = (
        ("bell", "b000110.txt", "20"),
        ("bell2", "b000258.txt", "15"),
        ("meet-trivial-pairs", "b059849.txt", "8"),
    )
    for name, bfile, max_n in cases:
        proc = run_cli(
            "oeis", "--seq", name, "--bfile", str(DATA / bfile), "--max-n", max_n
        )
        assert proc.returncode == 0, (name, proc.stderr)
        env = json.loads(proc.stdout)
        terms = [r for r in env["results"] if r["name"] == "term"]
        assert len(terms) == int(max_n) + 1
        assert all(r["verdict"] == "match" for r in terms)


def test_criterion_10_deterministic_output_is_byte_identical():
    commands = (
        ("seq", str(DATA / "e_rel.expr"), "--max-n", "8"),
        ("witness", "coding", str(DATA / "pairing9.rel"), "--size", "3"),
        ("graphs", "fliproundtrip", "--k", "4", "--seeds", "5"),
    )
    for args in commands:
        a = run_cli(*args, "--deterministic", "--seed", "7")
        b = run_cli(*args, "--deterministic", "--seed", "7")
        assert a.returncode == b.returncode
        assert a.stdout == b.stdout and a.stdout.strip(), args
