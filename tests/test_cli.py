"""End-to-end CLI behaviour: envelopes, exit codes, formats, determinism."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc

import pytest

from growthlab import Budget, ParseError, bell, cli

import golden
import oracles
from conftest import DATA, cli_json, run_cli

E_REL = str(DATA / "e_rel.expr")
SOMEGA = str(DATA / "somega.expr")
B110 = str(DATA / "b000110.txt")
B258 = str(DATA / "b000258.txt")
B849 = str(DATA / "b059849.txt")
PAIR9 = str(DATA / "pairing9.rel")
LESS10 = str(DATA / "less10.rel")
EMPTY64 = str(DATA / "empty64.rel")
FORBID_K2 = str(DATA / "forbid_k2.classes")
P3_K3 = str(DATA / "p3_k3.classes")


def assert_all_numbers_are_strings(node):
    """Every numeric leaf in the JSON envelope must be a decimal string."""
    if isinstance(node, dict):
        for v in node.values():
            assert_all_numbers_are_strings(v)
    elif isinstance(node, list):
        for v in node:
            assert_all_numbers_are_strings(v)
    else:
        assert not isinstance(node, float)
        assert isinstance(node, (str, bool)) or node is None


def rows_by_name(env, name):
    return [r for r in env["results"] if r.get("name") == name]


# ---------------------------------------------------------------------------
# seq


def test_seq_emits_bell_prefix():
    code, env = cli_json("seq", E_REL, "--max-n", "10")
    assert code == 0
    assert env["command"] == "seq"
    got = {int(r["n"]): int(r["value"]) for r in rows_by_name(env, "l")}
    assert got == dict(enumerate(bell(10)))
    assert_all_numbers_are_strings(env)


def test_seq_emits_stirling_transform_rows():
    code, env = cli_json("seq", E_REL, "--max-n", "6")
    assert code == 0
    got = {int(r["n"]): int(r["value"]) for r in rows_by_name(env, "s")}
    assert got[6] == 2471  # second-order bell number


def test_seq_reports_classification():
    code, env = cli_json("seq", E_REL, "--max-n", "5")
    assert code == 0
    rows = rows_by_name(env, "classification")
    assert len(rows) == 1 and rows[0]["verdict"] == "msnc"


def test_seq_oracle_check_agrees():
    code, env = cli_json(
        "seq", E_REL, "--max-n", "4", "--oracle-check", "--budget-tuples", "10000000"
    )
    assert code == 0
    oracle_rows = [r for r in env["results"] if r["name"].startswith("oracle")]
    assert oracle_rows
    assert all(r["verdict"] == "match" for r in oracle_rows)


def test_seq_missing_file_is_input_error():
    proc = run_cli("seq", "/nonexistent/y.expr")
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_seq_bad_expression_is_input_error(tmp_path):
    bad = tmp_path / "bad.expr"
    bad.write_text("(wr (finite 0))\n")
    proc = run_cli("seq", str(bad))
    assert proc.returncode == 2


def test_seq_digit_outside_the_grammar_is_input_error(tmp_path):
    # a superscript two is a digit to str.isdigit but not to the grammar
    bad = tmp_path / "bad.expr"
    bad.write_text("(finite \u00b2)\n", encoding="utf-8")
    proc = run_cli("seq", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith("growthlab: parse error at position 8")


def test_seq_capacity_exit(tmp_path):
    # the parse, the evaluation, the Stirling transform and level m = 1
    # spend 47 units, and the truncation at level m = 2, 2 + 4 + 4 units
    # of generator images, overruns the budget
    proc = run_cli("seq", E_REL, "--max-n", "4", "--oracle-check", "--budget-tuples", "50")
    assert proc.returncode == 3
    env = json.loads(proc.stdout)
    assert env["telemetry"]["capacity"] == "truncation at m = 2: node budget 50 exceeded"
    # the rows computed before the budget ran out are still emitted
    assert len(rows_by_name(env, "l")) == len(rows_by_name(env, "s")) == 5


def test_seq_capacity_names_the_stage():
    # level m = 5 of (wr (wr (finite 1))) acts on 25 points and is counted
    # to depth 4, from 12,998 units spent to 56,794; the budget runs out
    # in the middle of that descent, while its root sifts, at the first
    # permutation of 25 points past the limit, and the rows of levels
    # 1..4 stay
    proc = run_cli("seq", E_REL, "--max-n", "4", "--oracle-check", "--budget-tuples", "17000", "--deterministic")
    assert proc.returncode == 3
    env = json.loads(proc.stdout)
    assert env["telemetry"]["capacity"] == "orbits on injective 4-tuples of degree 25: node budget 17000 exceeded"
    assert 17000 < int(env["telemetry"]["nodes"]) <= 17000 + 25
    oracle = rows_by_name(env, "oracle-l")
    assert [(r["n"], r["oracle"]["trunc_m"]) for r in oracle] == [
        (str(n), str(m)) for n in range(1, 5) for m in (n, n + 1)
    ][:-1]


def test_seq_oracle_check_keeps_its_rows_at_the_default_budget():
    # level m = 6 acts on 36 points, perm(36, 5) = 45,239,040 injective
    # 5-tuples, but its count takes 24 nodes and 5,714 sifted elements
    code, env = cli_json("seq", E_REL, "--max-n", "6", "--oracle-check", "--deterministic")
    assert code == 0
    oracle = rows_by_name(env, "oracle-l")
    assert [(r["n"], r["oracle"]["trunc_m"]) for r in oracle] == [
        (str(n), str(m)) for n in range(1, 6) for m in (n, n + 1)
    ]
    assert all(r["verdict"] == "match" for r in oracle)
    assert (env["telemetry"]["oracle_nodes"], env["telemetry"]["oracle_sifted"]) == ("63", "8837")


@pytest.mark.parametrize(
    "text, stage",
    [
        # the transversal of S_20000 would hold 2 * 20000 permutations of
        # 20000 points; its 3 * 20000 * 19999 point images are spent
        # before any is formed
        ("(finite 20000 full-sym)", "orbits on injective 2-tuples of degree 20000"),
        # the root would list 10^11 free points
        ("(finite 100000000000)", "orbits on injective 2-tuples of degree 100000000000"),
        # the parser would build 2 generators of 10^11 images each
        ("(finite 100000000000 full-sym)", "parse"),
    ],
    ids=["(finite 20000 full-sym)-20000", "(finite 100000000000)-100000000000", "(finite 100000000000 full-sym)-parse"],
)
def test_seq_leaf_of_large_degree_exits_at_once(tmp_path, text, stage):
    expr = tmp_path / "big.expr"
    expr.write_text(text + "\n")
    start = time.perf_counter()
    proc = run_cli("seq", str(expr), "--max-n", "2")
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 3
    env = json.loads(proc.stdout)
    assert env["telemetry"]["capacity"] == f"{stage}: node budget 10000000 exceeded"


def test_seq_prefix_over_the_budget_exits_at_once():
    # (wr (wr (finite 1))) to n = 100000: the Stirling transforms would
    # form 5 * 10^9 terms each, which is spent before any is formed
    start = time.perf_counter()
    proc = run_cli("seq", E_REL, "--max-n", "100000")
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 3
    env = json.loads(proc.stdout)
    assert env["telemetry"]["capacity"] == "Stirling transform to n = 100000: node budget 10000000 exceeded"
    assert env["results"] == []


@pytest.mark.parametrize(
    "flag, value",
    [("--budget-tuples", "-5"), ("--budget-tuples", "0"), ("--budget-nodes", "-1")],
)
def test_budget_below_one_is_input_error(flag, value):
    if flag == "--budget-tuples":
        argv = ("seq", E_REL, "--max-n", "4", "--oracle-check")
    else:
        argv = ("witness", "order", LESS10, "--size", "2")
    proc = run_cli(*argv, flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {flag}: budget must be at least 1, got {value}" in proc.stderr


@pytest.mark.parametrize("budget, code", [("400", 3), (None, 0)])
def test_seq_leaf_counts_spend_the_tuple_budget(tmp_path, budget, code):
    # the leaf S_11 has one orbit on perm(11, 11) = 39,916,800 tuples; the
    # parser spends its 2 generators of 11 images, and its descent takes
    # 10 nodes and 487 sifted elements and spends 13,301 point images
    expr = tmp_path / "s11.expr"
    expr.write_text("(finite 11 full-sym)\n")
    argv = ["seq", str(expr), "--max-n", "11", "--deterministic"] + (["--budget-tuples", budget] if budget else [])
    proc = run_cli(*argv)
    assert proc.returncode == code
    env = json.loads(proc.stdout)
    if budget:
        assert env["telemetry"]["capacity"] == "orbits on injective 11-tuples of degree 11: node budget 400 exceeded"
    else:
        assert rows_by_name(env, "l")[11]["value"] == "1"
        # the parse, the descent, then the 78 terms of the Stirling transform
        assert env["telemetry"]["nodes"] == str(2 * 11 + 13301 + 78)


def test_trunc_m_below_one_is_input_error_without_the_oracle_check():
    proc = run_cli("seq", E_REL, "--max-n", "4", "--trunc-m", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --trunc-m: truncation level must be at least 1, got 0" in proc.stderr


def test_trunc_m_without_the_oracle_check_is_input_error():
    proc = run_cli("seq", E_REL, "--max-n", "3", "--trunc-m", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--trunc-m only applies with --oracle-check" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("seq", "{absent}", "--max-n", "0"), "argument --max-n: prefix length must be at least 1, got 0"),
        (("bounds", "{absent}", "--max-n", "5"), "argument --max-n: prefix length must be at least 10, got 5"),
        (
            ("oeis", "--expr", "{absent}", "--bfile", "{absent}", "--max-n", "-1"),
            "argument --max-n: prefix length must be at least 0, got -1",
        ),
        (
            ("graphs", "count", "--class-file", "{absent}", "--mode", "forbidden", "--n", "-1"),
            "argument --n: vertex count must be at least 0, got -1",
        ),
    ],
    ids=["seq", "bounds", "oeis", "graphs count"],
)
def test_prefix_and_vertex_minimums_exit_before_any_file_is_read(tmp_path, argv, message):
    # the input file does not exist: reading it would fail differently
    absent = str(tmp_path / "absent.txt")
    proc = run_cli(*(a.format(absent=absent) for a in argv))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "absent.txt" not in proc.stderr


def test_oracle_check_reports_bfs_levels_deterministically():
    args = ("seq", E_REL, "--max-n", "4", "--oracle-check", "--deterministic")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    tel = json.loads(a.stdout)["telemetry"]
    # the orbit oracle's work counters: stabilizers expanded and
    # Schreier elements sifted
    assert int(tel["oracle_nodes"]) > 0
    assert int(tel["oracle_sifted"]) > 0
    assert int(tel["nodes"]) > int(tel["oracle_nodes"]) + int(tel["oracle_sifted"])


def test_oracle_check_on_wide_2628_pins_its_work(tmp_path):
    # levels m = 4 and 5 of the wide-2628 shape, each counted to n = 4.
    # Interchangeable orbits share one descent; one descent per orbit
    # took 378 nodes and 18,268 sifted elements.
    expr = tmp_path / "wide2628.expr"
    expr.write_text("(wr (prod (finite 3) (wr (finite 1))))\n")
    code, env = cli_json("seq", str(expr), "--max-n", "4", "--trunc-m", "4", "--oracle-check", "--deterministic")
    assert code == 0
    rows = rows_by_name(env, "oracle-l")
    assert [(r["n"], r["oracle"]["trunc_m"], r["verdict"]) for r in rows] == [
        (str(n), str(m), "match") for n in range(1, 5) for m in (4, 5)
    ]
    assert [r["value"] for r in rows] == ["4", "4", "29", "29", "254", "254", "2628", "2628"]
    assert (env["telemetry"]["oracle_nodes"], env["telemetry"]["oracle_sifted"]) == ("94", "5528")


def test_cli_imports_no_third_party_package():
    # None in sys.modules makes every import of numpy fail; the import of
    # the CLI adds only standard-library modules, and an oracle check runs
    argv = ["seq", E_REL, "--max-n", "6", "--oracle-check", "--budget-tuples", "100000000"]
    script = (
        "import io, json, sys, contextlib\n"
        "sys.modules['numpy'] = None\n"
        "before = set(sys.modules)\n"
        "import growthlab.cli\n"
        "roots = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(roots - set(sys.stdlib_module_names) - {'growthlab'})))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = growthlab.cli.main({argv!r})\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# ---------------------------------------------------------------------------
# bounds


def test_bounds_msnc_passes_at_50():
    code, env = cli_json("bounds", E_REL, "--max-n", "50")
    assert code == 0
    fact = rows_by_name(env, "factorial-upper")
    assert len(fact) == 1
    assert fact[0]["verdict"] == "pass"
    assert fact[0]["n0"] == "35"


def test_bounds_e_rel_to_350_pins_both_n0():
    code, env = cli_json("bounds", E_REL, "--max-n", "350", "--grid", "2,3", "--deterministic")
    assert code == 0
    assert env["results"] == [
        {"name": "classification", "verdict": "msnc"},
        {"name": "bell-lower", "verdict": "pass", "verified_range": ["1", "350"]},
        {"c": "2", "n0": "35", "name": "factorial-upper", "verdict": "pass", "verified_range": ["0", "350"]},
        {"c": "3", "n0": "167", "name": "factorial-upper", "verdict": "pass", "verified_range": ["0", "350"]},
    ]


def test_bounds_msnc_fails_at_20():
    proc = run_cli("bounds", E_REL, "--max-n", "20")
    assert proc.returncode == 1
    env = json.loads(proc.stdout)
    fact = rows_by_name(env, "factorial-upper")
    assert fact and fact[0]["verdict"] == "fail"


@pytest.mark.parametrize("budget, code", [("400", 3), (None, 0)])
def test_bounds_leaf_counts_spend_the_tuple_budget(tmp_path, budget, code):
    # the leaf S_11 is parsed and counted to n = 30, which stops at depth
    # 11, for 2 * 11 + 13,301 units as in seq; then exp_shift forms 31 * 12
    # terms
    expr = tmp_path / "ws11.expr"
    expr.write_text("(wr (finite 11 full-sym))\n")
    argv = ["bounds", str(expr), "--deterministic"] + (["--budget-tuples", budget] if budget else [])
    proc = run_cli(*argv)
    assert proc.returncode == code
    env = json.loads(proc.stdout)
    cell = rows_by_name(env, "cellular-bound")
    if budget:
        assert env["telemetry"]["capacity"] == "orbits on injective 30-tuples of degree 11: node budget 400 exceeded"
        assert not cell
    else:
        assert [(r["verdict"], r["c"], r["d"]) for r in cell] == [("pass", "1", "3/5")]
        assert env["telemetry"]["nodes"] == str(2 * 11 + 13301 + 31 * 12)


def test_bounds_finite_has_no_bounds(tmp_path):
    f = tmp_path / "fin.expr"
    f.write_text("(finite 4)\n")
    code, env = cli_json("bounds", str(f))
    assert code == 0
    assert rows_by_name(env, "classification")[0]["verdict"] == "finite"


def test_bounds_cellular_grid_flag(tmp_path):
    f = tmp_path / "cell.expr"
    f.write_text("(wr (finite 2 full-sym))\n")
    code, env = cli_json("bounds", str(f), "--max-n", "30", "--grid", "1:1/2,2:2/3")
    assert code == 0
    cell = rows_by_name(env, "cellular-bound")
    assert cell and cell[0]["verdict"] == "pass"


def test_bounds_bad_grid_is_input_error(tmp_path):
    f = tmp_path / "cell.expr"
    f.write_text("(wr (finite 2 full-sym))\n")
    proc = run_cli("bounds", str(f), "--grid", "1:nonsense")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "text, grid, message",
    [
        ("(wr (wr (finite 1)))", "0", "c must be positive, got 0"),
        ("(wr (finite 2 full-sym))", "1:-1/2", "d must be positive, got -1/2"),
        ("(wr (finite 2 full-sym))", "1:1,2:3/2", "cellular-bound grid needs at least one entry with d < 1"),
    ],
    ids=["c-zero", "d-negative", "no-d-below-one"],
)
def test_bounds_grid_the_check_cannot_take_is_input_error(tmp_path, text, grid, message):
    f = tmp_path / "e.expr"
    f.write_text(text + "\n")
    proc = run_cli("bounds", str(f), "--grid", grid)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr


def test_bounds_bad_grid_exits_before_the_expression_is_read(tmp_path):
    # the expression file does not exist: reading it would fail differently
    proc = run_cli("bounds", str(tmp_path / "absent.expr"), "--grid", "2,1:nonsense")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "bad grid entry '1:nonsense'" in proc.stderr
    assert "absent.expr" not in proc.stderr


# ---------------------------------------------------------------------------
# oeis


@pytest.mark.parametrize(
    "seq_name,bfile,max_n",
    [("bell", B110, "20"), ("bell2", B258, "15"), ("meet-trivial-pairs", B849, "8")],
)
def test_oeis_named_sequences_match(seq_name, bfile, max_n):
    code, env = cli_json("oeis", "--seq", seq_name, "--bfile", bfile, "--max-n", max_n)
    assert code == 0
    terms = rows_by_name(env, "term")
    assert len(terms) == int(max_n) + 1
    assert all(r["verdict"] == "match" for r in terms)


def test_oeis_expression_sequence():
    code, env = cli_json(
        "oeis", "--expr", E_REL, "--use-s", "--bfile", B258, "--max-n", "12"
    )
    assert code == 0


@pytest.mark.parametrize(
    "flags,bfile", [((), B110), (("--use-s",), B258)], ids=["l", "s"]
)
def test_oeis_expression_at_max_n_0_compares_index_0(flags, bfile, capsys):
    # eval_lseq needs two terms; the command still compares only l_0 or s_0
    argv = ["oeis", "--expr", E_REL, *flags, "--bfile", bfile, "--max-n", "0"]
    assert cli.main(argv) == cli.EXIT_OK
    env = json.loads(capsys.readouterr().out)
    terms = rows_by_name(env, "term")
    assert [(r["n"], r["value"], r["verdict"]) for r in terms] == [("0", "1", "match")]


def test_oeis_mismatch_is_expected_negative():
    proc = run_cli("oeis", "--seq", "bell", "--bfile", B258, "--max-n", "10")
    assert proc.returncode == 1
    env = json.loads(proc.stdout)
    assert any(r["verdict"] == "mismatch" for r in rows_by_name(env, "term"))


def test_oeis_disjoint_ranges_are_input_error():
    proc = run_cli("oeis", "--seq", "bell", "--bfile", B110, "--offset", "900")
    assert proc.returncode == 2


@pytest.mark.parametrize("source", [("--seq", "bell"), ("--expr", E_REL)], ids=["seq", "expr"])
def test_oeis_disjoint_ranges_exit_before_the_sequence_is_computed(source, monkeypatch, capsys):
    def unexpected(*args, **kwargs):
        raise AssertionError("sequence computed for a range the b-file misses")

    monkeypatch.setattr(cli, "bell", unexpected)
    monkeypatch.setattr(cli, "eval_lseq", unexpected)
    argv = ["oeis", *source, "--bfile", B110, "--offset", "100000", "--max-n", "2000"]
    assert cli.main(argv) == cli.EXIT_INPUT == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "growthlab: no overlap between the computed range and the b-file\n"


def test_oeis_deep_meet_trivial_pairs(tmp_path):
    bfile = tmp_path / "b059849_300.txt"
    values = oracles.meet_trivial_by_meets(300)
    bfile.write_text("".join(f"{n} {v}\n" for n, v in enumerate(values)))
    code, env = cli_json(
        "oeis", "--seq", "meet-trivial-pairs", "--bfile", str(bfile), "--max-n", "300"
    )
    assert code == 0
    terms = rows_by_name(env, "term")
    assert len(terms) == 301
    assert all(r["verdict"] == "match" for r in terms)


def test_oeis_deep_bell_term_in_a_fresh_process(tmp_path):
    bfile = tmp_path / "b700.txt"
    bfile.write_text(f"700 {oracles.bell_by_triangle(700)}\n")
    code, env = cli_json(
        "oeis", "--seq", "bell", "--bfile", str(bfile), "--offset", "0", "--max-n", "700"
    )
    assert code == 0
    assert [r["verdict"] for r in rows_by_name(env, "term")] == ["match"]


@pytest.fixture(scope="module")
def bell_2100_text():
    """B_2100 in decimal: 4,604 digits, past the interpreter's default
    limit of 4,300 for int and str conversions, lifted only to write it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(bell(2100)[2100])
    finally:
        sys.set_int_max_str_digits(limit)


def test_seq_prints_terms_longer_than_the_int_digit_limit(tmp_path, bell_2100_text):
    # the Stirling transform of (wr (finite 1)), whose l_n are all 1,
    # is the Bell numbers
    expr = tmp_path / "wr1.expr"
    expr.write_text("(wr (finite 1))\n")
    code, env = cli_json("seq", str(expr), "--max-n", "2100")
    assert code == 0
    assert {r["n"]: r["value"] for r in rows_by_name(env, "s")}["2100"] == bell_2100_text


def test_oeis_reads_terms_longer_than_the_int_digit_limit(tmp_path, bell_2100_text):
    bfile = tmp_path / "b2100.txt"
    bfile.write_text(f"2100 {bell_2100_text}\n")
    code, env = cli_json("oeis", "--seq", "bell", "--bfile", str(bfile), "--offset", "0", "--max-n", "2100")
    assert code == 0
    terms = rows_by_name(env, "term")
    assert [(r["n"], r["value"], r["verdict"]) for r in terms] == [("2100", bell_2100_text, "match")]


def test_oeis_requires_seq_or_expr():
    proc = run_cli("oeis", "--bfile", B110)
    assert proc.returncode == 2


def test_oeis_use_s_with_seq_exits_before_the_bfile_is_read(tmp_path):
    # the b-file does not exist: reading it would fail differently
    proc = run_cli("oeis", "--seq", "bell", "--use-s", "--bfile", str(tmp_path / "absent.txt"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--use-s only applies to --expr" in proc.stderr
    assert "absent.txt" not in proc.stderr


def test_oeis_repeated_bfile_index_is_input_error(tmp_path):
    bfile = tmp_path / "b_repeated.txt"
    bfile.write_text("0 1\n1 1\n1 2\n")
    proc = run_cli("oeis", "--seq", "bell", "--bfile", str(bfile), "--max-n", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "line 3: index 1 repeated" in proc.stderr


# ---------------------------------------------------------------------------
# graphs


def test_graphs_count_forbidden():
    code, env = cli_json(
        "graphs", "count", "--class-file", FORBID_K2, "--mode", "forbidden", "--n", "4"
    )
    assert code == 0
    assert env["command"] == "graphs count"
    assert rows_by_name(env, "count_labelled")[0]["value"] == "1"


def test_graphs_count_generators():
    code, env = cli_json(
        "graphs", "count", "--class-file", P3_K3, "--mode", "generators", "--n", "3"
    )
    assert code == 0
    assert rows_by_name(env, "count_labelled")[0]["value"] == "4"


def test_graphs_count_capacity():
    code, env = cli_json(
        "graphs", "count", "--class-file", FORBID_K2, "--mode", "forbidden", "--n", "9",
        "--budget-nodes", "100",
    )
    assert code == 3
    assert "n = 9: node budget 100 exceeded" in env["telemetry"]["capacity"]


def test_graphs_count_reports_nodes():
    code, env = cli_json(
        "graphs", "count", "--class-file", P3_K3, "--mode", "forbidden", "--n", "5",
        "--deterministic",
    )
    assert code == 0
    assert rows_by_name(env, "count_labelled")[0]["value"] == "26"
    assert int(env["telemetry"]["nodes"]) > 0


def half_graph_4_file(tmp_path):
    gfile = tmp_path / "h4.graph"
    lines = ["v=8"] + [f"{i} {4 + j}" for i in range(4) for j in range(4) if i <= j]
    gfile.write_text("\n".join(lines) + "\n")
    return gfile


def test_graphs_semiinduced(tmp_path):
    gfile = half_graph_4_file(tmp_path)
    code, env = cli_json("graphs", "semiinduced", "--graph-file", str(gfile))
    assert code == 0
    assert rows_by_name(env, "semi_induced_order")[0]["value"] == "4"


def test_graphs_semiinduced_reports_nodes_deterministically(tmp_path):
    gfile = half_graph_4_file(tmp_path)
    args = ("graphs", "semiinduced", "--graph-file", str(gfile), "--deterministic")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert int(json.loads(a.stdout)["telemetry"]["nodes"]) > 0


def test_graphs_semiinduced_capacity_names_the_stage(tmp_path):
    gfile = half_graph_4_file(tmp_path)
    code, env = cli_json(
        "graphs", "semiinduced", "--graph-file", str(gfile), "--budget-nodes", "2"
    )
    assert code == 3
    assert env["telemetry"]["capacity"] == "semi-induced order t = 2: node budget 2 exceeded"


def test_graphs_fliproundtrip_random():
    code, env = cli_json("graphs", "fliproundtrip", "--k", "5", "--seeds", "10")
    assert code == 0
    summary = rows_by_name(env, "summary")
    assert summary and summary[0]["value"] == "0"


@pytest.mark.parametrize("seeds", ["0", "-4"])
def test_graphs_fliproundtrip_seeds_below_one_is_input_error(seeds):
    proc = run_cli("graphs", "fliproundtrip", "--k", "5", "--seeds", seeds)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument --seeds: trial count must be at least 1, got {seeds}" in proc.stderr


def test_graphs_fliproundtrip_exhaustive():
    code, env = cli_json("graphs", "fliproundtrip", "--k", "3", "--exhaustive")
    assert code == 0
    assert rows_by_name(env, "summary")[0]["value"] == "0"
    # 2^6 trials, each of 6 class pairs and 9 graph rows
    assert env["telemetry"]["nodes"] == str(2**6 * (6 + 9))


@pytest.mark.parametrize(
    "trials, argv",
    [
        ("2^28", ("--k", "7", "--exhaustive")),
        ("100000000", ("--k", "3", "--seeds", "100000000")),
        ("2^125250", ("--k", "500", "--exhaustive")),
        ("1", ("--k", "5000", "--seeds", "1")),
    ],
)
def test_graphs_fliproundtrip_counts_its_trials_before_the_first(trials, argv):
    # k(k+1)/2 + 3k nodes per trial against the default budget of 10^7,
    # checked before any trial is built; an exhaustive run names its
    # count by the exponent k(k+1)/2, whatever its number of digits
    code, env = cli_json("graphs", "fliproundtrip", *argv, timeout=30)
    assert code == 3
    assert env["results"] == []
    want = f"{trials} flip round trips of k = {argv[1]}: node budget 10000000 exceeded"
    assert env["telemetry"]["capacity"] == want


@pytest.mark.parametrize(
    "argv",
    [
        ("--k", "2000", "--exhaustive"),
        ("--k", "3", "--seeds", "100000000"),
        ("--k", "20000", "--seeds", "1", "--budget-nodes", "5"),
    ],
)
def test_graphs_fliproundtrip_over_budget_builds_no_graph(argv, monkeypatch, capsys):
    def unexpected(*args):
        raise AssertionError("flipped_paths called on an over-budget run")

    def over_time(*args):
        raise AssertionError("an over-budget run still running after 30 s")

    monkeypatch.setattr(cli, "flipped_paths", unexpected)
    previous = signal.signal(signal.SIGALRM, over_time)
    signal.alarm(30)
    try:
        code = cli.main(["graphs", "fliproundtrip", *argv])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    limit = argv[argv.index("--budget-nodes") + 1] if "--budget-nodes" in argv else "10000000"
    assert f"node budget {limit} exceeded" in json.loads(capsys.readouterr().out)["telemetry"]["capacity"]


@pytest.mark.parametrize("k", ["1", "-3"])
def test_graphs_fliproundtrip_k_below_two_is_input_error(k):
    proc = run_cli("graphs", "fliproundtrip", "--k", k, "--exhaustive")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument --k: path length must be at least 2, got {k}" in proc.stderr


# ---------------------------------------------------------------------------
# witness


def test_witness_order_found():
    code, env = cli_json("witness", "order", LESS10, "--size", "10")
    assert code == 0
    search = rows_by_name(env, "search")
    assert search and search[0]["verdict"] == "found"
    assert_all_numbers_are_strings(env)


def test_witness_order_none():
    proc = run_cli("witness", "order", LESS10, "--size", "11")
    assert proc.returncode == 1


def test_witness_coding_found():
    code, env = cli_json("witness", "coding", PAIR9, "--size", "3")
    assert code == 0
    assert rows_by_name(env, "search")[0]["verdict"] == "found"


def test_witness_coding_none_on_empty():
    proc = run_cli("witness", "coding", EMPTY64, "--size", "1")
    assert proc.returncode == 1


def test_witness_coding_too_few_points_is_none_at_zero_nodes(tmp_path):
    # the third coordinate takes 15 < 4^2 values, so no 4 x 4 grid has
    # enough private points and the counting bound answers before any node
    rng = random.Random(15)
    lines = ["a=24 r=3"] + [
        f"{x} {y} {z}"
        for x in range(24)
        for y in range(24)
        for z in range(15)
        if rng.random() < 0.3
    ]
    rel = tmp_path / "fifteen.rel"
    rel.write_text("\n".join(lines) + "\n")
    args = ("witness", "coding", str(rel), "--size", "4", "--deterministic")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 1
    assert a.stdout == b.stdout
    env = json.loads(a.stdout)
    assert rows_by_name(env, "search")[0]["verdict"] == "none"
    assert env["telemetry"]["nodes"] == "0"


def test_witness_indeterminate_exit():
    proc = run_cli("witness", "order", LESS10, "--size", "5", "--budget-nodes", "2")
    assert proc.returncode == 4


def test_witness_coding_with_pair_sides(tmp_path):
    # arity 5 = 2 + 2 + 1: a 2 x 2 grid coded by pairs of points
    rel = tmp_path / "pairs.rel"
    xs, ys = [(0, 0), (1, 1)], [(0, 1), (1, 0)]
    lines = ["a=4 r=5"] + [
        " ".join(map(str, x + y + (2 * i + j,))) for i, x in enumerate(xs) for j, y in enumerate(ys)
    ]
    rel.write_text("\n".join(lines) + "\n")
    code, env = cli_json("witness", "coding", str(rel), "--size", "2", "--k", "2")
    assert code == 0
    assert env["config"]["k"] == "2"
    assert rows_by_name(env, "x_side")[0]["value"] == [["0", "0"], ["1", "1"]]
    assert rows_by_name(env, "verified")[0]["verdict"] == "pass"


@pytest.mark.parametrize(
    "kind, rel, message",
    [
        ("order", PAIR9, "order witnesses need a binary relation, got arity 3"),
        ("coding", LESS10, "width-1 coding witnesses need arity 3, got 2"),
    ],
    ids=["order", "coding"],
)
def test_witness_on_a_relation_of_the_wrong_arity_is_input_error(kind, rel, message):
    proc = run_cli("witness", kind, rel, "--size", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr


def test_witness_k_rejected_outside_tuplecoding():
    proc = run_cli("witness", "order", LESS10, "--size", "2", "--k", "3")
    assert proc.returncode == 2
    assert "--k" in proc.stderr
    assert not proc.stdout


def test_witness_k_with_order_exits_before_the_relation_is_read(tmp_path):
    # the relation file does not exist: reading it would fail differently
    proc = run_cli("witness", "order", str(tmp_path / "absent.rel"), "--size", "2", "--k", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--k only applies to coding, not order" in proc.stderr
    assert "absent.rel" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("seq", "absent.expr", "--trunc-m", "2"),
        ("oeis", "--seq", "bell", "--use-s", "--bfile", "absent.txt"),
        ("witness", "order", "absent.rel", "--size", "2", "--k", "2"),
    ],
    ids=["trunc-m", "use-s", "order-k"],
)
def test_flag_conflicts_are_parse_errors(argv):
    # the CLI's own refusals are ParseErrors, so that a bare ValueError
    # reaching main comes from the library
    args = cli._read_command_line(list(argv))
    with pytest.raises(ParseError):
        cli._HANDLERS[args.command](args, [], {}, {}, Budget(0))


@pytest.mark.parametrize(
    "kind, flag, message",
    [
        ("order", "--size", "argument --size: witness size must be at least 1, got 0"),
        ("coding", "--size", "argument --size: witness size must be at least 1, got 0"),
        ("coding", "--k", "argument --k: side width must be at least 1, got 0"),
        ("order", "--k", "argument --k: side width must be at least 1, got 0"),
    ],
)
def test_witness_size_and_k_below_one_exit_before_the_relation_is_read(tmp_path, kind, flag, message):
    # the relation file does not exist: reading it would fail differently
    argv = ["witness", kind, str(tmp_path / "absent.rel"), "--size", "2", flag, "0"]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "absent.rel" not in proc.stderr


def half_graph_4_argv(tmp_path):
    return ("graphs", "semiinduced", "--graph-file", str(half_graph_4_file(tmp_path)))


#: each leaf subcommand, a small command line and the budget it spends
BUDGET_OF_SUBCOMMAND = {
    "seq": (lambda tmp: ("seq", E_REL, "--max-n", "3"), "--budget-tuples"),
    "bounds": (lambda tmp: ("bounds", E_REL, "--max-n", "40"), "--budget-tuples"),
    "oeis": (lambda tmp: ("oeis", "--seq", "bell", "--bfile", B110, "--max-n", "5"), "--budget-tuples"),
    "graphs count": (
        lambda tmp: ("graphs", "count", "--class-file", FORBID_K2, "--mode", "forbidden", "--n", "3"),
        "--budget-nodes",
    ),
    "graphs semiinduced": (half_graph_4_argv, "--budget-nodes"),
    "graphs fliproundtrip": (lambda tmp: ("graphs", "fliproundtrip", "--k", "3", "--seeds", "2"), "--budget-nodes"),
    "witness": (lambda tmp: ("witness", "order", LESS10, "--size", "2"), "--budget-nodes"),
}


@pytest.mark.parametrize("command", sorted(BUDGET_OF_SUBCOMMAND))
def test_each_subcommand_takes_only_the_budget_it_spends(tmp_path, command):
    make_argv, taken = BUDGET_OF_SUBCOMMAND[command]
    argv = make_argv(tmp_path)
    code, env = cli_json(*argv, taken, "10000", "--deterministic")
    assert code == 0
    assert env["command"] == command
    budgets = {k: v for k, v in env["config"].items() if k.startswith("budget")}
    assert budgets == {taken[2:].replace("-", "_"): "10000"}
    other = "--budget-nodes" if taken == "--budget-tuples" else "--budget-tuples"
    proc = run_cli(*argv, other, "1000")
    assert proc.returncode == 2
    assert f"unrecognized arguments: {other} 1000" in proc.stderr


#: each leaf subcommand's command line with a required argument left out
REQUIRED_LEFT_OUT = {
    "seq": ("seq", "--max-n", "3"),
    "bounds": ("bounds", "--max-n", "40"),
    "oeis": ("oeis", "--seq", "bell"),
    "graphs count": ("graphs", "count", "--class-file", FORBID_K2, "--n", "3"),
    "graphs semiinduced": ("graphs", "semiinduced", "--lax"),
    "graphs fliproundtrip": ("graphs", "fliproundtrip", "--seeds", "2"),
    "witness": ("witness", "coding", PAIR9),
}


def outcome(call, argv):
    """What call(argv) prints and returns: (exit code or None, stdout,
    stderr, the result)."""
    out, err = io.StringIO(), io.StringIO()
    code, result = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), result


@pytest.mark.parametrize("command", sorted(BUDGET_OF_SUBCOMMAND))
def test_reader_agrees_with_argparse(tmp_path, command):
    make_argv, budget = BUDGET_OF_SUBCOMMAND[command]
    valid = tuple(make_argv(tmp_path))
    prefix = valid[: len(command.split())]
    probes = {
        "help": prefix + ("-h",),
        "valid": valid,
        "missing": REQUIRED_LEFT_OUT[command],
        "bad choice": valid + ("--format", "xml"),
        "budget": valid + (budget, "0"),
        "unknown flag": valid + ("--bogus",),
        "repeated flag": valid + ("--format", "csv", "--format", "json"),
        "negative seed": valid + ("--seed", "-3"),
        "abbreviated flag": valid + ("--determ",),
        "flag=value": valid + ("--seed=5",),
    }
    if "--max-n" in valid:
        at = valid.index("--max-n")
        probes["--max"] = valid[:at] + ("--max",) + valid[at + 1 :]
        probes["--max-n="] = valid[:at] + ("--max-n=" + valid[at + 1],) + valid[at + 2 :]
    if command == "oeis":
        probes["negative offset"] = valid + ("--offset", "-1")
    assert cli._read_command_line(list(valid)) is not None
    for name, argv in probes.items():
        code, out, err, namespace = outcome(cli.build_parser().parse_args, argv)
        read = cli._read_command_line(list(argv))
        if read is not None:
            assert code is None and vars(read) == vars(namespace), name
        if code is None:
            assert namespace.command == prefix[0], name
        else:
            # argparse prints help or a usage error, and main prints the same
            assert code in (0, 2) and out + err, name
            assert outcome(cli.main, argv)[:3] == (code, out, err), name


def test_help_lists_every_command():
    proc = run_cli("-h")
    assert proc.returncode == 0
    assert "{seq,bounds,oeis,graphs,witness}" in proc.stdout
    for command in ("seq", "bounds", "oeis", "graphs", "witness"):
        assert f"\n    {command} " in proc.stdout


def test_importing_the_cli_builds_no_parser():
    # the parser is built per command line, in main; building it at import
    # would move its cost (and argparse's gettext import of locale) into
    # the import of every process that loads the CLI
    script = (
        "import argparse, json, sys\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "before = set(sys.modules)\n"
        "import growthlab.cli\n"
        "print(json.dumps([len(made), 'locale' in set(sys.modules) - before]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False]


TOP_HELP = """\
usage: growthlab [-h] {seq,bounds,oeis,graphs,witness} ...

Exact growth sequences, growth bounds and witness searches.

positional arguments:
  {seq,bounds,oeis,graphs,witness}
    seq                 growth-sequence prefix of an expression
    bounds              growth-bound verdicts
    oeis                compare a sequence against a b-file
    graphs              hereditary class and half-graph tools
    witness             order and coding witness searches

options:
  -h, --help            show this help message and exit
"""

GRAPHS_COUNT_HELP = """\
usage: growthlab graphs count [-h] [--format {json,csv}] [--seed SEED]
                              [--deterministic] [--budget-nodes BUDGET_NODES]
                              --class-file CLASS_FILE --mode
                              {generators,forbidden} --n N

options:
  -h, --help            show this help message and exit
  --format {json,csv}
  --seed SEED
  --deterministic
  --budget-nodes BUDGET_NODES
  --class-file CLASS_FILE
  --mode {generators,forbidden}
  --n N
"""


def test_a_valid_line_loads_no_argparse_and_help_is_unchanged():
    # argparse's first use imports gettext, which imports locale; a valid
    # line is read from the flag table without them.  The record classes
    # need no dataclasses (which imports inspect), and csv and traceback
    # load only for CSV output and internal errors
    unloaded = ["argparse", "csv", "dataclasses", "gettext", "inspect", "locale", "traceback"]
    script = (
        "import contextlib, io, json, sys\n"
        "import growthlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = growthlab.cli.main(['seq', {E_REL!r}, '--max-n', '3'])\n"
        f"loaded = sorted(set({unloaded!r}) & set(sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    csv_code = growthlab.cli.main(['seq', {E_REL!r}, '--max-n', '3', '--format', 'csv'])\n"
        "print(json.dumps([code, loaded, csv_code, out.getvalue().splitlines()[0]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [], 0, "name,n,value,verdict,detail"]
    env = dict(os.environ, COLUMNS="80")
    for argv, text in ((("-h",), TOP_HELP), (("graphs", "count", "-h"), GRAPHS_COUNT_HELP)):
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab", *argv], capture_output=True, text=True, timeout=60, env=env
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")


# ---------------------------------------------------------------------------
# formats and determinism


def test_csv_output_shape():
    proc = run_cli("seq", E_REL, "--max-n", "4", "--format", "csv")
    assert proc.returncode == 0
    reader = csv.reader(io.StringIO(proc.stdout))
    rows = list(reader)
    assert rows[0] == ["name", "n", "value", "verdict", "detail"]
    l_rows = [r for r in rows if r[0] == "l"]
    assert [int(r[2]) for r in l_rows] == list(bell(4))


@pytest.mark.parametrize(
    "args",
    [
        ("seq", E_REL, "--max-n", "6"),
        ("bounds", E_REL, "--max-n", "40"),
        ("witness", "coding", PAIR9, "--size", "2"),
        ("graphs", "count", "--class-file", P3_K3, "--mode", "forbidden", "--n", "5"),
    ],
)
def test_deterministic_runs_are_byte_identical(args):
    a = run_cli(*args, "--deterministic", "--seed", "7")
    b = run_cli(*args, "--deterministic", "--seed", "7")
    assert a.returncode == b.returncode
    assert a.stdout == b.stdout


def test_deterministic_omits_wall_time():
    _, env = cli_json("seq", E_REL, "--max-n", "4", "--deterministic")
    assert "wall_ms" not in env["telemetry"]
    _, env2 = cli_json("seq", E_REL, "--max-n", "4")
    assert "wall_ms" in env2["telemetry"]


#: the labels of every benchmark line of one seed
BENCH_LABELS = (
    "acceptance-01", "wide-2628", "cell-s3", "cell-s2c3",
    "seq-w3-200", "bounds-e_rel-350", "bounds-w3-250", "bounds-s3-300", "bounds-invol-300",
    "bounds-cell-prod-250", "bounds-msnc-fin-200", "bounds-msnc-prod-250",
    "oeis-bell-400", "oeis-bell2-300", "oeis-meet-8", "oeis-e_rel-s-250", "oeis-somega-s-300",
    "generators-h3-n6", "generators-h8-n5", "forbidden-p3-n6", "forbidden-p3k3-n6", "semiinduced-h11",
    "order-0", "order-1", "coding-0", "coding-1", "coding-none-0", "coding-none-1",
)


@pytest.fixture(scope="module")
def bench_argv(tmp_path_factory):
    """The argv of every benchmark line of seed 0, by label."""
    workloads = golden._workloads()
    ops = []
    for workload in workloads.WORKLOADS:
        ops += workloads.build(workload, 0, tmp_path_factory.mktemp(workload))
    return {op.label: list(op.argv) for op in ops}


def test_bench_labels_are_every_benchmark_line(bench_argv):
    assert sorted(bench_argv) == sorted(BENCH_LABELS)


@pytest.mark.parametrize("label", BENCH_LABELS)
def test_default_output_parses_to_the_deterministic_envelope(label, bench_argv, capsys):
    # the default output puts one result row on each line,
    # --deterministic sorts and compacts
    envelopes = []
    for extra in ([], ["--deterministic"]):
        code = cli.main([*bench_argv[label], *extra])
        out = capsys.readouterr().out
        env = json.loads(out)
        env["telemetry"].pop("wall_ms", None)
        env["config"].pop("deterministic")
        envelopes.append((code, env))
        if not extra:
            assert out.count("\n") == len(env["results"]) + 7
    assert envelopes[0] == envelopes[1]


@pytest.mark.parametrize("label", BENCH_LABELS)
def test_csv_rows_carry_the_envelope_rows(label, bench_argv, capsys):
    # name, n, value and verdict of each row; a list or dict value is
    # written as compact JSON
    cli.main([*bench_argv[label], "--deterministic"])
    env = json.loads(capsys.readouterr().out)
    cli.main([*bench_argv[label], "--format", "csv"])
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["name", "n", "value", "verdict", "detail"]
    want = []
    for row in env["results"]:
        value = row.get("value", "")
        if isinstance(value, (list, dict)):
            value = json.dumps(value, sort_keys=True, separators=(",", ":"))
        want.append([row.get("name", ""), row.get("n", ""), value, row.get("verdict", "")])
    assert [r[:4] for r in rows] == want


@pytest.mark.parametrize("fmt", [(), ("--deterministic",), ("--format", "csv")])
def test_the_writer_holds_one_row_at_a_time(fmt, monkeypatch):
    # about 0.69 MB of output; a writer that renders the whole answer
    # before writing it peaks at a few times that.  One row takes a few
    # KB, and csv's writer keeps a record buffer of 128 KB
    captured = []
    monkeypatch.setattr(cli, "_emit", lambda envelope, args: captured.append((envelope, args)))
    assert cli.main(["seq", E_REL, "--max-n", "600", *fmt]) == 0
    monkeypatch.undo()
    [(envelope, args)] = captured

    class Sink:
        written = 0

        def write(self, text):
            self.written += len(text)

    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            cli._emit(envelope, args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.written > 600_000
    assert peak < sink.written / 4


def test_a_reader_that_is_gone_leaves_the_exit_code_alone():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab", "seq", E_REL, "--max-n", "5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_envelope_structure():
    _, env = cli_json("seq", E_REL, "--max-n", "3")
    assert set(env) == {"command", "config", "results", "telemetry"}
    assert set(env["telemetry"]) == {"nodes", "wall_ms"}


def test_internal_error_is_not_input_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "eval_lseq", broken)
    assert cli.main(["seq", E_REL, "--max-n", "3"]) == cli.EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert err.startswith("growthlab: internal error: RuntimeError: injected fault")
    assert "Traceback" in err


def test_value_error_from_the_library_is_internal_error(monkeypatch, capsys):
    # only a ParseError, or a file that cannot be read, is bad input
    def broken(*args, **kwargs):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "eval_lseq", broken)
    assert cli.main(["seq", E_REL, "--max-n", "3"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("growthlab: internal error: ValueError: injected fault")


def test_input_file_that_is_not_utf8_is_input_error(tmp_path):
    f = tmp_path / "latin1.expr"
    f.write_bytes("(wr (finite 1)) # \u00e9\n".encode("latin-1"))
    proc = run_cli("seq", str(f))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "can't decode" in proc.stderr


def test_unknown_command_is_input_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_module_entry_point():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "seq" in proc.stdout
