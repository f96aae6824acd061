"""The benchmark's workloads: growthlab command lines and their checks.

Each workload is a fixed list of operations, one growthlab command line
each, built from the seed.  The seed never changes how much work an
operation asks for: it relabels the points of expression leaves,
reorders the factors of products and the edge lines of graphs, draws
the constants of the bound grids, and draws the relations of the
witness searches around a planted (or a provably absent) witness.
Every operation carries the exit code the references predict and a
check of its JSON envelope against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("oracle-check", "gap-prefix", "class-search")

#: the OEIS b-files that growthlab's own tests use
DATA = Path(__file__).resolve().parents[1] / "tests" / "data"

#: the tuple budget of acceptance criterion 01, given to every oracle line
ORACLE_BUDGET = "200000000"

#: how growthlab labels the three syntactic classes
CLASS_LABELS = {"finite": "finite", "cellular": "syntactic-cellular", "msnc": "msnc"}

#: the CLI checks the oracle at n <= 5 (see the README's seq section)
ORACLE_TOP_N = 5

F1 = ("finite", 1, ())
F2 = ("finite", 2, ())
F3 = ("finite", 3, ())
S2 = ("finite", 2, ((1, 0),))
E_REL = ("wr", ("wr", F1))

C_CHOICES = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
CELL_CHOICES = tuple(
    (Fraction(c), d)
    for c in (1, 2, 3)
    for d in (Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))
)


@dataclass(frozen=True)
class Op:
    """One growthlab command line with its predicted exit code and a
    check that returns the problems found in its JSON envelope."""

    label: str
    argv: tuple[str, ...]
    expected_exit: int
    check: Callable[[dict], list[str]]


class _Inputs:
    """Writes the input files of one workload into a work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, suffix: str, text: str) -> str:
        self.count += 1
        path = self.workdir / f"in{self.count:02d}{suffix}"
        path.write_text(text)
        return str(path)


# ---------------------------------------------------------------------------
# envelope helpers
# ---------------------------------------------------------------------------


def _rows(env: dict, name: str) -> list[dict]:
    return [r for r in env.get("results", []) if r.get("name") == name]


def _indexed(env: dict, name: str) -> dict[int, int]:
    return {int(r["n"]): int(r["value"]) for r in _rows(env, name)}


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _command(env: dict, want: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, "command", env.get("command"), want)
    return problems


# ---------------------------------------------------------------------------
# seed-driven presentation of the same inputs
# ---------------------------------------------------------------------------


def _relabel(rng: random.Random, expr):
    """The same expression up to isomorphism: leaf points relabelled by a
    random permutation and product factors shuffled."""
    if expr[0] == "finite":
        degree, gens = expr[1], expr[2]
        sigma = list(range(degree))
        rng.shuffle(sigma)
        conj = []
        for g in gens:
            image = [0] * degree
            for p in range(degree):
                image[sigma[p]] = sigma[g[p]]
            conj.append(tuple(image))
        return ("finite", degree, tuple(conj))
    if expr[0] == "prod":
        factors = [_relabel(rng, f) for f in expr[1]]
        rng.shuffle(factors)
        return ("prod", tuple(factors))
    return ("wr", _relabel(rng, expr[1]))


def _half_graph_edges(t: int) -> list[tuple[int, int]]:
    return [(i, t + j) for i in range(t) for j in range(t) if i <= j]


def _shuffled(rng: random.Random, edges) -> list[tuple[int, int]]:
    """The same labelled graph with its edge lines in a random order."""
    out = list(edges)
    rng.shuffle(out)
    return out


def _graph_text(v: int, edges) -> str:
    return f"v={v}\n" + "".join(f"{u} {w}\n" for u, w in edges)


# ---------------------------------------------------------------------------
# seq, bounds and oeis
# ---------------------------------------------------------------------------


def _seq_op(inputs: _Inputs, label: str, expr, max_n: int, *, oracle: bool, trunc_m=None) -> Op:
    path = inputs.write(".expr", ref.expr_text(expr) + "\n")
    argv = ["seq", path, "--max-n", str(max_n)]
    if trunc_m is not None:
        argv += ["--trunc-m", str(trunc_m)]
    if oracle:
        argv += ["--oracle-check", "--budget-tuples", ORACLE_BUDGET]
    lseq = ref.expr_growth(expr, max_n)
    sseq = ref.stirling_transform(lseq)
    label_class = CLASS_LABELS[ref.classification(expr)]
    top = min(max_n, ORACLE_TOP_N, trunc_m or max_n)

    def check(env: dict) -> list[str]:
        problems = _command(env, "seq")
        got_l = _indexed(env, "l")
        _expect(problems, "l indices", sorted(got_l), list(range(max_n + 1)))
        bad = [n for n in range(max_n + 1) if got_l.get(n) != lseq[n]]
        if bad:
            problems.append(f"l_n differs from the reference at n = {bad[:5]}")
        got_s = _indexed(env, "s")
        bad = [n for n in range(max_n + 1) if got_s.get(n) != sseq[n]]
        if bad:
            problems.append(f"s_n differs from the reference at n = {bad[:5]}")
        verdicts = [r.get("verdict") for r in _rows(env, "classification")]
        _expect(problems, "classification", verdicts, [label_class])
        if oracle:
            rows = _rows(env, "oracle-l")
            _expect(problems, "oracle n", sorted({int(r["n"]) for r in rows}), list(range(1, top + 1)))
            for r in rows:
                n = int(r["n"])
                if r.get("verdict") != "match" or int(r["value"]) != lseq[n]:
                    problems.append(
                        f"oracle-l at n = {n}, m = {r.get('oracle', {}).get('trunc_m')}: "
                        f"{r.get('verdict')} {r.get('value')}, reference {lseq[n]}"
                    )
        elif _rows(env, "oracle-l"):
            problems.append("oracle rows without --oracle-check")
        return problems

    return Op(label, tuple(argv), 0, check)


def _grid_text(entries) -> str:
    return ",".join(f"{c}:{d}" if d is not None else f"{c}" for c, d in entries)


def _bounds_op(inputs: _Inputs, label: str, expr, max_n: int, grid) -> Op:
    """grid: (c, d) pairs for a cellular expression, (c, None) entries
    for the factorial-upper constants of an msnc one."""
    path = inputs.write(".expr", ref.expr_text(expr) + "\n")
    argv = ("bounds", path, "--max-n", str(max_n), "--grid", _grid_text(grid))
    kind = ref.classification(expr)
    seq = ref.expr_growth(expr, max_n)
    if kind == "msnc":
        want = [("bell-lower", ref.bell_lower(seq), (1, max_n))]
        want += [("factorial-upper", dict(ref.factorial_upper(seq, c), c=c), (0, max_n)) for c, _ in grid]
    elif kind == "cellular":
        want = [("cellular-bound", ref.cellular_bound(seq, grid), (2, max_n))]
    else:
        raise ValueError("bounds operations need an infinite expression")
    expected_exit = 0 if all(v["pass"] for _, v, _ in want) else 1

    def check(env: dict) -> list[str]:
        problems = _command(env, "bounds")
        verdicts = [r.get("verdict") for r in _rows(env, "classification")]
        _expect(problems, "classification", verdicts, [CLASS_LABELS[kind]])
        rows = [r for r in env.get("results", []) if r.get("name") != "classification"]
        _expect(problems, "bound rows", [r.get("name") for r in rows], [w[0] for w in want])
        for row, (name, verdict, span) in zip(rows, want):
            _expect(problems, f"{name} verdict", row.get("verdict"), "pass" if verdict["pass"] else "fail")
            _expect(problems, f"{name} range", [int(x) for x in row.get("verified_range", ())], list(span))
            if name == "factorial-upper":
                _expect(problems, f"{name} c", Fraction(row.get("c", "0")), verdict["c"])
                if verdict["pass"]:
                    _expect(problems, f"{name} n0", int(row.get("n0", -1)), verdict["n0"])
                else:
                    _expect(problems, f"{name} first_fail", int(row.get("first_fail", -1)), verdict["first_fail"])
            elif name == "bell-lower" and not verdict["pass"]:
                _expect(problems, f"{name} first_fail", int(row.get("first_fail", -1)), verdict["first_fail"])
            elif name == "cellular-bound":
                problems += _check_cellular_row(row, verdict)
        return problems

    return Op(label, argv, expected_exit, check)


def _check_cellular_row(row: dict, verdict: dict) -> list[str]:
    problems: list[str] = []
    try:
        c, d = Fraction(row["c"]), Fraction(row["d"])
    except (KeyError, ValueError):
        return [f"cellular-bound row lacks c and d: {row}"]
    if verdict["pass"]:
        _expect(problems, "cellular-bound (c, d)", (c, d), (verdict["c"], verdict["d"]))
        return problems
    # a failed grid: the reported entry is one that verified the longest
    # prefix, and first_fail is where it breaks
    fails = verdict["first_fail_by_entry"]
    longest = max(fails.values())
    if fails.get((c, d)) != longest:
        problems.append(f"cellular-bound reports ({c}, {d}), which does not verify the longest prefix")
    _expect(problems, "cellular-bound first_fail", int(row.get("first_fail", -1)), longest)
    return problems


def _read_bfile(path: Path) -> dict[int, int]:
    entries = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            n, value = line.split()
            entries[int(n)] = int(value)
    return entries


def _oeis_op(label: str, source: list[str], seq: list[int], bfile: str, max_n: int) -> Op:
    """source: ["--seq", name] or ["--expr", path] (plus "--use-s");
    seq: the reference values at indices 0..max_n."""
    entries = _read_bfile(Path(bfile))
    offset = min(entries)
    compared = [i for i in range(max_n + 1) if i + offset in entries]
    expected_exit = 0 if all(seq[i] == entries[i + offset] for i in compared) else 1
    argv = ("oeis", *source, "--bfile", bfile, "--max-n", str(max_n))

    def check(env: dict) -> list[str]:
        problems = _command(env, "oeis")
        terms = _rows(env, "term")
        _expect(problems, "term indices", [int(r["n"]) for r in terms], compared)
        for r in terms:
            i = int(r["n"])
            if int(r["value"]) != seq[i]:
                problems.append(f"term {i} is {r['value']}, reference {seq[i]}")
                break
            want = "match" if seq[i] == entries[i + offset] else "mismatch"
            _expect(problems, f"term {i} verdict", r.get("verdict"), want)
        summary = [r.get("verdict") for r in _rows(env, "summary")]
        _expect(problems, "summary", summary, ["match" if expected_exit == 0 else "mismatch"])
        return problems

    return Op(label, argv, expected_exit, check)


def _bfile_text(name: str, values: list[int]) -> str:
    return f"# {name}, from the benchmark's reference\n" + "".join(
        f"{n} {v}\n" for n, v in enumerate(values)
    )


# ---------------------------------------------------------------------------
# graphs and witnesses
# ---------------------------------------------------------------------------


def _count_op(inputs: _Inputs, label: str, mode: str, graphs, n: int, want: int) -> Op:
    path = inputs.write(".classes", "---\n".join(_graph_text(v, e) for v, e in graphs))
    argv = ("graphs", "count", "--class-file", path, "--mode", mode, "--n", str(n))

    def check(env: dict) -> list[str]:
        problems = _command(env, "graphs count")
        _expect(problems, "count_labelled", _indexed(env, "count_labelled"), {n: want})
        return problems

    return Op(label, argv, 0, check)


def _semi_op(inputs: _Inputs, label: str, rng: random.Random, t: int) -> Op:
    edges = _shuffled(rng, _half_graph_edges(t))
    path = inputs.write(".graph", _graph_text(2 * t, edges))

    def check(env: dict) -> list[str]:
        problems = _command(env, "graphs semiinduced")
        values = [int(r["value"]) for r in _rows(env, "semi_induced_order")]
        _expect(problems, "semi_induced_order of half_graph(t)", values, [t])
        return problems

    return Op(label, ("graphs", "semiinduced", "--graph-file", path), 0, check)


def _relation_text(universe: int, arity: int, tuples) -> str:
    return f"a={universe} r={arity}\n" + "".join(" ".join(map(str, t)) + "\n" for t in sorted(tuples))


def _order_op(inputs: _Inputs, label: str, rng: random.Random, universe: int, size: int, density: float) -> Op:
    """A binary relation holding a planted order witness of the given
    size; the other pairs are present with the given density."""
    points = rng.sample(range(universe), 2 * size)
    a_side, b_side = points[:size], points[size:]
    planted = {(a, b): i < j for i, a in enumerate(a_side) for j, b in enumerate(b_side)}
    pairs = {
        (x, y)
        for x in range(universe)
        for y in range(universe)
        if planted.get((x, y), rng.random() < density)
    }
    path = inputs.write(".rel", _relation_text(universe, 2, pairs))

    def check(env: dict) -> list[str]:
        problems = _command(env, "witness")
        _expect(problems, "search", [r.get("verdict") for r in _rows(env, "search")], ["found"])
        a_rows, b_rows = _rows(env, "a_seq"), _rows(env, "b_seq")
        if len(a_rows) != 1 or len(b_rows) != 1:
            return problems + ["witness rows missing"]
        a_seq = [int(v) for v in a_rows[0]["value"]]
        b_seq = [int(v) for v in b_rows[0]["value"]]
        return problems + ref.order_witness_problems(pairs, size, a_seq, b_seq)

    return Op(label, ("witness", "order", path, "--size", str(size)), 0, check)


def _coding_op(inputs: _Inputs, label: str, rng: random.Random, universe: int, m: int, density: float) -> Op:
    """A ternary relation holding a planted m x m coding witness; the
    other triples are present with the given density, except those that
    would put a planted point into another cell's fiber."""
    points = rng.sample(range(universe), 2 * m + m * m)
    xs, ys, zs = points[:m], points[m : 2 * m], points[2 * m :]
    cell = {(x, y): zs[i * m + j] for i, x in enumerate(xs) for j, y in enumerate(ys)}
    zset = set(zs)
    triples = set()
    for x in range(universe):
        for y in range(universe):
            own = cell.get((x, y))
            for z in range(universe):
                if (x, y) in cell and z in zset:
                    keep = z == own
                else:
                    keep = rng.random() < density
                if keep:
                    triples.add((x, y, z))
    path = inputs.write(".rel", _relation_text(universe, 3, triples))
    return Op(label, ("witness", "coding", path, "--size", str(m)), 0, _coding_check(triples, m))


def _to_int(value):
    """Decimal strings, possibly nested in lists, as integers."""
    return [_to_int(v) for v in value] if isinstance(value, list) else int(value)


def _coding_check(triples: set, m: int) -> Callable[[dict], list[str]]:
    def check(env: dict) -> list[str]:
        problems = _command(env, "witness")
        _expect(problems, "search", [r.get("verdict") for r in _rows(env, "search")], ["found"])
        parts = {}
        for name in ("x_side", "y_side", "z_points", "table"):
            rows = _rows(env, name)
            if len(rows) != 1:
                return problems + [f"witness row {name} missing"]
            parts[name] = rows[0]["value"]
        x_side = [tuple(_to_int(t)) for t in parts["x_side"]]
        y_side = [tuple(_to_int(t)) for t in parts["y_side"]]
        return problems + ref.coding_witness_problems(
            triples, m, x_side, y_side, _to_int(parts["z_points"]), _to_int(parts["table"])
        )

    return check


def _coding_none_op(
    inputs: _Inputs, label: str, rng: random.Random, universe: int, m: int, z_values: int, density: float
) -> Op:
    """A ternary relation whose third coordinate takes z_values < m^2
    values, so no m x m coding witness exists (it needs m^2 distinct
    points); the search has to exhaust its space to say so."""
    if z_values >= m * m:
        raise ValueError("the pigeonhole needs fewer third coordinates than m^2")
    zs = rng.sample(range(universe), z_values)
    triples = {
        (x, y, z)
        for x in range(universe)
        for y in range(universe)
        for z in zs
        if rng.random() < density
    }
    path = inputs.write(".rel", _relation_text(universe, 3, triples))

    def check(env: dict) -> list[str]:
        problems = _command(env, "witness")
        _expect(problems, "search", [r.get("verdict") for r in _rows(env, "search")], ["none"])
        return problems

    return Op(label, ("witness", "coding", path, "--size", str(m)), 1, check)


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------


def _oracle_check(rng: random.Random, inputs: _Inputs) -> list[Op]:
    s3 = ("finite", 3, ((1, 2, 0), (1, 0, 2)))
    c3 = ("finite", 3, ((1, 2, 0),))
    return [
        # acceptance criterion 01: 52 deep orbits over 45 M tuples at m = 6
        _seq_op(inputs, "acceptance-01", E_REL, 12, oracle=True),
        # thousands of small orbits: 2,628 at n = 4, m = 5
        _seq_op(inputs, "wide-2628", _relabel(rng, ("wr", ("prod", (F3, ("wr", F1))))), 4, oracle=True, trunc_m=4),
        # leaves with generators, checked by Burnside in the reference
        _seq_op(inputs, "cell-s3", _relabel(rng, ("wr", s3)), 5, oracle=True),
        _seq_op(inputs, "cell-s2c3", _relabel(rng, ("wr", ("prod", (S2, c3)))), 4, oracle=True),
    ]


def _gap_prefix(rng: random.Random, inputs: _Inputs) -> list[Op]:
    s3 = ("finite", 3, ((1, 2, 0), (1, 0, 2)))
    w3 = ("wr", ("wr", ("wr", F1)))

    def consts(k: int):
        return [(c, None) for c in sorted(rng.sample(C_CHOICES, k))]

    def cells():
        return sorted(rng.sample(CELL_CHOICES, 4), key=lambda e: (e[1], e[0]))

    bell_file = inputs.write(".txt", _bfile_text("A000110", ref.bell_numbers(400)))
    bell2_file = inputs.write(".txt", _bfile_text("A000258", ref.refinement_pairs(300)))
    e_rel_file = inputs.write(".expr", ref.expr_text(E_REL) + "\n")
    w1_file = inputs.write(".expr", ref.expr_text(("wr", F1)) + "\n")
    return [
        _bounds_op(inputs, "bounds-e_rel-350", E_REL, 350, consts(2)),
        _bounds_op(inputs, "bounds-msnc-prod-250", _relabel(rng, ("prod", (E_REL, ("wr", F1)))), 250, consts(1)),
        _bounds_op(inputs, "bounds-msnc-fin-200", _relabel(rng, ("prod", (E_REL, F2))), 200, consts(1)),
        _bounds_op(inputs, "bounds-w3-250", w3, 250, consts(2)),
        _bounds_op(inputs, "bounds-invol-300", ("wr", S2), 300, cells()),
        _bounds_op(inputs, "bounds-s3-300", _relabel(rng, ("wr", s3)), 300, cells()),
        _bounds_op(inputs, "bounds-cell-prod-250", _relabel(rng, ("prod", (("wr", S2), ("wr", F1)))), 250, cells()),
        _seq_op(inputs, "seq-w3-200", w3, 200, oracle=False),
        _oeis_op("oeis-bell-400", ["--seq", "bell"], ref.bell_numbers(400), bell_file, 400),
        _oeis_op("oeis-bell2-300", ["--seq", "bell2"], ref.refinement_pairs(300), bell2_file, 300),
        _oeis_op("oeis-e_rel-s-250", ["--expr", e_rel_file, "--use-s"], ref.refinement_pairs(250),
                 str(DATA / "b000258.txt"), 250),
        _oeis_op("oeis-somega-s-300", ["--expr", w1_file, "--use-s"], ref.bell_numbers(300),
                 str(DATA / "b000110.txt"), 300),
        _oeis_op("oeis-meet-8", ["--seq", "meet-trivial-pairs"], ref.meet_trivial_pairs(8),
                 str(DATA / "b059849.txt"), 8),
    ]


def _class_search(rng: random.Random, inputs: _Inputs) -> list[Op]:
    # Every graph keeps one fixed labelling and order, and the seed
    # shuffles only the order of the edge lines: the searches try
    # vertices in label order, and relabelling moved the semiinduced
    # time by two fifths; checking K3 before P3 moved the forbidden
    # count by a third.
    p3 = (3, _shuffled(rng, [(0, 1), (1, 2)]))
    k3 = (3, _shuffled(rng, [(0, 1), (1, 2), (0, 2)]))
    h3 = (6, _shuffled(rng, _half_graph_edges(3)))
    h8 = (16, _shuffled(rng, _half_graph_edges(8)))
    ops = [
        _count_op(inputs, "generators-h3-n6", "generators", [h3], 6, ref.generated_class_count([h3], 6)),
        _count_op(inputs, "generators-h8-n5", "generators", [h8], 5, ref.generated_class_count([h8], 5)),
        # {P3, K3}-free graphs are matchings, P3-free ones disjoint cliques
        _count_op(inputs, "forbidden-p3k3-n6", "forbidden", [p3, k3], 6, ref.involution_numbers(6)[6]),
        _count_op(inputs, "forbidden-p3-n6", "forbidden", [p3], 6, ref.bell_numbers(6)[6]),
        _semi_op(inputs, "semiinduced-h11", rng, 11),
    ]
    ops += [_order_op(inputs, f"order-{i}", rng, 32, 6, 0.7) for i in range(2)]
    ops += [_coding_op(inputs, f"coding-{i}", rng, 40, 4, 0.1) for i in range(2)]
    # 24 points, third coordinate on 15 < 4^2 values: the search must
    # exhaust about 350 k nodes to answer none
    ops += [_coding_none_op(inputs, f"coding-none-{i}", rng, 24, 4, 15, 0.3) for i in range(2)]
    return ops


_BUILDERS = {
    "oracle-check": _oracle_check,
    "gap-prefix": _gap_prefix,
    "class-search": _class_search,
}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one round of the workload, with their input
    files written under workdir.  The same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, _Inputs(workdir))
