"""Command line interface.

Subcommands: seq (growth-sequence prefixes of a group expression),
bounds (growth-bound verdicts), oeis (compare a sequence against a
b-file), graphs (labelled class counting, semi-induced order, flip
round trips) and witness (order and coding witness searches).

One flag table, _LEAVES, is the grammar of the command line: for each
leaf subcommand its positionals, its flags (spelling, dest, kind,
choices, default, required), the output flags every leaf shares and the
one budget it spends.  main reads a command line straight from the
table.  A line the reader does not take as written (-h, any error, an
abbreviated flag, --flag=value, a repeated flag, a value starting with
'-') goes to the argparse parser build_parser makes from the same
table, which prints the help or the usage error (exit 2), or parses the
line.  argparse is imported only then, so a valid line loads none of
argparse, gettext or locale.  csv is imported only for --format csv and
traceback only for an internal error, and the flag table and every
other record class are Records (record.py), not dataclasses.  So
importing this module loads none of dataclasses, inspect, ast, dis,
csv or traceback: 39 ms compiling from source and 5 ms with cached
bytecode, against 66 and 25 ms with dataclasses (median of 15 fresh
processes, 2 cores).

Output is a JSON envelope {command, config, results, telemetry} on
stdout, or the results as CSV.  Every number in the envelope is
rendered as a decimal string so arbitrary-precision values survive any
JSON reader.  By default each envelope field and each result row takes
one line.  With --deterministic the envelope is emitted with sorted
keys and compact separators and wall time is omitted, making the bytes
a pure function of the invocation.

Exit codes: 0 success, 1 an expected negative (bound violated,
mismatch, witness absent), 2 bad input, 3 a budget or size cap hit,
4 a search ended indeterminate, 5 an internal error (a bug in
growthlab, not in the input).
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from .errors import DEFAULT_NODE_BUDGET, Budget, CapacityError, ParseError, numbered_lines
from .graph_classes import (
    FlipSpec,
    count_labelled,
    flip_recover,
    flipped_paths,
    parse_class_spec,
    parse_graph,
    semi_induced_order,
)
from .group_expr import (
    classify,
    eval_lseq,
    format_expr,
    gap_verdict,
    parse_expr,
    truncate_expr,
)
from .orbit_oracle import DEFAULT_TUPLE_BUDGET, count_orbits_injective
from .record import Record
from .seq_core import bell, bell2, meet_trivial_pairs, stirling_transform
from .witness_search import (
    STATUS_INDETERMINATE,
    STATUS_NONE,
    find_coding_witness,
    find_order_witness,
    parse_relation,
    verify_coding_witness,
    verify_order_witness,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_INDETERMINATE = 4
EXIT_INTERNAL = 5

ORACLE_CHECK_MAX_N = 5

#: how the syntactic classes are reported; the cellular label records
#: that the verdict comes from the shape of the expression alone
_CLASS_LABELS = {
    "finite": "finite",
    "cellular": "syntactic-cellular",
    "msnc": "msnc",
}


def _stringify(value):
    """Render every number in a result structure as a decimal string."""
    if type(value) is int:
        return str(value)
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def _emit(envelope: dict, args) -> None:
    body = _stringify(envelope)
    if args.format == "csv":
        import csv

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["name", "n", "value", "verdict", "detail"])
        for row in body["results"]:
            extras = {
                k: v
                for k, v in row.items()
                if k not in ("name", "n", "value", "verdict", "detail")
            }
            detail = row.get("detail", "")
            if extras:
                blob = json.dumps(extras, sort_keys=True, separators=(",", ":"))
                detail = f"{detail} {blob}".strip()
            value = row.get("value", "")
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True, separators=(",", ":"))
            writer.writerow([row.get("name", ""), row.get("n", ""), value, row.get("verdict", ""), detail])
        sys.stdout.write(out.getvalue())
        return
    if args.deterministic:
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    else:
        # a line per field and result row, by the C encoder (no indent)
        rows = "[\n" + ",\n".join(map(json.dumps, body["results"])) + "\n]"
        fields = (f'"{k}": {rows if k == "results" else json.dumps(v)}' for k, v in body.items())
        text = "{\n" + ",\n".join(fields) + "\n}"
    sys.stdout.write(text + "\n")


def _common_config(args) -> dict:
    config = {"format": args.format, "seed": args.seed, "deterministic": args.deterministic}
    for budget in ("budget_tuples", "budget_nodes"):
        if hasattr(args, budget):
            config[budget] = getattr(args, budget)
    return config


# ---------------------------------------------------------------------------
# subcommand handlers; each appends rows and returns an exit code, and the
# graphs and witness handlers spend the one node budget main hands them
# ---------------------------------------------------------------------------


def _cmd_seq(args, rows, tel, config, budget) -> int:
    if args.trunc_m is not None and not args.oracle_check:
        raise ParseError("--trunc-m only applies with --oracle-check")
    expr = parse_expr(Path(args.expr_file).read_text())
    config["expr"] = format_expr(expr)
    config["max_n"] = args.max_n
    config["oracle_check"] = args.oracle_check
    if args.trunc_m is not None:
        config["trunc_m"] = args.trunc_m
    lseq = eval_lseq(expr, args.max_n, budget=args.budget_tuples)
    sseq = stirling_transform(lseq)
    for n in range(args.max_n + 1):
        rows.append({"name": "l", "n": n, "value": lseq[n]})
    for n in range(args.max_n + 1):
        rows.append({"name": "s", "n": n, "value": sseq[n]})
    code = EXIT_OK
    if args.oracle_check:
        tel["oracle_nodes"] = 0
        tel["oracle_sifted"] = 0
        top = min(args.max_n, ORACLE_CHECK_MAX_N, args.trunc_m or args.max_n)
        counted = {}  # level m -> its orbit counts l_0..l_min(m, top)
        for n in range(1, top + 1):
            for m in (n, n + 1) if args.trunc_m is None else (args.trunc_m, args.trunc_m + 1):
                if m not in counted:
                    oc = count_orbits_injective(truncate_expr(expr, m), min(m, top), budget=args.budget_tuples)
                    tel["tuples_visited"] += oc.tuples_visited
                    tel["oracle_nodes"] += oc.nodes
                    tel["oracle_sifted"] += oc.sifted
                    counted[m] = oc.counts
                value = counted[m][n]
                ok = value == lseq[n]
                rows.append(
                    {
                        "name": "oracle-l",
                        "n": n,
                        "value": value,
                        "verdict": "match" if ok else "mismatch",
                        "oracle": {"trunc_m": m, "expected": lseq[n]},
                    }
                )
                if not ok:
                    code = EXIT_NEGATIVE
    rows.append({"name": "classification", "verdict": _CLASS_LABELS[classify(expr)]})
    return code


def _parse_grid(text: str):
    """Split a --grid string into cellular (c, d) pairs and bare
    factorial-upper constants.  Entries are comma separated; a pair is
    written c:d; values may be fractions like 3/5."""
    cells = []
    consts = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ParseError("empty grid entry")
        try:
            if ":" in part:
                c_text, d_text = part.split(":", 1)
                cells.append((Fraction(c_text), Fraction(d_text)))
            else:
                consts.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad grid entry {part!r}") from None
    return tuple(cells) or None, tuple(consts) or None


def _cmd_bounds(args, rows, tel, config, budget) -> int:
    cell_grid, c_grid = (None, None) if args.grid is None else _parse_grid(args.grid)
    expr = parse_expr(Path(args.expr_file).read_text())
    config["expr"] = format_expr(expr)
    config["max_n"] = args.max_n
    if args.grid is not None:
        config["grid"] = args.grid
    label = _CLASS_LABELS[classify(expr)]
    if label == "finite":
        rows.append(
            {"name": "classification", "verdict": "finite", "detail": "no bounds applicable"}
        )
        return EXIT_OK
    rows.append({"name": "classification", "verdict": label})
    reports = gap_verdict(
        expr, args.max_n, cell_grid=cell_grid, c_grid=c_grid, budget=args.budget_tuples
    )
    code = EXIT_OK
    for rep in reports:
        row = {
            "name": rep.kind,
            "verdict": "pass" if rep.passed else "fail",
            "verified_range": list(rep.verified_range),
        }
        if rep.c is not None:
            row["c"] = rep.c
        if rep.d is not None:
            row["d"] = rep.d
        if rep.n0 is not None:
            row["n0"] = rep.n0
        if rep.first_fail is not None:
            row["first_fail"] = rep.first_fail
        rows.append(row)
        if not rep.passed:
            code = EXIT_NEGATIVE
    return code


def _parse_bfile(text: str) -> dict[int, int]:
    entries: dict[int, int] = {}
    for ln, line in numbered_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {ln}: expected 'n a(n)', got {line!r}", ln)
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {ln}: bad entry {line!r}", ln) from None
        if n in entries:
            raise ParseError(f"line {ln}: index {n} repeated", ln)
        entries[n] = value
    if not entries:
        raise ParseError("b-file holds no entries")
    return entries


def _cmd_oeis(args, rows, tel, config, budget) -> int:
    if args.use_s and args.named_seq is not None:
        raise ParseError("--use-s only applies to --expr")
    entries = _parse_bfile(Path(args.bfile).read_text())
    config["bfile"] = args.bfile
    config["max_n"] = args.max_n
    offset = min(entries) if args.offset is None else args.offset
    config["offset"] = offset
    if not any(offset <= n <= offset + args.max_n for n in entries):
        raise ParseError("no overlap between the computed range and the b-file")
    top = min(args.max_n, max(entries) - offset)

    if args.named_seq is not None:
        config["seq"] = args.named_seq
        named = {"bell": bell, "bell2": bell2, "meet-trivial-pairs": meet_trivial_pairs}
        seq = named[args.named_seq](top)
    else:
        expr = parse_expr(Path(args.expr_file).read_text())
        config["expr"] = format_expr(expr)
        config["use_s"] = args.use_s
        # at least l_0, l_1, as eval_lseq needs; --max-n 0 compares index 0 only
        seq = eval_lseq(expr, max(top, 1), budget=args.budget_tuples)
        if args.use_s:
            seq = stirling_transform(seq)

    compared = 0
    code = EXIT_OK
    for i in range(top + 1):
        target = i + offset
        if target not in entries:
            continue
        ours = seq[i]
        compared += 1
        theirs = entries[target]
        ok = ours == theirs
        rows.append(
            {
                "name": "term",
                "n": i,
                "value": ours,
                "verdict": "match" if ok else "mismatch",
                "oracle": {"bfile_n": target, "value": theirs},
            }
        )
        if not ok:
            code = EXIT_NEGATIVE
    rows.append(
        {
            "name": "summary",
            "verdict": "match" if code == EXIT_OK else "mismatch",
            "detail": f"{compared} terms compared",
        }
    )
    return code


def _cmd_graphs(args, rows, tel, config, budget) -> int:
    if args.graphs_command == "count":
        spec = parse_class_spec(Path(args.class_file).read_text(), args.mode)
        config["class_file"] = args.class_file
        config["mode"] = args.mode
        config["n"] = args.n
        value = count_labelled(spec, args.n, budget=budget)
        rows.append({"name": "count_labelled", "n": args.n, "value": value})
        return EXIT_OK

    if args.graphs_command == "semiinduced":
        graph = parse_graph(Path(args.graph_file).read_text())
        config["graph_file"] = args.graph_file
        config["lax"] = args.lax
        value = semi_induced_order(graph, lax=args.lax, budget=budget)
        rows.append({"name": "semi_induced_order", "value": value})
        return EXIT_OK

    # fliproundtrip: one node per trial, all spent before anything is
    # built; 2^p exceeds the budget B iff p >= B.bit_length(), so 2^p,
    # which can run to 125,250 bits, is formed only when it fits
    k = config["k"] = args.k
    if args.exhaustive:
        config["exhaustive"] = True
        p = k * (k + 1) // 2
        budget.stage = f"2^{p} flip round trips"
        if p >= budget.limit.bit_length():
            raise CapacityError(f"{budget.stage}: node budget {budget.limit} exceeded")
        trials = 1 << p
        all_pairs = [(i, j) for i in range(k) for j in range(i, k)]
        specs = (
            FlipSpec.from_pairs(k, [pair for t, pair in enumerate(all_pairs) if bits >> t & 1])
            for bits in range(trials)
        )
    else:
        trials = config["seeds"] = args.seeds
        budget.stage = f"{trials} flip round trips"
        rng = random.Random(args.seed)
        specs = (FlipSpec.random(k, rng) for _ in range(trials))
    budget.spend(trials)
    clean = flipped_paths(k)
    failures = 0
    for idx, spec in enumerate(specs):
        try:
            recovered = flip_recover(flipped_paths(k, spec))
            ok = recovered.adj == clean.adj and recovered.colors == clean.colors
        except ValueError:
            ok = False
        if not ok:
            failures += 1
            rows.append(
                {
                    "name": "trial",
                    "n": idx,
                    "verdict": "fail",
                    "detail": json.dumps(spec.unordered()),
                }
            )
    rows.append(
        {
            "name": "summary",
            "value": failures,
            "verdict": "pass" if failures == 0 else "fail",
            "detail": f"{trials} trials",
        }
    )
    return EXIT_OK if failures == 0 else EXIT_NEGATIVE


def _cmd_witness(args, rows, tel, config, budget) -> int:
    if args.kind == "order" and args.k is not None:
        raise ParseError("--k only applies to coding, not order")
    rel = parse_relation(Path(args.rel_file).read_text())
    config["rel_file"] = args.rel_file
    config["kind"] = args.kind
    config["size"] = args.size
    if args.kind == "order":
        result = find_order_witness(rel, args.size, budget=budget)
    else:
        k = config["k"] = 1 if args.k is None else args.k
        result = find_coding_witness(rel, args.size, k, budget=budget)
    rows.append({"name": "search", "verdict": result.status})
    if result.status == STATUS_INDETERMINATE:
        return EXIT_INDETERMINATE
    if result.status == STATUS_NONE:
        return EXIT_NEGATIVE
    w = result.witness
    if args.kind == "order":
        rows.append({"name": "a_seq", "value": list(w.a_seq)})
        rows.append({"name": "b_seq", "value": list(w.b_seq)})
        verified = verify_order_witness(rel, w)
    else:
        rows.append({"name": "x_side", "value": [list(t) for t in w.x_side]})
        rows.append({"name": "y_side", "value": [list(t) for t in w.y_side]})
        rows.append({"name": "z_points", "value": list(w.z_points)})
        rows.append({"name": "table", "value": [list(r) for r in w.table]})
        verified = verify_coding_witness(rel, w)
    rows.append({"name": "verified", "verdict": "pass" if verified else "fail"})
    return EXIT_OK if verified else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# the command line: one flag table, its reader, and argparse for the rest
# ---------------------------------------------------------------------------


def _at_least(low: int, what: str):
    """A flag kind: an integer of at least low.  Its ValueError carries
    the message argparse prints, naming the value as what."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{what} must be an integer, got {text!r}") from None
        if value < low:
            raise ValueError(f"{what} must be at least {low}, got {value}")
        return value

    return parse


class _Arg(Record):
    """One argument of a leaf subcommand: a flag, or a positional spelled
    by its dest.  kind converts its text: str, int or an _at_least
    converter; bool marks a flag that takes no value, True when given."""

    spelling: str
    dest: str
    kind: object = str
    choices: tuple | None = None
    default: object = None
    required: bool = False


class _Leaf(Record):
    """A leaf subcommand: its help, the one budget it spends, and its
    own arguments; one_of is a pair of flags of which exactly one must
    be given."""

    help: str
    budget: _Arg
    positionals: tuple[_Arg, ...] = ()
    flags: tuple[_Arg, ...] = ()
    one_of: tuple[_Arg, ...] = ()

    def args(self) -> tuple[_Arg, ...]:
        """Every argument, in the order the parser registers them."""
        return (*_OUTPUT_FLAGS, self.budget, *self.positionals, *self.one_of, *self.flags)


_OUTPUT_FLAGS = (
    _Arg("--format", "format", choices=("json", "csv"), default="json"),
    _Arg("--seed", "seed", int, default=0),
    _Arg("--deterministic", "deterministic", bool, default=False),
)
_TUPLE_BUDGET = _Arg("--budget-tuples", "budget_tuples", _at_least(1, "budget"), default=DEFAULT_TUPLE_BUDGET)
_NODE_BUDGET = _Arg("--budget-nodes", "budget_nodes", _at_least(1, "budget"), default=DEFAULT_NODE_BUDGET)

#: the CLI's grammar: each leaf subcommand by the words that name it
_LEAVES = {
    ("seq",): _Leaf(
        "growth-sequence prefix of an expression",
        _TUPLE_BUDGET,
        positionals=(_Arg("expr_file", "expr_file"),),
        flags=(
            _Arg("--max-n", "max_n", _at_least(1, "prefix length"), default=8),
            _Arg("--trunc-m", "trunc_m", _at_least(1, "truncation level")),
            _Arg("--oracle-check", "oracle_check", bool, default=False),
        ),
    ),
    ("bounds",): _Leaf(
        "growth-bound verdicts",
        _TUPLE_BUDGET,
        positionals=(_Arg("expr_file", "expr_file"),),
        flags=(
            _Arg("--max-n", "max_n", _at_least(10, "prefix length"), default=30),
            _Arg("--grid", "grid"),
        ),
    ),
    ("oeis",): _Leaf(
        "compare a sequence against a b-file",
        _TUPLE_BUDGET,
        one_of=(
            _Arg("--seq", "named_seq", choices=("bell", "bell2", "meet-trivial-pairs")),
            _Arg("--expr", "expr_file"),
        ),
        flags=(
            _Arg("--use-s", "use_s", bool, default=False),
            _Arg("--bfile", "bfile", required=True),
            _Arg("--max-n", "max_n", _at_least(0, "prefix length"), default=12),
            _Arg("--offset", "offset", int),
        ),
    ),
    ("graphs", "count"): _Leaf(
        "labelled members on n vertices",
        _NODE_BUDGET,
        flags=(
            _Arg("--class-file", "class_file", required=True),
            _Arg("--mode", "mode", choices=("generators", "forbidden"), required=True),
            _Arg("--n", "n", _at_least(0, "vertex count"), required=True),
        ),
    ),
    ("graphs", "semiinduced"): _Leaf(
        "largest semi-induced half-graph",
        _NODE_BUDGET,
        flags=(
            _Arg("--graph-file", "graph_file", required=True),
            _Arg("--lax", "lax", bool, default=False),
        ),
    ),
    ("graphs", "fliproundtrip"): _Leaf(
        "flip recovery round trips",
        _NODE_BUDGET,
        flags=(
            _Arg("--k", "k", _at_least(2, "path length"), required=True),
            _Arg("--seeds", "seeds", _at_least(1, "trial count"), default=20),
            _Arg("--exhaustive", "exhaustive", bool, default=False),
        ),
    ),
    ("witness",): _Leaf(
        "order and coding witness searches",
        _NODE_BUDGET,
        positionals=(_Arg("kind", "kind", choices=("order", "coding")), _Arg("rel_file", "rel_file")),
        flags=(
            _Arg("--size", "size", _at_least(1, "witness size"), required=True),
            _Arg("--k", "k", _at_least(1, "side width")),
        ),
    ),
}


def _value(arg: _Arg, text: str | None):
    """arg's value for text, converted and checked as argparse does, or
    None where argparse would not take text as written for it (None
    for a flag's missing value)."""
    if text is None or text.startswith("-"):
        return None
    try:
        value = arg.kind(text)
    except ValueError:
        return None
    if arg.choices is not None and value not in arg.choices:
        return None
    return value


def _read_command_line(argv) -> SimpleNamespace | None:
    """The namespace argparse makes of argv, read from the flag table:
    the same attributes with the same values, so vars() of the two are
    equal.  None for a line not taken as written, which argparse then
    reads: an unknown token (-h, an abbreviated flag, --flag=value), a
    flag with no value or a value starting with '-', a repeated flag, a
    value failing its conversion, minimum or choices, the wrong number
    of positionals, a missing required flag, or an oeis line with both
    or neither of --seq and --expr."""
    words = tuple(argv[:1])
    leaf = _LEAVES.get(words)
    if leaf is None:
        words = tuple(argv[:2])
        leaf = _LEAVES.get(words)
        if leaf is None:
            return None
    values = {"command": words[0]}
    if len(words) == 2:
        values["graphs_command"] = words[1]
    args = leaf.args()
    values.update((arg.dest, arg.default) for arg in args)
    flags = {arg.spelling: arg for arg in args if arg.spelling.startswith("-")}
    given = set()
    texts = []
    tokens = iter(argv[len(words):])
    for token in tokens:
        if not token.startswith("-"):
            texts.append(token)
            continue
        arg = flags.get(token)
        if arg is None or token in given:
            return None
        given.add(token)
        if arg.kind is bool:
            values[arg.dest] = True
            continue
        value = values[arg.dest] = _value(arg, next(tokens, None))
        if value is None:
            return None
    if len(texts) != len(leaf.positionals):
        return None
    for arg, text in zip(leaf.positionals, texts):
        value = values[arg.dest] = _value(arg, text)
        if value is None:
            return None
    if any(arg.required and spelling not in given for spelling, arg in flags.items()):
        return None
    if leaf.one_of and sum(arg.spelling in given for arg in leaf.one_of) != 1:
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of the whole flag table.  It prints help and
    usage errors, and parses the lines _read_command_line declines."""
    import argparse

    def typed(kind):
        # argparse prints the message of an ArgumentTypeError only
        if kind in (int, str):
            return kind

        def parse(text: str):
            try:
                return kind(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return parse

    parser = argparse.ArgumentParser(
        prog="growthlab",
        description="Exact growth sequences, growth bounds and witness searches.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    graphs = None
    for words, leaf in _LEAVES.items():
        sub = commands
        if words[0] == "graphs":
            if graphs is None:
                group = commands.add_parser("graphs", help="hereditary class and half-graph tools")
                graphs = group.add_subparsers(dest="graphs_command", required=True)
            sub = graphs
        p = sub.add_parser(words[-1], help=leaf.help)
        one_of = p.add_mutually_exclusive_group(required=True) if leaf.one_of else None
        for arg in leaf.args():
            target = one_of if arg in leaf.one_of else p
            if arg.kind is bool:
                target.add_argument(arg.spelling, action="store_true", dest=arg.dest)
            elif arg.spelling.startswith("-"):
                target.add_argument(
                    arg.spelling,
                    dest=arg.dest,
                    type=typed(arg.kind),
                    choices=arg.choices,
                    default=arg.default,
                    required=arg.required,
                )
            else:
                target.add_argument(arg.spelling, type=typed(arg.kind), choices=arg.choices)
    return parser


_HANDLERS = {
    "seq": _cmd_seq,
    "bounds": _cmd_bounds,
    "oeis": _cmd_oeis,
    "graphs": _cmd_graphs,
    "witness": _cmd_witness,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact terms can run past 4,300 digits
    args = _read_command_line(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    command = args.command
    if command == "graphs":
        command = f"graphs {args.graphs_command}"
    started = time.perf_counter()
    rows: list[dict] = []
    tel: dict = {"tuples_visited": 0, "nodes": 0}
    config = _common_config(args)
    # a command without --budget-nodes spends no nodes
    budget = Budget(getattr(args, "budget_nodes", 0))
    try:
        code = _HANDLERS[args.command](args, rows, tel, config, budget)
    except CapacityError as exc:
        tel["capacity"] = str(exc)
        code = EXIT_CAPACITY
    except (ParseError, OSError, ValueError) as exc:
        print(f"growthlab: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        import traceback

        print(f"growthlab: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL
    tel["nodes"] = budget.spent
    if not args.deterministic:
        tel["wall_ms"] = int((time.perf_counter() - started) * 1000)
    envelope = {
        "command": command,
        "config": config,
        "results": rows,
        "telemetry": tel,
    }
    _emit(envelope, args)
    return code
