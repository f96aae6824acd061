"""Spans around growthlab's layers, recorded from outside the program.

install() replaces public functions in the module namespaces that look
them up (growthlab.cli.count_orbits_injective is the oracle check,
growthlab.group_expr.count_orbits_injective the evaluator's leaf
counts) with wrappers that record a span: name, start, end, parent and
the work the call reports.  A function that a later version of the
program no longer has is reported as absent and skipped.

layer_metrics() turns the spans of a set of operations into the
benchmark's per-layer metrics.  A layer's self time is its span time
minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _order(result) -> int:
    # truncation order of an Egf, or last index of an IntSeq
    order = getattr(result, "order", None)
    return order if order is not None else len(result) - 1


#: (module, attribute, span name, work the call reports)
WRAPPED = (
    ("growthlab.cli", "parse_expr", "group_expr.parse", None),
    ("growthlab.cli", "eval_lseq", "group_expr.eval_lseq", None),
    ("growthlab.group_expr", "eval_lseq", "group_expr.eval_lseq", None),
    ("growthlab.cli", "gap_verdict", "group_expr.gap_verdict", None),
    ("growthlab.group_expr", "egf_exp_shift", "egf_algebra.exp_shift", lambda r: {"terms": _order(r)}),
    ("growthlab.group_expr", "egf_product", "egf_algebra.product", lambda r: {"terms": _order(r)}),
    ("growthlab.group_expr", "from_seq", "egf_algebra.convert", lambda r: {"terms": _order(r)}),
    ("growthlab.group_expr", "to_seq", "egf_algebra.convert", lambda r: {"terms": _order(r)}),
    ("growthlab.cli", "stirling_transform", "seq_core.stirling_transform", None),
    (
        "growthlab.group_expr",
        "check_bounds",
        "seq_core.check_bounds",
        lambda r: {"indices": r.verified_range[1] - r.verified_range[0] + 1},
    ),
    ("growthlab.cli", "bell", "seq_core.named_seq", None),
    ("growthlab.cli", "bell2", "seq_core.named_seq", None),
    ("growthlab.cli", "meet_trivial_pairs", "seq_core.named_seq", None),
    (
        "growthlab.cli",
        "count_orbits_injective",
        "orbit_oracle.oracle_count",
        lambda r: {"tuples": r.tuples_visited, "orbits": r.count},
    ),
    ("growthlab.cli", "truncate_expr", "orbit_oracle.truncate", None),
    (
        "growthlab.group_expr",
        "count_orbits_injective",
        "orbit_oracle.leaf_count",
        lambda r: {"tuples": r.tuples_visited},
    ),
    ("growthlab.cli", "count_labelled", "graph_classes.count", lambda r: {"members": int(r)}),
    ("growthlab.cli", "semi_induced_order", "graph_classes.semi_induced", None),
    ("growthlab.cli", "parse_class_spec", "graph_classes.parse", None),
    ("growthlab.cli", "parse_graph", "graph_classes.parse", None),
    ("growthlab.cli", "find_order_witness", "witness_search.search", lambda r: {"nodes": r.nodes}),
    ("growthlab.cli", "find_coding_witness", "witness_search.search", lambda r: {"nodes": r.nodes}),
    ("growthlab.cli", "verify_order_witness", "witness_search.verify", None),
    ("growthlab.cli", "verify_coding_witness", "witness_search.verify", None),
    ("growthlab.cli", "parse_relation", "witness_search.parse", None),
)

ROOT = "cli.main"


class Recorder:
    """Spans of one process, kept in memory: [name, start, end, parent,
    work], with parent the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, work, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, time.perf_counter(), 0.0, parent, {}]
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if work is not None:
            try:
                span[4] = work(result)
            except (AttributeError, TypeError, ValueError, IndexError):
                pass
        return result


def install(recorder: Recorder) -> list[str]:
    """Wrap every function in WRAPPED; return the ones that are absent."""
    absent = []
    for module_name, attr, name, work in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(f"{module_name}.{attr}")
            continue

        def wrapper(*args, _fn=fn, _name=name, _work=work, **kwargs):
            return recorder.call(_name, _work, _fn, *args, **kwargs)

        setattr(module, attr, wrapper)
    return absent


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: metric name -> (unit, better); the order of BENCHMARK.json
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "group_expr.parse_s": ("s", "lower"),
    "group_expr.parse_calls": ("count", "lower"),
    "group_expr.eval_lseq_s": ("s", "lower"),
    "group_expr.eval_self_s": ("s", "lower"),
    "group_expr.gap_verdict_s": ("s", "lower"),
    "egf_algebra.exp_shift_s": ("s", "lower"),
    "egf_algebra.product_s": ("s", "lower"),
    "egf_algebra.convert_s": ("s", "lower"),
    "egf_algebra.calls": ("count", "lower"),
    "egf_algebra.terms": ("count", "lower"),
    "seq_core.stirling_transform_s": ("s", "lower"),
    "seq_core.check_bounds_s": ("s", "lower"),
    "seq_core.bounds_indices": ("count", "higher"),
    "seq_core.named_seq_s": ("s", "lower"),
    "seq_core.named_seq_calls": ("count", "lower"),
    "orbit_oracle.oracle_count_s": ("s", "lower"),
    "orbit_oracle.oracle_calls": ("count", "lower"),
    "orbit_oracle.oracle_tuples": ("count", "lower"),
    "orbit_oracle.oracle_orbits": ("count", "higher"),
    "orbit_oracle.oracle_tuples_per_s": ("1/s", "higher"),
    "orbit_oracle.tuples_per_orbit": ("count", "lower"),
    "orbit_oracle.truncate_s": ("s", "lower"),
    "orbit_oracle.leaf_count_s": ("s", "lower"),
    "orbit_oracle.leaf_calls": ("count", "lower"),
    "orbit_oracle.leaf_tuples": ("count", "lower"),
    "graph_classes.count_s": ("s", "lower"),
    "graph_classes.count_calls": ("count", "lower"),
    "graph_classes.members": ("count", "higher"),
    "graph_classes.members_per_s": ("1/s", "higher"),
    "graph_classes.semi_induced_s": ("s", "lower"),
    "graph_classes.parse_s": ("s", "lower"),
    "witness_search.search_s": ("s", "lower"),
    "witness_search.nodes": ("count", "lower"),
    "witness_search.nodes_per_s": ("1/s", "higher"),
    "witness_search.verify_s": ("s", "lower"),
    "witness_search.parse_s": ("s", "lower"),
    "run.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _totals(span_lists) -> dict:
    """Per span name: summed time, summed self time, calls and summed
    work counters, over the spans of several operations."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counters) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
            for key, value in counters.items():
                work[f"{name}.{key}"] += value
    return {"total": total, "self": own, "calls": calls, "work": work}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_lists) -> dict[str, float]:
    """The span-based per-layer metrics of one round of operations; a
    layer the round never called reads 0."""
    t = _totals(span_lists)
    total, own, calls, work = t["total"], t["self"], t["calls"], t["work"]
    egf = ("egf_algebra.exp_shift", "egf_algebra.product", "egf_algebra.convert")
    oracle_s = total["orbit_oracle.oracle_count"]
    oracle_tuples = work["orbit_oracle.oracle_count.tuples"]
    oracle_orbits = work["orbit_oracle.oracle_count.orbits"]
    count_s = total["graph_classes.count"]
    search_s = total["witness_search.search"]
    return {
        "cli.self_s": own[ROOT],
        "group_expr.parse_s": total["group_expr.parse"],
        "group_expr.parse_calls": calls["group_expr.parse"],
        "group_expr.eval_lseq_s": total["group_expr.eval_lseq"],
        "group_expr.eval_self_s": own["group_expr.eval_lseq"],
        "group_expr.gap_verdict_s": total["group_expr.gap_verdict"],
        "egf_algebra.exp_shift_s": total["egf_algebra.exp_shift"],
        "egf_algebra.product_s": total["egf_algebra.product"],
        "egf_algebra.convert_s": total["egf_algebra.convert"],
        "egf_algebra.calls": sum(calls[name] for name in egf),
        "egf_algebra.terms": sum(work[f"{name}.terms"] for name in egf),
        "seq_core.stirling_transform_s": total["seq_core.stirling_transform"],
        "seq_core.check_bounds_s": total["seq_core.check_bounds"],
        "seq_core.bounds_indices": work["seq_core.check_bounds.indices"],
        "seq_core.named_seq_s": total["seq_core.named_seq"],
        "seq_core.named_seq_calls": calls["seq_core.named_seq"],
        "orbit_oracle.oracle_count_s": oracle_s,
        "orbit_oracle.oracle_calls": calls["orbit_oracle.oracle_count"],
        "orbit_oracle.oracle_tuples": oracle_tuples,
        "orbit_oracle.oracle_orbits": oracle_orbits,
        "orbit_oracle.oracle_tuples_per_s": _ratio(oracle_tuples, oracle_s),
        "orbit_oracle.tuples_per_orbit": _ratio(oracle_tuples, oracle_orbits),
        "orbit_oracle.truncate_s": total["orbit_oracle.truncate"],
        "orbit_oracle.leaf_count_s": total["orbit_oracle.leaf_count"],
        "orbit_oracle.leaf_calls": calls["orbit_oracle.leaf_count"],
        "orbit_oracle.leaf_tuples": work["orbit_oracle.leaf_count.tuples"],
        "graph_classes.count_s": count_s,
        "graph_classes.count_calls": calls["graph_classes.count"],
        "graph_classes.members": work["graph_classes.count.members"],
        "graph_classes.members_per_s": _ratio(work["graph_classes.count.members"], count_s),
        "graph_classes.semi_induced_s": total["graph_classes.semi_induced"],
        "graph_classes.parse_s": total["graph_classes.parse"],
        "witness_search.search_s": search_s,
        "witness_search.nodes": work["witness_search.search.nodes"],
        "witness_search.nodes_per_s": _ratio(work["witness_search.search.nodes"], search_s),
        "witness_search.verify_s": total["witness_search.verify"],
        "witness_search.parse_s": total["witness_search.parse"],
    }
