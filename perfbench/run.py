#!/usr/bin/env python3
"""growthlab benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload oracle-check --seed 1 --seconds 40 --trace 0

An operation is one growthlab command line.  A round is the workload's
whole list of operations, run one at a time from this single process.
Each round starts a fresh Python process (perfbench/worker.py) that
imports growthlab.cli and then forks one child per operation, which
calls growthlab.cli.main(argv); so every operation starts with cold
caches, as a command-line user's does.  The run repeats rounds while a
further round still fits in --seconds, and always runs at least one.

An operation fails when its exit code is not the one the references
predict, or when its output breaks a check against them (workloads.py,
reference.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  An operation's time is the
mean of its times over the rounds without the fastest and the slowest:
  wall_s       the summed time of the operations, one round's worth
  op_max_s     the longest operation
  peak_rss_mb  highest peak RSS of any operation's process (os.wait4)
  setup_s      median over the rounds of the time the round's fresh
               process takes to import growthlab.cli
--trace 1 runs rounds in pairs, one untraced and one traced, and
reports the per-layer metrics of tracing.py from the traced rounds,
with run.cpu_s (user plus system time of the untraced rounds'
operations) and trace.overhead_s (traced minus untraced round time).

Per-operation records, and the spans of a traced run, are written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: an operation still running after this long is killed and counted failed
OP_TIMEOUT_S = 150.0


class Worker:
    """One fresh worker process (worker.py): it imports growthlab.cli,
    reports how long that took, and forks a child for each operation."""

    def __init__(self, workdir: Path, trace: bool):
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, str(HERE / "worker.py"), "1" if trace else "0"]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
        try:
            self.setup_s = json.loads(self._read())["setup_s"]
        except BaseException:
            self.close()
            raise

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker exited with code {self.proc.wait()}")
        return line

    def run(self, op: workloads.Op) -> dict:
        """Run one operation in a forked child and check its output."""
        paths = {name: self.workdir / f"op-{name}" for name in ("result", "stdout", "stderr")}
        paths["result"].unlink(missing_ok=True)
        request = {"argv": list(op.argv), "timeout": OP_TIMEOUT_S, **{k: str(v) for k, v in paths.items()}}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self._read())
        record = {
            "label": op.label,
            "argv": list(op.argv),
            "rss_mb": reply["rss_mb"],
            "cpu_s": reply["cpu_s"],
            "problems": [],
            "wrong": False,
        }
        try:
            record.update(json.loads(paths["result"].read_text()))
        except (OSError, ValueError):
            stderr = paths["stderr"].read_text(errors="replace").strip().splitlines()
            record["problems"].append(f"child exited {reply['status']}: {stderr[-1] if stderr else 'no output'}")
            return record
        if record["exit"] != op.expected_exit:
            stderr = paths["stderr"].read_text(errors="replace").strip()
            record["problems"].append(f"exit {record['exit']}, expected {op.expected_exit}: {stderr[-300:]}")
            return record
        try:
            envelope = json.loads(paths["stdout"].read_text())
            problems = op.check(envelope)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            problems = [f"output does not read as expected: {exc!r}"]
        record["problems"] = problems
        record["wrong"] = bool(problems)
        return record

    def close(self) -> None:
        """End the worker: close its input, and kill it if it does not
        exit in time; the worker itself kills a child past OP_TIMEOUT_S."""
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_round(ops, workdir: Path, trace: bool) -> tuple[list[dict], float]:
    """One round in a fresh worker: the records of its operations and
    the worker's import time."""
    records = []
    worker = Worker(workdir, trace)
    try:
        for op in ops:
            records.append(worker.run(op))
    finally:
        worker.close()
    for op, record in zip(ops, records):
        status = "ok" if not record["problems"] else "FAIL " + "; ".join(record["problems"])[:300]
        print(
            f"  {'traced ' if trace else ''}{op.label}: {record.get('op_s', float('nan')):.3f} s "
            f"rss {record['rss_mb']:.1f} MB {status}",
            file=sys.stderr,
        )
    return records, worker.setup_s


def trimmed_mean(values) -> float:
    """The mean without the lowest and the highest value, once there are
    three or more."""
    values = sorted(values)
    if len(values) >= 3:
        values = values[1:-1]
    return statistics.fmean(values)


def op_times(rounds) -> list[float]:
    """Each operation's time over the rounds, as a trimmed mean."""
    return [trimmed_mean(r.get("op_s", 0.0) for r in runs) for runs in zip(*rounds)]


def end_to_end(rounds, setups) -> dict[str, float]:
    records = [r for rnd in rounds for r in rnd]
    times = op_times(rounds)
    return {
        "wall_s": sum(times),
        "op_max_s": max(times),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "setup_s": statistics.median(setups),
    }


def per_layer(plain_rounds, traced_rounds) -> dict[str, float]:
    metrics = {}
    per_round = [tracing.layer_metrics([r.get("spans", []) for r in rnd]) for rnd in traced_rounds]
    for name in per_round[0]:
        metrics[name] = statistics.median(m[name] for m in per_round)
    metrics["run.cpu_s"] = statistics.median(sum(r["cpu_s"] for r in rnd) for rnd in plain_rounds)
    metrics["trace.overhead_s"] = sum(op_times(traced_rounds)) - sum(op_times(plain_rounds))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "growthlab" / "cli.py").is_file():
        print(f"perfbench: no growthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_parent = HERE / "_work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        plain, traced, setups = [], [], []
        deadline = time.monotonic() + args.seconds
        longest = 0.0
        while True:
            started = time.monotonic()
            print(f"round {len(plain) + 1}", file=sys.stderr)
            records, setup_s = run_round(ops, workdir, trace=False)
            plain.append(records)
            setups.append(setup_s)
            if args.trace:
                traced.append(run_round(ops, workdir, trace=True)[0])
            longest = max(longest, time.monotonic() - started)
            if time.monotonic() + longest > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for rnd in plain + traced for r in rnd]
    failed = sum(1 for r in records if r["problems"])
    if args.trace:
        values = per_layer(plain, traced)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        values = end_to_end(plain, setups)
        units = {"wall_s": "s", "op_max_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    absent = sorted({a for r in records for a in r.get("absent", ())})
    if absent:
        print("absent from this growthlab, reported as 0: " + ", ".join(absent), file=sys.stderr)

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(
        json.dumps({"args": vars(args), "setup_s": setups, "plain": plain, "traced": traced, "metrics": values}) + "\n"
    )
    summary = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
