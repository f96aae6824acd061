"""Golden outputs: the benchmark's command lines, replayed in process.

``replay()`` builds every operation that ``perfbench/workloads.py``
makes for the seeds in SEEDS, runs each through ``growthlab.cli.main``
with ``--deterministic``, and returns one record per line: its argv,
its exit code and the SHA-256 of its stdout.  The workloads write their
input files into a temporary directory, and the envelopes echo those
paths and the absolute path of ``tests/data``; both are replaced by
fixed tokens before hashing, so the hashes do not depend on where the
checkout or the temporary directory lives.

Regenerate ``tests/data/golden.json`` with

    PYTHONPATH=src python tests/golden.py

only when an output changes on purpose, and name each changed line and
its reason in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden.json"
SEEDS = (0, 1)
WORK_TOKEN = "<work>"
DATA_TOKEN = "<data>"


def _workloads():
    bench = str(ROOT / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    return workloads


def _run(argv: list[str]) -> tuple[int, str]:
    from growthlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--deterministic"])
    return code, out.getvalue()


def replay() -> dict[str, dict]:
    """Every benchmark line of SEEDS by "<workload>:<seed>:<label>"."""
    workloads = _workloads()
    data = str(workloads.DATA)
    records = {}
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:

        def fixed(text: str) -> str:
            return text.replace(tmp, WORK_TOKEN).replace(data, DATA_TOKEN)

        for seed in SEEDS:
            for workload in workloads.WORKLOADS:
                workdir = Path(tmp) / f"{workload}-{seed}"
                workdir.mkdir()
                for op in workloads.build(workload, seed, workdir):
                    code, stdout = _run(list(op.argv))
                    records[f"{workload}:{seed}:{op.label}"] = {
                        "argv": [fixed(a) for a in op.argv],
                        "exit": code,
                        "sha256": hashlib.sha256(fixed(stdout).encode()).hexdigest(),
                    }
    return records


def main() -> None:
    GOLDEN.write_text(json.dumps(replay(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
