"""Every benchmark command line of seeds 0 and 1 gives the exit code and
the byte-exact --deterministic stdout recorded in tests/data/golden.json.

The envelopes carry the work counters in telemetry, so a change in the
work done fails this test just as a wrong count does.  See golden.py
for how the file is made and when to regenerate it.
"""
from __future__ import annotations

import json

import golden


def test_benchmark_lines_match_the_golden_outputs():
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.replay()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, changed
