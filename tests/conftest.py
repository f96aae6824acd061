"""Shared fixtures: data paths, the CLI runner, and the kernel id.

The orbit search runs in plain Python on small state spaces and on the
NumPy kernel above them.  The ``kernel`` fixture sends every count of
a test to the NumPy kernel, whatever the size, so that the small groups
of the zoo exercise it too.  Two tests request it,
``test_all_tuple_orbits_match_brute`` and
``test_tuples_visited_covers_the_state_space``; their ids keep the
``[numpy-<group>]`` form and stay comparable with earlier test records.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from growthlab import orbit_oracle

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(params=["numpy"])
def kernel(request, monkeypatch) -> str:
    monkeypatch.setattr(orbit_oracle, "PYTHON_SEARCH_WORK", 0)
    return request.param


def run_cli(*args: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    """Run the installed CLI in a subprocess and capture output."""
    return subprocess.run(
        [sys.executable, "-m", "growthlab", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def cli_json(*args: str, timeout: float = 300.0) -> tuple[int, dict]:
    proc = run_cli(*args, timeout=timeout)
    assert proc.stdout.strip(), f"no stdout; stderr: {proc.stderr}"
    return proc.returncode, json.loads(proc.stdout)


@pytest.fixture(scope="session")
def cli():
    return run_cli
