"""Shared fixtures: data paths, the CLI runner, and a blocked module.

``blocked_module`` makes the module its one parameter names, numpy,
unimportable for the duration of a test.  Two tests request it,
``test_all_tuple_orbits_match_brute`` and
``test_tuples_visited_covers_the_state_space``: their counts run with
NumPy unavailable, and their ids keep the ``[numpy-<group>]`` form they
had when the parameter chose the NumPy kernel, so they stay comparable
with earlier test records.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(params=["numpy"])
def blocked_module(request, monkeypatch) -> str:
    monkeypatch.setitem(sys.modules, request.param, None)
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
