"""Shared fixtures: data paths, the CLI runner, and the kernel id.

The orbit BFS has one kernel, the NumPy one.  Three of its tests, one
case per group of the zoo, still request the ``kernel`` fixture only so
that their ids keep the ``[numpy-<group>]`` form they carried when a
second kernel existed, and stay comparable with earlier test records.
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
def kernel(request) -> str:
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
