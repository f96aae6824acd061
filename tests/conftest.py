"""Shared fixtures: data paths and the CLI runner."""
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
