"""The micro-benchmark files run: each case once, untimed.

``bench_engine.py`` and ``bench_solvers.py`` sit outside the default
``test_*.py`` collection, so a renamed or removed package name would
otherwise break them unseen.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_files_run_with_benchmarks_disabled():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
            "tests/bench_engine.py", "tests/bench_solvers.py",
        ],
        capture_output=True, text=True, timeout=600, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "101 passed" in proc.stdout
