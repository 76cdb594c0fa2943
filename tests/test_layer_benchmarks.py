"""The layer benchmarks ``tests/bench_*.py`` run against this source.

pytest collects only ``test_*.py``, so a change to an API the layer
benchmarks call would break them unseen. This runs them once each, with
timing off, in a subprocess: a pytest run inside this one would share its
collected modules and fixtures. The file that ``--benchmark-json`` writes
keeps each benchmark's summary statistics only.
"""

import subprocess
import sys
from pathlib import Path

from conftest import pytest_benchmark_update_json

ROOT = Path(__file__).resolve().parents[1]


def test_layer_benchmarks_run():
    benches = sorted(str(p) for p in (ROOT / "tests").glob("bench_*.py"))
    assert benches
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *benches],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]


def test_benchmark_json_keeps_median_iqr_and_rounds():
    stats = {"min": 1.0, "median": 2.0, "iqr": 0.5, "rounds": 3,
             "data": [1.0, 2.0, 3.0]}
    out = {"benchmarks": [{"name": "b", "stats": stats}]}
    pytest_benchmark_update_json(None, [], out)
    assert out == {"benchmarks": [{"name": "b", "stats": {
        "median": 2.0, "iqr": 0.5, "rounds": 3}}]}
