"""The layer benchmarks ``tests/bench_*.py`` run against this source.

pytest collects only ``test_*.py``, so a change to an API the layer
benchmarks call would break them unseen. This runs them once each, with
timing off, in a subprocess: a pytest run inside this one would share its
collected modules and fixtures.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_benchmarks_run():
    benches = sorted(str(p) for p in (ROOT / "tests").glob("bench_*.py"))
    assert benches
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *benches],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
