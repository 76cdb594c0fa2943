"""One traced round of every perfbench workload runs against this source.

The benchmark calls the package's public functions and reads some of its
constants by name, so a change that renames or drops one breaks the
benchmark; this test makes it break here first. It runs in a subprocess
because the harness pins the BLAS and OpenMP threads before numpy loads.
A traced round also runs each workload's probes.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = """
import json
import math

import harness

out = {}
for name, workload in sorted(harness.WORKLOADS.items()):
    tracer = harness.Tracer()
    res = harness.run_workload(workload(), 0, rounds=1, tracer=tracer)
    out[name] = {
        "positions": len(workload.positions),
        "errors": [r.error for r in res.records],
        "finite": [math.isfinite(r.theta) for r in res.records],
        "probes": sum(s[0] == "probe" for s in tracer.spans),
    }
print(json.dumps(out))
"""


def test_one_traced_round_of_each_workload():
    run = subprocess.run([sys.executable, "-c", SCRIPT], cwd=PERFBENCH,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert sorted(got) == ["optimize-128", "singleshot-448", "stereo-128"]
    for name, wl in got.items():
        n = wl["positions"]
        assert wl["errors"] == [None] * n, name
        assert wl["finite"] == [True] * n, name
        assert wl["probes"] == n, name
