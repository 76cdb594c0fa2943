"""What the package imports.

Every module in ``src/`` and ``tests/`` uses each name it imports. A name
counts as used when it is read anywhere in the module, as a bare name or
as the root of an attribute chain. Imports marked ``# noqa: F401`` are
re-exports and are exempt.

The stereo method loads none of ``scipy.ndimage``, ``scipy.fft`` and the
process pool: each is imported where it is called, so a stereo run does
not pay for loading them. A single-shot decode loads no ``scipy.sparse``:
importing ``scipy.sparse.csgraph`` alone, which pulls in ``scipy.linalg``,
raised a 448 px single-shot run's peak resident size by 9-10%. The
inverse-rendering method loads no scipy module at all: its mask helpers
are numpy, and loading ``scipy.ndimage`` would cost a cold fit more than
the fit itself.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """(line, name) of every imported name that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_unused_names():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d\n"
              "from . import e  # noqa: F401\nnp.zeros(1)\nprint(d)\n")
    assert unused_imports(source) == [(1, "os"), (3, "c")]


STEREO_SCRIPT = """
import json
import sys

import numpy as np

from deflect_gaze import bench, decode, gaze, render, scene, stereo

sc = scene.default_scene()
maps = [render.render_correspondence(sc, cam) for cam in (0, 1)]
gaze.estimate_gaze_two_center(stereo.reconstruct_field(sc, *maps),
                              gaze.ClusterParams())
bench.run_benchmark(bench.BenchmarkConfig(method=bench.METHOD_STEREO,
                                          reps=1), sc, max_workers=1)
stereo_loaded = [m for m in ("scipy.ndimage", "scipy.fft",
                             "concurrent.futures.process")
                 if m in sys.modules]
decode.foreground_mask(np.zeros((8, 8)))
ndimage_after_mask = "scipy.ndimage" in sys.modules
y, x = np.mgrid[:128, :128].astype(float)
frame = (0.5 + 0.25 * np.cos(2 * np.pi * x / 16.0)
         + 0.25 * np.cos(2 * np.pi * y / 22.0))
anchor = render.CorrespondenceMap(u=x, v=y, valid=np.ones(x.shape, bool))
decoded = decode.decode_crossed_fringe(
    frame, render.CrossedFringe(period_x=16.0, period_y=22.0), anchor,
    *[decode.WaveletParams(orientation=o, scale_min=8.0, scale_max=24.0,
                           omega0=5.5)
      for o in ("x", "y")])
print(json.dumps({"stereo_loaded": stereo_loaded,
                  "ndimage_after_mask": ndimage_after_mask,
                  "decoded": decoded.n_valid > 0,
                  "sparse_after_decode": "scipy.sparse" in sys.modules}))
"""


OPTIMIZE_SCRIPT = """
import json
import sys

from deflect_gaze import bench, optimize, render, scene

sc = scene.default_scene()
maps = [render.render_correspondence(sc, cam) for cam in (0, 1)]
init = optimize.init_guess(maps, sc)
optimize.optimize_gaze(init, maps, sc, optimize.OptConfig(pixel_stride=2))
optimize.correspondence_loss(init, maps, sc, pixel_stride=1)
bench.run_benchmark(bench.BenchmarkConfig(method=bench.METHOD_OPTIMIZE,
                                          reps=1), sc, max_workers=1)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def fresh_run(script):
    """The last stdout line of ``script``, run in a fresh interpreter:
    this test process may have loaded any module already."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_stereo_path_loads_no_ndimage_or_process_pool():
    assert fresh_run(STEREO_SCRIPT) == {
        "stereo_loaded": [], "ndimage_after_mask": True, "decoded": True,
        "sparse_after_decode": False}


def test_inverse_rendering_path_loads_no_scipy():
    assert fresh_run(OPTIMIZE_SCRIPT) == []
