"""Layer benchmark of the correspondence render (``render_correspondence``).

Not part of the tier-1 suite: pytest collects only ``test_*.py``. Run with

    PYTHONPATH=src python -m pytest tests/bench_render.py

The 128 px case renders camera 0 of the default scene at +3 deg, as each
``stereo-128`` and ``optimize-128`` rep simulates its measurement. The
448 px case renders camera 0 of the decode scene at +3 deg, as
``singleshot-448`` does before it draws the fringe frame. The camera's ray
grid is cached before timing, as it is after a workload's first rep.
"""

from dataclasses import replace

import pytest

from deflect_gaze.render import render_correspondence
from deflect_gaze.scene import rotate_eye


@pytest.mark.parametrize("which", ["scene", "dec_scene"],
                         ids=["128", "448"])
def test_render_correspondence(benchmark, request, which):
    base = request.getfixturevalue(which)
    sc = replace(base, eye=rotate_eye(base.eye, 3.0, 0.0))
    sc.cameras[0].pixel_rays()
    corr = benchmark(render_correspondence, sc, 0)
    assert corr.n_valid > 0.03 * corr.valid.size
