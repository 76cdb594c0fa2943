"""Layer benchmark of the stereo depth sweep (``reconstruct_field``) and of
its scoring kernel.

Not part of the tier-1 suite: pytest collects only ``test_*.py``. Run with

    PYTHONPATH=src python -m pytest tests/bench_stereo.py

The 128-px case is the default scene at stride 1 with sigma_c = 0.5, as in
the ``stereo-128`` benchmark workload. The 448-px case sweeps crossed-fringe
maps decoded from the decode scene at stride 2, as ``singleshot-448`` does;
decoded maps have holes that split the usable depths of a ray into runs.
The kernel case scores one batch of the 128-px sweep: every swept pixel
once, at the grid depth next above its true depth: the size of every batch
the sweep scores. The mask case builds the 128-px sweep's usable-depth
mask, every grid depth of every swept pixel.
"""

import numpy as np

from deflect_gaze import stereo
from deflect_gaze.stereo import depth_grid, reconstruct_field


def test_reconstruct_128_stride1(benchmark, scene, maps_128):
    field = benchmark(reconstruct_field, scene, *maps_128)
    assert len(field) > 900


def test_reconstruct_448_stride2(benchmark, dec_scene, maps_448):
    field = benchmark(reconstruct_field, dec_scene, *maps_448, stride=2)
    assert len(field) > 1000


def test_kernel_128_batch(benchmark, scene, maps_128, truth_cam0):
    corr1, corr2 = maps_128
    ys, xs = np.nonzero(corr1.valid)
    cam1 = scene.cameras[0]
    dirs1 = cam1.pixel_rays()[1][ys, xs]
    s1 = scene.screen.uv_to_world(corr1.u[ys, xs], corr1.v[ys, xs])
    pair = stereo._pair(scene, dirs1, s1, corr2)
    ts = depth_grid(scene)
    true_t = np.linalg.norm(truth_cam0["points"][ys, xs] - cam1.center,
                            axis=1)
    i = np.searchsorted(ts, np.nan_to_num(true_t, nan=ts[0]))
    t = ts[np.clip(i, 0, len(ts) - 1)]
    ang, _, ok = benchmark(stereo._consistency_at, pair, np.arange(len(xs)),
                           t)
    assert ok.sum() > 900


def test_usable_depths_128(benchmark, scene, maps_128):
    corr1, corr2 = maps_128
    ys, xs = np.nonzero(corr1.valid)
    cam1, cam2 = scene.cameras[:2]
    dirs1 = cam1.pixel_rays()[1][ys, xs]
    ts = depth_grid(scene)
    usable = np.empty((len(xs), len(ts)), dtype=bool)
    benchmark(stereo._usable_depths, cam1, cam2, dirs1,
              stereo._cell_table(corr2.valid), corr2.valid.shape, ts, usable)
    assert (usable.sum(axis=1) >= 8).sum() > 900
