"""Layer benchmark of the stereo depth sweep (``reconstruct_field``).

Not part of the tier-1 suite: pytest collects only ``test_*.py``. Run with

    PYTHONPATH=src python -m pytest tests/bench_stereo.py

The 128-px case is the default scene at stride 1 with sigma_c = 0.5, as in
the ``stereo-128`` benchmark workload. The 448-px case sweeps crossed-fringe
maps decoded from the decode scene at stride 2, as ``singleshot-448`` does;
decoded maps have holes that split the usable depths of a ray into runs.
"""

import pytest

from deflect_gaze.decode import WaveletParams, decode_crossed_fringe
from deflect_gaze.render import (CrossedFringe, add_correspondence_noise,
                                 render_correspondence, render_frame)
from deflect_gaze.stereo import reconstruct_field


@pytest.fixture(scope="module")
def maps_128(scene):
    return [add_correspondence_noise(render_correspondence(scene, cam), 0.5,
                                     11 + cam,
                                     screen_resolution=scene.screen.resolution)
            for cam in (0, 1)]


@pytest.fixture(scope="module")
def maps_448(dec_scene):
    pattern = CrossedFringe(period_x=36.0, period_y=36.0)
    wavelets = [WaveletParams(orientation=o, omega0=3.2, scale_min=3.0,
                              scale_max=16.0) for o in ("x", "y")]
    maps = []
    for cam in (0, 1):
        truth = render_correspondence(dec_scene, cam)
        frame = render_frame(dec_scene, cam, pattern, sigma_i=0.01,
                             seed=11 + cam, correspondence=truth)
        maps.append(decode_crossed_fringe(frame, pattern, truth, *wavelets))
    return maps


def test_reconstruct_128_stride1(benchmark, scene, maps_128):
    field = benchmark(reconstruct_field, scene, *maps_128)
    assert len(field) > 900


def test_reconstruct_448_stride2(benchmark, dec_scene, maps_448):
    field = benchmark(reconstruct_field, dec_scene, *maps_448, stride=2)
    assert len(field) > 1000
