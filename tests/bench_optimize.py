"""Layer benchmark of the inverse-rendering loss, its measured-map terms,
its Jacobian and three optimizer fits.

Not part of the tier-1 suite: pytest collects only ``test_*.py``. Run with

    PYTHONPATH=src python -m pytest tests/bench_optimize.py

The 128 px cases use the default scene's first camera and a measured map
with sigma_c = 0.5, as the ``optimize-128`` benchmark workload does. A
standalone ``correspondence_loss`` call builds the measured-map terms
itself; inside a fit they are built once, so the fit cases show what a
loss evaluation costs there. The measured-terms case builds them once, at
-2 deg and stride 2: the erosion, boundary fade and seam mask a fit runs
once per camera. The Jacobian case is one tangent pass at
``init_guess`` at -2 deg, stride 2, on terms built once and the hits of
the evaluation at that point, as a fit takes it at each accepted point.
The fits start from ``init_guess`` at -2 and +2 deg. The 448 px case is
a full-resolution fit of both decode-scene cameras' rendered sigma_c =
0.5 maps at +3 deg, the size the single-shot path measures at.
"""

from dataclasses import replace

import numpy as np
import pytest

from deflect_gaze.optimize import (OptConfig, _evaluate_loss, _jacobian,
                                   _measured_terms, correspondence_loss,
                                   init_guess, optimize_gaze)
from deflect_gaze.render import add_correspondence_noise, render_correspondence
from deflect_gaze.scene import rotate_eye


@pytest.fixture(scope="module")
def scene1(scene):
    return replace(scene, cameras=scene.cameras[:1])


def measured_at(scene1, a):
    sc = replace(scene1, eye=rotate_eye(scene1.eye, a, 0.0))
    return [add_correspondence_noise(render_correspondence(sc, 0), 0.5, 11,
                                     screen_resolution=sc.screen.resolution)]


@pytest.mark.parametrize("stride", [1, 2])
def test_correspondence_loss_128(benchmark, scene1, stride):
    measured = measured_at(scene1, -2.0)
    init = init_guess(measured, scene1)
    loss = benchmark(correspondence_loss, init, measured, scene1,
                     pixel_stride=stride)
    assert loss > 0


def test_measured_terms_128_stride2(benchmark, scene1):
    measured = measured_at(scene1, -2.0)
    (terms,) = benchmark(_measured_terms, measured, scene1,
                         OptConfig(pixel_stride=2))
    assert terms.eroded.any() and (terms.weight > 0).any()


def test_jacobian_128_stride2(benchmark, scene1):
    measured = measured_at(scene1, -2.0)
    config = OptConfig(pixel_stride=2)
    terms = _measured_terms(measured, scene1, config)
    point = _evaluate_loss(init_guess(measured, scene1), terms, scene1,
                           config)[2]
    jac = benchmark(_jacobian, point, terms, scene1)
    assert np.isfinite(jac).all()


def test_optimize_gaze_448_two_cameras_stride1(benchmark, dec_scene):
    sc = replace(dec_scene, eye=rotate_eye(dec_scene.eye, 3.0, 0.0))
    measured = [add_correspondence_noise(
        render_correspondence(sc, cam), 0.5, 11 + cam,
        screen_resolution=sc.screen.resolution) for cam in (0, 1)]
    init = init_guess(measured, dec_scene)
    params, _, trace = benchmark.pedantic(
        optimize_gaze,
        args=(init, measured, dec_scene, OptConfig(pixel_stride=1)),
        rounds=3, iterations=1)
    assert abs(params.azimuth - 3.0) < 0.1
    assert len(trace) > 1


@pytest.mark.parametrize("a", [-2.0, 2.0])
def test_optimize_gaze_128_stride2(benchmark, scene1, a):
    measured = measured_at(scene1, a)
    init = init_guess(measured, scene1)
    config = OptConfig(pixel_stride=2)
    params, _, trace = benchmark.pedantic(
        optimize_gaze, args=(init, measured, scene1, config), rounds=3,
        iterations=1)
    assert abs(params.azimuth - a) < 0.1
    assert len(trace) > 1
