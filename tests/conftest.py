import numpy as np
import pytest

from deflect_gaze import bench
from deflect_gaze.decode import WaveletParams, decode_crossed_fringe
from deflect_gaze.errors import DeflectGazeError
from deflect_gaze.render import (CrossedFringe, add_correspondence_noise,
                                 render_correspondence, render_frame)
from deflect_gaze.scene import (default_scene, decode_scene,
                                eye_surface_hit_batch)
from deflect_gaze.stereo import reconstruct_field


@pytest.fixture(scope="session")
def scene():
    return default_scene()


@pytest.fixture(scope="session")
def dec_scene():
    return decode_scene()


@pytest.fixture(scope="session")
def corr_pair(scene):
    return (render_correspondence(scene, 0), render_correspondence(scene, 1))


@pytest.fixture(scope="session")
def truth_cam0(scene):
    """Ground-truth surface points/normals/regions per cam0 pixel."""
    origin, dirs = scene.cameras[0].pixel_rays()
    points, normals, region, hit = eye_surface_hit_batch(scene.eye, origin,
                                                         dirs)
    return {"points": points, "normals": normals, "region": region,
            "hit": hit, "origin": origin, "dirs": dirs}


@pytest.fixture(scope="session")
def field(scene, corr_pair):
    return reconstruct_field(scene, corr_pair[0], corr_pair[1])


@pytest.fixture(scope="session")
def maps_128(scene):
    """Both cameras' maps at sigma_c = 0.5, as ``stereo-128`` measures."""
    return [add_correspondence_noise(render_correspondence(scene, cam), 0.5,
                                     11 + cam,
                                     screen_resolution=scene.screen.resolution)
            for cam in (0, 1)]


@pytest.fixture(scope="session")
def maps_448(dec_scene):
    """Both cameras' crossed-fringe maps decoded from 448-px frames with
    the pattern, noise and wavelets of ``singleshot-448``."""
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


@pytest.fixture
def rotated_reps_fail(monkeypatch):
    """Make every bench rep at a turned stage fail: the stand-in for
    ``bench._measure_and_estimate`` raises a ``DeflectGazeError`` wherever
    the stage-rotated eye differs from the loaded one, so the noiseless
    reference and the 0-degree reps still run. A stand-in reaches only
    reps run in this process, so the default worker count becomes 1."""
    real = bench._measure_and_estimate

    def measure(scene, scene_a, *args):
        if not np.array_equal(scene_a.eye.optical_axis,
                              scene.eye.optical_axis):
            raise DeflectGazeError("the stage turned the eye")
        return real(scene, scene_a, *args)

    monkeypatch.setattr(bench, "_measure_and_estimate", measure)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0})


def rng(seed=0):
    return np.random.default_rng(seed)
