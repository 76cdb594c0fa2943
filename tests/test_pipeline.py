"""Full method-1 chain on rendered frames: render, decode, stereo, gaze."""

from dataclasses import replace

import numpy as np

from deflect_gaze.decode import decode_phase_shift
from deflect_gaze.gaze import (ClusterParams, estimate_gaze_two_center,
                               relative_gaze_angle)
from deflect_gaze.render import PhaseShiftSet, render_correspondence, render_frame
from deflect_gaze.scene import rotate_eye
from deflect_gaze.stereo import reconstruct_field

UP = np.array([0.0, 1.0, 0.0])
PERIOD = 80.0
N_SHIFTS = 8


def decoded_gaze(scene, a):
    sc = replace(scene, eye=rotate_eye(scene.eye, a, 0.0))
    maps = []
    for cam in (0, 1):
        truth = render_correspondence(sc, cam)
        px = PhaseShiftSet(period=PERIOD, n_shifts=N_SHIFTS, direction="x")
        py = PhaseShiftSet(period=PERIOD, n_shifts=N_SHIFTS, direction="y")
        fx = [render_frame(sc, cam, px, k, sigma_i=0.0, seed=0,
                           correspondence=truth)
              for k in range(N_SHIFTS)]
        fy = [render_frame(sc, cam, py, k, sigma_i=0.0, seed=0,
                           correspondence=truth)
              for k in range(N_SHIFTS)]
        maps.append(decode_phase_shift(fx, fy, px, py, truth))
    field = reconstruct_field(sc, maps[0], maps[1], stride=2)
    return estimate_gaze_two_center(field, ClusterParams(rng_seed=3)).direction


def test_end_to_end_decode_relative_gaze(dec_scene):
    g0 = decoded_gaze(dec_scene, 0.0)
    for a in (-3.0, 3.0, 6.0):
        g = decoded_gaze(dec_scene, a)
        theta = relative_gaze_angle(g, g0, UP)
        assert abs(theta - a) < 0.05
