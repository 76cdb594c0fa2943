from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from deflect_gaze import optimize
from deflect_gaze.decode import FOUR_CONN
from deflect_gaze.errors import (EmptyMapError, InvariantViolation,
                                 NoDescentError, UnreliableLossError)
from deflect_gaze.gaze import relative_gaze_angle
from deflect_gaze.optimize import (DEFAULT_ACTIVE, PARAM_NAMES,
                                   EyeParamVector, OptConfig,
                                   _erode, _evaluate_loss, _fade_weight,
                                   _jacobian, _measured_terms, _seam_mask,
                                   _strided, correspondence_loss, init_guess,
                                   optimize_gaze, project_params)
from deflect_gaze.render import (CorrespondenceMap, add_correspondence_noise,
                                 render_correspondence, render_margins)
from deflect_gaze.scene import rotate_eye
from helpers import reference_jacobian, with_value_at_valid_pixel

UP = np.array([0.0, 1.0, 0.0])


def reference_loss(params, measured, scene, n_min=200, boundary_px=2,
                   mismatch_weight=25.0, pixel_stride=1):
    """The correspondence loss as first written: two renders per camera
    (correspondence, then margins of every ray) and the measured-map terms
    rebuilt on every call. ``correspondence_loss`` must equal it."""
    if len(measured) != len(scene.cameras):
        raise ValueError("need one measured map per configured camera")
    eye = params.materialize(scene.eye)
    sim_scene = replace(scene, eye=eye)
    totals = []
    grid_b = max(1, int(round(boundary_px / pixel_stride)))
    n_min_eff = max(8, n_min // (pixel_stride * pixel_stride))
    for i, meas_full in enumerate(measured):
        sim = render_correspondence(sim_scene, i, stride=pixel_stride)
        margins = render_margins(sim_scene, i, stride=pixel_stride)
        meas = _strided(meas_full, pixel_stride)
        sil = margins["silhouette"]
        aper = margins["aperture"]
        cap_edge = margins["cap_edge"]

        er_meas = _erode(meas.valid, grid_b)
        er_sim = _erode(sim.valid, grid_b)
        core = er_meas & er_sim
        n_core = int(core.sum())
        if n_core < n_min_eff:
            raise UnreliableLossError(
                f"camera {i}: {n_core} jointly valid core pixels < {n_min_eff}"
            )

        joint = meas.valid & sim.valid
        w = _fade_weight(meas.valid, grid_b)
        w[_seam_mask(meas, grid_b)] = 0.0

        steps = np.hypot(np.diff(meas.u, axis=1), np.diff(meas.v, axis=1))
        step_scale = float(np.nanmedian(
            steps[meas.valid[:, 1:] & meas.valid[:, :-1]]
        )) / pixel_stride if joint.any() else 1.0
        w_s, h_s = scene.screen.resolution
        edge = np.minimum(np.minimum(sim.u, w_s - 1 - sim.u),
                          np.minimum(sim.v, h_s - 1 - sim.v))
        w = w * np.clip(np.where(joint, edge, 0.0)
                        / max(boundary_px * step_scale, 1e-9), 0.0, 1.0)
        footprint = (np.linalg.norm(scene.cameras[i].center
                                    - scene.eye.sclera_center)
                     / scene.cameras[i].focal_length)
        w = w * np.clip(np.where(joint, sil, 0.0)
                        / max(boundary_px * footprint, 1e-9), 0.0, 1.0)
        ang_scale = np.degrees(footprint / scene.eye.cornea_radius)
        w = w * np.clip(np.abs(np.where(joint, aper, 0.0))
                        / max(boundary_px * ang_scale, 1e-9), 0.0, 1.0)
        w = w * np.clip(np.where(joint, cap_edge, 0.0)
                        / max(boundary_px * footprint, 1e-9), 0.0, 1.0)
        w[~joint] = 0.0

        du = np.where(joint, meas.u - sim.u, 0.0)
        dv = np.where(joint, meas.v - sim.v, 0.0)
        wsum = float(np.sum(w))
        if wsum <= 0:
            raise UnreliableLossError(f"camera {i}: zero total loss weight")
        v2 = du * du + dv * dv
        cap = (4.0 * step_scale * pixel_stride) ** 2
        sq = float(np.sum(w * cap * v2 / (cap + v2)) / wsum)
        band = (meas.valid & ~er_meas) | (sim.valid & ~er_sim)
        mismatch = float(np.mean((meas.valid ^ sim.valid) & ~band))
        pen = mismatch_weight * mismatch
        totals.append(sq + pen)
    return float(np.mean(totals))


def noisy_maps(scene, a, seed, elevation=0.0):
    """Measured maps of ``scene`` with the eye turned by ``a`` degrees of
    azimuth and ``elevation`` degrees, with 0.5 screen-px correspondence
    noise."""
    sc = replace(scene, eye=rotate_eye(scene.eye, a, elevation))
    return [add_correspondence_noise(render_correspondence(sc, cam), 0.5,
                                     seed + cam,
                                     screen_resolution=scene.screen.resolution)
            for cam in range(len(scene.cameras))]


@pytest.fixture(scope="module")
def scene1(scene):
    return replace(scene, cameras=scene.cameras[:1])


@pytest.fixture(scope="module")
def measured_truth(scene1):
    return [render_correspondence(scene1, 0)]


def truth_params(scene1):
    return EyeParamVector.from_eye(scene1.eye, DEFAULT_ACTIVE)


class TestCorrespondenceLoss:
    def test_zero_at_truth(self, scene1, measured_truth):
        assert correspondence_loss(truth_params(scene1), measured_truth,
                                   scene1, pixel_stride=1) == 0.0

    def test_positive_when_perturbed(self, scene1, measured_truth):
        p = truth_params(scene1)
        p2 = p.with_array(p.as_array() + np.array([2, 0, 0, 0, 0, 0, 0, 0.0]))
        assert correspondence_loss(p2, measured_truth, scene1,
                                   pixel_stride=1) > 0

    def test_local_minimum_on_rotation_grid(self, scene1, measured_truth):
        p = truth_params(scene1)
        l0 = correspondence_loss(p, measured_truth, scene1,
                                 pixel_stride=1)
        for daz in (-2.0, -1.0, 1.0, 2.0):
            for del_ in (-2.0, -1.0, 1.0, 2.0):
                x = p.as_array()
                x[0] += daz
                x[1] += del_
                l = correspondence_loss(p.with_array(x), measured_truth,
                                        scene1, pixel_stride=1)
                assert l > l0

    def test_unreliable_when_overlap_too_small(self, scene1, measured_truth):
        # a measured map with a tiny valid patch starves the joint core
        m = measured_truth[0]
        tiny = CorrespondenceMap(u=m.u.copy(), v=m.v.copy(),
                                 valid=m.valid.copy())
        ys, xs = np.nonzero(tiny.valid)
        keep = set(zip(ys[:40].tolist(), xs[:40].tolist()))
        mask = np.zeros_like(tiny.valid)
        for (y, x) in keep:
            mask[y, x] = True
        tiny.valid &= mask
        with pytest.raises(UnreliableLossError):
            correspondence_loss(truth_params(scene1), [tiny], scene1,
                                pixel_stride=1)


class TestLossMatchesReference:
    """One trace per camera, margins on the joint pixels only and the
    measured-map terms built once must not change a bit of the loss."""

    @pytest.mark.parametrize("a", [-4.0, 0.0, 4.0])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_equal_report(self, scene, a, stride):
        measured = noisy_maps(scene, a, seed=31)
        truth = EyeParamVector.from_eye(scene.eye, DEFAULT_ACTIVE)
        x = truth.as_array()
        x[0] = a
        for dx in (np.zeros(8), [0.7, -0.4, 0.2, -0.1, 0.3, 0, 0, 0],
                   [-1.5, 0.5, -0.3, 0.2, -0.2, 0, 0, 0]):
            p = truth.with_array(x + np.asarray(dx))
            got = correspondence_loss(p, measured, scene,
                                      pixel_stride=stride)
            assert got == reference_loss(p, measured, scene,
                                         pixel_stride=stride)

    @pytest.mark.parametrize("sigma_c", [0.0, 0.5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("which", ["scene", "dec_scene"])
    def test_weight_only_on_measured_valid_pixels(self, request, which,
                                                  stride, sigma_c):
        # the loss selects its weighted pixels by the measured weight alone,
        # with no separate measured-validity pass
        sc = request.getfixturevalue(which)
        measured = [add_correspondence_noise(
                        render_correspondence(sc, cam), sigma_c, 31 + cam,
                        screen_resolution=sc.screen.resolution)
                    for cam in range(len(sc.cameras))]
        for terms in _measured_terms(measured, sc,
                                     OptConfig(pixel_stride=stride)):
            weighted = terms.weight > 0
            assert weighted.any()
            assert not (weighted & ~terms.meas.valid).any()

    @pytest.mark.parametrize("n_cam", [1, 2])
    def test_residuals_match_reference_loss(self, scene, n_cam):
        # the fit minimizes 0.5 * |r|^2, which must be the reference loss
        # less its mismatch penalty, which has no residual
        sc = replace(scene, cameras=scene.cameras[:n_cam])
        truth = EyeParamVector.from_eye(sc.eye, DEFAULT_ACTIVE)
        for a in (-4.0, 0.0, 4.0):
            measured = noisy_maps(sc, a, seed=31)
            x = truth.as_array()
            x[0] = a
            for stride in (1, 2, 3):
                cfg = OptConfig(pixel_stride=stride)
                terms = _measured_terms(measured, sc, cfg)
                for dx in (np.zeros(8), [0.7, -0.4, 0.2, -0.1, 0.3, 0, 0, 0],
                           [-1.5, 0.5, -0.3, 0.2, -0.2, 0, 0, 0]):
                    p = truth.with_array(x + np.asarray(dx))
                    _, r, _ = _evaluate_loss(p, terms, sc, cfg)
                    ref = reference_loss(p, measured, sc,
                                         pixel_stride=stride,
                                         mismatch_weight=0.0)
                    assert 0.5 * float(r @ r) == pytest.approx(ref, rel=1e-12,
                                                               abs=0.0)


def pose(base, az=0.0, el=0.0, t=(0.0, 0.0, 0.0)):
    """``base`` turned by ``az`` and ``el`` degrees and moved by ``t`` mm."""
    x = base.as_array()
    x[:5] += [az, el, *t]
    return base.with_array(x)


@pytest.fixture(scope="module")
def fit_cases(scene, dec_scene):
    """(scene, measured maps, true parameters) of an eye at 1 deg azimuth
    and -1 deg elevation, sigma_c 0.5, by shipped scene and camera count."""
    cases = {}

    def get(name, n_cam):
        if (name, n_cam) not in cases:
            base = {"default": scene, "decode": dec_scene}[name]
            sc = replace(base, cameras=base.cameras[:n_cam])
            cases[name, n_cam] = (sc, noisy_maps(sc, 1.0, 41, elevation=-1.0),
                                  pose(EyeParamVector.from_eye(
                                      sc.eye, DEFAULT_ACTIVE), 1.0, -1.0))
        return cases[name, n_cam]
    return get


def footprint(point):
    """Of the pixels the tangent pass reads at an evaluated point, what it
    holds constant (per camera which pixels they are, each one's hit
    sphere, and which weight ramps are clipped at 0 or at 1) and the
    weight ramps themselves."""
    flags, ramps = [], []
    for hits in point.cameras:
        ramps.append(hits.ramps)
        flags += [hits.pix, hits.region, hits.ramps == 0.0,
                  hits.ramps == 1.0]
    return flags, ramps


class TestTangentJacobian:
    """The tangent pass gives the residuals' central-difference Jacobian
    wherever nothing piecewise constant changes across the difference.

    The residual is sqrt(ramp) times a smooth term, so next to a ramp
    that is nearly zero a central difference errs by its step squared:
    at a step of 1e-5 it was 2e-2 of a decode-scene column, at 1e-7
    2e-6. The step is 1e-7, and poses where an unclipped ramp changes by
    more than 2% of itself across it, which bounds that error to about
    1e-5, are assumed away. The decode scene runs at stride 2 only: at
    stride 1 its 16 full-grid evaluations per pose take 2-3 s."""

    H = 1e-7

    @pytest.mark.parametrize("name, stride", [("default", 1), ("default", 2),
                                              ("decode", 2)])
    @pytest.mark.parametrize("n_cam", [1, 2])
    @settings(max_examples=2, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rot=st.tuples(st.floats(-4, 4), st.floats(-4, 4)),
           t=st.tuples(*[st.floats(-2, 2)] * 3),
           shape=st.tuples(*[st.floats(-0.3, 0.3)] * 3))
    def test_matches_central_differences(self, fit_cases, name, stride,
                                         n_cam, rot, t, shape):
        sc, measured, truth = fit_cases(name, n_cam)
        cfg = OptConfig(pixel_stride=stride)
        terms = _measured_terms(measured, sc, cfg)
        x0 = pose(truth, *rot, t).as_array()
        x0[5:] += shape
        p0 = truth.with_array(x0)
        try:
            _, r0, point0 = _evaluate_loss(p0, terms, sc, cfg)
        except UnreliableLossError:
            assume(False)
        jac = _jacobian(point0, terms, sc)
        flags0, ramps0 = footprint(point0)
        for j in range(len(PARAM_NAMES)):
            r_h, ramps_h = [], []
            for h in (self.H, -self.H):
                x = x0.copy()
                x[j] += h
                p = truth.with_array(x)
                try:
                    _, r, point = _evaluate_loss(p, terms, sc, cfg)
                except UnreliableLossError:
                    assume(False)
                # the same pixels have residuals, on the same spheres
                flags, ramps = footprint(point)
                assume(all(np.array_equal(a, b)
                           for a, b in zip(flags, flags0)))
                r_h.append(r)
                ramps_h.append(ramps)
            for q0, q_plus, q_minus in zip(ramps0, *ramps_h):
                inner = (q0 > 0.0) & (q0 < 1.0)
                assume(np.all(np.abs(q_plus - q_minus)[inner]
                              <= 0.02 * q0[inner]))
            diff = (r_h[0] - r_h[1]) / (2 * self.H)
            assert np.linalg.norm(jac[:, j] - diff) \
                <= 1e-4 * np.linalg.norm(diff), PARAM_NAMES[j]

    @pytest.mark.parametrize("a", [-4.0, -2.0, 0.0, 2.0, 4.0])
    def test_finite_at_bench_positions(self, scene1, a):
        # at the start and at the end of the optimize benchmark's fit
        measured = noisy_maps(scene1, a, seed=5)
        cfg = OptConfig(pixel_stride=2)
        terms = _measured_terms(measured, scene1, cfg)
        init = init_guess(measured, scene1)
        for p in (init, optimize_gaze(init, measured, scene1, cfg)[0]):
            point = _evaluate_loss(p, terms, scene1, cfg)[2]
            jac = _jacobian(point, terms, scene1)
            assert np.isfinite(jac).all()
            assert len(jac) > 0

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("n_cam", [1, 2])
    def test_rows_line_up_with_residuals(self, scene, n_cam, stride):
        # one residual pair and one Jacobian row pair per weighted pixel,
        # at the start and at the end of the optimize benchmark's fits
        sc = replace(scene, cameras=scene.cameras[:n_cam])
        cfg = OptConfig(pixel_stride=stride)
        for a in (-4.0, -2.0, 0.0, 2.0, 4.0):
            measured = noisy_maps(sc, a, seed=5)
            terms = _measured_terms(measured, sc, cfg)
            init = init_guess(measured, sc)
            for p in (init, optimize_gaze(init, measured, sc, cfg)[0]):
                _, r, point = _evaluate_loss(p, terms, sc, cfg)
                n = sum(len(hits.pix) for hits in point.cameras)
                assert len(r) == len(_jacobian(point, terms, sc)) == 2 * n
                for hits in point.cameras:
                    assert (hits.w > 0).all()
                    assert (np.diff(hits.pix) > 0).all()

    @pytest.mark.parametrize("active", [DEFAULT_ACTIVE, (True,) * 8],
                             ids=["pose", "all"])
    @pytest.mark.parametrize("n_cam", [1, 2])
    def test_equal_to_retracing_reference(self, scene, n_cam, active):
        # the tangent pass on the accepting evaluation's hits gives the
        # re-tracing pass's Jacobian bit for bit, at the start and at the
        # end of the optimize benchmark's fits
        sc = replace(scene, cameras=scene.cameras[:n_cam])
        cfg = OptConfig(pixel_stride=2)
        for a in (-4.0, -2.0, 0.0, 2.0, 4.0):
            measured = noisy_maps(sc, a, seed=5)
            terms = _measured_terms(measured, sc, cfg)
            init = init_guess(measured, sc, active=active)
            for p in (init, optimize_gaze(init, measured, sc, cfg)[0]):
                point = _evaluate_loss(p, terms, sc, cfg)[2]
                assert np.array_equal(_jacobian(point, terms, sc),
                                      reference_jacobian(p, terms, sc))

    def test_axis_along_up_raises(self, scene1):
        # elevation turns about the axis's right, which is then undefined
        eye = replace(scene1.eye, optical_axis=np.array([0.0, 1.0, 0.0]))
        with pytest.raises(InvariantViolation, match="parallel to up"):
            optimize._eye_tangents(
                EyeParamVector.from_eye(eye, DEFAULT_ACTIVE), eye, eye)


class TestStopReason:
    def test_zero_gradient(self, scene1, measured_truth):
        _, _, trace = optimize_gaze(truth_params(scene1), measured_truth,
                                    scene1, OptConfig(pixel_stride=1))
        assert trace[-1]["stop"] == "zero_gradient"
        assert len(trace) == 1

    @pytest.mark.parametrize("a, stop", [(2.0, "converged"),
                                         (4.0, "step_floor")])
    def test_converged_and_step_floor(self, scene1, monkeypatch, a, stop):
        if stop == "step_floor":
            # this fit's last step, 1.2e-5, lowers the loss by 1e-11 of
            # itself: the relative-decrease stop ends it one trial before
            # the step floor would, so that stop is switched off here
            monkeypatch.setattr(optimize, "LM_FTOL", 0.0)
        measured = noisy_maps(scene1, a, seed=12)
        init = init_guess(measured, scene1)
        _, _, trace = optimize_gaze(init, measured, scene1,
                                    OptConfig(pixel_stride=2))
        assert trace[-1]["stop"] == stop
        assert all("stop" not in row for row in trace[:-1])

    def test_iter_cap(self, scene1):
        measured = noisy_maps(scene1, 2.0, seed=12)
        init = init_guess(measured, scene1)
        _, _, trace = optimize_gaze(init, measured, scene1,
                                    OptConfig(max_iters=2, pixel_stride=2))
        assert trace[-1]["stop"] == "iter_cap"
        assert trace[-1]["iter"] == 2


class TestOptimize:
    def test_recovers_perturbed_pose(self, scene1):
        true_eye = rotate_eye(scene1.eye, 2.0, 0.0)
        true_eye = replace(true_eye,
                           sclera_center=true_eye.sclera_center
                           + np.array([0.0, 0.0, 0.5]))
        measured = [render_correspondence(replace(scene1, eye=true_eye), 0)]
        init = init_guess(measured, scene1)
        pstar, est, trace = optimize_gaze(init, measured, scene1,
                                          OptConfig(pixel_stride=1))
        assert trace[-1]["iter"] <= 300
        assert abs(pstar.azimuth - 2.0) < 0.1
        losses = [t["loss"] for t in trace]
        assert all(losses[i + 1] <= losses[i] for i in range(len(losses) - 1))

    def test_truth_init_terminates_quickly(self, scene1, measured_truth):
        _, _, trace = optimize_gaze(truth_params(scene1), measured_truth,
                                    scene1, OptConfig(pixel_stride=1))
        assert trace[-1]["iter"] <= 10
        assert trace[-1]["loss"] < 1e-8

    def test_trace_records_params(self, scene1, measured_truth):
        _, _, trace = optimize_gaze(truth_params(scene1), measured_truth,
                                    scene1, OptConfig(pixel_stride=1))
        for key in ("iter", "loss", "step", "azimuth", "elevation", "tx",
                    "ty", "tz"):
            assert key in trace[0]

    def test_rotation_equivariance(self, scene1):
        cfg = OptConfig(pixel_stride=2)
        directions = {}
        for a in (0.0, 3.0):
            sc = replace(scene1, eye=rotate_eye(scene1.eye, a, 0.0))
            measured = [render_correspondence(sc, 0)]
            init = init_guess(measured, scene1)
            _, est, _ = optimize_gaze(init, measured, scene1, cfg)
            directions[a] = est.direction
        theta = relative_gaze_angle(directions[3.0], directions[0.0], UP)
        assert abs(theta - 3.0) < 0.1

    def test_shape_recovery(self, scene1):
        # a +0.3 mm cornea-radius perturbation is recovered when only the
        # shape parameters are active
        true_eye = replace(scene1.eye, cornea_radius=8.1)
        measured = [render_correspondence(replace(scene1, eye=true_eye), 0)]
        active = (False, False, False, False, False, True, False, False)
        init = EyeParamVector.from_eye(scene1.eye, active=active)
        pstar, _, _ = optimize_gaze(init, measured, scene1,
                                    OptConfig(pixel_stride=1))
        assert abs(pstar.cornea_radius - 8.1) < 0.05

    @pytest.mark.parametrize("a", [-4.0, -2.0, 2.0, 4.0])
    def test_bench_positions(self, scene1, a):
        # the optimize benchmark's fit: unrotated nominal, sigma_c 0.5,
        # stride 2, started from init_guess
        measured = noisy_maps(scene1, a, seed=5)
        init = init_guess(measured, scene1)
        pstar, _, trace = optimize_gaze(init, measured, scene1,
                                        OptConfig(pixel_stride=2))
        assert abs(pstar.azimuth - a) < 0.1
        assert trace[-1]["loss"] <= 3 * 2 * 0.5 ** 2

    @pytest.mark.parametrize("seed", range(4))
    def test_all_parameters_active_two_cameras(self, scene, seed):
        # pose and shape fitted together, on the stereo pair: camera 0
        # alone leaves the azimuth up to 0.14 deg off at these seeds
        measured = noisy_maps(scene, 3.0, seed, elevation=1.0)
        init = init_guess(measured, scene, active=(True,) * 8)
        pstar, _, _ = optimize_gaze(init, measured, scene,
                                    OptConfig(pixel_stride=2))
        assert abs(pstar.azimuth - 3.0) < 0.05
        assert abs(pstar.elevation - 1.0) < 0.05

    def test_trace_losses_are_row_losses(self, scene1):
        measured = noisy_maps(scene1, 2.0, seed=12)
        init = init_guess(measured, scene1)
        _, _, trace = optimize_gaze(init, measured, scene1,
                                    OptConfig(pixel_stride=2))
        assert len(trace) > 2
        x = init.as_array()
        for row in trace:
            x[:5] = [row[k] for k in ("azimuth", "elevation", "tx", "ty",
                                      "tz")]
            assert row["loss"] == correspondence_loss(
                init.with_array(x), measured, scene1, pixel_stride=2)

    def test_unreliable_trials_are_rejected(self, scene1, monkeypatch):
        # the loss is unreliable beyond 2.2 deg azimuth, which the first
        # undamped step from 0 deg overshoots into
        evaluate = optimize._evaluate_loss
        n_unreliable = 0

        def bounded(params, terms, scene, config):
            nonlocal n_unreliable
            if params.azimuth > 2.2:
                n_unreliable += 1
                raise UnreliableLossError("beyond 2.2 deg")
            return evaluate(params, terms, scene, config)

        monkeypatch.setattr(optimize, "_evaluate_loss", bounded)
        measured = noisy_maps(scene1, 2.0, seed=12)
        init = init_guess(measured, scene1)
        pstar, _, trace = optimize_gaze(init, measured, scene1,
                                        OptConfig(pixel_stride=2))
        assert n_unreliable > 0
        assert abs(pstar.azimuth - 2.0) < 0.1
        assert all(row["azimuth"] <= 2.2 for row in trace)

    def test_no_accepted_trial_raises(self, scene1, monkeypatch):
        # every point but the start has an infinite loss (the residuals,
        # hence the Jacobian, are kept), so no trial is accepted although
        # the gradient at the start is far from zero
        evaluate = optimize._evaluate_loss
        measured = noisy_maps(scene1, 2.0, seed=12)
        init = init_guess(measured, scene1)

        def worse_off_start(params, terms, scene, config):
            loss, r, point = evaluate(params, terms, scene, config)
            if np.array_equal(params.as_array(), init.as_array()):
                return loss, r, point
            return np.inf, r, point

        monkeypatch.setattr(optimize, "_evaluate_loss", worse_off_start)
        with pytest.raises(NoDescentError):
            optimize_gaze(init, measured, scene1, OptConfig(pixel_stride=2))

    def test_shape_fit_from_box_boundary(self, scene1, measured_truth):
        # the projected start has the smallest cornea offset the box
        # allows; a fit that starts on the box boundary still descends
        init = project_params(EyeParamVector(
            cornea_radius=8.02, sclera_radius=12.0, cornea_offset=1.0,
            active=(True,) * 8))
        _, _, trace = optimize_gaze(init, measured_truth, scene1,
                                    OptConfig(pixel_stride=2))
        assert trace[-1]["loss"] < trace[0]["loss"]

    def test_projection_keeps_invariants(self, scene1):
        p = EyeParamVector.from_eye(scene1.eye, DEFAULT_ACTIVE)
        x = p.as_array()
        x[5] = 20.0   # cornea radius above sclera
        x[7] = -4.0   # negative offset
        q = project_params(p.with_array(x))
        eye = q.materialize(scene1.eye)  # must not raise
        assert eye.cornea_radius < eye.sclera_radius


class TestMapShape:
    @pytest.mark.parametrize("cam", [0, 1])
    def test_loss_rejects_map_of_another_shape(self, scene, corr_pair, cam):
        maps = list(corr_pair)
        m = maps[cam]
        maps[cam] = CorrespondenceMap(u=m.u[:64], v=m.v[:64],
                                      valid=m.valid[:64])
        want = rf"camera {cam}: .*\(64, 128\).*\(128, 128\)"
        with pytest.raises(InvariantViolation, match=want):
            correspondence_loss(
                EyeParamVector.from_eye(scene.eye, DEFAULT_ACTIVE), maps,
                scene, pixel_stride=1)

    @pytest.mark.parametrize("cam", [0, 1])
    def test_fit_rejects_non_finite_value_at_valid_pixel(self, scene,
                                                         corr_pair, cam):
        # the measured map is to blame, not the eye
        maps = list(corr_pair)
        maps[cam] = with_value_at_valid_pixel(maps[cam], "u", np.nan)
        with pytest.raises(InvariantViolation,
                           match=rf"camera {cam}: .* u is not finite"):
            optimize_gaze(init_guess(maps, scene), maps, scene,
                          OptConfig(pixel_stride=2))

    def test_fit_rejects_maps_of_another_scene(self, corr_pair, dec_scene):
        # 128 px maps of the default scene; the decode scene's cameras
        # are 448 px
        with pytest.raises(InvariantViolation,
                           match=r"camera 0: .*\(128, 128\).*\(448, 448\)"):
            optimize_gaze(EyeParamVector.from_eye(dec_scene.eye,
                                                  DEFAULT_ACTIVE),
                          list(corr_pair), dec_scene,
                          OptConfig(pixel_stride=1))


class TestSeamMask:
    @pytest.mark.parametrize("dilate_px", [0, 1, 3])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_flags_both_sides_of_one_jump(self, axis, dilate_px):
        # unit steps everywhere, and a 100 px jump in u between columns 9
        # and 10 (rows, transposed): the seam is the two lines beside it
        y, x = np.mgrid[0:20, 0:24].astype(float)
        u = x + 100.0 * (x >= 10)
        want = (x >= 9 - dilate_px) & (x <= 10 + dilate_px)
        if axis == 0:
            u, y, want = u.T, y.T, want.T
        m = CorrespondenceMap(u=u, v=y, valid=np.ones(u.shape, dtype=bool))
        assert np.array_equal(_seam_mask(m, dilate_px), want)


class TestMaskHelpers:
    """The numpy mask helpers against ``scipy.ndimage`` as an oracle.
    ``reference_loss`` builds on the same helpers, so it cannot catch a
    drift in them."""

    @staticmethod
    def assert_like_scipy(mask, px):
        assert np.array_equal(
            _erode(mask, px),
            ndimage.binary_erosion(mask, FOUR_CONN, iterations=px))
        # the dilation of _seam_mask
        assert np.array_equal(
            optimize._four_conn(mask, px, np.logical_or),
            ndimage.binary_dilation(mask, FOUR_CONN, iterations=px))
        want = np.clip((ndimage.distance_transform_edt(mask) - 1.0) / px,
                       0.0, 1.0)
        got = _fade_weight(mask, px)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(shape=st.tuples(st.integers(1, 70), st.integers(1, 70)),
           centre=st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)),
           radius=st.floats(0.0, 1.0), speckle=st.floats(0.0, 0.3),
           seed=st.integers(0, 2**32 - 1), px=st.integers(1, 3))
    def test_equal_scipy(self, shape, centre, radius, speckle, seed, px):
        # a disc, in units of the grid's sides, whose centre may lie off
        # the grid, with pixels flipped at random: holes, islands and
        # valid pixels on the grid's edge
        y, x = np.mgrid[:shape[0], :shape[1]]
        disc = np.hypot(y / shape[0] - centre[0],
                        x / shape[1] - centre[1]) < radius
        flip = np.random.default_rng(seed).random(shape) < speckle
        mask = disc ^ flip
        # scipy's distance transform has no background on an all-valid
        # mask (test_all_valid_fades_nowhere)
        assume(not mask.all())
        self.assert_like_scipy(mask, px)

    @pytest.mark.parametrize("px", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (70, 70)])
    def test_all_invalid_equals_scipy(self, shape, px):
        self.assert_like_scipy(np.zeros(shape, dtype=bool), px)

    @pytest.mark.parametrize("px", [1, 2, 3])
    def test_all_valid_fades_nowhere(self, px):
        # no invalid pixel lies in the grid; scipy would measure distances
        # to a phantom pixel and return 0 at (0, 0)
        assert np.array_equal(_fade_weight(np.ones((9, 12), dtype=bool), px),
                              np.ones((9, 12)))


class TestOptConfig:
    @pytest.mark.parametrize("stride", [0, -2])
    def test_rejects_pixel_stride_below_one(self, stride):
        with pytest.raises(ValueError, match="pixel_stride"):
            OptConfig(pixel_stride=stride)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_rejects_max_iters_below_one(self, max_iters):
        with pytest.raises(ValueError, match="max_iters"):
            OptConfig(max_iters=max_iters, pixel_stride=1)


class TestInitGuess:
    def test_near_truth_at_zero_rotation(self, scene1, measured_truth):
        init = init_guess(measured_truth, scene1)
        assert np.linalg.norm(init.translation) < 1.0
        assert init.azimuth == 0.0
        assert init.active == (True, True, True, True, True, False, False,
                               False)

    def test_empty_map(self, scene1):
        empty = CorrespondenceMap(
            u=np.full((128, 128), np.nan), v=np.full((128, 128), np.nan),
            valid=np.zeros((128, 128), dtype=bool))
        with pytest.raises(EmptyMapError):
            init_guess([empty], scene1)

    def test_always_valid_params(self, scene1, measured_truth):
        init = init_guess(measured_truth, scene1)
        init.materialize(scene1.eye)  # must not raise

    def test_nominal_render_cached_per_scene(self, scene1, monkeypatch):
        renders = []

        def render(sc, cam_index):
            renders.append(sc)
            return render_correspondence(sc, cam_index)

        monkeypatch.setattr(optimize, "render_correspondence", render)
        measured = noisy_maps(scene1, 2.0, seed=3)
        sc = replace(scene1)  # a fresh instance, with nothing cached
        first = init_guess(measured, sc)
        second = init_guess(measured, sc, active=(True,) * 8)
        assert len(renders) == 1 and renders[0] is sc
        assert np.array_equal(first.as_array(), second.as_array())
        # a scene with the eye moved is a new instance: it renders anew
        moved = replace(sc, eye=replace(
            sc.eye, sclera_center=sc.eye.sclera_center + [1.0, 0.0, 0.0]))
        third = init_guess(measured, moved)
        assert len(renders) == 2 and renders[1] is moved
        fresh = init_guess(measured, replace(moved))
        assert np.array_equal(third.as_array(), fresh.as_array())
        assert not np.array_equal(third.translation, first.translation)

