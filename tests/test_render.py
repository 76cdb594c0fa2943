import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from deflect_gaze.errors import InvariantViolation
from deflect_gaze.geometry import unit
from deflect_gaze.render import (CorrespondenceMap, CrossedFringe,
                                 PhaseShiftSet, add_correspondence_noise,
                                 pattern_value, ray_margins,
                                 render_correspondence, render_frame,
                                 render_margins)
from deflect_gaze.scene import (ScreenModel, eye_surface_hit_batch,
                                rotate_eye)
from helpers import (plane_mirror_surface, reference_correspondence,
                     reference_surface_hit_batch)


def reference_margins(scene, cam_index, stride=1):
    """``render_margins`` as first written, with its own hit test."""
    cam = scene.cameras[cam_index]
    origin, dirs = cam.pixel_rays()
    if stride > 1:
        dirs = dirs[::stride, ::stride]
    eye = scene.eye
    flat = dirs.reshape(-1, 3)

    def perp_margin(center, radius):
        oc = origin - center
        proj = flat @ oc
        d2 = oc @ oc - proj * proj
        return radius - np.sqrt(np.maximum(d2, 0.0))

    sil = np.maximum(perp_margin(eye.cornea_center, eye.cornea_radius),
                     perp_margin(eye.sclera_center, eye.sclera_radius))

    points, _, _, hit = reference_surface_hit_batch(eye, origin, dirs)
    rel = points.reshape(-1, 3) - eye.cornea_center
    with np.errstate(invalid="ignore"):
        norm = np.linalg.norm(rel, axis=1)
        cosang = np.where(norm > 0, (rel @ eye.optical_axis)
                          / np.maximum(norm, 1e-12), np.nan)
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    aper = ang - eye.cornea_aperture

    ap_rad = np.radians(eye.cornea_aperture)
    circle_center = eye.cornea_center \
        + eye.cornea_radius * np.cos(ap_rad) * eye.optical_axis
    circle_radius = eye.cornea_radius * np.sin(ap_rad)
    to_c = circle_center - origin
    t_star = flat @ to_c
    p_star = origin + t_star[:, None] * flat
    v = p_star - circle_center
    h = v @ eye.optical_axis
    rho = np.linalg.norm(v - h[:, None] * eye.optical_axis, axis=1)
    cap_edge = np.hypot(rho - circle_radius, h)

    shape = dirs.shape[:-1]
    return {"silhouette": sil.reshape(shape),
            "aperture": aper.reshape(shape),
            "cap_edge": cap_edge.reshape(shape)}


def assert_maps_equal(a, b):
    assert np.array_equal(a.valid, b.valid)
    assert np.array_equal(a.u, b.u, equal_nan=True)
    assert np.array_equal(a.v, b.v, equal_nan=True)


class TestPatternValue:
    def test_crossed_fringe_peak(self):
        p = CrossedFringe(period_x=16, period_y=16)
        assert pattern_value(p, 0.0, 0.0, 0) == pytest.approx(1.0)

    def test_crossed_fringe_half_period(self):
        p = CrossedFringe(period_x=16, period_y=16)
        assert pattern_value(p, 8.0, 0.0, 0) == pytest.approx(0.5)

    def test_phase_shift_quadrature(self):
        p = PhaseShiftSet(period=32, n_shifts=4, direction="x")
        vals = [pattern_value(p, 8.0, 0.0, k) for k in range(4)]
        assert np.allclose(vals, [0.5, 0.1, 0.5, 0.9])

    def test_min_period(self):
        with pytest.raises(InvariantViolation):
            CrossedFringe(period_x=2, period_y=16)

    @pytest.mark.parametrize("period", [np.nan, np.inf])
    def test_rejects_non_finite_period(self, period):
        for kw in (dict(period_x=period, period_y=36.0),
                   dict(period_x=36.0, period_y=period)):
            with pytest.raises(InvariantViolation, match="periods"):
                CrossedFringe(**kw)
        with pytest.raises(InvariantViolation, match="periods"):
            PhaseShiftSet(period=period, n_shifts=4, direction="x")


class TestRenderCorrespondence:
    def test_plane_mirror_matches_analytic_projection(self, scene):
        p0 = np.array([0.0, 0.0, 12.0])
        cam = scene.cameras[0]
        screen_mid = scene.screen.uv_to_world(299.5, 169.5)
        n = unit(unit(cam.center - p0) + unit(screen_mid - p0))
        corr = render_correspondence(scene, 0,
                                     surface=plane_mirror_surface(p0, n))
        assert corr.n_valid > 3000

        # oracle: the reflected ray is the mirrored-camera ray
        origin, dirs = cam.pixel_rays()
        c_m = cam.center - 2.0 * ((cam.center - p0) @ n) * n
        d_m = dirs - 2.0 * (dirs @ n)[..., None] * n
        sp = scene.screen.plane_point
        sn = scene.screen.plane_normal
        t = ((sp - c_m) @ sn) / (d_m @ sn)
        q = c_m + t[..., None] * d_m
        u, v = scene.screen.world_to_uv(q)
        m = corr.valid
        assert np.abs(corr.u[m] - u[m]).max() < 1e-6
        assert np.abs(corr.v[m] - v[m]).max() < 1e-6

    def test_miss_is_invalid(self, corr_pair):
        corr = corr_pair[0]
        assert not corr.valid[0, 0]
        assert np.isnan(corr.u[0, 0])

    def test_deflectometric_chain_consistency(self, scene, corr_pair,
                                              truth_cam0):
        corr = corr_pair[0]
        cam = scene.cameras[0]
        m = corr.valid
        pts = truth_cam0["points"][m]
        nrm = truth_cam0["normals"][m]
        spt = scene.screen.uv_to_world(corr.u[m], corr.v[m])
        half = unit(unit(cam.center - pts) + unit(spt - pts))
        assert np.abs(half - nrm).max() < 1e-7

    def test_angle_in_equals_angle_out(self, scene, corr_pair, truth_cam0):
        corr = corr_pair[0]
        cam = scene.cameras[0]
        m = corr.valid
        pts = truth_cam0["points"][m]
        nrm = truth_cam0["normals"][m]
        spt = scene.screen.uv_to_world(corr.u[m], corr.v[m])
        cos_in = np.sum(unit(cam.center - pts) * nrm, axis=1)
        cos_out = np.sum(unit(spt - pts) * nrm, axis=1)
        assert np.abs(np.arccos(np.clip(cos_in, -1, 1))
                      - np.arccos(np.clip(cos_out, -1, 1))).max() < 1e-9

    def test_validity_monotone_under_panel_shrink(self, scene, corr_pair):
        small = ScreenModel(
            pose=scene.screen.pose,
            resolution=(scene.screen.resolution[0] // 2,
                        scene.screen.resolution[1] // 2),
            pixel_pitch=scene.screen.pixel_pitch,
        )
        corr_small = render_correspondence(replace(scene, screen=small), 0)
        grew = corr_small.valid & ~corr_pair[0].valid
        assert not grew.any()

    def test_stereo_coverage_sanity(self, scene, corr_pair, truth_cam0):
        hit0 = truth_cam0["hit"]
        assert corr_pair[0].valid.sum() >= 0.2 * hit0.sum()
        origin, dirs = scene.cameras[1].pixel_rays()
        from deflect_gaze.scene import eye_surface_hit_batch
        _, _, _, hit1 = eye_surface_hit_batch(scene.eye, origin, dirs)
        assert corr_pair[1].valid.sum() >= 0.2 * hit1.sum()


class TestOneTracePerRender:
    """Both renders trace with the compact hit kernel, the correspondence
    in ray blocks; outputs must equal the full-array renders bit for
    bit."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("a", [-6.0, 0.0, 6.0])
    @pytest.mark.parametrize("which", ["scene", "dec_scene"])
    def test_equal_to_reference(self, request, which, a, stride):
        base = request.getfixturevalue(which)
        sc = replace(base, eye=rotate_eye(base.eye, a, 1.5))
        for cam in range(len(sc.cameras)):
            assert_maps_equal(render_correspondence(sc, cam, stride=stride),
                              reference_correspondence(sc, cam,
                                                       stride=stride))
            got = render_margins(sc, cam, stride=stride)
            ref = reference_margins(sc, cam, stride=stride)
            assert got.keys() == ref.keys()
            for key in ref:
                assert np.array_equal(got[key], ref[key], equal_nan=True)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_surface_hook_is_honoured(self, scene, stride):
        p0 = np.array([0.0, 0.0, 12.0])
        cam = scene.cameras[0]
        screen_mid = scene.screen.uv_to_world(299.5, 169.5)
        n = unit(unit(cam.center - p0) + unit(screen_mid - p0))
        mirror = plane_mirror_surface(p0, n)
        got = render_correspondence(scene, 0, surface=mirror, stride=stride)
        assert_maps_equal(got, reference_correspondence(
            scene, 0, surface=mirror, stride=stride))
        assert got.n_valid > render_correspondence(scene, 0,
                                                   stride=stride).n_valid

    @pytest.mark.parametrize("stride", [0, -1, -2])
    @pytest.mark.parametrize("render", [render_correspondence,
                                        render_margins])
    def test_stride_below_one_is_rejected(self, scene, render, stride):
        with pytest.raises(InvariantViolation, match="stride"):
            render(scene, 0, stride=stride)

    def test_margins_of_a_ray_subset(self, scene):
        # the loss evaluates margins on the jointly valid rays only
        sc = replace(scene, eye=rotate_eye(scene.eye, 3.0, 0.0))
        full = render_margins(sc, 1, stride=2)
        origin, dirs = sc.cameras[1].pixel_rays()
        dirs = dirs[::2, ::2]
        points, _, _, hit = eye_surface_hit_batch(sc.eye, origin, dirs)
        pick = hit & (np.random.default_rng(5).random(hit.shape) < 0.3)
        sub = ray_margins(sc.eye, origin, dirs[pick], points[pick])
        for key, vals in zip(("silhouette", "aperture", "cap_edge"), sub):
            assert np.array_equal(vals, full[key][pick])

    def test_transient_memory_at_448(self, dec_scene):
        # the map itself takes 3.4 MB; full-grid trace arrays took 47 MB
        dec_scene.cameras[0].pixel_rays()  # the cached ray grid, 4.8 MB
        tracemalloc.start()
        try:
            render_correspondence(dec_scene, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


class TestRenderFrame:
    def test_noiseless_equals_pattern_at_correspondence(self, scene,
                                                        corr_pair):
        corr = corr_pair[0]
        pat = CrossedFringe(period_x=200, period_y=200)
        frame = render_frame(scene, 0, pat, sigma_i=0.0, seed=0,
                             correspondence=corr)
        m = corr.valid
        expected = pattern_value(pat, corr.u[m], corr.v[m], 0)
        assert np.array_equal(frame[m], expected)
        assert np.all(frame[~m] == 0.02)

    def test_seed_determinism(self, scene, corr_pair):
        pat = CrossedFringe(period_x=200, period_y=200)
        f1 = render_frame(scene, 0, pat, sigma_i=0.02, seed=9,
                          correspondence=corr_pair[0])
        f2 = render_frame(scene, 0, pat, sigma_i=0.02, seed=9,
                          correspondence=corr_pair[0])
        assert np.array_equal(f1, f2)
        f3 = render_frame(scene, 0, pat, sigma_i=0.02, seed=10,
                          correspondence=corr_pair[0])
        assert not np.array_equal(f1, f3)

    def test_noise_magnitude(self, scene, corr_pair):
        pat = CrossedFringe(period_x=200, period_y=200)
        clean = render_frame(scene, 0, pat, sigma_i=0.0, seed=0,
                             correspondence=corr_pair[0])
        noisy = render_frame(scene, 0, pat, sigma_i=0.01, seed=3,
                             correspondence=corr_pair[0])
        d = np.abs(noisy - clean)
        assert d.size >= 10_000
        mad = d.mean()
        assert 0.006 <= mad <= 0.010  # E|N(0, 0.01)| = 0.00798

    @pytest.mark.parametrize("sigma_i", [np.nan, np.inf, -0.5])
    def test_rejects_sigma_i(self, scene, corr_pair, sigma_i):
        pat = CrossedFringe(period_x=200, period_y=200)
        with pytest.raises(ValueError, match="sigma_i"):
            render_frame(scene, 0, pat, sigma_i=sigma_i, seed=0,
                         correspondence=corr_pair[0])


class TestCorrespondenceNoise:
    def test_zero_sigma_identity(self, scene, corr_pair):
        out = add_correspondence_noise(corr_pair[0], 0.0, 5,
                                       scene.screen.resolution)
        assert np.array_equal(out.valid, corr_pair[0].valid)
        m = out.valid
        assert np.array_equal(out.u[m], corr_pair[0].u[m])

    def test_reproducible(self, scene, corr_pair):
        res = scene.screen.resolution
        a = add_correspondence_noise(corr_pair[0], 0.5, 11, res)
        b = add_correspondence_noise(corr_pair[0], 0.5, 11, res)
        m = a.valid
        assert np.array_equal(a.u[m], b.u[m])

    def test_noise_std(self, scene):
        # a large valid map: plane mirror fills most of the frame
        p0 = np.array([0.0, 0.0, 12.0])
        cam = scene.cameras[0]
        screen_mid = scene.screen.uv_to_world(299.5, 169.5)
        n = unit(unit(cam.center - p0) + unit(screen_mid - p0))
        corr = render_correspondence(scene, 0,
                                     surface=plane_mirror_surface(p0, n))
        assert corr.n_valid >= 10_000
        noisy = add_correspondence_noise(corr, 0.5, 21,
                                         scene.screen.resolution)
        m = corr.valid
        d = noisy.u[m] - corr.u[m]
        assert 0.45 <= d.std() <= 0.55

    def test_validity_unchanged(self, scene, corr_pair):
        out = add_correspondence_noise(corr_pair[0], 1.0, 2,
                                       scene.screen.resolution)
        assert np.array_equal(out.valid, corr_pair[0].valid)

    def test_clipped_to_panel(self):
        # valid pixels within 0.5 px of every panel edge, invalid ones
        # between them; sigma_c 5 pushes about half past their edge
        w_s, h_s = 600, 340
        g = np.random.default_rng(8)
        near = g.uniform(0.0, 0.5, (4, 64, 64))
        u = np.concatenate([near[0], w_s - near[1],
                            g.uniform(0, w_s, (2, 64, 64)).reshape(128, 64)])
        v = np.concatenate([g.uniform(0, h_s, (2, 64, 64)).reshape(128, 64),
                            near[2], h_s - near[3]])
        valid = g.random(u.shape) < 0.9
        u[~valid] = np.nan
        v[~valid] = np.nan
        corr = CorrespondenceMap(u=u, v=v, valid=valid)
        out = add_correspondence_noise(corr, 5.0, 3, (w_s, h_s))
        assert np.array_equal(out.valid, valid)
        ou, ov = out.u[valid], out.v[valid]
        assert np.all((0 <= ou) & (ou < w_s) & (0 <= ov) & (ov < h_s))
        # the clip is what holds them on the panel
        for x, top in ((ou, w_s), (ov, h_s)):
            assert np.any(x == 0.0) and np.any(x == np.nextafter(top, 0.0))

    @pytest.mark.parametrize("sigma_c", [np.nan, np.inf, -0.5])
    def test_rejects_sigma_c(self, scene, corr_pair, sigma_c):
        with pytest.raises(ValueError, match="sigma_c"):
            add_correspondence_noise(corr_pair[0], sigma_c, 2,
                                     scene.screen.resolution)
