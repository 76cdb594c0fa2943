from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deflect_gaze import stereo
from deflect_gaze.errors import EmptyFieldError
from deflect_gaze.geometry import bisector_masked, unit
from deflect_gaze.render import (CorrespondenceMap, add_correspondence_noise,
                                 render_correspondence)
from deflect_gaze.scene import rotate_eye
from deflect_gaze.stereo import (DepthSweepParams, NormalField,
                                 candidate_normal, default_sweep,
                                 reconstruct_field, stereo_consistency)


def truth_for(field, truth):
    px, py = field.pixels[:, 0], field.pixels[:, 1]
    return (truth["points"][py, px], truth["normals"][py, px],
            truth["region"][py, px])


def pick_pixel(corr, truth, region=None, seed=0):
    ys, xs = np.nonzero(corr.valid)
    g = np.random.default_rng(seed)
    order = g.permutation(len(xs))
    for i in order:
        px, py = int(xs[i]), int(ys[i])
        if region is None or truth["region"][py, px] == region:
            return px, py
    raise AssertionError("no pixel found")


class TestCandidateNormal:
    def test_true_depth_recovers_normal(self, scene, corr_pair, truth_cam0):
        corr = corr_pair[0]
        cam = scene.cameras[0]
        px, py = pick_pixel(corr, truth_cam0)
        p_true = truth_cam0["points"][py, px]
        t_true = float(np.linalg.norm(p_true - cam.center))
        spt = scene.screen.uv_to_world(corr.u[py, px], corr.v[py, px])
        normal = candidate_normal(cam, (px, py), t_true, spt)
        assert np.abs(normal - truth_cam0["normals"][py, px]).max() < 1e-6

    def test_depth_error_tilts_normal(self, scene, corr_pair, truth_cam0):
        corr = corr_pair[0]
        cam = scene.cameras[0]
        px, py = pick_pixel(corr, truth_cam0, seed=1)
        p_true = truth_cam0["points"][py, px]
        n_true = truth_cam0["normals"][py, px]
        t_true = float(np.linalg.norm(p_true - cam.center))
        spt = scene.screen.uv_to_world(corr.u[py, px], corr.v[py, px])
        for dt in (-2.0, 2.0):
            normal = candidate_normal(cam, (px, py), t_true + dt, spt)
            ang = np.degrees(np.arccos(np.clip(normal @ n_true, -1, 1)))
            assert ang > 0.5

    def test_degenerate_bisector(self, scene):
        from deflect_gaze.errors import DegenerateBisectorError
        cam = scene.cameras[0]
        ray = cam.pixel_ray(64, 64)
        p = ray.at(30.0)
        behind = p + (p - cam.center)  # screen point collinear, beyond P
        with pytest.raises(DegenerateBisectorError):
            candidate_normal(cam, (64, 64), 30.0, behind)


class TestStereoConsistency:
    def test_small_at_true_depth(self, scene, corr_pair, truth_cam0):
        corr1, corr2 = corr_pair
        cam = scene.cameras[0]
        for seed in range(5):
            px, py = pick_pixel(corr1, truth_cam0, seed=seed)
            t_true = float(np.linalg.norm(truth_cam0["points"][py, px]
                                          - cam.center))
            c = stereo_consistency(scene, (px, py), t_true, corr1, corr2)
            if c is not None:
                assert c < 1e-3

    def test_projection_outside_is_none(self, scene, corr_pair):
        corr1, corr2 = corr_pair
        ys, xs = np.nonzero(corr1.valid)
        px, py = int(xs[0]), int(ys[0])
        # a depth far behind the eye projects outside camera 2's map
        assert stereo_consistency(scene, (px, py), 500.0, corr1, corr2) is None

    def test_unimodal_near_truth(self, scene, corr_pair, truth_cam0):
        corr1, corr2 = corr_pair
        cam = scene.cameras[0]
        ys, xs = np.nonzero(corr1.valid)
        g = np.random.default_rng(4)
        sel = g.choice(len(xs), size=200, replace=False)
        wins = 0
        total = 0
        for i in sel:
            px, py = int(xs[i]), int(ys[i])
            t_true = float(np.linalg.norm(truth_cam0["points"][py, px]
                                          - cam.center))
            c0 = stereo_consistency(scene, (px, py), t_true, corr1, corr2)
            cm = stereo_consistency(scene, (px, py), t_true - 1.0, corr1, corr2)
            cp = stereo_consistency(scene, (px, py), t_true + 1.0, corr1, corr2)
            if c0 is None or cm is None or cp is None:
                continue
            total += 1
            if c0 < cm and c0 < cp:
                wins += 1
        assert total > 100
        assert wins / total >= 0.95


class TestSolveDepth:
    def test_accuracy_with_refinement(self, scene, corr_pair, field,
                                      truth_cam0):
        cam = scene.cameras[0]
        p_true, n_true, _ = truth_for(field, truth_cam0)
        t_true = np.linalg.norm(p_true - cam.center, axis=1)
        t_est = np.linalg.norm(field.points - cam.center, axis=1)
        err = np.abs(t_est - t_true)
        sweep = default_sweep(scene)
        step = (sweep.t_max - sweep.t_min) / sweep.n_steps
        assert (err < step).mean() >= 0.95
        assert np.median(err) < 0.02

    def test_invalid_corr2_gives_none(self, scene, corr_pair):
        corr1, corr2 = corr_pair
        empty = CorrespondenceMap(u=np.full_like(corr2.u, np.nan),
                                  v=np.full_like(corr2.v, np.nan),
                                  valid=np.zeros_like(corr2.valid))
        with pytest.raises(EmptyFieldError):
            reconstruct_field(scene, corr1, empty, min_samples=1)

    def test_noisy_normal_error(self, scene, corr_pair, truth_cam0):
        corr1 = add_correspondence_noise(corr_pair[0], 0.5, 31)
        corr2 = add_correspondence_noise(corr_pair[1], 0.5, 32)
        f = reconstruct_field(scene, corr1, corr2)
        _, n_true, _ = truth_for(f, truth_cam0)
        ang = np.degrees(np.arccos(np.clip(np.sum(f.normals * n_true, axis=1),
                                           -1, 1)))
        assert np.median(ang) < 0.5


class TestReconstructField:
    def test_covers_both_regions(self, field, truth_cam0):
        _, _, reg = truth_for(field, truth_cam0)
        assert (reg == 0).sum() > 100
        assert (reg == 1).sum() > 100

    def test_stride_subset(self, scene, corr_pair, field):
        f4 = reconstruct_field(scene, corr_pair[0], corr_pair[1], stride=2)
        key1 = {tuple(p) for p in field.pixels}
        for i, p in enumerate(f4.pixels):
            assert tuple(p) in key1
        # same values at shared pixels
        lookup = {tuple(p): j for j, p in enumerate(field.pixels)}
        for i, p in enumerate(f4.pixels):
            j = lookup[tuple(p)]
            assert np.allclose(f4.points[i], field.points[j])

    def test_swapped_cameras_never_silently_plausible(self, scene, corr_pair,
                                                       field):
        # misconfigured maps must read grossly inconsistent next to a
        # correct run (here two orders of magnitude), never plausible
        try:
            f = reconstruct_field(scene, corr_pair[1], corr_pair[0],
                                  cam1_index=0, cam2_index=1,
                                  max_consistency=np.inf)
            good = np.median(field.consistency)
            assert np.median(f.consistency) > max(50.0 * good, 0.01)
        except EmptyFieldError:
            pass

    def test_points_lie_on_surface(self, scene, field, truth_cam0):
        _, _, reg = truth_for(field, truth_cam0)
        cc, sc = scene.eye.cornea_center, scene.eye.sclera_center
        d_c = np.abs(np.linalg.norm(field.points[reg == 0] - cc, axis=1)
                     - scene.eye.cornea_radius)
        d_s = np.abs(np.linalg.norm(field.points[reg == 1] - sc, axis=1)
                     - scene.eye.sclera_radius)
        assert np.median(np.concatenate([d_c, d_s])) < 0.05

    def test_camera2_normal_agrees_within_consistency(self, scene, corr_pair,
                                                      field):
        cam2 = scene.cameras[1]
        px2, py2, z2 = cam2.project(field.points)
        from deflect_gaze.stereo import _bilinear_uv
        u2, v2, ok = _bilinear_uv(corr_pair[1], px2, py2)
        spt = scene.screen.uv_to_world(u2[ok], v2[ok])
        p = field.points[ok]
        n2 = unit(unit(cam2.center - p) + unit(spt - p))
        ang = np.arccos(np.clip(np.sum(field.normals[ok] * n2, axis=1), -1, 1))
        assert (ang <= field.consistency[ok] + 1e-9).all()

    def test_monotone_noise_degradation(self, scene, corr_pair, truth_cam0):
        med = []
        for i, sig in enumerate((0.0, 0.25, 0.5, 1.0)):
            c1 = add_correspondence_noise(corr_pair[0], sig, 50 + i)
            c2 = add_correspondence_noise(corr_pair[1], sig, 60 + i)
            f = reconstruct_field(scene, c1, c2, stride=2)
            _, n_true, _ = truth_for(f, truth_cam0)
            ang = np.degrees(np.arccos(
                np.clip(np.sum(f.normals * n_true, axis=1), -1, 1)))
            med.append(np.median(ang))
        assert all(med[i] <= med[i + 1] + 1e-12 for i in range(3))

    def test_csv_round_trip(self, field, tmp_path):
        p = tmp_path / "field.csv"
        field.to_csv(p)
        back = NormalField.from_csv(p)
        assert np.array_equal(back.pixels, field.pixels)
        assert np.allclose(back.points, field.points, atol=1e-9)
        assert np.allclose(back.normals, field.normals, atol=1e-12)
        header = p.read_text().splitlines()[0]
        assert header == "px,py,X,Y,Z,nx,ny,nz,consistency"


def dense_sweep(scene, pixels, corr1, corr2, params, cam1_index, cam2_index,
                min_usable=8):
    """Reference for ``stereo._sweep_pixels``: score every grid depth, then
    pick and refine the minimum exactly as the sweep does."""
    cam1 = scene.cameras[cam1_index]
    cam2 = scene.cameras[cam2_index]
    n = len(pixels)
    cx, cy = cam1.principal_point
    d_cam = np.column_stack([
        (pixels[:, 0] - cx) / cam1.focal_length,
        (pixels[:, 1] - cy) / cam1.focal_length,
        np.ones(n),
    ])
    dirs1 = unit(d_cam) @ cam1.pose.rotation.T
    s1 = scene.screen.uv_to_world(corr1.u[pixels[:, 1], pixels[:, 0]],
                                  corr1.v[pixels[:, 1], pixels[:, 0]])

    ts = np.linspace(params.t_min, params.t_max, params.n_steps)
    cost = np.empty((params.n_steps, n))
    for i, t in enumerate(ts):
        cost[i] = stereo._consistency_at(scene, cam1, cam2, dirs1, s1, corr2,
                                         np.full(n, t))[0]
    usable = np.isfinite(cost)
    good = usable.sum(axis=0) >= min_usable

    i_best = np.argmin(np.where(usable, cost, np.inf), axis=0)
    cols = np.arange(n)
    c_best = cost[i_best, cols]
    t_best = ts[i_best]
    good &= np.isfinite(c_best)

    if params.refine:
        interior = good & (i_best > 0) & (i_best < params.n_steps - 1)
        im = np.where(interior, i_best, 1)
        cm1 = cost[im - 1, cols]
        cp1 = cost[im + 1, cols]
        with np.errstate(invalid="ignore"):
            denom = cm1 - 2.0 * cost[im, cols] + cp1
            convex = interior & np.isfinite(cm1) & np.isfinite(cp1) \
                & (denom > 1e-18)
            step = ts[1] - ts[0]
            shift = np.where(convex,
                             0.5 * np.where(convex, cm1 - cp1, 0.0)
                             / np.where(convex, denom, 1.0), 0.0)
            shift = np.clip(shift, -1.0, 1.0)
        t_ref = t_best + shift * step
        ang_ref, _, ok_ref = stereo._consistency_at(scene, cam1, cam2, dirs1,
                                                    s1, corr2, t_ref)
        take = convex & ok_ref
        t_best = np.where(take, t_ref, t_best)
        c_best = np.where(take, ang_ref, c_best)

    p_best = cam1.center + t_best[:, None] * dirs1
    n_best, ok_n = bisector_masked(unit(cam1.center - p_best),
                                   unit(s1 - p_best))
    good &= ok_n
    return t_best, c_best, p_best, n_best, good


def dense_field(*args, **kwargs):
    """``reconstruct_field`` with the dense reference sweep."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(stereo, "_sweep_pixels", dense_sweep)
        return reconstruct_field(*args, **kwargs)


def assert_same_field(a, b):
    assert np.array_equal(a.pixels, b.pixels)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.normals, b.normals)
    assert np.array_equal(a.consistency, b.consistency)


def noisy(maps, sigma, seed):
    return [add_correspondence_noise(m, sigma, seed + i)
            for i, m in enumerate(maps)]


@pytest.fixture(scope="module")
def noisy_pair(corr_pair):
    return noisy(corr_pair, 0.5, 80)


@pytest.fixture(scope="module")
def noisy_field_all(scene, noisy_pair):
    return reconstruct_field(scene, *noisy_pair, max_consistency=np.inf)


class TestCoarseToFineSweep:
    """The sweep scores part of the grid; on these fields it must return
    what scoring every grid depth returns, bit for bit."""

    @pytest.mark.parametrize("sigma_c", [0.0, 0.5])
    @pytest.mark.parametrize("a", [-6.0, -3.0, 0.0, 3.0, 6.0])
    def test_equals_dense_grid(self, scene, a, sigma_c):
        eye = rotate_eye(scene.eye, a, 0.0, up=np.array([0.0, 1.0, 0.0]))
        scene_a = replace(scene, eye=eye)
        maps = [render_correspondence(scene_a, cam) for cam in (0, 1)]
        if sigma_c > 0:
            maps = noisy(maps, sigma_c, 70)
        assert_same_field(reconstruct_field(scene, *maps),
                          dense_field(scene, *maps))

    @pytest.mark.parametrize("n_steps,refine", [(16, True), (100, True),
                                                (257, True), (256, False)])
    def test_other_grids_equal_dense_grid(self, scene, noisy_pair, n_steps,
                                          refine):
        params = default_sweep(scene, n_steps=n_steps, refine=refine)
        assert_same_field(
            reconstruct_field(scene, *noisy_pair, params=params),
            dense_field(scene, *noisy_pair, params=params))

    def test_holes_in_camera2_map_equal_dense_grid(self, scene, corr_pair):
        # decoded maps have holes, which split the usable depths of a ray
        # into several runs
        c1, c2 = corr_pair
        g = np.random.default_rng(5)
        holes = CorrespondenceMap(u=c2.u, v=c2.v,
                                  valid=c2.valid & (g.random(c2.valid.shape)
                                                    > 0.03))
        assert_same_field(reconstruct_field(scene, c1, holes),
                          dense_field(scene, c1, holes))

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.005, 1.0))
    def test_pixel_subset_gives_matching_rows(self, scene, noisy_pair,
                                              noisy_field_all, seed, frac):
        c1, c2 = noisy_pair
        keep = c1.valid & (np.random.default_rng(seed).random(c1.valid.shape)
                           < frac)
        assume(keep.any())
        sub = reconstruct_field(scene, replace(c1, valid=keep), c2,
                                max_consistency=np.inf, min_samples=0)
        full = noisy_field_all
        rows = keep[full.pixels[:, 1], full.pixels[:, 0]]
        assert_same_field(sub, NormalField(full.pixels[rows],
                                           full.points[rows],
                                           full.normals[rows],
                                           full.consistency[rows]))


class TestSweepContract:
    """``reconstruct_field``'s contract: a pixel gets the dense result
    whenever the dense minimum is among the depths the sweep scored."""

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dense_result_whenever_its_minimum_was_scored(self, scene,
                                                          corr_pair, seed):
        # a disagreement with several minima in every coarse interval, on
        # usable depths split into runs by holes in the camera-2 map
        g = np.random.default_rng(seed)
        c1, c2 = corr_pair
        c2 = replace(c2, valid=c2.valid & (g.random(c2.valid.shape) > 0.1))
        k = g.uniform(5.0, 20.0, 3)
        consistency_at = stereo._consistency_at
        calls = []

        def wavy(scene_, cam1, cam2, dirs1, s1, corr2, t):
            _, n1, ok = consistency_at(scene_, cam1, cam2, dirs1, s1, corr2,
                                       t)
            calls.append(set(zip(map(bytes, dirs1), t)))
            # elementwise, so that a row's value never depends on its batch
            phase = 1e3 * (k[1] * dirs1[:, 0] + k[2] * dirs1[:, 1])
            value = 2.0 + np.sin(k[0] * t + phase)
            return np.where(ok, value, np.inf), n1, ok

        ys, xs = np.nonzero(c1.valid)
        pixels = np.column_stack([xs, ys])
        params = default_sweep(scene)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(stereo, "_consistency_at", wavy)
            got = stereo._sweep_pixels(scene, pixels, c1, c2, params, 0, 1)
            # the last call is the refine's, at depths between grid steps
            by_sweep = set().union(*calls[:-1])
            want = dense_sweep(scene, pixels, c1, c2, params, 0, 1)
            t_grid = dense_sweep(scene, pixels, c1, c2,
                                 replace(params, refine=False), 0, 1)[0]
        dirs = unit(np.column_stack([
            (pixels - scene.cameras[0].principal_point)
            / scene.cameras[0].focal_length, np.ones(len(pixels))
        ])) @ scene.cameras[0].pose.rotation.T
        hit = np.array([(bytes(d), t) in by_sweep
                        for d, t in zip(dirs, t_grid)])
        assert np.array_equal(got[4], want[4])
        assert 0 < hit[want[4]].sum() < want[4].sum()
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a[hit], b[hit])
