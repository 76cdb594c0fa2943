import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from deflect_gaze import stereo
from deflect_gaze.errors import EmptyFieldError, InvariantViolation
from deflect_gaze.geometry import RigidPose, bisector_masked, unit
from deflect_gaze.render import (CorrespondenceMap, add_correspondence_noise,
                                 render_correspondence)
from deflect_gaze.scene import rotate_eye
from deflect_gaze.stereo import NormalField, depth_grid, reconstruct_field
from helpers import (project, reference_bilinear_uv,
                     reference_consistency_at, reference_usable_depths)


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


def consistency_at(scene, corr1, corr2, px, py, t):
    """``stereo._consistency_at`` for camera-0 pixels (px, py) at depths
    ``t`` (arrays of one row per hypothesis) against camera 1: the
    disagreement, camera 0's candidate normal and the ok mask."""
    cam1 = scene.cameras[0]
    px, py = np.atleast_1d(px), np.atleast_1d(py)
    dirs1 = np.array([cam1.pixel_ray(x, y) for x, y in zip(px, py)])
    s1 = scene.screen.uv_to_world(corr1.u[py, px], corr1.v[py, px])
    pair = stereo._pair(scene, dirs1, s1, corr2)
    return stereo._consistency_at(pair, np.arange(len(px)),
                                  np.atleast_1d(np.asarray(t, dtype=float)))


class TestCandidateNormal:
    def test_true_depth_recovers_normal(self, scene, corr_pair, truth_cam0):
        corr = corr_pair[0]
        cam = scene.cameras[0]
        px, py = pick_pixel(corr, truth_cam0)
        p_true = truth_cam0["points"][py, px]
        t_true = float(np.linalg.norm(p_true - cam.center))
        _, normal, _ = consistency_at(scene, *corr_pair, px, py, t_true)
        assert np.abs(normal[0] - truth_cam0["normals"][py, px]).max() < 1e-6

    def test_depth_error_tilts_normal(self, scene, corr_pair, truth_cam0):
        corr = corr_pair[0]
        cam = scene.cameras[0]
        px, py = pick_pixel(corr, truth_cam0, seed=1)
        p_true = truth_cam0["points"][py, px]
        n_true = truth_cam0["normals"][py, px]
        t_true = float(np.linalg.norm(p_true - cam.center))
        for dt in (-2.0, 2.0):
            _, normal, _ = consistency_at(scene, *corr_pair, px, py,
                                          t_true + dt)
            ang = np.degrees(np.arccos(np.clip(normal[0] @ n_true, -1, 1)))
            assert ang > 0.5

    def test_degenerate_bisector(self, scene, corr_pair):
        cam1 = scene.cameras[0]
        d = cam1.pixel_ray(64, 64)
        p = cam1.center + 30.0 * d
        behind = p + (p - cam1.center)  # screen point collinear, beyond P
        pair = stereo._pair(scene, d[None], behind[None], corr_pair[1])
        ang, normal, ok = stereo._consistency_at(pair, np.array([0]),
                                                 np.array([30.0]))
        assert not ok[0]
        assert np.isnan(normal[0]).all()
        assert ang[0] == np.inf


def kernel_rows(scene, corr1, seed, n):
    """Rows for the scoring kernel: camera-0 rays through random pixels
    (every other one valid in ``corr1``, with its screen point, the others
    anywhere with a random one) at depths on the sweep grid, off it, and
    far enough to leave camera 1's frame or fall behind it. Every fifth
    row has its screen point on the view ray behind the surface point: a
    degenerate bisector."""
    g = np.random.default_rng(seed)
    cam1 = scene.cameras[0]
    w, h = cam1.resolution
    ys, xs = np.nonzero(corr1.valid)
    on = g.integers(0, len(xs), n)
    px = np.where(np.arange(n) % 2 == 0, xs[on], g.integers(0, w, n))
    py = np.where(np.arange(n) % 2 == 0, ys[on], g.integers(0, h, n))
    dirs1 = cam1.pixel_rays()[1][py, px]
    sw, sh = scene.screen.resolution
    u = np.where(corr1.valid[py, px], corr1.u[py, px], g.uniform(0, sw, n))
    v = np.where(corr1.valid[py, px], corr1.v[py, px], g.uniform(0, sh, n))
    s1 = scene.screen.uv_to_world(u, v)
    ts = depth_grid(scene)
    t = np.choose(g.integers(0, 3, n), [
        ts[g.integers(0, len(ts), n)],
        g.uniform(ts[0] - 5.0, ts[-1] + 5.0, n),
        g.uniform(-400.0, 800.0, n),
    ])
    p = cam1.center + t[:, None] * dirs1
    behind = np.arange(n) % 5 == 0
    s1[behind] = (p + (p - cam1.center))[behind]
    return dirs1, s1, t


class TestColumnKernel:
    """``_consistency_at`` works on x, y and z columns; it must return what
    the frozen row-vector kernel returns, bit for bit."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
           holes=st.floats(0.0, 0.5), cut=st.floats(0.0, 1.0))
    def test_equals_frozen_kernel(self, scene, corr_pair, seed, n, holes,
                                  cut):
        c1, c2 = corr_pair
        g = np.random.default_rng(seed)
        c2 = replace(c2, valid=c2.valid & (g.random(c2.valid.shape) >= holes))
        dirs1, s1, t = kernel_rows(scene, c1, seed, n)
        want = reference_consistency_at(scene, *scene.cameras, dirs1, s1, c2,
                                        t)
        # the pair's rows in another order, scored through an index
        order = g.permutation(n)
        pair = stereo._pair(scene, dirs1[order], s1[order], c2)
        j = np.argsort(order)
        got = stereo._consistency_at(pair, j, t)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        # a batch split anywhere gives the same rows
        k = int(cut * n)
        parts = [stereo._consistency_at(pair, j[sl], t[sl])
                 for sl in (slice(0, k), slice(k, n))]
        for q in range(3):
            assert np.array_equal(np.concatenate([a[q] for a in parts]),
                                  got[q], equal_nan=True)

    def test_rows_cover_every_outcome(self, scene, corr_pair):
        # the rows kernel_rows draws reach each way a depth can fail
        c1, c2 = corr_pair
        cam1, cam2 = scene.cameras
        dirs1, s1, t = kernel_rows(scene, c1, 0, 400)
        p = cam1.center + t[:, None] * dirs1
        px2, py2, z2 = project(cam2, p)
        h, w = c2.valid.shape
        inside = (px2 >= 0) & (px2 <= w - 1) & (py2 >= 0) & (py2 <= h - 1)
        corners = reference_bilinear_uv(c2, px2, py2)[2]
        _, ok1 = bisector_masked(unit(cam1.center - p), unit(s1 - p))
        _, _, ok = reference_consistency_at(scene, cam1, cam2, dirs1, s1, c2,
                                            t)
        assert ok.sum() > 50
        assert (z2 <= 0).sum() > 10
        assert ((z2 > 0) & ~inside).sum() > 10
        assert (inside & ~corners).sum() > 10
        assert (~ok1).sum() > 50

    def test_near_zero_direction_raises(self, scene, corr_pair):
        # a screen point at the surface point, as geometry.unit rejects it
        c1, c2 = corr_pair
        dirs1, s1, t = kernel_rows(scene, c1, 1, 20)
        s1[7] = scene.cameras[0].center + t[7] * dirs1[7]
        with pytest.raises(ValueError, match="near-zero"):
            reference_consistency_at(scene, *scene.cameras, dirs1, s1, c2, t)
        pair = stereo._pair(scene, dirs1, s1, c2)
        with pytest.raises(ValueError, match="near-zero"):
            stereo._consistency_at(pair, np.arange(20), t)


def mask_rows(scene, corr1, corr2, seed, n, holes):
    """Argument tuples of ``_usable_depths`` (less ``out``) for ``n`` rows.

    The first has the scene's cameras and ``corr2.valid`` with a share
    ``holes`` of its pixels dropped. A third of its rays go through valid
    pixels of ``corr1``, a third in random directions, and a third through
    points that camera 1 sees on a valid pixel of ``corr2`` at one of the
    depths: rounding puts those a few ulps to either side of a cell
    corner. The depths are every other grid depth, those points' depths,
    and depths that leave camera 1's frame or fall behind it.

    The others have camera 1 at the origin looking along +z, camera 0 on
    its axis 10 mm behind it, camera 1's principal point on the pixel
    (0, 0), (w-1, h-1) or a random one, and a random map with that share of
    holes. A quarter of their ray components are exactly zero: a ray with
    zero x or y projects exactly onto a column or row of cell edges at
    every depth. Half of the rays point backwards.
    """
    g = np.random.default_rng(seed)
    cam1, cam2 = scene.cameras[:2]
    h, w = corr2.valid.shape
    grid = depth_grid(scene)
    ys, xs = np.nonzero(corr1.valid)
    on = g.integers(0, len(xs), n)
    # points at depth t_edge along camera 0's rays that camera 1 sees on
    # valid pixels: s along camera 1's ray with |c2 + s*r - c1| = t_edge
    t_edge = g.uniform(grid[0], grid[-1], 64)
    t = t_edge[np.arange(n) % 64]
    ys2, xs2 = np.nonzero(corr2.valid)
    on2 = g.integers(0, len(xs2), n)
    r = np.array([cam2.pixel_ray(x, y) for x, y in zip(xs2[on2], ys2[on2])])
    e = cam2.center - cam1.center
    er = r @ e
    s = -er + np.sqrt(er**2 - e @ e + t**2)
    dirs1 = np.choose((np.arange(n) % 3)[:, None], [
        cam1.pixel_rays()[1][ys[on], xs[on]],
        unit(g.normal(size=(n, 3))),
        unit(e + s[:, None] * r)])
    ts = np.concatenate([grid[::2], t_edge, g.uniform(-400.0, 800.0, 64)])
    sets = [(cam1, cam2, dirs1, stereo._cell_table(
        corr2.valid & (g.random((h, w)) >= holes)), (h, w), ts)]
    behind = RigidPose(np.eye(3), np.array([0.0, 0.0, -10.0]))
    origin = RigidPose(np.eye(3), np.zeros(3))
    f = cam2.focal_length
    for pp in ((0, 0), (w - 1, h - 1), (g.integers(0, w), g.integers(0, h))):
        d = g.uniform(-1.0, 1.0, (n, 3)) * [w / f, h / f, 1.0]
        d[g.random((n, 3)) < 0.25] = 0.0
        sets.append((replace(cam1, pose=behind),
                     replace(cam2, pose=origin, principal_point=pp), d,
                     stereo._cell_table(g.random((h, w)) >= holes), (h, w),
                     g.uniform(1.0, 100.0, 256)))
    return sets


class TestUsableDepths:
    """``_usable_depths`` builds its mask in place, without compaction; it
    must equal the frozen compacting mask bit for bit."""

    BLOCK = stereo._BLOCK_ROWS // 256   # rows per block at 256 depths

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(0, 3),
           extra=st.integers(1, BLOCK - 1), holes=st.floats(0.0, 0.5))
    def test_equals_frozen_mask(self, scene, corr_pair, seed, blocks, extra,
                                holes):
        # whole blocks and a part block: never a multiple of the block size
        n = blocks * self.BLOCK + extra
        for args in mask_rows(scene, *corr_pair, seed, n, holes):
            want = reference_usable_depths(*args)
            # random bits in, so an entry left unwritten shows
            got = np.random.default_rng(seed).random(want.shape) < 0.5
            stereo._usable_depths(*args, got)
            assert np.array_equal(got, want)

    def test_rows_cover_every_outcome(self, scene, corr_pair):
        # the rows mask_rows draws reach each way a depth can fail, and
        # land usable points exactly on cell edges, the last row and
        # column among them
        n = 3 * self.BLOCK + 5
        for k, args in enumerate(mask_rows(scene, *corr_pair, 0, n, 0.3)):
            cam1, cam2, dirs1, _, (h, w), ts = args
            px2, py2, z2 = project(
                cam2, cam1.center + ts[:, None] * dirs1[:, None])
            inside = (px2 >= 0) & (px2 <= w - 1) & (py2 >= 0) & (py2 <= h - 1)
            usable = reference_usable_depths(*args)
            assert usable.sum() > 100
            assert (z2 <= 1e-9).sum() > 100
            assert ((z2 > 1e-9) & ~inside).sum() > 100
            assert ((z2 > 1e-9) & inside & ~usable).sum() > 100
            if k:
                cx, cy = cam2.principal_point
                assert (usable & (px2 == cx)).sum() > 10
                assert (usable & (py2 == cy)).sum() > 10
            else:
                near = (np.abs(px2 - np.round(px2)) < 1e-9) \
                    & (np.abs(py2 - np.round(py2)) < 1e-9)
                assert (usable & near).sum() > 10


class TestStereoConsistency:
    def test_small_at_true_depth(self, scene, corr_pair, truth_cam0):
        corr1, corr2 = corr_pair
        cam = scene.cameras[0]
        for seed in range(5):
            px, py = pick_pixel(corr1, truth_cam0, seed=seed)
            t_true = float(np.linalg.norm(truth_cam0["points"][py, px]
                                          - cam.center))
            c, _, ok = consistency_at(scene, corr1, corr2, px, py, t_true)
            if ok[0]:
                assert c[0] < 1e-3

    def test_projection_outside_is_none(self, scene, corr_pair):
        corr1, corr2 = corr_pair
        ys, xs = np.nonzero(corr1.valid)
        px, py = int(xs[0]), int(ys[0])
        # a depth far behind the eye projects outside camera 2's map
        _, _, ok = consistency_at(scene, corr1, corr2, px, py, 500.0)
        assert not ok[0]

    def test_unimodal_near_truth(self, scene, corr_pair, truth_cam0):
        corr1, corr2 = corr_pair
        cam = scene.cameras[0]
        ys, xs = np.nonzero(corr1.valid)
        g = np.random.default_rng(4)
        sel = g.choice(len(xs), size=200, replace=False)
        px, py = xs[sel], ys[sel]
        t_true = np.linalg.norm(truth_cam0["points"][py, px] - cam.center,
                                axis=1)
        c0, _, ok0 = consistency_at(scene, corr1, corr2, px, py, t_true)
        cm, _, okm = consistency_at(scene, corr1, corr2, px, py, t_true - 1.0)
        cp, _, okp = consistency_at(scene, corr1, corr2, px, py, t_true + 1.0)
        usable = ok0 & okm & okp
        total = int(usable.sum())
        wins = int(np.sum(usable & (c0 < cm) & (c0 < cp)))
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
        ts = depth_grid(scene)
        step = (ts[-1] - ts[0]) / len(ts)
        assert (err < step).mean() >= 0.95
        assert np.median(err) < 0.02

    def test_invalid_corr2_gives_none(self, scene, corr_pair, monkeypatch):
        corr1, corr2 = corr_pair
        empty = CorrespondenceMap(u=np.full_like(corr2.u, np.nan),
                                  v=np.full_like(corr2.v, np.nan),
                                  valid=np.zeros_like(corr2.valid))
        monkeypatch.setattr(stereo, "MIN_SAMPLES", 1)
        with pytest.raises(EmptyFieldError):
            reconstruct_field(scene, corr1, empty)

    def test_noisy_normal_error(self, scene, corr_pair, truth_cam0):
        res = scene.screen.resolution
        corr1 = add_correspondence_noise(corr_pair[0], 0.5, 31, res)
        corr2 = add_correspondence_noise(corr_pair[1], 0.5, 32, res)
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
        lookup = {tuple(p): j for j, p in enumerate(field.pixels)}
        for stride in (2, 3):
            f = reconstruct_field(scene, corr_pair[0], corr_pair[1],
                                  stride=stride)
            # a subset of the stride-1 rows, with the same values
            rows = np.array([lookup[tuple(p)] for p in f.pixels])
            assert np.array_equal(f.points, field.points[rows])
            assert np.array_equal(f.normals, field.normals[rows])
            assert np.array_equal(f.consistency, field.consistency[rows])

    @pytest.mark.parametrize("cam", [0, 1])
    def test_map_of_another_shape_is_rejected(self, scene, corr_pair, cam,
                                              monkeypatch):
        maps = list(corr_pair)
        m = maps[cam]
        maps[cam] = CorrespondenceMap(u=m.u[:64], v=m.v[:64],
                                      valid=m.valid[:64])
        # rejected before the sweep
        monkeypatch.setattr(stereo, "_sweep_pixels", None)
        want = rf"camera {cam}: .*\(64, 128\).*\(128, 128\)"
        with pytest.raises(InvariantViolation, match=want):
            reconstruct_field(scene, *maps)

    @pytest.mark.parametrize("stride", [0, -1, -2])
    def test_stride_below_one_is_rejected(self, scene, corr_pair, stride):
        with pytest.raises(InvariantViolation, match="stride"):
            reconstruct_field(scene, corr_pair[0], corr_pair[1],
                              stride=stride)

    def test_swapped_cameras_never_silently_plausible(self, scene, corr_pair,
                                                       field):
        # misconfigured maps must read grossly inconsistent next to a
        # correct run (here two orders of magnitude), never plausible
        try:
            f = unfiltered_field(scene, corr_pair[1], corr_pair[0])
            good = np.median(field.consistency)
            assert np.median(f.consistency) > max(50.0 * good, 0.01)
        except EmptyFieldError:
            pass

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.2, 1.0),
           stride=st.integers(1, 3))
    def test_rows_in_row_major_order(self, dec_scene, maps_448, seed, frac,
                                     stride):
        c1, c2 = maps_448
        keep = c1.valid & (np.random.default_rng(seed).random(c1.valid.shape)
                           < frac)
        f = reconstruct_field(dec_scene, replace(c1, valid=keep), c2,
                              stride=stride)
        index = f.pixels[:, 1] * c1.valid.shape[1] + f.pixels[:, 0]
        assert (np.diff(index) > 0).all()

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
        px2, py2, z2 = project(cam2, field.points)
        u2, v2, ok = reference_bilinear_uv(corr_pair[1], px2, py2)
        spt = scene.screen.uv_to_world(u2[ok], v2[ok])
        p = field.points[ok]
        n2 = unit(unit(cam2.center - p) + unit(spt - p))
        ang = np.arccos(np.clip(np.sum(field.normals[ok] * n2, axis=1), -1, 1))
        assert (ang <= field.consistency[ok] + 1e-9).all()

    def test_monotone_noise_degradation(self, scene, corr_pair, truth_cam0):
        med = []
        for i, sig in enumerate((0.0, 0.25, 0.5, 1.0)):
            c1, c2 = noisy(scene, corr_pair, sig, (50 + i, 60 + i))
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

    @pytest.mark.parametrize("px,py", [(1.7, 2.0), (1.0, -2.5), (-1.0, 2.0),
                                       (0.0, 1e-9), (1e30, 2.0)])
    def test_csv_rejects_bad_pixel_column(
            self, tmp_path, px, py):
        # truncation would read (1.7, -2.5) as pixel (1, -2), and the int
        # conversion turns 1e30 into a negative number
        p = tmp_path / "field.csv"
        p.write_text("px,py,X,Y,Z,nx,ny,nz,consistency\n"
                     f"{px!r},{py!r},0,0,10,0,0,1,0\n")
        with pytest.raises(ValueError, match="field.csv: a NormalField pixel"):
            NormalField.from_csv(p)

    def test_csv_header_only_is_an_empty_field(self, tmp_path):
        p = tmp_path / "field.csv"
        p.write_text("px,py,X,Y,Z,nx,ny,nz,consistency\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = NormalField.from_csv(p)
        assert len(back) == 0
        assert back.points.shape == (0, 3)

    @pytest.mark.parametrize("body", ["# c\n", "1,2,0,0,10,0,0,1,0 # x\n"],
                             ids=["comment_line", "trailing_comment"])
    def test_csv_rejects_comments(self, tmp_path, body):
        # loadtxt's default comments='#' would read the first as an empty
        # field, with a warning, and drop the second's comment unseen
        p = tmp_path / "field.csv"
        p.write_text("px,py,X,Y,Z,nx,ny,nz,consistency\n" + body)
        with pytest.raises(ValueError, match="field.csv: could not convert"):
            NormalField.from_csv(p)

    def test_csv_rejects_other_header(self, tmp_path):
        p = tmp_path / "field.csv"
        p.write_text("px,py,X,Y,Z,nx,ny,nz\n1,2,0,0,10,0,0,1\n")
        with pytest.raises(ValueError,
                           match="field.csv: unexpected NormalField header"):
            NormalField.from_csv(p)

    def test_csv_rejects_non_numeric_value(self, tmp_path):
        p = tmp_path / "field.csv"
        p.write_text("px,py,X,Y,Z,nx,ny,nz,consistency\n"
                     "1,2,0,0,ten,0,0,1,0\n")
        with pytest.raises(ValueError, match="field.csv: could not convert"):
            NormalField.from_csv(p)


def dense_reference(scene, pixels, corr1, corr2, cam1_index=0,
                    cam2_index=1, min_usable=8,
                    kernel=reference_consistency_at):
    """Reference for ``stereo._sweep_pixels``: score every depth of
    ``depth_grid(scene)`` with ``kernel``, the frozen row-vector kernel
    unless given, then pick and refine the minimum exactly as the sweep
    does. Returns the sweep's five results and each pixel's best grid depth
    before the refine."""
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

    ts = depth_grid(scene)
    cost = np.empty((len(ts), n))
    for i, t in enumerate(ts):
        cost[i] = kernel(scene, cam1, cam2, dirs1, s1, corr2,
                         np.full(n, t))[0]
    usable = np.isfinite(cost)
    good = usable.sum(axis=0) >= min_usable

    i_best = np.argmin(np.where(usable, cost, np.inf), axis=0)
    cols = np.arange(n)
    c_best = cost[i_best, cols]
    t_best = ts[i_best]
    good &= np.isfinite(c_best)

    t_grid = t_best
    interior = good & (i_best > 0) & (i_best < len(ts) - 1)
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
    ang_ref, _, ok_ref = kernel(scene, cam1, cam2, dirs1, s1, corr2, t_ref)
    take = convex & ok_ref
    t_best = np.where(take, t_ref, t_best)
    c_best = np.where(take, ang_ref, c_best)

    p_best = cam1.center + t_best[:, None] * dirs1
    n_best, ok_n = bisector_masked(unit(cam1.center - p_best),
                                   unit(s1 - p_best))
    good &= ok_n
    return (t_best, c_best, p_best, n_best, good), t_grid


def dense_sweep(scene, pixels, corr1, corr2):
    """``dense_reference``'s results in ``stereo._sweep_pixels``' form."""
    return dense_reference(scene, pixels, corr1, corr2)[0]


def unfiltered_field(scene, corr1, corr2):
    """The rows ``stereo._sweep_pixels`` keeps at every valid camera-0
    pixel, before ``reconstruct_field``'s outlier cut and sample floor."""
    ys, xs = np.nonzero(corr1.valid)
    pixels = np.column_stack([xs, ys])
    _, c, p, n, good = stereo._sweep_pixels(scene, pixels, corr1, corr2)
    return NormalField(pixels[good], p[good], n[good], c[good])


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


def noisy(scene, maps, sigma, seeds):
    return [add_correspondence_noise(m, sigma, seed, scene.screen.resolution)
            for m, seed in zip(maps, seeds)]


@pytest.fixture(scope="module")
def noisy_pair(scene, corr_pair):
    return noisy(scene, corr_pair, 0.5, (80, 81))


@pytest.fixture(scope="module")
def noisy_field_all(scene, noisy_pair):
    return unfiltered_field(scene, *noisy_pair)


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
            maps = noisy(scene, maps, sigma_c, (70, 71))
        assert_same_field(reconstruct_field(scene, *maps),
                          dense_field(scene, *maps))

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
        sub = unfiltered_field(scene, replace(c1, valid=keep), c2)
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
        calls = []   # the sweep's calls

        def wave(dirs1, t, ok):
            # elementwise, so that a row's value never depends on its batch
            phase = 1e3 * (k[1] * dirs1[:, 0] + k[2] * dirs1[:, 1])
            return np.where(ok, 2.0 + np.sin(k[0] * t + phase), np.inf)

        def wavy(pair, j, t):
            _, n1, ok = consistency_at(pair, j, t)
            dirs1 = np.ascontiguousarray(pair.dirs1[:, j].T)
            calls.append(set(zip(map(bytes, dirs1), t)))
            return wave(dirs1, t, ok), n1, ok

        def wavy_reference(scene_, cam1, cam2, dirs1, s1, corr2, t):
            _, n1, ok = reference_consistency_at(scene_, cam1, cam2, dirs1,
                                                 s1, corr2, t)
            return wave(dirs1, t, ok), n1, ok

        ys, xs = np.nonzero(c1.valid)
        pixels = np.column_stack([xs, ys])
        with pytest.MonkeyPatch.context() as m:
            m.setattr(stereo, "_consistency_at", wavy)
            got = stereo._sweep_pixels(scene, pixels, c1, c2)
        # the last call is the refine's, at depths between grid steps
        by_sweep = set().union(*calls[:-1])
        want, t_grid = dense_reference(scene, pixels, c1, c2,
                                       kernel=wavy_reference)
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
