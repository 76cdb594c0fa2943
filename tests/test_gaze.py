from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deflect_gaze.errors import (AmbiguousRadiiError, CentersTooCloseError,
                                 InvariantViolation,
                                 SecondCenterNotFoundError)
from deflect_gaze.gaze import (ClusterParams, _inlier_counts, _sample_triples,
                               backtrace_lines, estimate_gaze_two_center,
                               gaze_from_centers, identify_cornea,
                               relative_gaze_angle, two_center_cluster)
from deflect_gaze.geometry import rotation_about_axis, unit
from deflect_gaze.render import render_correspondence
from deflect_gaze.scene import rotate_eye
from deflect_gaze.stereo import reconstruct_field
from helpers import (angle_between_deg, bundle_through_point,
                     reference_ransac_counts)

UP = np.array([0.0, 1.0, 0.0])


def two_bundles(n=500, seed=0, sigma=0.0):
    p1, d1 = bundle_through_point(np.zeros(3), n, seed=seed,
                                  point_radius=12.0, point_sigma=sigma)
    p2, d2 = bundle_through_point(np.array([0.0, 0, 5.6]), n, seed=seed + 1,
                                  point_radius=7.8, point_sigma=sigma)
    return np.vstack([p1, p2]), np.vstack([d1, d2])


class TestBacktrace:
    def test_one_line_per_sample(self, field):
        points, dirs = backtrace_lines(field)
        assert len(points) == len(field)
        assert len(dirs) == len(field)

    def test_cornea_lines_hit_center(self, scene, field, truth_cam0):
        px, py = field.pixels[:, 0], field.pixels[:, 1]
        reg = truth_cam0["region"][py, px]
        pts = truth_cam0["points"][py, px][reg == 0]
        nrm = truth_cam0["normals"][py, px][reg == 0]
        cc = scene.eye.cornea_center
        from deflect_gaze.geometry import point_line_distances
        d = point_line_distances(cc, pts, nrm)
        assert d.max() < 1e-3

    def test_direction_flip_leaves_clustering_unchanged(self):
        points, dirs = two_bundles(n=200, seed=3)
        flip = np.random.default_rng(9).random(len(dirs)) < 0.5
        dirs2 = dirs.copy()
        dirs2[flip] *= -1
        p = ClusterParams(rng_seed=4)
        a1 = two_center_cluster(points, dirs, p)
        a2 = two_center_cluster(points, dirs2, p)
        assert np.allclose(sorted(a1[0].tolist()), sorted(a2[0].tolist()),
                           atol=1e-9) or np.allclose(a1[0], a2[0], atol=1e-9) \
            or np.allclose(a1[0], a2[1], atol=1e-9)


class TestTwoCenterCluster:
    def test_exact_bundles(self):
        points, dirs = two_bundles(n=500, seed=1)
        for seed in range(6):
            c_a, c_b, labels, rms = two_center_cluster(
                points, dirs, ClusterParams(rng_seed=seed))
            got = sorted([c_a, c_b], key=lambda c: c[2])
            assert np.linalg.norm(got[0] - [0, 0, 0]) < 1e-6
            assert np.linalg.norm(got[1] - [0, 0, 5.6]) < 1e-6
            # no mislabels: each cluster holds one bundle
            assert set(np.unique(labels[:500])) != set(
                np.unique(labels[500:]))
            assert max(rms) < 1e-6

    def test_full_reconstruction_centers(self, scene, field):
        points, dirs = backtrace_lines(field)
        c_a, c_b, labels, rms = two_center_cluster(points, dirs,
                                                   ClusterParams(rng_seed=1))
        got = sorted([c_a, c_b], key=lambda c: c[2])
        assert np.linalg.norm(got[0] - scene.eye.sclera_center) < 0.05
        assert np.linalg.norm(got[1] - scene.eye.cornea_center) < 0.05

    def test_cornea_only_raises(self):
        points, dirs = bundle_through_point(np.zeros(3), 300, seed=5,
                                            point_radius=7.8)
        with pytest.raises(SecondCenterNotFoundError):
            two_center_cluster(points, dirs, ClusterParams(rng_seed=2))

    def test_deterministic_for_seed(self, field):
        points, dirs = backtrace_lines(field)
        p = ClusterParams(rng_seed=11)
        a = two_center_cluster(points, dirs, p)
        b = two_center_cluster(points, dirs, p)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[2], b[2])


class TestClusterParams:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_min_inliers_below_minimal_sample(self, m):
        with pytest.raises(InvariantViolation, match="min_inliers"):
            ClusterParams(min_inliers=m)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0])
    def test_inlier_tol_finite_and_positive(self, tol):
        with pytest.raises(InvariantViolation, match="inlier_tol"):
            ClusterParams(inlier_tol=tol)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvariantViolation, match="rng_seed"):
            ClusterParams(rng_seed=-1)

    def test_minimal_sample_clusters_six_lines(self):
        points, dirs = two_bundles(n=3, seed=2)
        c_a, c_b, _, _ = two_center_cluster(points, dirs,
                                            ClusterParams(min_inliers=3))
        got = sorted([c_a, c_b], key=lambda c: c[2])
        assert np.linalg.norm(got[1] - [0, 0, 5.6]) < 1e-6


class TestSampleTriples:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.one_of(st.integers(3, 12), st.integers(3, 10**9)),
           iters=st.integers(1, 600))
    def test_distinct_and_in_range(self, seed, n, iters):
        idx = _sample_triples(n, iters, np.random.default_rng(seed))
        assert idx.shape == (iters, 3)
        assert idx.min() >= 0 and idx.max() < n
        s = np.sort(idx, axis=1)
        assert (np.diff(s, axis=1) > 0).all()

    def test_uniform_over_subsets(self):
        idx = _sample_triples(5, 100_000, np.random.default_rng(0))
        keys = np.sort(idx, axis=1) @ [25, 5, 1]
        freq = np.unique(keys, return_counts=True)[1] / len(keys)
        assert len(freq) == 10
        assert np.abs(freq - 0.1).max() < 0.005


class TestInlierCounts:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 400),
           k=st.integers(1, 450), tol=st.floats(0.02, 1.0),
           offset=st.floats(0.0, 500.0))
    def test_matches_reference(self, seed, n, k, tol, offset):
        """Two noisy bundles with non-unit directions, far from the origin;
        candidates near either center, spread out, or unsolvable (NaN)."""
        g = np.random.default_rng(seed)
        base = offset * unit(g.normal(size=3))
        centers = base + np.array([[0.0, 0, 0], [0.0, 0, 5.6]])
        which = g.integers(0, 2, n)
        dirs = g.normal(size=(n, 3))
        points = (centers[which] + 10.0 * unit(dirs)
                  + g.normal(0.0, 0.2, (n, 3)))
        dirs *= g.uniform(0.5, 1.5, (n, 1)) / np.linalg.norm(
            dirs, axis=1, keepdims=True)
        cand = (centers[g.integers(0, 2, k)]
                + g.normal(size=(k, 3)) * g.choice([0.05, 0.5, 5.0],
                                                   (k, 1)))
        cand[g.random(k) < 0.1] = np.nan
        v = cand[:, None, :] - points[None]
        proj = np.einsum("knj,nj->kn", v, dirs)
        d2 = np.einsum("knj,knj->kn", v, v) - (
            2.0 - np.einsum("nj,nj->n", dirs, dirs)) * proj * proj
        assume(not (np.abs(d2 - tol * tol) < 1e-9).any())
        got = _inlier_counts(cand, points, dirs, tol)
        ref = reference_ransac_counts(cand, points, dirs, tol)
        assert np.array_equal(got, ref)
        assert np.argmax(got) == np.argmax(ref)

    def test_threshold_far_from_origin(self):
        """Lines through a center 1e5 mm out; candidate k sits on a fixed
        ray from the center, 1e-7 inside or outside ``tol`` of line k,
        so its count includes line k exactly when it is inside."""
        g = np.random.default_rng(4)
        center = 1e5 * unit(np.array([1.0, 2.0, 3.0]))
        dirs = unit(g.normal(size=(40, 3)))
        points = center + 10.0 * dirs
        u = unit(g.normal(size=3))
        r = 0.3 / np.linalg.norm(np.cross(u, dirs), axis=1)
        inside = center + (r * (1 - 1e-7))[:, None] * u
        outside = center + (r * (1 + 1e-7))[:, None] * u
        cand = np.vstack([inside, outside])
        got = _inlier_counts(cand, points, dirs, 0.3)
        assert np.array_equal(got, reference_ransac_counts(cand, points,
                                                           dirs, 0.3))
        assert (got[:40] - got[40:] == 1).all()


class TestIdentifyCornea:
    def test_radius_rule(self):
        points, dirs = two_bundles(n=200, seed=6)
        c_a, c_b, labels, _ = two_center_cluster(points, dirs,
                                                 ClusterParams(rng_seed=3))
        cornea, sclera, _ = identify_cornea(c_a, c_b, points, labels)
        assert np.linalg.norm(cornea - [0, 0, 5.6]) < 1e-3
        assert np.linalg.norm(sclera - [0, 0, 0]) < 1e-3

    def test_order_invariance(self):
        points, dirs = two_bundles(n=200, seed=7)
        c_a, c_b, labels, _ = two_center_cluster(points, dirs,
                                                 ClusterParams(rng_seed=3))
        a = identify_cornea(c_a, c_b, points, labels)
        b = identify_cornea(c_b, c_a, points, 1 - labels)
        assert np.allclose(a[0], b[0])
        assert np.allclose(a[1], b[1])

    def test_estimated_radii_near_truth(self, scene, field):
        points, dirs = backtrace_lines(field)
        c_a, c_b, labels, _ = two_center_cluster(points, dirs,
                                                 ClusterParams(rng_seed=5))
        cornea, sclera, cl = identify_cornea(c_a, c_b, points, labels)
        r_c = np.mean(np.linalg.norm(points[labels == cl] - cornea, axis=1))
        r_s = np.mean(np.linalg.norm(points[labels == 1 - cl] - sclera,
                                     axis=1))
        assert abs(r_c - scene.eye.cornea_radius) < 0.3
        assert abs(r_s - scene.eye.sclera_radius) < 0.3

    def test_ambiguous_radii(self):
        p1, d1 = bundle_through_point(np.zeros(3), 100, seed=8,
                                      point_radius=10.0)
        p2, d2 = bundle_through_point(np.array([0, 0, 30.0]), 100, seed=9,
                                      point_radius=10.5)
        points = np.vstack([p1, p2])
        labels = np.array([0] * 100 + [1] * 100)
        with pytest.raises(AmbiguousRadiiError):
            identify_cornea(np.zeros(3), np.array([0, 0, 30.0]), points,
                            labels)


class TestGazeFromCenters:
    def test_axis_direction(self):
        g = gaze_from_centers(np.array([0.0, 0, 5.6]), np.zeros(3))
        assert np.allclose(g, [0, 0, 1])

    def test_too_close(self):
        with pytest.raises(CentersTooCloseError):
            gaze_from_centers(np.array([0.0, 0, 0.1]), np.zeros(3))

    def test_end_to_end_noiseless(self, scene, field):
        est = estimate_gaze_two_center(field, ClusterParams(rng_seed=2))
        err = angle_between_deg(est.direction, scene.eye.optical_axis)
        assert err < 0.05
        assert est.method_tag == "two-center"
        assert np.linalg.norm(est.cornea_center - est.sclera_center) >= 0.5


class TestRelativeGazeAngle:
    def test_zero(self):
        g = unit(np.array([0.1, 0.2, 0.95]))
        assert relative_gaze_angle(g, g, UP) == pytest.approx(0.0)

    def test_known_rotation(self):
        g = unit(np.array([0.05, -0.1, 0.99]))
        r = rotation_about_axis(UP, 3.0)
        assert relative_gaze_angle(r @ g, g, UP) == pytest.approx(3.0,
                                                                  abs=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = unit(rng.normal(size=3))
            b = unit(rng.normal(size=3))
            ax = unit(rng.normal(size=3))
            assert relative_gaze_angle(a, b, ax) == pytest.approx(
                -relative_gaze_angle(b, a, ax), abs=1e-12)


class TestPipelineProperties:
    def test_relative_angles_noiseless(self, scene, corr_pair):
        est0 = estimate_gaze_two_center(
            reconstruct_field(scene, corr_pair[0], corr_pair[1]),
            ClusterParams(rng_seed=7))
        for a in (-3.0, 3.0, 6.0):
            sc = replace(scene, eye=rotate_eye(scene.eye, a, 0.0))
            c1 = render_correspondence(sc, 0)
            c2 = render_correspondence(sc, 1)
            est = estimate_gaze_two_center(reconstruct_field(sc, c1, c2),
                                           ClusterParams(rng_seed=7))
            theta = relative_gaze_angle(est.direction, est0.direction, UP)
            assert abs(theta - a) < 0.05

    def test_uniform_scaling_invariance(self):
        points, dirs = two_bundles(n=300, seed=13)
        k = 2.5
        c_a1, c_b1, l1, _ = two_center_cluster(points, dirs,
                                               ClusterParams(rng_seed=8))
        # scale tolerance with the scene so the scheme itself is scale-free
        c_a2, c_b2, l2, _ = two_center_cluster(
            k * points, dirs,
            ClusterParams(rng_seed=8, inlier_tol=0.3 * k))
        got1 = sorted([c_a1, c_b1], key=lambda c: c[2])
        got2 = sorted([c_a2, c_b2], key=lambda c: c[2])
        assert np.allclose(got2[0], k * got1[0], atol=1e-6)
        assert np.allclose(got2[1], k * got1[1], atol=1e-6)
        g1 = gaze_from_centers(*identify_cornea(c_a1, c_b1, points, l1)[:2])
        g2 = gaze_from_centers(*identify_cornea(c_a2, c_b2, k * points,
                                                l2)[:2])
        assert np.allclose(g1, g2, atol=1e-9)

    def test_csv_row_and_pretty(self, field):
        est = estimate_gaze_two_center(field, ClusterParams(rng_seed=2))
        row = est.csv_row()
        assert row.startswith("two-center,")
        assert len(row.split(",")) == 14
        assert "gaze direction" in est.pretty()
