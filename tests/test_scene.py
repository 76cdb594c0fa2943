import importlib.resources
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deflect_gaze.errors import InvariantViolation, SceneParseError
from deflect_gaze.geometry import unit
from deflect_gaze.scene import (CORNEA, SCLERA, EyeModel,
                                eye_surface_hit_batch, load_scene, rotate_eye)
from helpers import angle_between_deg, reference_surface_hit_batch

SHIPPED = ("default_scene", "decode_scene")


def shipped_dict(name):
    """The parsed JSON of a scene shipped with the package."""
    return json.loads(importlib.resources.files("deflect_gaze").joinpath(
        f"data/{name}.json").read_bytes())


def make_eye(**kw):
    base = dict(sclera_center=np.zeros(3), optical_axis=np.array([0.0, 0, 1]),
                sclera_radius=12.0, cornea_radius=7.8, cornea_offset=5.6,
                cornea_aperture=45.0)
    base.update(kw)
    return EyeModel(**base)


class TestEyeModel:
    def test_valid_default(self):
        eye = make_eye()
        assert np.allclose(eye.cornea_center, [0, 0, 5.6])

    def test_radius_order_invariant(self):
        with pytest.raises(InvariantViolation, match="cornea_radius < sclera_radius"):
            make_eye(cornea_radius=13.0)

    def test_apex_protrusion_invariant(self):
        with pytest.raises(InvariantViolation, match="cornea_offset \\+ cornea_radius"):
            make_eye(cornea_offset=3.0, cornea_radius=7.8)

    def test_aperture_range(self):
        with pytest.raises(InvariantViolation, match="cornea_aperture"):
            make_eye(cornea_aperture=95.0)


def hit_one(eye, origin, direction):
    """``eye_surface_hit_batch`` on a one-row batch; returns the row."""
    p, n, reg, hit = eye_surface_hit_batch(eye, np.asarray(origin, float),
                                           np.asarray(direction, float)[None])
    return p[0], n[0], reg[0], hit[0]


class TestSurfaceHit:
    def test_apex_hit(self):
        point, normal, region, hit = hit_one(make_eye(), [0.0, 0, 40.0],
                                             [0.0, 0, -1.0])
        assert hit
        assert region == CORNEA
        assert np.allclose(point, [0, 0, 13.4])
        assert np.allclose(normal, [0, 0, 1])

    def test_back_of_eye_is_sclera(self):
        point, normal, region, hit = hit_one(make_eye(), [0.0, 0, -40.0],
                                             [0.0, 0, 1.0])
        assert hit
        assert region == SCLERA
        assert np.allclose(point, [0, 0, -12.0])
        assert np.allclose(normal, [0, 0, -1])

    def test_miss(self):
        point, normal, region, hit = hit_one(make_eye(), [0.0, 30, -40.0],
                                             [0.0, 0, 1.0])
        assert not hit
        assert region == -1
        assert np.isnan(point).all() and np.isnan(normal).all()

    def test_dense_grid_residuals(self, scene, truth_cam0):
        pts = truth_cam0["points"]
        reg = truth_cam0["region"]
        hit = truth_cam0["hit"]
        cc, sc = scene.eye.cornea_center, scene.eye.sclera_center
        res_c = np.abs(np.linalg.norm(pts[hit & (reg == 0)] - cc, axis=1)
                       - scene.eye.cornea_radius)
        res_s = np.abs(np.linalg.norm(pts[hit & (reg == 1)] - sc, axis=1)
                       - scene.eye.sclera_radius)
        assert res_c.max() < 1e-9
        assert res_s.max() < 1e-9

    def test_surface_continuity_at_aperture(self):
        # rays crossing the cap boundary land within 0.5 mm of each other
        eye = make_eye()
        ap = np.radians(eye.cornea_aperture)
        cc = eye.cornea_center
        for eps in (np.radians(1e-3), -np.radians(1e-3)):
            u_in = np.array([np.sin(ap - np.radians(1e-3)), 0.0,
                             np.cos(ap - np.radians(1e-3))])
            u_out = np.array([np.sin(ap + np.radians(1e-3)), 0.0,
                              np.cos(ap + np.radians(1e-3))])
            p_in = None
            p_out = None
            for u, store in ((u_in, "in"), (u_out, "out")):
                target = cc + eye.cornea_radius * u
                origin = target + np.array([0.0, 0.0, 30.0])
                point, _, _, hit = hit_one(eye, origin,
                                           unit(target - origin))
                assert hit
                if store == "in":
                    p_in = point
                else:
                    p_out = point
            assert np.linalg.norm(p_in - p_out) < 0.5


class TestHitKernel:
    """Render and the fit trace a ray once and reuse its hit, so a ray's
    hit must not depend on which other rays share its batch."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(which=st.sampled_from(["scene", "dec_scene"]),
           cam=st.integers(0, 1), az=st.floats(-8, 8), el=st.floats(-4, 4),
           frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_subset_rows_equal_full_batch(self, request, which, cam, az, el,
                                          frac, seed):
        sc = request.getfixturevalue(which)
        eye = rotate_eye(sc.eye, az, el)
        origin, grid = sc.cameras[cam].pixel_rays()
        dirs = grid.reshape(-1, 3)
        full = eye_surface_hit_batch(eye, origin, dirs)
        for got, ref in zip(full, reference_surface_hit_batch(eye, origin,
                                                              dirs)):
            assert np.array_equal(got, ref, equal_nan=True)
        pick = np.random.default_rng(seed).random(len(dirs)) < frac
        for got, ref in zip(eye_surface_hit_batch(eye, origin, dirs[pick]),
                            full):
            assert np.array_equal(got, ref[pick], equal_nan=True)


class TestRotateEye:
    def test_identity(self):
        eye = make_eye()
        r = rotate_eye(eye, 0.0, 0.0)
        assert np.allclose(r.optical_axis, eye.optical_axis)

    def test_angle_preserved(self):
        eye = make_eye()
        r = rotate_eye(eye, 3.0, 0.0)
        assert angle_between_deg(r.optical_axis, eye.optical_axis) == \
            pytest.approx(3.0, abs=1e-9)

    def test_inverse_composition(self):
        eye = make_eye()
        r = rotate_eye(rotate_eye(eye, -4.0, 0.0), 4.0, 0.0)
        assert np.abs(r.optical_axis - eye.optical_axis).max() < 1e-12

    def test_pivot_and_shape_fixed(self):
        eye = make_eye()
        r = rotate_eye(eye, 5.0, -2.0)
        assert np.allclose(r.sclera_center, eye.sclera_center)
        assert r.cornea_radius == eye.cornea_radius
        assert r.sclera_radius == eye.sclera_radius
        assert r.cornea_offset == eye.cornea_offset
        assert r.cornea_aperture == eye.cornea_aperture

    def test_positive_elevation_tilts_up(self):
        eye = make_eye()
        r = rotate_eye(eye, 0.0, 10.0)
        assert r.optical_axis[1] > 0


# (JSON path, bad value, error it raises)
BAD_VALUES = [
    ("cameras[0].focal_length", None, SceneParseError),
    ("eye.sclera_center", "origin", SceneParseError),
    ("eye.cornea_radius", float("nan"), SceneParseError),
    ("cameras[1].pose.translation", [float("inf"), 4.0, 50.0],
     SceneParseError),
    ("eye.optical_axis", [0.0, 1.0], InvariantViolation),
    ("cameras[0].principal_point", [63.5], InvariantViolation),
    ("cameras[0].resolution", [128, 128, 128], InvariantViolation),
    ("cameras[0].resolution", [128.7, 128], InvariantViolation),
    ("screen.resolution", [0, 340], InvariantViolation),
    ("screen.resolution", [-600, 340], InvariantViolation),
    ("screen.pixel_pitch", float("inf"), SceneParseError),
    ("screen.pose.rotation", [[float("nan")] * 3] * 3, SceneParseError),
    ("screen.pose.rotation", [[1.0, 0.0, 0.0], [0.0, 1.0]],
     SceneParseError),
    ("cameras[0].pose.translation", [1.0, 2.0], InvariantViolation),
    ("cameras", [], SceneParseError),
    ("cameras[0].focal_length", [170.0], InvariantViolation),
    ("cameras[0].focal_length", [170.0, 171.0], InvariantViolation),
    ("screen.pixel_pitch", [[0.2]], InvariantViolation),
    ("cameras[0].focal_length", "170", SceneParseError),
    ("eye.sclera_center", ["0", "0", "0"], SceneParseError),
    ("eye.cornea_aperture", True, SceneParseError),
]


class TestSceneIO:
    def test_default_scene_valid(self, scene):
        assert len(scene.cameras) == 2
        assert scene.eye.cornea_radius < scene.eye.sclera_radius

    # the two I/O tests below run on both shipped scenes

    def test_invariant_violation_named(self, tmp_path):
        for name in SHIPPED:
            d = shipped_dict(name)
            d["eye"]["cornea_radius"] = 13.0
            p = tmp_path / f"{name}_bad.json"
            p.write_text(json.dumps(d))
            with pytest.raises(InvariantViolation,
                               match="cornea_radius < sclera_radius"):
                load_scene(p)

    def test_unknown_field_rejected(self, tmp_path):
        for name in SHIPPED:
            d = shipped_dict(name)
            d["eye"]["pupil_radius"] = 2.0
            p = tmp_path / f"{name}_bad.json"
            p.write_text(json.dumps(d))
            with pytest.raises(SceneParseError, match="pupil_radius"):
                load_scene(p)

    @pytest.mark.parametrize("path,value,error", BAD_VALUES, ids=[
        f"{path}={json.dumps(value)}" for path, value, _ in BAD_VALUES])
    def test_bad_value_is_named(self, tmp_path, path, value, error):
        d = shipped_dict("default_scene")
        keys = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
        obj = d
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
        p = tmp_path / "bad.json"
        # json writes NaN and inf as the bare words NaN and Infinity
        p.write_text(json.dumps(d))
        with pytest.raises(error, match=keys[-1]) as info:
            load_scene(p)
        if error is SceneParseError:
            assert f"scene.{path}:" in str(info.value)

    def test_missing_field_named(self, tmp_path):
        d = shipped_dict("default_scene")
        del d["cameras"][1]["pose"]["rotation"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        with pytest.raises(SceneParseError, match=re.escape(
                "scene.cameras[1].pose: missing field 'rotation'")):
            load_scene(p)

    @pytest.mark.parametrize("model,field,value", [
        ("camera", "focal_length", np.nan),
        ("camera", "focal_length", np.inf),
        ("screen", "pixel_pitch", np.inf),
        ("eye", "cornea_offset", np.inf)])
    def test_models_built_in_code_check_values(self, scene, model, field,
                                               value):
        obj = {"camera": scene.cameras[0], "screen": scene.screen,
               "eye": scene.eye}[model]
        with pytest.raises(InvariantViolation, match=f"{model}: {field}"):
            replace(obj, **{field: value})

    def test_parse_error_has_line_info(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"screen": }')
        with pytest.raises(SceneParseError, match="line 1"):
            load_scene(p)
