"""Calibrated measurement scene: two-sphere eye, pinhole cameras, screen.

The scene is the forward model both estimation methods share. Geometry is
read from config files (JSON), never estimated. World frame: +y up, the
default eye looks along +z, cameras and screen sit on the +z side.

:func:`eye_surface_hits` is the one eye hit test. It returns only the
rays that hit, so the render and the fit's loss never fill arrays for the
rays that miss; :func:`eye_surface_hit_batch` scatters its hits back into
the layout of the rays for callers that want full arrays.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import InvariantViolation, SceneParseError
from .geometry import RigidPose, ray_sphere_roots, rotation_about_axis, unit

WORLD_UP = np.array([0.0, 1.0, 0.0])

CORNEA = 0
SCLERA = 1


@dataclass(frozen=True)
class EyeModel:
    """Two-sphere specular eye: a scleral sphere whose front cap is replaced
    by a protruding corneal cap of smaller radius.

    ``cornea_offset`` is the distance from the sclera center to the cornea
    sphere center along the optical axis; ``cornea_aperture`` is the
    half-angle (degrees) of the corneal cap measured at the cornea center
    about the optical axis.
    """

    sclera_center: np.ndarray
    optical_axis: np.ndarray
    sclera_radius: float
    cornea_radius: float
    cornea_offset: float
    cornea_aperture: float

    def __post_init__(self):
        for name in ("sclera_center", "optical_axis"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise InvariantViolation(f"eye: {name} must have shape (3,)")
            object.__setattr__(self, name, v)
        if not np.all(np.isfinite(self.sclera_center)):
            raise InvariantViolation("eye: sclera_center must be finite")
        geometry.check_unit(self.optical_axis, "eye: optical_axis")
        _check_scalars(self, "eye", "sclera_radius", "cornea_radius",
                       "cornea_offset", "cornea_aperture")
        if self.sclera_radius <= 0 or self.cornea_radius <= 0:
            raise InvariantViolation("eye: radii must be positive")
        if not self.cornea_radius < self.sclera_radius:
            raise InvariantViolation("eye: cornea_radius < sclera_radius")
        if not 0 < self.cornea_offset < np.inf:
            raise InvariantViolation("eye: cornea_offset finite and > 0")
        if not self.cornea_offset + self.cornea_radius > self.sclera_radius:
            raise InvariantViolation(
                "eye: cornea_offset + cornea_radius > sclera_radius"
            )
        if not 0.0 < self.cornea_aperture < 90.0:
            raise InvariantViolation("eye: 0 < cornea_aperture < 90")

    @property
    def cornea_center(self) -> np.ndarray:
        return self.sclera_center + self.cornea_offset * self.optical_axis


def _check_scalars(obj, model: str, *names: str) -> None:
    """Raise unless each named field of ``obj`` is a scalar, so that the
    range checks compare one value."""
    for name in names:
        v = getattr(obj, name)
        # a float needs no np.ndim, which costs a microsecond per call
        if not isinstance(v, float) and np.ndim(v) != 0:
            raise InvariantViolation(f"{model}: {name} must be a scalar")


def _pixel_counts(resolution, least: int, model: str) -> tuple[int, int]:
    """``resolution`` as two integral pixel counts, each at least ``least``."""
    r = np.asarray(resolution, dtype=float)
    if r.shape != (2,) or not (np.isfinite(r) & (r >= least)
                               & (r == np.round(r))).all():
        raise InvariantViolation(f"{model}: resolution must be two integers "
                                 f">= {least}")
    return int(r[0]), int(r[1])


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera. ``pose`` maps camera to world; camera looks along its
    local +z with pixel x right and pixel y down."""

    pose: RigidPose
    focal_length: float
    principal_point: tuple[float, float]
    resolution: tuple[int, int]

    def __post_init__(self):
        _check_scalars(self, "camera", "focal_length")
        if not 0 < self.focal_length < np.inf:
            raise InvariantViolation("camera: focal_length finite and > 0")
        pp = np.asarray(self.principal_point, dtype=float)
        if pp.shape != (2,) or not np.isfinite(pp).all():
            raise InvariantViolation("camera: principal_point must be two "
                                     "finite values")
        object.__setattr__(self, "principal_point", (float(pp[0]),
                                                     float(pp[1])))
        object.__setattr__(self, "resolution",
                           _pixel_counts(self.resolution, 16, "camera"))

    @property
    def center(self) -> np.ndarray:
        return self.pose.translation

    def pixel_rays(self) -> tuple[np.ndarray, np.ndarray]:
        """World-space unit ray directions through all pixel centers.

        Returns (origin (3,), dirs (H, W, 3)), rows indexed by pixel y.
        The grid is cached on the instance (pose and intrinsics are frozen).
        """
        cached = getattr(self, "_ray_cache", None)
        if cached is not None:
            return cached
        w, h = self.resolution
        cx, cy = self.principal_point
        ix, iy = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        d = np.stack(
            [(ix - cx) / self.focal_length, (iy - cy) / self.focal_length,
             np.ones_like(ix)],
            axis=-1,
        )
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        out = (self.pose.translation, d @ self.pose.rotation.T)
        object.__setattr__(self, "_ray_cache", out)
        return out

    def pixel_ray(self, px: float, py: float) -> np.ndarray:
        """World-space unit direction of the ray from ``center`` through
        the (sub-)pixel position (px, py)."""
        cx, cy = self.principal_point
        d = np.array([(px - cx) / self.focal_length,
                      (py - cy) / self.focal_length, 1.0])
        return unit(self.pose.rotation @ d)


@dataclass(frozen=True)
class ScreenModel:
    """Planar screen. Local frame: pixels in x/y, plane z = 0; local origin
    at the center of screen pixel (0, 0)."""

    pose: RigidPose
    resolution: tuple[int, int]
    pixel_pitch: float

    def __post_init__(self):
        object.__setattr__(self, "resolution",
                           _pixel_counts(self.resolution, 1, "screen"))
        _check_scalars(self, "screen", "pixel_pitch")
        if not 0 < self.pixel_pitch < np.inf:
            raise InvariantViolation("screen: pixel_pitch finite and > 0")

    @property
    def plane_point(self) -> np.ndarray:
        return self.pose.translation

    @property
    def plane_normal(self) -> np.ndarray:
        return self.pose.rotation[:, 2]

    def uv_to_world(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        local = np.stack(
            [np.asarray(u, dtype=float) * self.pixel_pitch,
             np.asarray(v, dtype=float) * self.pixel_pitch,
             np.zeros_like(np.asarray(u, dtype=float))],
            axis=-1,
        )
        return self.pose.transform_points(local)

    def world_to_uv(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        local = self.pose.inverse_points(pts)
        return local[..., 0] / self.pixel_pitch, local[..., 1] / self.pixel_pitch


@dataclass(frozen=True)
class SceneConfig:
    """Complete calibrated scene. Immutable after load; safe to share."""

    screen: ScreenModel
    cameras: tuple[CameraModel, ...]
    eye: EyeModel

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))
        if not 1 <= len(self.cameras) <= 2:
            raise InvariantViolation("scene: 1 <= number of cameras <= 2")


class SurfaceHits(NamedTuple):
    """The rays of a batch that hit the eye surface: their flat indices
    into the batch, ascending, their hit points and unit normals, (n, 3)
    each, and their regions (``CORNEA`` or ``SCLERA``), (n,)."""

    index: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    region: np.ndarray


def eye_surface_hits(
    eye: EyeModel, origin: np.ndarray, dirs: np.ndarray
) -> SurfaceHits:
    """Nearest hits of shared-origin rays ``dirs`` (N, 3) with the composite
    eye surface, for the rays that hit it.

    A cornea-sphere point belongs to the surface iff the angle at the cornea
    center between (point - cornea_center) and the optical axis is at most
    the aperture; a sclera-sphere point belongs iff that same test exceeds
    the aperture (the corneal cap replaces the scleral cap).

    Each ray's values depend on that ray alone, so any subset of a batch
    gets the rows the whole batch would give it.
    """
    cc = eye.cornea_center
    sc = eye.sclera_center
    cos_ap = np.cos(np.radians(eye.cornea_aperture))

    # Bounding-sphere prefilter: both spheres fit inside a ball about the
    # sclera center of radius max(R_s, d_c + R_c).
    bound = max(eye.sclera_radius, eye.cornea_offset + eye.cornea_radius)
    oc = origin - sc
    proj = dirs @ oc
    near = np.flatnonzero(oc @ oc - proj * proj <= bound * bound)
    sub = dirs[near]

    t_cand = np.empty((4, len(sub)))
    t_cand[0], t_cand[1] = ray_sphere_roots(origin, sub, cc, eye.cornea_radius)
    t_cand[2], t_cand[3] = ray_sphere_roots(origin, sub, sc, eye.sclera_radius)

    # Membership test along each ray without materializing candidate
    # points: with rel(t) = (o - cc) + t d,
    #   rel . axis = a0 + t (d . axis),   |rel|^2 = b0 + 2 t (d . occ) + t^2
    occ = origin - cc
    a0 = occ @ eye.optical_axis
    b0 = occ @ occ
    d_axis = sub @ eye.optical_axis
    d_occ = sub @ occ
    dot_axis = a0 + t_cand * d_axis
    with np.errstate(invalid="ignore"):
        member = np.empty_like(t_cand, dtype=bool)
        # cornea candidates lie on the cornea sphere: |rel| = R_c
        member[:2] = dot_axis[:2] >= cos_ap * eye.cornea_radius
        rel_norm = np.sqrt(b0 + t_cand[2:] * (2.0 * d_occ + t_cand[2:]))
        member[2:] = dot_axis[2:] < cos_ap * rel_norm
        usable = member & np.isfinite(t_cand) & (t_cand > geometry.EPS_GEOM)
    t_masked = np.where(usable, t_cand, np.inf)
    best_t = np.min(t_masked, axis=0)
    hit = np.isfinite(best_t)
    is_c = np.argmin(t_masked[:, hit], axis=0) < 2

    p = origin + best_t[hit, None] * sub[hit]
    nrm = np.where(is_c[:, None], (p - cc) / eye.cornea_radius,
                   (p - sc) / eye.sclera_radius)
    return SurfaceHits(near[hit], p, nrm,
                       np.where(is_c, CORNEA, SCLERA).astype(np.int8))


def eye_surface_hit_batch(
    eye: EyeModel, origin: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`eye_surface_hits` of rays ``dirs`` (..., 3), scattered back to
    the batch's layout.

    Returns (points (..., 3), normals (..., 3), region (...), hit (...));
    points and normals are NaN and region is -1 where ``hit`` is False.
    """
    dirs = np.asarray(dirs, dtype=float)
    shape = dirs.shape[:-1]
    hits = eye_surface_hits(eye, origin, dirs.reshape(-1, 3))
    n = dirs.size // 3
    points = np.full((n, 3), np.nan)
    normals = np.full((n, 3), np.nan)
    region = np.full(n, -1, dtype=np.int8)
    hit = np.zeros(n, dtype=bool)
    points[hits.index] = hits.points
    normals[hits.index] = hits.normals
    region[hits.index] = hits.region
    hit[hits.index] = True
    return (points.reshape(*shape, 3), normals.reshape(*shape, 3),
            region.reshape(shape), hit.reshape(shape))


def rotate_eye(
    eye: EyeModel, azimuth: float, elevation: float, up: np.ndarray = WORLD_UP
) -> EyeModel:
    """Rotate the optical axis about the fixed pivot ``sclera_center``.

    Azimuth turns about ``up``; elevation then turns about the rotated right
    axis, positive elevation tilting the axis toward ``up``. Radii, offsets,
    and the sclera center are unchanged.
    """
    return replace(eye, optical_axis=_rotated_axis(eye.optical_axis, azimuth,
                                                   elevation, up))


def _rotated_axis(axis: np.ndarray, azimuth: float, elevation: float,
                  up: np.ndarray = WORLD_UP) -> np.ndarray:
    """``axis`` turned as :func:`rotate_eye` turns the optical axis."""
    up = unit(up)
    r_az = rotation_about_axis(up, azimuth)
    if elevation != 0.0:
        right = np.cross(up, axis)
        if np.linalg.norm(right) < geometry.EPS_GEOM:
            raise InvariantViolation("eye: optical_axis parallel to up axis")
        right = r_az @ unit(right)
        rot = rotation_about_axis(right, -elevation) @ r_az
    else:
        rot = r_az
    return unit(rot @ axis)


# ---------------------------------------------------------------------------
# Configuration I/O. JSON, all lengths mm, all angles degrees. An object holds
# exactly its dataclass's fields, so typos fail loudly; the parser only makes
# floats and float arrays from JSON numbers and lists of them, and the models
# check every value.

# Fields that hold a model; ``cameras`` holds a non-empty list of them.
_NESTED = {"pose": RigidPose, "screen": ScreenModel, "eye": EyeModel,
           "cameras": CameraModel}


def _leaves(value):
    """The values inside the JSON value ``value`` that are not lists."""
    if isinstance(value, list):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _parse(cls, obj, path: str):
    """``cls`` built from the JSON value ``obj`` found at ``path``."""
    if not isinstance(obj, dict):
        raise SceneParseError(f"{path}: expected an object")
    names = {f.name for f in fields(cls)}
    for problem, keys in (("unknown", set(obj) - names),
                          ("missing", names - set(obj))):
        if keys:
            raise SceneParseError(f"{path}: {problem} field '{min(keys)}'")
    kw = {}
    for name, value in obj.items():
        sub = f"{path}.{name}"
        if name not in _NESTED:
            # numpy would read "170" and true as numbers, and null as NaN
            bad = [v for v in _leaves(value)
                   if isinstance(v, bool) or not isinstance(v, (int, float))]
            if bad:
                raise SceneParseError(f"{sub}: expected numbers, got "
                                      f"{json.dumps(bad[0])}")
            try:
                a = np.array(value, dtype=float)
            except (ValueError, OverflowError) as e:  # ragged, or a huge int
                raise SceneParseError(f"{sub}: {e}") from e
            if not np.isfinite(a).all():
                raise SceneParseError(f"{sub}: expected finite numbers")
            kw[name] = float(a) if a.ndim == 0 else a
        elif name != "cameras":
            kw[name] = _parse(_NESTED[name], value, sub)
        elif isinstance(value, list) and value:
            kw[name] = tuple(_parse(_NESTED[name], c, f"{sub}[{i}]")
                             for i, c in enumerate(value))
        else:
            raise SceneParseError(f"{sub}: expected a non-empty list")
    return cls(**kw)


def scene_from_dict(d: dict) -> SceneConfig:
    return _parse(SceneConfig, d, "scene")


def load_scene(path) -> SceneConfig:
    """Load and validate a scene config. Raises SceneParseError with
    line/field diagnostics, or InvariantViolation naming the violated
    invariant."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneParseError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    return scene_from_dict(d)


def _shipped_scene(name: str) -> SceneConfig:
    res = importlib.resources.files("deflect_gaze").joinpath(f"data/{name}")
    with importlib.resources.as_file(res) as p:
        return load_scene(p)


def default_scene() -> SceneConfig:
    """Load the default scene shipped with the package.

    VR-headset scale: a 120x68 mm panel (600x340 px at 0.2 mm pitch) 35 mm
    from the eye, tilted 30 degrees off the gaze axis, and two 128x128 px
    cameras about 50 mm away with a 15 degree stereo baseline.
    """
    return _shipped_scene("default_scene.json")


def decode_scene() -> SceneConfig:
    """Load the fringe-decoding scene shipped with the package.

    The default layout with 448x448 px cameras and a 60x34 mm panel (300x170
    px), which keeps the reflected-fringe magnification flat. Single-shot
    wavelet decoding needs several well-sampled, slowly chirping fringe
    periods across the eye; at 128 px the local fringe frequency changes by
    over 100% per period, so the decode path runs at 448 px.
    """
    return _shipped_scene("decode_scene.json")
