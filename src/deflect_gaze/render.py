"""Forward deflectometry simulator.

Traces every camera pixel through the specular eye reflection onto the
screen plane, yielding ground-truth screen-camera correspondences and
pattern intensity frames. Intensities are pure pattern samples: no ray
differentials, blur, or Fresnel falloff, since both estimation methods
consume correspondences rather than radiometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .geometry import reflect
from .scene import EyeModel, SceneConfig, ScreenModel, eye_surface_hit_batch

BACKGROUND_INTENSITY = 0.02  # near-dark surround, as in real captures


@dataclass(frozen=True)
class CrossedFringe:
    """Two superposed orthogonal cosines encoding both screen axes at once:
    ``bias + amp_x cos(2 pi u / period_x) + amp_y cos(2 pi v / period_y)``."""

    period_x: float
    period_y: float
    amp_x: float = 0.25
    amp_y: float = 0.25
    bias: float = 0.5

    def __post_init__(self):
        if not (4 <= self.period_x < np.inf and 4 <= self.period_y < np.inf):
            raise InvariantViolation("pattern: periods >= 4 px and finite")
        if not (0 <= self.amp_x <= 0.25 and 0 <= self.amp_y <= 0.25):
            raise InvariantViolation("pattern: amplitudes in [0, 0.25]")
        if not (0 <= self.bias and self.bias + self.amp_x + self.amp_y <= 1.0):
            raise InvariantViolation("pattern: bias >= 0 and "
                                     "bias + amp_x + amp_y <= 1")


@dataclass(frozen=True)
class PhaseShiftSet:
    """N-step phase-shifted sinusoid along one screen axis."""

    period: float
    n_shifts: int = 4
    direction: str = "x"

    def __post_init__(self):
        if not 4 <= self.period < np.inf:
            raise InvariantViolation("pattern: periods >= 4 px and finite")
        if self.n_shifts < 3:
            raise InvariantViolation("pattern: n_shifts >= 3")
        if self.direction not in ("x", "y"):
            raise InvariantViolation("pattern: direction must be 'x' or 'y'")


PatternSpec = CrossedFringe | PhaseShiftSet


def pattern_value(pattern: PatternSpec, u, v, shift_index: int = 0):
    """Screen intensity at (sub)pixel position (u, v). Vectorized."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(pattern, CrossedFringe):
        return (pattern.bias
                + pattern.amp_x * np.cos(2.0 * np.pi * u / pattern.period_x)
                + pattern.amp_y * np.cos(2.0 * np.pi * v / pattern.period_y))
    if isinstance(pattern, PhaseShiftSet):
        if not 0 <= shift_index < pattern.n_shifts:
            raise ValueError("shift_index out of range")
        coord = u if pattern.direction == "x" else v
        phase = (2.0 * np.pi * coord / pattern.period
                 + 2.0 * np.pi * shift_index / pattern.n_shifts)
        return 0.5 + 0.4 * np.cos(phase)
    raise TypeError(f"unknown pattern type {type(pattern)!r}")


@dataclass
class CorrespondenceMap:
    """Per-camera-pixel screen coordinates (u, v) plus a validity mask.

    Invalid pixels carry NaN; valid pixels satisfy 0 <= u < W_s,
    0 <= v < H_s.
    """

    u: np.ndarray
    v: np.ndarray
    valid: np.ndarray

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    def copy(self) -> "CorrespondenceMap":
        return CorrespondenceMap(self.u.copy(), self.v.copy(), self.valid.copy())


@dataclass
class Frame:
    """Intensity image in [0, 1]."""

    intensity: np.ndarray


class RayTrace(NamedTuple):
    """One camera's pixel rays and their eye-surface hits.

    ``dirs`` keeps the (H, W, 3) pixel layout of the (strided) grid;
    ``points`` and ``normals`` are NaN where ``hit`` is False.
    """

    origin: np.ndarray
    dirs: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    hit: np.ndarray


def trace_rays(
    scene: SceneConfig, cam_index: int, surface=None, stride: int = 1
) -> RayTrace:
    """Hit test of every ``stride``-th camera pixel ray with the eye;
    ``surface`` as in :func:`render_correspondence`.

    Raises:
        InvariantViolation: ``stride`` below 1.
    """
    if stride < 1:
        raise InvariantViolation(f"render: stride {stride} < 1")
    origin, dirs = scene.cameras[cam_index].pixel_rays()
    dirs = dirs[::stride, ::stride]
    if surface is None:
        points, normals, _, hit = eye_surface_hit_batch(scene.eye, origin, dirs)
    else:
        points, normals, _, hit = surface(origin, dirs)
    return RayTrace(origin, dirs, points, normals, hit)


def screen_correspondence(screen: ScreenModel,
                          tr: RayTrace) -> CorrespondenceMap:
    """Screen correspondences of a ray trace: the reflection half of
    :func:`render_correspondence`."""
    hit = tr.hit
    shape = hit.shape
    u = np.full(shape, np.nan)
    v = np.full(shape, np.nan)
    valid = np.zeros(shape, dtype=bool)
    if np.any(hit):
        d_h = tr.dirs[hit]
        p_h = tr.points[hit]
        r = reflect(d_h, tr.normals[hit])
        p0 = screen.plane_point
        nrm = screen.plane_normal
        denom = r @ nrm
        safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
        t = ((p0 - p_h) @ nrm) / safe
        ok = (np.abs(denom) > 1e-12) & (t > 1e-9)

        q = p_h + t[:, None] * r
        uu, vv = screen.world_to_uv(q)
        w_s, h_s = screen.resolution
        ok &= (uu >= 0) & (uu < w_s) & (vv >= 0) & (vv < h_s)
        u[hit] = np.where(ok, uu, np.nan)
        v[hit] = np.where(ok, vv, np.nan)
        valid[hit] = ok
    return CorrespondenceMap(u=u, v=v, valid=valid)


def render_correspondence(
    scene: SceneConfig, cam_index: int, surface=None, stride: int = 1
) -> CorrespondenceMap:
    """Trace each camera pixel to its screen correspondence.

    For every pixel: camera ray, eye hit, specular reflection, intersection
    of the reflected ray with the screen plane, conversion to screen pixels.
    A pixel is invalid iff the ray misses the eye, the reflected ray is
    parallel to or points away from the screen plane, or the screen point
    falls outside the panel.

    ``surface`` optionally replaces the eye-surface hit function (signature
    ``surface(origin, dirs) -> (points, normals, region, hit)``); used by
    tests with analytic reference surfaces.
    """
    return screen_correspondence(
        scene.screen, trace_rays(scene, cam_index, surface, stride))


def ray_margins(
    eye: EyeModel, origin: np.ndarray, dirs: np.ndarray, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Silhouette, aperture and cap-edge margins (see
    :func:`render_margins`) of rays ``dirs`` (N, 3) from ``origin`` with
    eye hits ``points`` (N, 3), NaN at misses.

    Every margin of a ray depends on that ray alone, so any subset of a
    trace's rays gets the values the whole trace would give it.
    """

    def perp_margin(center, radius):
        oc = origin - center
        proj = dirs @ oc
        d2 = oc @ oc - proj * proj
        return radius - np.sqrt(np.maximum(d2, 0.0))

    sil = np.maximum(perp_margin(eye.cornea_center, eye.cornea_radius),
                     perp_margin(eye.sclera_center, eye.sclera_radius))

    rel = points - eye.cornea_center
    with np.errstate(invalid="ignore"):
        norm = np.linalg.norm(rel, axis=1)
        cosang = np.where(norm > 0, (rel @ eye.optical_axis)
                          / np.maximum(norm, 1e-12), np.nan)
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    aper = ang - eye.cornea_aperture

    # clearance to the cap-edge circle (evaluated at the ray's closest
    # approach to the circle center; exact at zero crossing, smooth in the
    # eye parameters)
    ap_rad = np.radians(eye.cornea_aperture)
    circle_center = eye.cornea_center \
        + eye.cornea_radius * np.cos(ap_rad) * eye.optical_axis
    circle_radius = eye.cornea_radius * np.sin(ap_rad)
    to_c = circle_center - origin
    t_star = dirs @ to_c
    p_star = origin + t_star[:, None] * dirs
    v = p_star - circle_center
    h = v @ eye.optical_axis
    rho = np.linalg.norm(v - h[:, None] * eye.optical_axis, axis=1)
    cap_edge = np.hypot(rho - circle_radius, h)
    return sil, aper, cap_edge


def render_margins(scene: SceneConfig, cam_index: int, stride: int = 1) -> dict:
    """Continuous per-pixel margins of the current eye configuration.

    Unlike the binary validity mask these vary smoothly with the eye
    parameters, which the inverse-rendering loss needs for smooth boundary
    weights:

    - ``silhouette``: mm of clearance between the ray and the eye outline
      (positive inside), the largest over both spheres of radius minus
      perpendicular ray distance to the center.
    - ``aperture``: degrees between the hit direction at the cornea center
      and the cap boundary (signed; NaN at misses). Zero on the
      cornea/sclera seam.
    - ``cap_edge``: mm of clearance between the ray and the corneal cap
      edge circle. Rays grazing that circle jump between the cap flank and
      the sclera it occludes, so the correspondence is discontinuous there.
    """
    tr = trace_rays(scene, cam_index, stride=stride)
    sil, aper, cap_edge = ray_margins(scene.eye, tr.origin,
                                      tr.dirs.reshape(-1, 3),
                                      tr.points.reshape(-1, 3))
    shape = tr.hit.shape
    return {"silhouette": sil.reshape(shape),
            "aperture": aper.reshape(shape),
            "cap_edge": cap_edge.reshape(shape)}


def render_frame(
    scene: SceneConfig,
    cam_index: int,
    pattern: PatternSpec,
    shift_index: int = 0,
    sigma_i: float = 0.0,
    seed: int = 0,
    correspondence: CorrespondenceMap | None = None,
) -> Frame:
    """Render the camera image of the reflected screen pattern.

    Valid pixels sample the pattern at their correspondence; invalid pixels
    get the dark background. Additive Gaussian intensity noise (std
    ``sigma_i``) is clamped to [0, 1] and deterministic per seed. Passing a
    precomputed ``correspondence`` skips the ray trace.

    Raises:
        ValueError: ``sigma_i`` is negative, NaN or infinite.
    """
    if not 0 <= sigma_i < np.inf:
        raise ValueError(f"sigma_i must be finite and >= 0, got {sigma_i}")
    corr = correspondence
    if corr is None:
        corr = render_correspondence(scene, cam_index)
    img = np.full(corr.u.shape, BACKGROUND_INTENSITY)
    m = corr.valid
    img[m] = pattern_value(pattern, corr.u[m], corr.v[m], shift_index)
    if sigma_i > 0.0:
        rng = np.random.default_rng(seed)
        img = np.clip(img + rng.normal(0.0, sigma_i, img.shape), 0.0, 1.0)
    return Frame(intensity=img)


def add_correspondence_noise(
    corr: CorrespondenceMap,
    sigma_c: float,
    seed: int = 0,
    screen_resolution: tuple[int, int] | None = None,
) -> CorrespondenceMap:
    """Add i.i.d. Gaussian noise (std ``sigma_c`` screen px) to the valid
    correspondences; validity is unchanged and the result is deterministic
    per seed. When ``screen_resolution`` is given, noisy coordinates are
    clipped to the panel so the map invariants keep holding at the edges."""
    if not 0 <= sigma_c < np.inf:
        raise ValueError(f"sigma_c must be finite and >= 0, got {sigma_c}")
    if sigma_c == 0.0:
        return corr.copy()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma_c, size=(2,) + corr.u.shape)
    out = corr.copy()
    m = corr.valid
    out.u[m] = corr.u[m] + noise[0][m]
    out.v[m] = corr.v[m] + noise[1][m]
    if screen_resolution is not None:
        w_s, h_s = screen_resolution
        out.u[m] = np.clip(out.u[m], 0.0, np.nextafter(float(w_s), 0.0))
        out.v[m] = np.clip(out.v[m], 0.0, np.nextafter(float(h_s), 0.0))
    return out
