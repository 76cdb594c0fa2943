"""Forward deflectometry simulator.

Traces every camera pixel through the specular eye reflection onto the
screen plane, yielding ground-truth screen-camera correspondences and
pattern intensity frames. Intensities are pure pattern samples: no ray
differentials, blur, or Fresnel falloff, since both estimation methods
consume correspondences rather than radiometry.

The trace works on compact hits: :func:`scene.eye_surface_hits` keeps
only the rays that hit the eye, :func:`screen_hits` reflects those onto
the screen, and each result is written into the map once. The fit's loss
traces with the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .geometry import reflect
from .scene import (EyeModel, SceneConfig, ScreenModel, SurfaceHits,
                    eye_surface_hit_batch, eye_surface_hits)

BACKGROUND_INTENSITY = 0.02  # near-dark surround, as in real captures
# crossed fringe: each cosine's amplitude and the common bias, which span
# the panel's [0, 1] intensity range
FRINGE_AMPLITUDE = 0.25
FRINGE_BIAS = 0.5
# rays per block of render_correspondence: a block's temporaries take about
# 0.3 kB per ray, and much smaller blocks lose time to per-call overhead
BLOCK_RAYS = 16384


@dataclass(frozen=True)
class CrossedFringe:
    """Two superposed orthogonal cosines encoding both screen axes at once:
    ``FRINGE_BIAS + FRINGE_AMPLITUDE (cos(2 pi u / period_x)
    + cos(2 pi v / period_y))``."""

    period_x: float
    period_y: float

    def __post_init__(self):
        if not (4 <= self.period_x < np.inf and 4 <= self.period_y < np.inf):
            raise InvariantViolation("pattern: periods >= 4 px and finite")


@dataclass(frozen=True)
class PhaseShiftSet:
    """N-step phase-shifted sinusoid along one screen axis."""

    period: float
    n_shifts: int
    direction: str

    def __post_init__(self):
        if not 4 <= self.period < np.inf:
            raise InvariantViolation("pattern: periods >= 4 px and finite")
        if self.n_shifts < 3:
            raise InvariantViolation("pattern: n_shifts >= 3")
        if self.direction not in ("x", "y"):
            raise InvariantViolation("pattern: direction must be 'x' or 'y'")


PatternSpec = CrossedFringe | PhaseShiftSet


def pattern_value(pattern: PatternSpec, u, v, shift_index: int):
    """Screen intensity at (sub)pixel position (u, v). Vectorized."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if isinstance(pattern, CrossedFringe):
        return (FRINGE_BIAS
                + FRINGE_AMPLITUDE * np.cos(2.0 * np.pi * u / pattern.period_x)
                + FRINGE_AMPLITUDE * np.cos(2.0 * np.pi * v / pattern.period_y))
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


def check_camera_map(scene: SceneConfig, cam_index: int,
                     corr: CorrespondenceMap) -> None:
    """Raise InvariantViolation unless ``corr``'s channels and mask all
    have camera ``cam_index``'s (H, W) shape."""
    w, h = scene.cameras[cam_index].resolution
    for name in ("u", "v", "valid"):
        shape = getattr(corr, name).shape
        if shape != (h, w):
            raise InvariantViolation(
                f"camera {cam_index}: correspondence map {name} has shape "
                f"{shape}, the camera's (H, W) is {(h, w)}")


def pixel_footprint(scene: SceneConfig,
                    cam_index: int) -> tuple[float, float]:
    """Size of one pixel of camera ``cam_index`` at the eye: mm at the
    sclera center's distance, and the degrees they span on the cornea."""
    cam, eye = scene.cameras[cam_index], scene.eye
    mm = float(np.linalg.norm(cam.center - eye.sclera_center)
               / cam.focal_length)
    return mm, float(np.degrees(mm / eye.cornea_radius))


def _grid_rays(scene: SceneConfig, cam_index: int,
               stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Origin and (H, W, 3) ray grid of every ``stride``-th pixel of camera
    ``cam_index``.

    Raises:
        InvariantViolation: ``stride`` below 1.
    """
    if stride < 1:
        raise InvariantViolation(f"render: stride {stride} < 1")
    origin, dirs = scene.cameras[cam_index].pixel_rays()
    return origin, dirs[::stride, ::stride]


def _surface_hits(eye: EyeModel, origin: np.ndarray, dirs: np.ndarray,
                  surface) -> SurfaceHits:
    """:func:`eye_surface_hits` of rays ``dirs`` (N, 3), or the hits of a
    ``surface`` hook (see :func:`render_correspondence`), compacted."""
    if surface is None:
        return eye_surface_hits(eye, origin, dirs)
    points, normals, region, hit = surface(origin, dirs)
    index = np.flatnonzero(hit)
    return SurfaceHits(index, points.reshape(-1, 3)[index],
                       normals.reshape(-1, 3)[index], region.ravel()[index])


def screen_hits(
    screen: ScreenModel, dirs: np.ndarray, points: np.ndarray,
    normals: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Screen coordinates (u, v) of rays ``dirs`` (n, 3) reflected at their
    eye hits ``points`` with unit ``normals``, and ``ok``: False where the
    reflected ray is parallel to or points away from the screen plane, or
    meets it off the panel. (u, v) carry no meaning where ``ok`` is False.

    Each ray's values depend on that ray alone."""
    r = reflect(dirs, normals)
    p0 = screen.plane_point
    nrm = screen.plane_normal
    denom = r @ nrm
    safe = np.where(np.abs(denom) > 1e-12, denom, 1.0)
    t = ((p0 - points) @ nrm) / safe
    ok = (np.abs(denom) > 1e-12) & (t > 1e-9)

    q = points + t[:, None] * r
    u, v = screen.world_to_uv(q)
    w_s, h_s = screen.resolution
    ok &= (u >= 0) & (u < w_s) & (v >= 0) & (v < h_s)
    return u, v, ok


def render_correspondence(
    scene: SceneConfig, cam_index: int, surface=None, stride: int = 1
) -> CorrespondenceMap:
    """Trace each ``stride``-th camera pixel to its screen correspondence.

    For every pixel: camera ray, eye hit, specular reflection, intersection
    of the reflected ray with the screen plane, conversion to screen pixels.
    A pixel is invalid iff the ray misses the eye, the reflected ray is
    parallel to or points away from the screen plane, or the screen point
    falls outside the panel.

    The rays run in blocks of about ``BLOCK_RAYS``, and only the hits of a
    block are reflected and written to the map, so the temporaries stay
    small next to the map itself.

    ``surface`` optionally replaces the eye-surface hit function (signature
    ``surface(origin, dirs (N, 3)) -> (points, normals, region, hit)``, NaN
    points and normals where ``hit`` is False); used by tests with analytic
    reference surfaces.

    Raises:
        InvariantViolation: ``stride`` below 1.
    """
    origin, grid = _grid_rays(scene, cam_index, stride)
    h, w = grid.shape[:2]
    u = np.full(h * w, np.nan)
    v = np.full(h * w, np.nan)
    valid = np.zeros(h * w, dtype=bool)
    rows = max(1, BLOCK_RAYS // w)
    for y0 in range(0, h, rows):
        dirs = grid[y0:y0 + rows].reshape(-1, 3)
        hits = _surface_hits(scene.eye, origin, dirs, surface)
        uu, vv, ok = screen_hits(scene.screen, dirs[hits.index], hits.points,
                                 hits.normals)
        at = y0 * w + hits.index[ok]
        u[at] = uu[ok]
        v[at] = vv[ok]
        valid[at] = True
    return CorrespondenceMap(u=u.reshape(h, w), v=v.reshape(h, w),
                             valid=valid.reshape(h, w))


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

    # clearance to the cap-edge circle, evaluated at the ray's closest
    # approach to the circle's center: smooth in the eye parameters, but not
    # the ray's distance to the circle, and not 0 where the hit crosses the
    # circle. For an oblique ray they differ: one whose cornea hit lay about
    # 2e-6 mm from the circle reads 0.42 here.
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

    Raises:
        InvariantViolation: ``stride`` below 1.
    """
    origin, grid = _grid_rays(scene, cam_index, stride)
    dirs = grid.reshape(-1, 3)
    points = eye_surface_hit_batch(scene.eye, origin, dirs)[0]
    sil, aper, cap_edge = ray_margins(scene.eye, origin, dirs, points)
    shape = grid.shape[:-1]
    return {"silhouette": sil.reshape(shape),
            "aperture": aper.reshape(shape),
            "cap_edge": cap_edge.reshape(shape)}


def render_frame(
    scene: SceneConfig,
    cam_index: int,
    pattern: PatternSpec,
    shift_index: int = 0,
    *,
    sigma_i: float,
    seed: int | tuple[int, ...],
    correspondence: CorrespondenceMap,
) -> np.ndarray:
    """Render the camera image of the reflected screen pattern: an (H, W)
    intensity array in [0, 1].

    Valid pixels of camera ``cam_index``'s ``correspondence`` map sample
    the pattern at their correspondence; invalid pixels get the dark
    background, and ``scene`` is not read. Additive Gaussian intensity
    noise (std ``sigma_i``) is clamped to [0, 1] and deterministic per
    seed; a tuple seed is the entropy of one ``np.random.SeedSequence``.

    Raises:
        ValueError: ``sigma_i`` is negative, NaN or infinite.
    """
    if not 0 <= sigma_i < np.inf:
        raise ValueError(f"sigma_i must be finite and >= 0, got {sigma_i}")
    corr = correspondence
    img = np.full(corr.u.shape, BACKGROUND_INTENSITY)
    m = corr.valid
    img[m] = pattern_value(pattern, corr.u[m], corr.v[m], shift_index)
    if sigma_i > 0.0:
        rng = np.random.default_rng(seed)
        img = np.clip(img + rng.normal(0.0, sigma_i, img.shape), 0.0, 1.0)
    return img


def add_correspondence_noise(
    corr: CorrespondenceMap,
    sigma_c: float,
    seed: int,
    screen_resolution: tuple[int, int],
) -> CorrespondenceMap:
    """Add i.i.d. Gaussian noise (std ``sigma_c`` screen px) to the valid
    correspondences; validity is unchanged and the result is deterministic
    per seed. Noisy coordinates are clipped to the panel of
    ``screen_resolution`` (W_s, H_s), so valid pixels keep
    ``0 <= u < W_s`` and ``0 <= v < H_s``."""
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
    w_s, h_s = screen_resolution
    out.u[m] = np.clip(out.u[m], 0.0, np.nextafter(float(w_s), 0.0))
    out.v[m] = np.clip(out.v[m], 0.0, np.nextafter(float(h_s), 0.0))
    return out
