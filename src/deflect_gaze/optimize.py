"""Inverse rendering of eye pose and shape from measured correspondences.

A simulated eye is adjusted until the correspondences its renders produce
match the measured ones; the fitted eye's optical axis is the gaze
estimate. The loss is evaluated on correspondences (the information
bearing channel). A Levenberg-Marquardt loop minimizes it on one residual
pair ``(du, dv)`` per pixel with a positive loss weight, whose half
squared norm is the loss less its validity-mismatch penalty, projecting
every trial onto the valid parameter box. Each evaluation traces every
camera's loss-grid rays once and works on the rays that hit the eye. The
Jacobian is exact: one forward-mode tangent pass through the eye
geometry, the ray hits, the reflection onto the screen, the boundary
weight ramps and the saturating residual, on the hits, weights and ramps
of the evaluation that accepted the point, so it traces no ray again.

The loss's three mask operations (the 4-connected erosion and
dilation and the boundary fade's distance ramp) are numpy on shifted
slices, equal bit for bit to ``scipy.ndimage``'s. A fit loads no scipy
module: loading ``ndimage`` (about 0.25 s and 25 MB resident on a 2-CPU
Xeon) would cost a cold fit more than the fit itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (EmptyMapError, InvariantViolation, NoDescentError,
                     UnreliableLossError)
from .gaze import GazeEstimate
from .render import (CorrespondenceMap, check_camera_map, pixel_footprint,
                     ray_margins, render_correspondence, screen_hits)
from .geometry import EPS_GEOM, rotation_about_axis, unit
from .scene import (CORNEA, WORLD_UP, EyeModel, SceneConfig, ScreenModel,
                    _rotated_axis, eye_surface_hits)

PARAM_NAMES = ("azimuth", "elevation", "tx", "ty", "tz",
               "cornea_radius", "sclera_radius", "cornea_offset")
DEFAULT_ACTIVE = (True, True, True, True, True, False, False, False)

# Levenberg-Marquardt constants: initial damping and its factors after a
# rejected and an accepted trial, and the stops on relative cost decrease
# and on the trial step norm (deg or mm)
LM_LAMBDA0 = 1e-3
LM_RAISE = 10.0
LM_LOWER = 0.1
LM_FTOL = 1e-6
LM_XTOL = 1e-5

# Loss settings, stated at full resolution: the floor on jointly valid core
# pixels, the boundary guard (px) and the weight of the validity-mismatch
# fraction
N_MIN = 200
BOUNDARY_PX = 2
MISMATCH_WEIGHT = 25.0


@dataclass(frozen=True, kw_only=True)
class EyeParamVector:
    """Optimizable eye state relative to a nominal eye.

    Rotation in degrees about the nominal pivot, translation in mm of the
    sclera center from nominal, and the three shape radii/offsets in mm.
    ``active`` masks which entries the fit may move.
    """

    azimuth: float = 0.0
    elevation: float = 0.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    cornea_radius: float
    sclera_radius: float
    cornea_offset: float
    active: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float))
        if len(self.active) != len(PARAM_NAMES):
            raise ValueError("active mask must have 8 entries")
        if not any(self.active):
            raise ValueError("at least one parameter must be active")

    @classmethod
    def from_eye(cls, eye: EyeModel,
                 active: tuple[bool, ...]) -> "EyeParamVector":
        return cls(cornea_radius=eye.cornea_radius,
                   sclera_radius=eye.sclera_radius,
                   cornea_offset=eye.cornea_offset, active=active)

    def as_array(self) -> np.ndarray:
        return np.array([self.azimuth, self.elevation, *self.translation,
                         self.cornea_radius, self.sclera_radius,
                         self.cornea_offset])

    def with_array(self, x: np.ndarray) -> "EyeParamVector":
        return replace(self, azimuth=float(x[0]), elevation=float(x[1]),
                       translation=np.array(x[2:5], dtype=float),
                       cornea_radius=float(x[5]), sclera_radius=float(x[6]),
                       cornea_offset=float(x[7]))

    def materialize(self, nominal: EyeModel) -> EyeModel:
        """Concrete eye: nominal rotated and translated per this vector."""
        axis = _rotated_axis(nominal.optical_axis, self.azimuth, self.elevation)
        return replace(nominal, optical_axis=axis,
                       sclera_center=nominal.sclera_center + self.translation,
                       cornea_radius=self.cornea_radius,
                       sclera_radius=self.sclera_radius,
                       cornea_offset=self.cornea_offset)


def project_params(p: EyeParamVector) -> EyeParamVector:
    """Project onto the valid box: radii above 1 mm, cornea at least 0.5 mm
    smaller than the sclera, offset positive with a protruding apex."""
    x = p.as_array()
    x[6] = max(x[6], 1.5)
    x[5] = min(max(x[5], 1.0), x[6] - 0.5)
    x[7] = max(x[7], x[6] - x[5] + 1e-3, 1e-3)
    return p.with_array(x)


@dataclass(frozen=True)
class OptConfig:
    """Fit settings: the cap on Levenberg-Marquardt trial steps and the
    pixel stride of the :func:`correspondence_loss` grid."""

    pixel_stride: int
    max_iters: int = 300

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.pixel_stride < 1:
            raise ValueError("pixel_stride must be >= 1")

    @property
    def grid_boundary_px(self) -> int:
        """``BOUNDARY_PX`` is stated at full resolution; on the
        ``pixel_stride`` grid the erosion depth scales accordingly."""
        return max(1, int(round(BOUNDARY_PX / self.pixel_stride)))


def _strided(m: CorrespondenceMap, s: int) -> CorrespondenceMap:
    if s == 1:
        return m
    return CorrespondenceMap(u=m.u[::s, ::s], v=m.v[::s, ::s],
                             valid=m.valid[::s, ::s])


def _four_conn(mask: np.ndarray, px: int, op: np.ufunc) -> np.ndarray:
    """``px`` rounds of ``op`` (``logical_and`` erodes, ``logical_or``
    dilates) over each pixel and its four neighbours, pixels off the grid
    counting as False, as ``scipy.ndimage``'s ``border_value=0``."""
    for _ in range(px):
        p = np.pad(mask, 1)
        mask = op(op(mask, p[:-2, 1:-1]),
                  op(p[2:, 1:-1], op(p[1:-1, :-2], p[1:-1, 2:])))
    return mask


def _erode(mask: np.ndarray, px: int) -> np.ndarray:
    # px >= 1 (OptConfig.grid_boundary_px); px = 0 returns the mask as is
    return _four_conn(mask, px, np.logical_and)


def _fade_weight(mask: np.ndarray, px: int) -> np.ndarray:
    """Weight ramp that is 0 at the mask boundary and 1 from ``px + 1``
    pixels inward; a smooth realization of the boundary exclusion that
    keeps the loss from jolting when a silhouette pixel flips.

    The ramp is ``clip((dt - 1) / px, 0, 1)`` of the distance ``dt`` to
    the nearest invalid pixel in the grid, so it needs ``dt`` only up to
    ``r = px + 1``: the smallest squared offset within ``r`` pixels that
    reaches one, capped at ``r**2``. Like scipy's Euclidean distance
    transform, ``dt`` is the square root of an exact integer."""
    r = px + 1
    h, w = mask.shape
    invalid = np.pad(~mask, r)
    d2 = np.full(mask.shape, r * r)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            reach = invalid[r + dy:r + dy + h, r + dx:r + dx + w]
            np.minimum(d2, dy * dy + dx * dx, out=d2, where=reach)
    return np.clip((np.sqrt(d2) - 1.0) / px, 0.0, 1.0)


def _seam_mask(m: CorrespondenceMap, dilate_px: int) -> np.ndarray:
    """Pixels adjacent to an internal correspondence discontinuity.

    The field jumps across the cornea/sclera transition even though both
    sides are valid; neighbor steps far above the typical step mark the
    seam, which is then dilated like the validity-boundary guard.
    """
    jump = np.zeros(m.u.shape)
    # steps along rows, then along columns through transposed views
    for u, v, ok, jmp in ((m.u, m.v, m.valid, jump),
                          (m.u.T, m.v.T, m.valid.T, jump.T)):
        d = np.hypot(u[:, 1:] - u[:, :-1], v[:, 1:] - v[:, :-1])
        d = np.where(ok[:, 1:] & ok[:, :-1], d, 0.0)
        jmp[:, 1:] = np.maximum(jmp[:, 1:], d)
        jmp[:, :-1] = np.maximum(jmp[:, :-1], d)
    steps = jump[m.valid & (jump > 0)]
    if steps.size == 0:
        return np.zeros(m.u.shape, dtype=bool)
    thresh = max(8.0 * float(np.median(steps)), 30.0)
    seam = m.valid & (jump > thresh)
    return _four_conn(seam, dilate_px, np.logical_or)


@dataclass(frozen=True)
class _MeasuredTerms:
    """Loss terms of one camera that depend only on its measured map, the
    scene and the loss settings (constant over a fit)."""

    meas: CorrespondenceMap  # measured map on the loss grid
    eroded: np.ndarray       # its validity, eroded by the boundary guard
    weight: np.ndarray       # boundary fade ramp, zero on the seam
    cap: float               # saturation scale of the squared residual
    ramp_scales: np.ndarray  # (4,) widths of the simulated weight ramps
    dirs: np.ndarray         # (N, 3) camera rays of the loss grid


def _measured_terms(
    measured: list[CorrespondenceMap],
    scene: SceneConfig,
    config: OptConfig,
) -> tuple[_MeasuredTerms, ...]:
    if len(measured) != len(scene.cameras):
        raise ValueError("need one measured map per configured camera")
    for i, meas_full in enumerate(measured):
        check_camera_map(scene, i, meas_full)
    grid_b = config.grid_boundary_px
    s = config.pixel_stride
    terms = []
    for i, (cam, meas_full) in enumerate(zip(scene.cameras, measured)):
        meas = _strided(meas_full, config.pixel_stride)
        weight = _fade_weight(meas.valid, grid_b)
        weight[_seam_mask(meas, grid_b)] = 0.0
        # a loss evaluation that gets past its core-pixel floor has an
        # eroded, hence horizontally paired, measured pixel, so the
        # default scale of 1 is never used
        pairs = meas.valid[:, 1:] & meas.valid[:, :-1]
        step_scale = 1.0
        if pairs.any():
            steps = np.hypot(np.diff(meas.u, axis=1), np.diff(meas.v, axis=1))
            step_scale = (float(np.nanmedian(steps[pairs]))
                          / config.pixel_stride)
        # ramp widths of the panel-edge distance (screen px), the
        # silhouette clearance (mm), the aperture margin (deg) and the
        # cap-edge clearance (mm): the boundary guard in each unit
        footprint, ang_scale = pixel_footprint(scene, i)
        ramp_scales = np.array([max(BOUNDARY_PX * x, 1e-9) for x in (
            step_scale, footprint, ang_scale, footprint)])
        rays = cam.pixel_rays()[1][::s, ::s]
        terms.append(_MeasuredTerms(meas=meas,
                                    eroded=_erode(meas.valid, grid_b),
                                    weight=weight,
                                    cap=(4.0 * step_scale * s) ** 2,
                                    ramp_scales=ramp_scales,
                                    dirs=rays.reshape(-1, 3)))
    return tuple(terms)


def correspondence_loss(
    params: EyeParamVector,
    measured: list[CorrespondenceMap],
    scene: SceneConfig,
    pixel_stride: int,
) -> float:
    """Mean squared screen-px distance between measured and simulated
    correspondences, plus a penalty on validity mismatch, in screen px^2;
    with several cameras, the mean of the per-camera losses.

    Pixels within ``BOUNDARY_PX`` of either validity boundary are excluded
    from the mean (the correspondence field is discontinuous at silhouette
    and region boundaries). The penalty is ``MISMATCH_WEIGHT`` times the
    fraction of pixels valid in exactly one map.

    The measured-map terms (the map on the ``pixel_stride`` grid, its
    eroded validity, the boundary fade weight with the seam zeroed and the
    median measured step) are constant over a fit: :func:`optimize_gaze`
    builds them once, a standalone call builds them itself. Each
    evaluation traces every camera once, reflects only the rays that hit
    the eye, and reads the silhouette, aperture and cap-edge margins only
    at the jointly valid pixels with a positive measured weight, the only
    ones given weight.

    Raises:
        InvariantViolation: a measured map whose shape is not its
            camera's (H, W).
        UnreliableLossError: fewer than ``N_MIN`` jointly valid pixels for
            any camera (scaled down by ``pixel_stride`` squared).
        ValueError: not one measured map per camera, or ``pixel_stride``
            below 1.
    """
    config = OptConfig(pixel_stride=pixel_stride)
    return _evaluate_loss(params, _measured_terms(measured, scene, config),
                          scene, config)[0]


def _weights(
    eye: EyeModel, scene: SceneConfig, terms: _MeasuredTerms,
    origin: np.ndarray, pix: np.ndarray, points: np.ndarray, u: np.ndarray,
    v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loss weights of the jointly valid loss-grid pixels ``pix`` (flat
    indices), with their hits ``points`` and simulated ``u``, ``v``; and
    the arguments and values, (4, n) each, of the simulated side's ramps:
    the panel-edge distance, the silhouette clearance, the absolute
    aperture margin and the cap-edge clearance.

    Weights near every discontinuity fade to zero. The measured map is
    fixed during an optimization, so binary distance fades are fine there;
    the simulated side uses ramps of these continuous quantities so the
    loss stays smooth in the eye parameters. The cap edge occludes the
    sclera behind it: rays grazing the cap edge circle carry a
    correspondence jump just like the seam."""
    w_s, h_s = scene.screen.resolution
    edge = np.minimum(np.minimum(u, w_s - 1 - u), np.minimum(v, h_s - 1 - v))
    sil, aper, cap_edge = ray_margins(eye, origin, terms.dirs[pix], points)
    args = np.stack([edge, sil, np.abs(aper), cap_edge])
    ramps = np.clip(args / terms.ramp_scales[:, None], 0.0, 1.0)
    w = terms.weight.ravel()[pix] * ramps[0] * ramps[1] * ramps[2] * ramps[3]
    return w, args, ramps


class _CameraHits(NamedTuple):
    """One camera's loss-grid pixels with a positive loss weight at an
    evaluated point, in ascending pixel order: their flat indices, rays,
    eye hits (points, normals, regions), simulated (u, v), loss weights,
    and the arguments and values of their weight ramps (:func:`_weights`);
    and ``wsum``, the tangent pass's weight sum (:func:`_jacobian`). Only
    these pixels have residuals, and only they move under an infinitesimal
    step."""

    pix: np.ndarray
    dirs: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    region: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    args: np.ndarray
    ramps: np.ndarray
    wsum: np.float64


class _Point(NamedTuple):
    """An evaluated parameter vector, its eye and each camera's
    :class:`_CameraHits`: what :func:`_jacobian` needs of the evaluation."""

    params: EyeParamVector
    eye: EyeModel
    cameras: tuple[_CameraHits, ...]


def _evaluate_loss(
    params: EyeParamVector,
    measured_terms: tuple[_MeasuredTerms, ...],
    scene: SceneConfig,
    config: OptConfig,
) -> tuple[float, np.ndarray, _Point]:
    """:func:`correspondence_loss` on prepared measured-map terms, the
    residual vector ``r`` and the :class:`_Point` that hands the traced
    hits to the tangent pass.

    Per camera, ``r`` holds the weighted, saturated ``du`` and then ``dv``
    of the pixels with a positive loss weight (the point's
    :class:`_CameraHits`), all scaled by ``sqrt(2 / n_cameras)``, so that
    ``0.5 * r @ r`` is the loss less its mismatch penalty, up to
    rounding. The penalty is piecewise constant and has no residual."""
    eye = params.materialize(scene.eye)
    # on a strided grid the pixel-count floor scales down
    n_min = max(8, N_MIN // config.pixel_stride ** 2)
    totals = []
    residuals = []
    cameras = []
    for i, terms in enumerate(measured_terms):
        origin = scene.cameras[i].center
        meas = terms.meas
        shape = meas.valid.shape
        hits = eye_surface_hits(eye, origin, terms.dirs)
        dirs = terms.dirs[hits.index]
        u, v, ok = screen_hits(scene.screen, dirs, hits.points, hits.normals)
        sim_valid = np.zeros(shape, dtype=bool)
        sim_valid.ravel()[hits.index[ok]] = True

        er_sim = _erode(sim_valid, config.grid_boundary_px)
        core = terms.eroded & er_sim
        n_core = int(core.sum())
        if n_core < n_min:
            raise UnreliableLossError(
                f"camera {i}: {n_core} jointly valid core pixels < {n_min}"
            )

        # positions in hits of the simulated-valid pixels with a positive
        # measured weight, the only pixels with a loss weight. The fade
        # ramp is 0 wherever the measured mask's distance transform is at
        # most 1, so a positive weight implies a measured-valid pixel.
        sel = np.flatnonzero(ok & (terms.weight.ravel()[hits.index] > 0))
        pix = hits.index[sel]
        du = meas.u.ravel()[pix] - u[sel]
        dv = meas.v.ravel()[pix] - v[sel]
        w_sel, args, ramps = _weights(eye, scene, terms, origin, pix,
                                      hits.points[sel], u[sel], v[sel])
        # saturating residual: a pixel flipping across an unmasked internal
        # discontinuity (occluded sclera appearing behind the cap edge) has
        # an unbounded squared error; capping its influence keeps the loss
        # landscape smooth while leaving small residuals untouched
        v2 = du * du + dv * dv
        cap = terms.cap
        # both sums run over the whole grid, the other pixels adding exact
        # zeros: a shorter sum would round differently
        grid = np.zeros(shape)
        grid.ravel()[pix] = w_sel
        wsum = float(np.sum(grid))
        if wsum <= 0:
            raise UnreliableLossError(f"camera {i}: zero total loss weight")
        grid.ravel()[pix] = w_sel * cap * v2 / (cap + v2)
        sq = float(np.sum(grid) / wsum)
        # the discontinuity band is excluded from the mismatch count too,
        # so silhouette-grazing pixel flips cannot jolt the penalty
        band = (meas.valid & ~terms.eroded) | (sim_valid & ~er_sim)
        mismatch = float(np.mean((meas.valid ^ sim_valid) & ~band))
        totals.append(sq + MISMATCH_WEIGHT * mismatch)

        live = w_sel > 0
        keep = sel[live]
        f = np.sqrt(w_sel[live] * cap / ((cap + v2[live]) * wsum))
        residuals += [f * du[live], f * dv[live]]
        cameras.append(_CameraHits(
            pix[live], dirs[keep], hits.points[keep], hits.normals[keep],
            hits.region[keep], u[keep], v[keep], w_sel[live],
            args[:, live], ramps[:, live], w_sel.sum()))
    r = np.concatenate(residuals) * np.sqrt(2.0 / len(measured_terms))
    return float(np.mean(totals)), r, _Point(params, eye, tuple(cameras))


# tangents of the cornea and sclera radii: the unit vectors of their columns
_D_CORNEA_RADIUS, _D_SCLERA_RADIUS = np.eye(len(PARAM_NAMES))[5:7]


class _EyeTangents(NamedTuple):
    """Derivatives of the eye's optical axis, sclera centre and cornea
    centre by the eight parameters, (8, 3) each, per degree or mm."""

    axis: np.ndarray
    sclera: np.ndarray
    cornea: np.ndarray


def _eye_tangents(params: EyeParamVector, eye: EyeModel,
                  nominal: EyeModel) -> _EyeTangents:
    """The tangents of ``eye``, the ``nominal`` eye materialized at
    ``params``.

    The axis turns about ``WORLD_UP`` by the azimuth, then about the turned
    right axis by minus the elevation (:func:`scene._rotated_axis`), so
    its derivatives are cross products with those two axes."""
    right = np.cross(WORLD_UP, nominal.optical_axis)
    if np.linalg.norm(right) < EPS_GEOM:
        raise InvariantViolation("eye: optical_axis parallel to up axis")
    right = rotation_about_axis(WORLD_UP, params.azimuth) @ unit(right)
    d_axis = np.zeros((len(PARAM_NAMES), 3))
    d_axis[0] = np.radians(1.0) * np.cross(WORLD_UP, eye.optical_axis)
    d_axis[1] = -np.radians(1.0) * np.cross(right, eye.optical_axis)
    d_sclera = np.zeros_like(d_axis)
    d_sclera[2:5] = np.eye(3)
    d_cornea = d_sclera + eye.cornea_offset * d_axis
    d_cornea[7] += eye.optical_axis
    return _EyeTangents(d_axis, d_sclera, d_cornea)


def _uv_tangents(
    eye: EyeModel, tan: _EyeTangents, screen: ScreenModel, dirs: np.ndarray,
    points: np.ndarray, normals: np.ndarray, region: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Tangents of the hits' ray parameters t, (n, 8), and of their screen
    coordinates (u, v), (n, 8, 2).

    The hit of the chosen root on its sphere, |o + t d - c| = R, gives
    ``dt = (R dR + (p - c).dc) / ((p - c).d)``, then ``dp = d dt`` and
    ``dn = (dp - dc - n dR) / R``. The reflection ``r = d - 2 (d.n) n``
    meets the screen plane at ``q = p + s r``. Vector tangents are kept
    only as their dot products with the plane normal and the screen's u
    and v directions, (n, 8, 3)."""
    plane = np.stack([screen.plane_normal, *screen.pose.rotation[:, :2].T])
    is_c = (region == CORNEA)[:, None]
    rel = points - np.where(is_c, eye.cornea_center, eye.sclera_center)
    radius = np.where(is_c, eye.cornea_radius, eye.sclera_radius)
    d_radius = np.where(is_c, _D_CORNEA_RADIUS, _D_SCLERA_RADIUS)
    d_t = ((radius * d_radius
            + np.where(is_c, rel @ tan.cornea.T, rel @ tan.sclera.T))
           / np.sum(rel * dirs, axis=1)[:, None])
    d_dot_n = np.sum(dirs * normals, axis=1)[:, None]
    d_dot_dn = (d_t - np.where(is_c, dirs @ tan.cornea.T, dirs @ tan.sclera.T)
                - d_dot_n * d_radius) / radius
    dp_k = (dirs @ plane.T)[:, None] * d_t[..., None]
    n_k = (normals @ plane.T)[:, None]
    dn_k = (dp_k - np.where(is_c[..., None], tan.cornea @ plane.T,
                            tan.sclera @ plane.T)
            - n_k * d_radius[..., None]) / radius[..., None]
    dr_k = -2.0 * (d_dot_dn[..., None] * n_k + d_dot_n[..., None] * dn_k)
    r_k = (dirs - 2.0 * d_dot_n * normals) @ plane.T
    s = ((screen.plane_point - points) @ plane[0]) / r_k[:, 0]
    d_s = -(dp_k[..., 0] + s[:, None] * dr_k[..., 0]) / r_k[:, :1]
    d_uv = (dp_k[..., 1:] + d_s[..., None] * r_k[:, None, 1:]
            + s[:, None, None] * dr_k[..., 1:]) / screen.pixel_pitch
    return d_t, d_uv


def _ramp_tangents(
    eye: EyeModel, tan: _EyeTangents, scene: SceneConfig, origin: np.ndarray,
    dirs: np.ndarray, points: np.ndarray, u: np.ndarray, v: np.ndarray,
    args: np.ndarray, d_t: np.ndarray, d_uv: np.ndarray,
) -> np.ndarray:
    """Tangents, (4, n, 8), of the ramp arguments ``args`` of
    :func:`_weights` at hits ``points`` with ray-parameter and (u, v)
    tangents ``d_t`` and ``d_uv``."""
    axis = eye.optical_axis
    cos_ap = np.cos(np.radians(eye.cornea_aperture))
    sin_ap = np.sin(np.radians(eye.cornea_aperture))
    d_args = np.empty((4,) + d_t.shape)
    # the distance to the nearest panel side
    w_s, h_s = scene.screen.resolution
    side = np.argmin(np.stack([u, w_s - 1 - u, v, h_s - 1 - v]), axis=0)
    d_args[0] = (1 - 2 * (side % 2))[:, None] * np.take_along_axis(
        d_uv, (side // 2)[:, None, None], axis=2)[..., 0]
    # the silhouette: the larger sphere clearance R - |perp|, perp running
    # from the centre to the ray's line
    margins = []
    for c, r, d_c, d_r in ((eye.cornea_center, eye.cornea_radius,
                            tan.cornea, _D_CORNEA_RADIUS),
                           (eye.sclera_center, eye.sclera_radius,
                            tan.sclera, _D_SCLERA_RADIUS)):
        perp = (origin - c) - (dirs @ (origin - c))[:, None] * dirs
        dist = np.linalg.norm(perp, axis=1)
        margins.append((r - dist, d_r + (perp / dist[:, None]) @ d_c.T))
    (m_c, d_m_c), (m_s, d_m_s) = margins
    d_args[1] = np.where((m_c >= m_s)[:, None], d_m_c, d_m_s)
    # the absolute aperture margin: the angle about the axis at the cornea
    # centre less the aperture grows as its cosine falls below cos_ap
    rel = points - eye.cornea_center
    norm = np.linalg.norm(rel, axis=1)
    cosang = rel @ axis / norm
    d_rel_axis = (dirs @ axis)[:, None] * d_t - tan.cornea @ axis
    d_rel_rel = np.sum(rel * dirs, axis=1)[:, None] * d_t - rel @ tan.cornea.T
    d_cos = ((d_rel_axis + rel @ tan.axis.T) / norm[:, None]
             - (cosang / norm ** 2)[:, None] * d_rel_rel)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_args[2] = np.sign(cos_ap - cosang)[:, None] * -np.degrees(
            d_cos / np.sqrt(1.0 - cosang ** 2)[:, None])
    # the cap edge clearance hypot(rho - R_c sin_ap, h): vec runs from the
    # circle centre to the ray's closest approach, h is its axial part and
    # rho the length of the rest, off
    circle = eye.cornea_center + eye.cornea_radius * cos_ap * axis
    d_circle = tan.cornea + cos_ap * (_D_CORNEA_RADIUS[:, None] * axis
                                      + eye.cornea_radius * tan.axis)
    vec = origin + ((circle - origin) @ dirs.T)[:, None] * dirs - circle
    h = vec @ axis
    off = vec - h[:, None] * axis
    d_closest = dirs @ d_circle.T
    d_h = ((dirs @ axis)[:, None] * d_closest - d_circle @ axis
           + vec @ tan.axis.T)
    # off.axis = 0, so off.d(off) = off.d(vec) - h off.d(axis)
    d_off_off = (np.sum(off * dirs, axis=1)[:, None] * d_closest
                 - off @ d_circle.T - h[:, None] * (off @ tan.axis.T))
    rho = np.linalg.norm(off, axis=1)
    d_args[3] = ((rho - eye.cornea_radius * sin_ap)[:, None]
                 * (d_off_off / rho[:, None] - sin_ap * _D_CORNEA_RADIUS)
                 + h[:, None] * d_h) / args[3][:, None]
    return d_args


def _jacobian(
    point: _Point,
    measured_terms: tuple[_MeasuredTerms, ...],
    scene: SceneConfig,
) -> np.ndarray:
    """Jacobian of :func:`_evaluate_loss`'s residual vector at the
    evaluated ``point`` by all eight parameters (per degree or mm): one
    row per residual, (len(r), 8).

    One forward-mode tangent pass on the hits that the evaluation traced;
    it traces nothing itself. Validity, the erosions, the seam and the
    mismatch penalty are piecewise constant, so their tangent is zero, and
    so is that of a weight ramp clipped to 0 or 1 (which keeps the
    aperture angle's infinite slope at the corneal apex out). So a pixel
    keeps its weight under an infinitesimal step, and the residuals are
    the point's :class:`_CameraHits`. Their ``(du, dv)`` move with the
    hits (:func:`_uv_tangents`), and their saturating factor with the
    weights (:func:`_ramp_tangents`) and with ``wsum``."""
    eye = point.eye
    tan = _eye_tangents(point.params, eye, scene.eye)
    jac = []
    for i, (terms, hits) in enumerate(zip(measured_terms, point.cameras)):
        origin = scene.cameras[i].center
        # wsum sums the weights of the evaluation's selected hits, not the
        # whole grid as the loss does: equal in exact arithmetic, the two
        # differ in the last bits, and fits are pinned to this one
        pix, dirs, points, normals, region, u, v, w, args, ramps, wsum = hits
        d_t, d_uv = _uv_tangents(eye, tan, scene.screen, dirs, points,
                                 normals, region)
        d_args = _ramp_tangents(eye, tan, scene, origin, dirs, points, u, v,
                                args, d_t, d_uv)
        # w is the measured weight times the ramps, so d log w sums the
        # unclipped ramps' d log(arg); the residual is f (du, dv) with
        # f = sqrt(w cap / ((cap + v2) wsum))
        with np.errstate(invalid="ignore"):
            d_log_w = np.sum(np.where((ramps < 1.0)[..., None],
                                      d_args / args[..., None], 0.0), axis=0)
        du = terms.meas.u.ravel()[pix] - u
        dv = terms.meas.v.ravel()[pix] - v
        d_u, d_v = d_uv[..., 0], d_uv[..., 1]
        cap = terms.cap
        v2 = du * du + dv * dv
        f = np.sqrt(w * cap / ((cap + v2) * wsum))[:, None]
        d_log_f = 0.5 * (d_log_w
                         + (2.0 * (du[:, None] * d_u + dv[:, None] * d_v))
                         / (cap + v2)[:, None]
                         - (w @ d_log_w) / wsum)
        jac += [f * (d_log_f * du[:, None] - d_u),
                f * (d_log_f * dv[:, None] - d_v)]
    return np.concatenate(jac) * np.sqrt(2.0 / len(measured_terms))


def optimize_gaze(
    init: EyeParamVector,
    measured: list[CorrespondenceMap],
    scene: SceneConfig,
    config: OptConfig,
) -> tuple[EyeParamVector, GazeEstimate, list[dict]]:
    """Levenberg-Marquardt fit of the active parameters to the loss
    residuals (Moré 1978).

    At each accepted point the Jacobian ``J`` of the residuals ``r`` is
    taken from one tangent pass (``_jacobian``) on the hits of the
    evaluation that accepted the point, and the fit uses its ``active``
    columns; a trial step solves ``(JᵀJ + λ diag(JᵀJ)) δ = -Jᵀr`` and is
    evaluated at the projection of ``x + δ`` onto the valid box. A trial
    that lowers the loss is accepted and lowers ``λ``; one that does not,
    or whose loss is unreliable, raises ``λ``. The fit stops at a zero
    gradient, a relative loss decrease below ``LM_FTOL``, a trial step
    below ``LM_XTOL`` or ``max_iters`` trials. The trace has one row per
    trial (plus row 0 at the start) with the trial's step norm and the loss
    and parameters of the current point, so its losses never rise. Its
    last row also holds ``stop`` (``zero_gradient``, ``converged``,
    ``step_floor`` or ``iter_cap``).

    The tangent pass re-traces nothing: it reads the accepting
    evaluation's pixels with a positive loss weight, the only ones with a
    residual; validity flips elsewhere have a zero tangent. The start and
    the trials are evaluated on the full grid: a trial moves by degrees,
    and sclera islands can turn valid anywhere. The eye is materialized
    once per evaluation and nowhere else.

    Raises:
        InvariantViolation: a measured map whose shape is not its
            camera's (H, W), or a nominal optical axis along ``WORLD_UP``,
            which leaves the elevation's turning axis undefined.
        NoDescentError: no trial accepted although the gradient at the
            start is not zero.
        UnreliableLossError: the loss is unreliable at ``init``.
    """
    measured_terms = _measured_terms(measured, scene, config)
    active = np.nonzero(init.active)[0]
    p = project_params(init)
    loss, r, point = _evaluate_loss(p, measured_terms, scene, config)
    lam = LM_LAMBDA0
    stop = "iter_cap"
    trace: list[dict] = []

    def record(it, step):
        x = p.as_array()
        trace.append({
            "iter": it, "loss": loss, "step": step,
            "azimuth": x[0], "elevation": x[1],
            "tx": x[2], "ty": x[3], "tz": x[4],
        })

    record(0, 0.0)
    grad = None
    for it in range(1, config.max_iters + 1):
        if grad is None:
            jac = _jacobian(point, measured_terms, scene)[:, active]
            grad = jac.T @ r
            jtj = jac.T @ jac
            if not grad.any():
                stop = "zero_gradient"
                break
        delta = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)), -grad)
        x = p.as_array()
        x[active] += delta
        p_new = project_params(p.with_array(x))
        try:
            loss_new, r_new, point_new = _evaluate_loss(p_new, measured_terms,
                                                        scene, config)
        except UnreliableLossError:
            loss_new = np.inf
        step = float(np.linalg.norm(delta))
        converged = False
        if loss_new < loss:
            converged = loss - loss_new < LM_FTOL * loss
            p, r, loss, point = p_new, r_new, loss_new, point_new
            lam *= LM_LOWER
            grad = None
        else:
            lam *= LM_RAISE
        record(it, step)
        if converged or step < LM_XTOL:
            stop = "converged" if converged else "step_floor"
            break
    trace[-1]["stop"] = stop
    # accepted losses strictly fall, so an unchanged loss means no trial
    # was accepted and the start-point gradient is still at hand
    if loss == trace[0]["loss"] and grad.any():
        raise NoDescentError(f"no accepted step in {len(trace) - 1} trials")

    eye = point.eye
    estimate = GazeEstimate(
        direction=eye.optical_axis,
        cornea_center=eye.cornea_center,
        sclera_center=eye.sclera_center,
        n_cornea_inliers=0,
        n_sclera_inliers=0,
        rms_cornea=float(np.sqrt(max(loss, 0.0))),
        rms_sclera=float(np.sqrt(max(loss, 0.0))),
        method_tag="optimize",
    )
    return p, estimate, trace


def init_guess(
    measured: list[CorrespondenceMap],
    scene: SceneConfig,
    active: tuple[bool, ...] = DEFAULT_ACTIVE,
) -> EyeParamVector:
    """Initial parameter vector: zero rotation, translation from the shift
    of the valid-pixel centroid back-projected at the nominal eye depth
    (clamped to 3 mm), nominal shape.

    The nominal centroid comes from a full-resolution render of camera 0
    of ``scene``. It is computed on the first call with a ``scene``
    instance and cached on that instance, which is frozen, as
    ``CameraModel.pixel_rays`` caches its ray grid; a scene made with
    ``replace`` starts without it.

    Raises:
        EmptyMapError: the measured map has no valid pixels.
    """
    meas = measured[0]
    if meas.n_valid == 0:
        raise EmptyMapError("measured map has no valid pixels")
    cam = scene.cameras[0]

    def centroid_point(valid: np.ndarray) -> np.ndarray:
        ys, xs = np.nonzero(valid)
        d = cam.pixel_ray(float(xs.mean()), float(ys.mean()))
        depth = float(np.linalg.norm(cam.center - scene.eye.sclera_center))
        return cam.center + depth * d

    nominal = getattr(scene, "_nominal_centroid", None)
    if nominal is None:
        nominal = centroid_point(render_correspondence(scene, 0).valid)
        object.__setattr__(scene, "_nominal_centroid", nominal)
    shift = centroid_point(meas.valid) - nominal
    return EyeParamVector.from_eye(scene.eye, active=active).with_array(
        np.array([0.0, 0.0, *np.clip(shift, -3.0, 3.0),
                  scene.eye.cornea_radius, scene.eye.sclera_radius,
                  scene.eye.cornea_offset])
    )
