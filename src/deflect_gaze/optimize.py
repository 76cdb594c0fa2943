"""Inverse rendering of eye pose and shape from measured correspondences.

A simulated eye is adjusted until the correspondences its renders produce
match the measured ones; the fitted eye's optical axis is the gaze
estimate. The loss is evaluated on correspondences (the information
bearing channel) and is half the squared norm of a fixed-length residual
vector, which a Levenberg-Marquardt loop minimizes with forward-difference
Jacobians, projecting every trial onto the valid parameter box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .decode import FOUR_CONN
from .errors import EmptyMapError, NoDescentError, UnreliableLossError
from .gaze import GazeEstimate
from .render import (CorrespondenceMap, RayTrace, check_camera_map,
                     ray_margins, render_correspondence,
                     screen_correspondence)
from .scene import (EyeModel, SceneConfig, _rotated_axis,
                    eye_surface_hit_batch)

PARAM_NAMES = ("azimuth", "elevation", "tx", "ty", "tz",
               "cornea_radius", "sclera_radius", "cornea_offset")
DEFAULT_ACTIVE = (True, True, True, True, True, False, False, False)

# Levenberg-Marquardt constants: Jacobian probe step (deg or mm), initial
# damping and its factors after a rejected and an accepted trial, and the
# stops on relative cost decrease and on the trial step norm (deg or mm)
FD_STEP = 1e-3
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

# Width of a Jacobian probe's band, in 4-connected loss-grid pixel steps
PROBE_BAND_PX = 3


@dataclass(frozen=True)
class EyeParamVector:
    """Optimizable eye state relative to a nominal eye.

    Rotation in degrees about the nominal pivot, translation in mm of the
    sclera center from nominal, and the three shape radii/offsets in mm.
    ``active`` masks which entries the fit may move (shape is frozen by
    default).
    """

    azimuth: float = 0.0
    elevation: float = 0.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))
    cornea_radius: float = 7.8
    sclera_radius: float = 12.0
    cornea_offset: float = 5.6
    active: tuple[bool, ...] = DEFAULT_ACTIVE

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           np.asarray(self.translation, dtype=float))
        if len(self.active) != len(PARAM_NAMES):
            raise ValueError("active mask must have 8 entries")
        if not any(self.active):
            raise ValueError("at least one parameter must be active")

    @classmethod
    def from_eye(cls, eye: EyeModel,
                 active: tuple[bool, ...] = DEFAULT_ACTIVE) -> "EyeParamVector":
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

    max_iters: int = 300
    pixel_stride: int = 1

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


@dataclass(frozen=True)
class LossReport:
    """Correspondence mismatch cost in screen px^2 plus diagnostics, and
    each camera's simulated validity on the loss grid."""

    total: float
    n_valid: int
    mismatch_penalty: float
    per_camera: tuple[dict, ...]
    sim_valid: tuple = field(default=(), compare=False, repr=False)


def _strided(m: CorrespondenceMap, s: int) -> CorrespondenceMap:
    if s == 1:
        return m
    return CorrespondenceMap(u=m.u[::s, ::s], v=m.v[::s, ::s],
                             valid=m.valid[::s, ::s])


def _erode(mask: np.ndarray, px: int) -> np.ndarray:
    # px >= 1 (OptConfig.grid_boundary_px): scipy erodes to a fixed point
    # for iterations below 1
    return ndimage.binary_erosion(mask, FOUR_CONN, iterations=px)


def _fade_weight(mask: np.ndarray, px: int) -> np.ndarray:
    """Weight ramp that is 0 at the mask boundary and 1 from ``px + 1``
    pixels inward; a smooth realization of the boundary exclusion that
    keeps the loss from jolting when a silhouette pixel flips."""
    dt = ndimage.distance_transform_edt(mask)
    return np.clip((dt - 1.0) / px, 0.0, 1.0)


def _seam_mask(m: CorrespondenceMap, dilate_px: int) -> np.ndarray:
    """Pixels adjacent to an internal correspondence discontinuity.

    The field jumps across the cornea/sclera transition even though both
    sides are valid; neighbor steps far above the typical step mark the
    seam, which is then dilated like the validity-boundary guard.
    """
    jump = np.zeros(m.u.shape)
    du = np.hypot(np.diff(m.u, axis=1), np.diff(m.v, axis=1))
    both = m.valid[:, 1:] & m.valid[:, :-1]
    du = np.where(both, du, 0.0)
    jump[:, 1:] = np.maximum(jump[:, 1:], du)
    jump[:, :-1] = np.maximum(jump[:, :-1], du)
    dv = np.hypot(np.diff(m.u, axis=0), np.diff(m.v, axis=0))
    both = m.valid[1:, :] & m.valid[:-1, :]
    dv = np.where(both, dv, 0.0)
    jump[1:, :] = np.maximum(jump[1:, :], dv)
    jump[:-1, :] = np.maximum(jump[:-1, :], dv)
    steps = jump[m.valid & (jump > 0)]
    if steps.size == 0:
        return np.zeros(m.u.shape, dtype=bool)
    thresh = max(8.0 * float(np.median(steps)), 30.0)
    seam = m.valid & (jump > thresh)
    if dilate_px > 0 and seam.any():
        seam = ndimage.binary_dilation(seam, FOUR_CONN, iterations=dilate_px)
    return seam


@dataclass(frozen=True)
class _MeasuredTerms:
    """Loss terms of one camera that depend only on its measured map and
    the loss settings (constant over a fit), and the pixels to trace."""

    meas: CorrespondenceMap  # measured map on the loss grid
    eroded: np.ndarray       # its validity, eroded by the boundary guard
    weight: np.ndarray       # boundary fade ramp, zero on the seam
    step_scale: float        # median measured step per full-res pixel
    pixels: np.ndarray | slice      # ascending flat indices, or all
    dirs: np.ndarray                # (N, 3) camera rays of ``pixels``
    ring: np.ndarray | None = None  # the band's outer ring, at ``pixels``

    def on_grid(self, values: np.ndarray) -> np.ndarray:
        """``values`` at ``pixels`` in a loss-grid array of zeros."""
        out = np.zeros(self.meas.valid.shape, dtype=values.dtype)
        out.ravel()[self.pixels] = values
        return out

    def band(self, sim_valid: np.ndarray) -> "_MeasuredTerms":
        """These terms on the loss-grid pixels within ``PROBE_BAND_PX`` of
        the measured or the simulated footprint, with the band's outer
        ring: its pixels with an 8-connected neighbour off the band, which
        a valid region that leaves the band must cross."""
        band = ndimage.binary_dilation(self.meas.valid | sim_valid, FOUR_CONN,
                                       iterations=PROBE_BAND_PX)
        inner = ndimage.binary_erosion(band, np.ones((3, 3)), border_value=1)
        pixels = np.flatnonzero(band)
        return replace(self, pixels=pixels, dirs=self.dirs[pixels],
                       ring=~inner[band])


class _LeftBand(Exception):
    """A probe's simulated valid pixels touch its band's outer ring."""


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
    for cam, meas_full in zip(scene.cameras, measured):
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
        rays = cam.pixel_rays()[1][::s, ::s]
        terms.append(_MeasuredTerms(meas=meas,
                                    eroded=_erode(meas.valid, grid_b),
                                    weight=weight, step_scale=step_scale,
                                    pixels=slice(None),
                                    dirs=rays.reshape(-1, 3)))
    return tuple(terms)


def correspondence_loss(
    params: EyeParamVector,
    measured: list[CorrespondenceMap],
    scene: SceneConfig,
    pixel_stride: int = 1,
) -> LossReport:
    """Mean squared screen-px distance between measured and simulated
    correspondences, plus a penalty on validity mismatch.

    Pixels within ``BOUNDARY_PX`` of either validity boundary are excluded
    from the mean (the correspondence field is discontinuous at silhouette
    and region boundaries). The penalty is ``MISMATCH_WEIGHT`` times the
    fraction of pixels valid in exactly one map.

    The measured-map terms (the map on the ``pixel_stride`` grid, its
    eroded validity, the boundary fade weight with the seam zeroed and the
    median measured step) are constant over a fit: :func:`optimize_gaze`
    builds them once, a standalone call builds them itself. Each
    evaluation traces every camera once and reads the silhouette, aperture
    and cap-edge margins only at the jointly valid pixels, the only ones
    given weight.

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


def _evaluate_loss(
    params: EyeParamVector,
    measured_terms: tuple[_MeasuredTerms, ...],
    scene: SceneConfig,
    config: OptConfig,
) -> tuple[LossReport, np.ndarray]:
    """:func:`correspondence_loss` on prepared measured-map terms, plus the
    residual vector ``r`` with ``0.5 * r @ r == report.total`` up to
    rounding: per camera the weighted, saturated ``(du, dv)`` of every
    loss-grid pixel and the square root of the mismatch penalty, all
    scaled by ``sqrt(2 / n_cameras)``. Its length depends only on the
    measured maps.

    It traces the terms' ``pixels``, all or a probe band. Off a band that
    holds every simulated valid pixel all terms are zero, and reductions
    run over the whole grid, so the band's report and ``r`` are the full
    grid's bit for bit. A simulated valid pixel on the band's outer ring
    raises ``_LeftBand``; a valid island off the band goes unseen."""
    eye = params.materialize(scene.eye)
    pixel_stride = config.pixel_stride
    # on a strided grid the pixel-count floor scales down
    n_min = max(8, N_MIN // (pixel_stride * pixel_stride))
    per_cam = []
    totals = []
    penalties = []
    residuals = []
    sim_valid = []
    n_total = 0
    for i, terms in enumerate(measured_terms):
        pix, dirs = terms.pixels, terms.dirs
        origin = scene.cameras[i].center
        points, normals, _, hit = eye_surface_hit_batch(eye, origin, dirs)
        sim = screen_correspondence(
            scene.screen, RayTrace(origin, dirs, points, normals, hit))
        if terms.ring is not None and np.any(sim.valid & terms.ring):
            raise _LeftBand(f"camera {i}")
        sim_valid.append(terms.on_grid(sim.valid))
        meas = CorrespondenceMap(*(a.ravel()[pix] for a in (
            terms.meas.u, terms.meas.v, terms.meas.valid)))

        er_meas = terms.eroded.ravel()[pix]
        er_sim = _erode(sim_valid[-1], config.grid_boundary_px).ravel()[pix]
        core = er_meas & er_sim
        n_core = int(core.sum())
        if n_core < n_min:
            raise UnreliableLossError(
                f"camera {i}: {n_core} jointly valid core pixels < {n_min}"
            )

        # Weights near every discontinuity fade to zero. The measured map is
        # fixed during an optimization, so binary distance fades are fine
        # there; the simulated side uses ramps of continuous quantities
        # (panel-edge distance in screen px, silhouette clearance, aperture
        # angle margin) so the loss stays smooth in the eye parameters.
        # Margins are zero off the joint pixels, whose weight is zero.
        joint = meas.valid & sim.valid
        sil = np.zeros(joint.shape)
        aper = np.zeros(joint.shape)
        cap_edge = np.zeros(joint.shape)
        sil[joint], aper[joint], cap_edge[joint] = ray_margins(
            eye, origin, dirs[joint], points[joint])

        step_scale = terms.step_scale
        w_s, h_s = scene.screen.resolution
        edge = np.minimum(np.minimum(sim.u, w_s - 1 - sim.u),
                          np.minimum(sim.v, h_s - 1 - sim.v))
        w = terms.weight.ravel()[pix] * np.clip(
            np.where(joint, edge, 0.0) / max(BOUNDARY_PX * step_scale, 1e-9),
            0.0, 1.0)
        footprint = (np.linalg.norm(scene.cameras[i].center
                                    - scene.eye.sclera_center)
                     / scene.cameras[i].focal_length)
        w = w * np.clip(sil / max(BOUNDARY_PX * footprint, 1e-9), 0.0, 1.0)
        ang_scale = np.degrees(footprint / scene.eye.cornea_radius)
        w = w * np.clip(np.abs(aper) / max(BOUNDARY_PX * ang_scale, 1e-9),
                        0.0, 1.0)
        # the cap edge occludes the sclera behind it: rays grazing the cap
        # edge circle carry a correspondence jump just like the seam
        w = w * np.clip(cap_edge / max(BOUNDARY_PX * footprint, 1e-9),
                        0.0, 1.0)
        w[~joint] = 0.0

        du = np.where(joint, meas.u - sim.u, 0.0)
        dv = np.where(joint, meas.v - sim.v, 0.0)
        wsum = float(np.sum(terms.on_grid(w)))
        if wsum <= 0:
            raise UnreliableLossError(f"camera {i}: zero total loss weight")
        # saturating residual: a pixel flipping across an unmasked internal
        # discontinuity (occluded sclera appearing behind the cap edge) has
        # an unbounded squared error; capping its influence keeps the loss
        # landscape smooth while leaving small residuals untouched
        v2 = du * du + dv * dv
        cap = (4.0 * step_scale * pixel_stride) ** 2
        sq = float(np.sum(terms.on_grid(w * cap * v2 / (cap + v2))) / wsum)
        # the discontinuity band is excluded from the mismatch count too,
        # so silhouette-grazing pixel flips cannot jolt the penalty
        band = (meas.valid & ~er_meas) | (sim.valid & ~er_sim)
        mismatch = float(np.mean(terms.on_grid((meas.valid ^ sim.valid)
                                               & ~band)))
        pen = MISMATCH_WEIGHT * mismatch
        per_cam.append({"camera": i, "n_valid": n_core, "sq": sq,
                        "mismatch_penalty": pen})
        totals.append(sq + pen)
        penalties.append(pen)
        n_total += n_core
        f = np.sqrt(w * cap / ((cap + v2) * wsum))
        residuals += [terms.on_grid(f * du).ravel(),
                      terms.on_grid(f * dv).ravel(), [np.sqrt(pen)]]
    report = LossReport(total=float(np.mean(totals)), n_valid=n_total,
                        mismatch_penalty=float(np.mean(penalties)),
                        per_camera=tuple(per_cam), sim_valid=tuple(sim_valid))
    r = np.concatenate(residuals) * np.sqrt(2.0 / len(measured_terms))
    return report, r


def optimize_gaze(
    init: EyeParamVector,
    measured: list[CorrespondenceMap],
    scene: SceneConfig,
    config: OptConfig | None = None,
) -> tuple[EyeParamVector, GazeEstimate, list[dict]]:
    """Levenberg-Marquardt fit of the active parameters to the loss
    residuals (Moré 1978).

    At each accepted point a forward-difference Jacobian ``J`` of the
    residuals is taken; a trial step solves ``(JᵀJ + λ diag(JᵀJ)) δ =
    -Jᵀr`` and is evaluated at the projection of ``x + δ`` onto the valid
    box. A trial that lowers the loss is accepted and lowers ``λ``; one
    that does not, or whose loss is unreliable, raises ``λ``. The fit
    stops at a zero gradient, a relative loss decrease below ``LM_FTOL``,
    a trial step below ``LM_XTOL`` or ``max_iters`` trials. The trace has
    one row per trial (plus row 0 at the start) with the trial's step norm
    and the loss and parameters of the current point, so its losses never
    rise. Its last row also holds ``stop`` (``zero_gradient``,
    ``converged``, ``step_floor`` or ``iter_cap``) and ``probe_fallbacks``.

    A Jacobian probe traces the pixels within ``PROBE_BAND_PX`` of the
    measured or the current point's simulated footprint, and re-runs on
    the full grid (a probe fallback) when it touches the band's outer
    ring. The start and the trials stay on the full grid: a trial moves
    by degrees, and sclera islands clear of the ring can turn valid.

    Raises:
        InvariantViolation: a measured map whose shape is not its
            camera's (H, W).
        NoDescentError: no trial accepted although the gradient at the
            start is not zero.
        UnreliableLossError: the loss is unreliable at ``init`` or at a
            Jacobian probe.
    """
    config = config or OptConfig()
    measured_terms = _measured_terms(measured, scene, config)
    active = np.nonzero(init.active)[0]
    p = project_params(init)
    rep, r = _evaluate_loss(p, measured_terms, scene, config)
    loss = rep.total
    lam = LM_LAMBDA0
    stop = "iter_cap"
    fallbacks = 0
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
            band = tuple(t.band(sim) for t, sim in zip(measured_terms,
                                                       rep.sim_valid))
            x0 = p.as_array()
            jac = np.empty((len(r), len(active)))
            for j, idx in enumerate(active):
                # a probe that would leave the valid box goes the other way
                for h in (FD_STEP, -FD_STEP):
                    x = x0.copy()
                    x[idx] += h
                    if np.array_equal(
                            project_params(p.with_array(x)).as_array(), x):
                        break
                q = p.with_array(x)
                try:
                    r_h = _evaluate_loss(q, band, scene, config)[1]
                except _LeftBand:
                    fallbacks += 1
                    r_h = _evaluate_loss(q, measured_terms, scene, config)[1]
                jac[:, j] = (r_h - r) / h
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
            rep_new, r_new = _evaluate_loss(p_new, measured_terms, scene, config)
            loss_new = rep_new.total
        except UnreliableLossError:
            loss_new = np.inf
        step = float(np.linalg.norm(delta))
        converged = False
        if loss_new < loss:
            converged = loss - loss_new < LM_FTOL * loss
            p, r, rep, loss = p_new, r_new, rep_new, loss_new
            lam *= LM_LOWER
            grad = None
        else:
            lam *= LM_RAISE
        record(it, step)
        if converged or step < LM_XTOL:
            stop = "converged" if converged else "step_floor"
            break
    trace[-1].update(stop=stop, probe_fallbacks=fallbacks)
    # accepted losses strictly fall, so an unchanged loss means no trial
    # was accepted and the start-point gradient is still at hand
    if loss == trace[0]["loss"] and grad.any():
        raise NoDescentError(f"no accepted step in {len(trace) - 1} trials")

    eye = p.materialize(scene.eye)
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

    Raises:
        EmptyMapError: the measured map has no valid pixels.
    """
    meas = measured[0]
    if meas.n_valid == 0:
        raise EmptyMapError("measured map has no valid pixels")
    cam = scene.cameras[0]
    nominal = render_correspondence(scene, 0)

    def centroid_point(m: CorrespondenceMap) -> np.ndarray:
        ys, xs = np.nonzero(m.valid)
        d = cam.pixel_ray(float(xs.mean()), float(ys.mean()))
        depth = float(np.linalg.norm(cam.center - scene.eye.sclera_center))
        return cam.center + depth * d

    shift = centroid_point(meas) - centroid_point(nominal)
    return EyeParamVector.from_eye(scene.eye, active=active).with_array(
        np.array([0.0, 0.0, *np.clip(shift, -3.0, 3.0),
                  scene.eye.cornea_radius, scene.eye.sclera_radius,
                  scene.eye.cornea_offset])
    )
