"""Correspondence recovery from intensity frames.

Three stages: per-pixel wrapped phase (single-shot 2D continuous wavelet
transform of a crossed fringe, or N-step phase shifting), quality-guided
2D unwrapping, and phase-to-screen-coordinate conversion against an anchor
pixel of known correspondence.

The single-shot path cannot recover the absolute phase offset on its own;
the anchor is supplied by the simulator here (a real system would use a
marker). Pipelines unwrap each connected valid component separately and
anchor each one, since the cornea/sclera transition breaks phase
continuity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    InvalidAnchorError,
    InvalidSeedError,
    InvariantViolation,
    NoRidgeError,
    ShiftCountError,
)
from .render import CorrespondenceMap, CrossedFringe, Frame, PhaseShiftSet

FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)

# Morlet sweep: scales per orientation, the ridge-quality floor, and the
# absolute ridge-modulus floor (a real carrier sits near half its fringe
# amplitude)
N_SCALES = 16
Q_MIN = 0.15
MOD_FLOOR = 1e-3
# phase-shift modulation floor, relative to its 95th percentile
M_MIN = 0.05
# foreground mask: local-mean threshold, its window (px) and the erosion (px)
FG_THRESHOLD = 0.2
FG_SIZE = 5
FG_ERODE = 2
# smallest valid component that is unwrapped and anchored (px)
MIN_COMPONENT = 64
# half-width (camera px) of the geometric cornea/sclera seam band
SEAM_WIDTH_PX = 2.5


@dataclass(frozen=True)
class WaveletParams:
    """Morlet sweep configuration for one fringe orientation.

    The sweep runs over ``N_SCALES`` log-spaced scales and resolves local
    fringe periods in ``[2 pi scale_min / omega0, 2 pi scale_max / omega0]``
    camera px. Pixels closer to the frame border than twice their ridge
    scale are dropped rather than decoded with badly truncated kernels.
    """

    orientation: str
    scale_min: float = 6.0
    scale_max: float = 24.0
    omega0: float = 5.5

    def __post_init__(self):
        if self.orientation not in ("x", "y"):
            raise InvariantViolation("wavelet: orientation must be 'x' or 'y'")
        if not 0 < self.scale_min < self.scale_max:
            raise InvariantViolation("wavelet: 0 < scale_min < scale_max")


@dataclass
class PhaseMap:
    """Per-pixel phase (radians) with a ridge-quality channel in [0, 1].

    ``wrapped`` phases lie in (-pi, pi]; unwrapped maps are continuous
    (|delta phi| < pi) along any valid 4-connected path.
    """

    phase: np.ndarray
    quality: np.ndarray
    valid: np.ndarray
    wrapped: bool

    def copy(self) -> "PhaseMap":
        return PhaseMap(self.phase.copy(), self.quality.copy(),
                        self.valid.copy(), self.wrapped)


def cwt2_phase(frame: Frame, params: WaveletParams) -> PhaseMap:
    """Single-orientation 2D Morlet transform, ridge-picked over scales.

    For each pixel the transform modulus is maximized over a log-spaced
    scale sweep; the phase is the argument at that ridge and the quality is
    the ridge modulus normalized by its 95th percentile. Pixels below
    ``Q_MIN`` quality or ``MOD_FLOOR`` modulus are invalid.

    Raises:
        NoRidgeError: fewer than 1% of pixels pass the quality threshold.
    """
    img = np.asarray(frame.intensity, dtype=float)
    h, w = img.shape
    carrier_axis = 1 if params.orientation == "x" else 0
    env_axis = 1 - carrier_axis

    scales = np.geomspace(params.scale_min, params.scale_max, N_SCALES)
    best_mod = np.zeros((h, w))
    best_re = np.zeros((h, w))
    best_im = np.zeros((h, w))
    admitted_any = np.zeros((h, w), dtype=bool)

    ix = np.arange(w)
    iy = np.arange(h)
    border = np.minimum(
        np.minimum(ix, w - 1 - ix)[None, :], np.minimum(iy, h - 1 - iy)[:, None]
    ).astype(float)

    for s in scales:
        half = int(np.ceil(4.0 * s))
        t = np.arange(-half, half + 1, dtype=float)
        env = np.exp(-t * t / (2.0 * s * s))
        env /= env.sum()
        cr = env * np.cos(params.omega0 * t / s)
        ci = env * np.sin(params.omega0 * t / s)

        re = ndimage.convolve1d(img, cr, axis=carrier_axis, mode="reflect")
        im = ndimage.convolve1d(img, ci, axis=carrier_axis, mode="reflect")
        re = ndimage.convolve1d(re, env, axis=env_axis, mode="reflect")
        im = ndimage.convolve1d(im, env, axis=env_axis, mode="reflect")
        mod = np.hypot(re, im)

        admissible = border >= 2.0 * s
        upd = admissible & (mod > best_mod)
        best_mod[upd] = mod[upd]
        best_re[upd] = re[upd]
        best_im[upd] = im[upd]
        admitted_any |= admissible

    ref = np.percentile(best_mod[admitted_any], 95) if admitted_any.any() else 0.0
    if ref < MOD_FLOOR:
        quality = np.zeros((h, w))
    else:
        quality = np.clip(best_mod / ref, 0.0, 1.0)
    valid = admitted_any & (quality >= Q_MIN) & (best_mod >= MOD_FLOOR)
    if valid.mean() < 0.01:
        raise NoRidgeError(
            f"orientation {params.orientation!r}: fewer than 1% of pixels pass "
            f"the ridge quality threshold"
        )
    phase = np.arctan2(best_im, best_re)
    phase[~valid] = np.nan
    return PhaseMap(phase=phase, quality=quality, valid=valid, wrapped=True)


def phase_shift_decode(frames: list[Frame], pattern: PhaseShiftSet) -> PhaseMap:
    """Wrapped phase from N phase-shifted frames.

    ``phi = atan2(-sum I_k sin(2 pi k / N), sum I_k cos(2 pi k / N))``, the
    sign convention that reproduces ``2 pi coord / period`` on a noiseless
    render. Quality is the modulation amplitude normalized by its 95th
    percentile; pixels below ``M_MIN`` are invalid.

    Raises:
        ShiftCountError: len(frames) != pattern.n_shifts.
    """
    n = pattern.n_shifts
    if len(frames) != n:
        raise ShiftCountError(f"expected {n} frames, got {len(frames)}")
    stack = np.stack([np.asarray(f.intensity, dtype=float) for f in frames])
    ang = 2.0 * np.pi * np.arange(n) / n
    c = np.tensordot(np.cos(ang), stack, axes=1)
    s = np.tensordot(np.sin(ang), stack, axes=1)
    phase = np.arctan2(-s, c)
    amp = 2.0 / n * np.hypot(s, c)
    ref = np.percentile(amp, 95)
    if ref < 1e-12:
        quality = np.zeros_like(amp)
        valid = np.zeros(amp.shape, dtype=bool)
    else:
        quality = np.clip(amp / ref, 0.0, 1.0)
        valid = quality >= M_MIN
    phase = np.where(valid, phase, np.nan)
    return PhaseMap(phase=phase, quality=quality, valid=valid, wrapped=True)


def unwrap2(pmap: PhaseMap, seed_pixel: tuple[int, int]) -> PhaseMap:
    """Quality-guided flood-fill unwrapping from a seed pixel (px, py).

    Pixels join in descending quality order; each one takes the 2 pi
    multiple that minimizes its jump against its highest-quality
    already-unwrapped neighbor. Valid components not 4-connected to the
    seed stay invalid.

    Raises:
        InvalidSeedError: the seed pixel is not valid.
    """
    sx, sy = seed_pixel
    h, w = pmap.phase.shape
    if not (0 <= sx < w and 0 <= sy < h) or not pmap.valid[sy, sx]:
        raise InvalidSeedError(f"seed pixel ({sx}, {sy}) is invalid")

    phase = pmap.phase
    quality = pmap.quality
    valid = pmap.valid
    out = np.full((h, w), np.nan)
    done = np.zeros((h, w), dtype=bool)
    queued = np.zeros((h, w), dtype=bool)
    out[sy, sx] = phase[sy, sx]
    done[sy, sx] = True

    two_pi = 2.0 * np.pi
    heap: list[tuple[float, int, int]] = []

    def push_neighbors(y: int, x: int):
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and valid[ny, nx] \
                    and not done[ny, nx] and not queued[ny, nx]:
                queued[ny, nx] = True
                heapq.heappush(heap, (-quality[ny, nx], ny, nx))

    push_neighbors(sy, sx)
    while heap:
        _, y, x = heapq.heappop(heap)
        if done[y, x]:
            continue
        best_q = -1.0
        ref = 0.0
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and done[ny, nx] \
                    and quality[ny, nx] > best_q:
                best_q = quality[ny, nx]
                ref = out[ny, nx]
        k = np.round((ref - phase[y, x]) / two_pi)
        out[y, x] = phase[y, x] + two_pi * k
        done[y, x] = True
        push_neighbors(y, x)

    return PhaseMap(phase=out, quality=quality.copy(), valid=done, wrapped=False)


def phase_to_correspondence(
    phi_x: PhaseMap,
    phi_y: PhaseMap,
    pattern: CrossedFringe,
    anchor: tuple[tuple[int, int], float, float],
) -> CorrespondenceMap:
    """Convert unwrapped phase pairs to screen coordinates.

    ``u = (phi_x - phi_x(anchor)) period_x / 2 pi + u0`` and analogously for
    v; adding a global constant to either map leaves the output unchanged.

    Raises:
        InvalidAnchorError: anchor pixel invalid in either map.
        ValueError: maps are still wrapped.
    """
    if phi_x.wrapped or phi_y.wrapped:
        raise ValueError("phase maps must be unwrapped")
    (ax, ay), u0, v0 = anchor
    h, w = phi_x.phase.shape
    if not (0 <= ax < w and 0 <= ay < h) or not (
        phi_x.valid[ay, ax] and phi_y.valid[ay, ax]
    ):
        raise InvalidAnchorError(f"anchor pixel ({ax}, {ay}) is invalid")
    valid = phi_x.valid & phi_y.valid
    u = (phi_x.phase - phi_x.phase[ay, ax]) * pattern.period_x / (2.0 * np.pi) + u0
    v = (phi_y.phase - phi_y.phase[ay, ax]) * pattern.period_y / (2.0 * np.pi) + v0
    u = np.where(valid, u, np.nan)
    v = np.where(valid, v, np.nan)
    return CorrespondenceMap(u=u, v=v, valid=valid)


def assert_continuity(pmap: PhaseMap):
    """Raise if any valid 4-neighbor pair of an unwrapped map jumps >= pi."""
    if pmap.wrapped:
        raise ValueError("continuity is defined for unwrapped maps")
    p, m = pmap.phase, pmap.valid
    dx = np.abs(np.diff(p, axis=1))[m[:, 1:] & m[:, :-1]]
    dy = np.abs(np.diff(p, axis=0))[m[1:, :] & m[:-1, :]]
    worst = max(dx.max(initial=0.0), dy.max(initial=0.0))
    if worst >= np.pi:
        raise AssertionError(f"unwrapped map has a {worst:.3f} rad jump")


# ---------------------------------------------------------------------------
# Frame-to-correspondence pipelines.

def foreground_mask(frame: Frame) -> np.ndarray:
    """Bright-region mask: mean intensity over a ``FG_SIZE`` window above
    ``FG_THRESHOLD``, eroded by ``FG_ERODE`` px.

    Separates the fringe-lit eye surface from the dark surround so halo
    pixels (wavelet support bleeding into background) are not decoded.
    """
    mean = ndimage.uniform_filter(np.asarray(frame.intensity, float), FG_SIZE)
    return ndimage.binary_erosion(mean > FG_THRESHOLD, FOUR_CONN,
                                  iterations=FG_ERODE)


def _sever_phase_seams(pm: PhaseMap, max_step_scale: float = 0.75) -> PhaseMap:
    """Invalidate pixels whose wrapped-phase step to a neighbor is too large.

    Between correct fringe samples the wrapped step stays well below pi;
    across the cornea/sclera transition the correspondence jumps by many
    periods and the wrapped step is effectively random. Cutting those pixels
    splits the valid region so each side unwraps (and anchors) separately.
    """
    p, m = pm.phase, pm.valid
    lim = max_step_scale * np.pi

    def wrapdiff(a, b):
        d = a - b
        return np.abs((d + np.pi) % (2.0 * np.pi) - np.pi)

    bad = np.zeros_like(m)
    dx = wrapdiff(p[:, 1:], p[:, :-1])
    both = m[:, 1:] & m[:, :-1]
    cut = both & (dx > lim)
    bad[:, 1:] |= cut
    bad[:, :-1] |= cut
    dy = wrapdiff(p[1:, :], p[:-1, :])
    both = m[1:, :] & m[:-1, :]
    cut = both & (dy > lim)
    bad[1:, :] |= cut
    bad[:-1, :] |= cut
    out = pm.copy()
    out.valid &= ~bad
    out.phase[~out.valid] = np.nan
    return out


def correspondence_from_phases(
    phi_x: PhaseMap,
    phi_y: PhaseMap,
    period_x: float,
    period_y: float,
    anchor_truth: CorrespondenceMap,
    seam_mask: np.ndarray | None = None,
) -> CorrespondenceMap:
    """Unwrap wrapped phase pairs per connected component and anchor each
    component with its simulator-provided true correspondence.

    ``seam_mask`` marks pixels straddling a known correspondence
    discontinuity (the cornea/sclera transition); they are invalidated so
    unwrapping cannot carry a wrong 2 pi multiple across. Wrapped-step
    severing alone cannot do this reliably: the multi-period seam jump
    aliases below pi three times out of four. The returned map is the
    union of all components of at least ``MIN_COMPONENT`` pixels; smaller
    fragments and components with no anchorable pixel are dropped.
    """
    if seam_mask is not None:
        phi_x = phi_x.copy()
        phi_y = phi_y.copy()
        for pm in (phi_x, phi_y):
            pm.valid &= ~seam_mask
            pm.phase[~pm.valid] = np.nan
    phi_x = _sever_phase_seams(phi_x)
    phi_y = _sever_phase_seams(phi_y)
    joint = phi_x.valid & phi_y.valid
    labels, n_comp = ndimage.label(joint, structure=FOUR_CONN)
    h, w = joint.shape
    u_out = np.full((h, w), np.nan)
    v_out = np.full((h, w), np.nan)
    valid_out = np.zeros((h, w), dtype=bool)
    combined_q = np.minimum(phi_x.quality, phi_y.quality)
    pattern = CrossedFringe(period_x=period_x, period_y=period_y)

    for comp in range(1, n_comp + 1):
        mask = labels == comp
        if mask.sum() < MIN_COMPONENT:
            continue
        anchorable = mask & anchor_truth.valid
        if not anchorable.any():
            continue
        q = np.where(anchorable, combined_q, -1.0)
        ay, ax = np.unravel_index(np.argmax(q), q.shape)

        px = phi_x.copy()
        px.valid &= mask
        px.phase[~px.valid] = np.nan
        py = phi_y.copy()
        py.valid &= mask
        py.phase[~py.valid] = np.nan
        ux = unwrap2(px, (ax, ay))
        uy = unwrap2(py, (ax, ay))
        anchor = ((ax, ay), float(anchor_truth.u[ay, ax]),
                  float(anchor_truth.v[ay, ax]))
        corr = phase_to_correspondence(ux, uy, pattern, anchor)
        m = corr.valid
        u_out[m] = corr.u[m]
        v_out[m] = corr.v[m]
        valid_out |= m

    return CorrespondenceMap(u=u_out, v=v_out, valid=valid_out)


def decode_crossed_fringe(
    frame: Frame,
    pattern: CrossedFringe,
    anchor_truth: CorrespondenceMap,
    wavelet_x: WaveletParams | None = None,
    wavelet_y: WaveletParams | None = None,
    seam_mask: np.ndarray | None = None,
) -> CorrespondenceMap:
    """Single-shot decode: crossed-fringe frame to correspondence map."""
    wx = wavelet_x or WaveletParams(orientation="x")
    wy = wavelet_y or WaveletParams(orientation="y")
    fg = foreground_mask(frame)
    pm_x = cwt2_phase(frame, wx)
    pm_y = cwt2_phase(frame, wy)
    for pm in (pm_x, pm_y):
        pm.valid &= fg
        pm.phase[~pm.valid] = np.nan
    return correspondence_from_phases(
        pm_x, pm_y, pattern.period_x, pattern.period_y, anchor_truth,
        seam_mask=seam_mask,
    )


def decode_phase_shift(
    frames_x: list[Frame],
    frames_y: list[Frame],
    pattern_x: PhaseShiftSet,
    pattern_y: PhaseShiftSet,
    anchor_truth: CorrespondenceMap,
    seam_mask: np.ndarray | None = None,
) -> CorrespondenceMap:
    """N-step decode: two phase-shifted stacks to a correspondence map."""
    pm_x = phase_shift_decode(frames_x, pattern_x)
    pm_y = phase_shift_decode(frames_y, pattern_y)
    return correspondence_from_phases(
        pm_x, pm_y, pattern_x.period, pattern_y.period, anchor_truth,
        seam_mask=seam_mask,
    )


def scene_seam_mask(scene, cam_index: int) -> np.ndarray:
    """Geometric cornea/sclera seam band for a camera view.

    The known stage pose predicts where the cap boundary images; pixels
    whose aperture-angle margin is within ~``SEAM_WIDTH_PX`` pixels of zero
    are flagged so unwrapping treats the two regions as separate
    components.
    """
    from .render import render_margins

    margins = render_margins(scene, cam_index)
    eye = scene.eye
    cam = scene.cameras[cam_index]
    footprint = float(np.linalg.norm(cam.center - eye.sclera_center)
                      / cam.focal_length)
    deg_per_px = np.degrees(footprint / eye.cornea_radius)
    ap = margins["aperture"]
    return np.isfinite(ap) & (np.abs(ap) < SEAM_WIDTH_PX * deg_per_px)
