"""Correspondence recovery from intensity frames.

Three stages: per-pixel wrapped phase (single-shot 2D continuous wavelet
transform of a crossed fringe, or N-step phase shifting), quality-guided
2D unwrapping, and phase-to-screen-coordinate conversion against an anchor
pixel of known correspondence.

The wavelet transform evaluates its separable Morlet filter bank as
products in the Fourier domain (``numpy.fft``) on the frame padded
symmetrically, which matches direct convolution with a mirrored border to
rounding. Each orientation takes the padded frame's 2-D half-spectrum
once and derives every scale from it; the bank's spectra are built once
per frame shape and ``WaveletParams`` and cached read-only. The transform
covers the whole frame rather than the foreground, because its ridge
quality is normalised by a percentile over the whole frame.

A crossed-fringe frame's two orientations are independent sweeps, so the
single-shot decode runs the x sweep on a worker thread while the calling
thread runs the foreground mask and the y sweep: ``numpy.fft`` and the
large-array ufuncs that make up a sweep release the interpreter lock.
The depth sweep (``stereo``) is not split this way; its many small numpy
calls hold the lock, and splitting its pixels over two threads was slower.

The single-shot path cannot recover the absolute phase offset on its own;
the anchor is supplied by the simulator here (a real system would use a
marker). Pipelines unwrap each connected valid component separately and
anchor each one, since the cornea/sclera transition breaks phase
continuity.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
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
# rows per block of the Morlet sweep's carrier stage
RIDGE_ROWS = 64
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
# largest wrapped-phase step between neighbours kept by the seam cut, as a
# fraction of pi
MAX_STEP_SCALE = 0.75


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
        if not 0 < self.scale_min < self.scale_max < math.inf:
            raise InvariantViolation(
                "wavelet: 0 < scale_min < scale_max, and scale_max finite")
        # omega0 <= 0 flips or flattens the carrier: the map decodes mirrored
        if not 0 < self.omega0 < math.inf:
            raise InvariantViolation("wavelet: omega0 must be finite and > 0")


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


def _circular(n: int, kernel: np.ndarray) -> np.ndarray:
    """An odd, centred kernel placed circularly on ``n`` samples, so the
    spectral product is a true (not a flipped) convolution."""
    half = len(kernel) // 2
    g = np.zeros(n)
    g[np.arange(-half, half + 1) % n] = kernel
    return g


@functools.lru_cache(maxsize=8)
def _filter_bank(h: int, w: int, scale_min: float, scale_max: float,
                 omega0: float):
    """Morlet filter bank for an ``h`` x ``w`` frame with the carrier along
    axis 1: the padding, and per admissible scale its border ``b``, the
    envelope's full spectrum over the padded rows (real: the kernel is
    even) and the cos and sin carriers' half-spectra over the padded
    columns. Both orientations and every call with the same arguments
    share the arrays, so they are read-only.
    """
    scales = np.geomspace(scale_min, scale_max, N_SCALES)
    # symmetric padding repeats the edge sample, as scipy's "reflect" does,
    # also when the pad is longer than the frame; the widest kernel half-width
    # of padding keeps every circular product free of wrap-around
    pad = int(np.ceil(4.0 * scales[-1]))
    n_env, n_car = h + 2 * pad, w + 2 * pad
    # admissible pixels (border >= 2 s) form the box [b, h - b) x [b, w - b)
    borders = [int(np.ceil(2.0 * s)) for s in scales]
    kept = [(s, b) for s, b in zip(scales, borders) if 2 * b < min(h, w)]
    env_specs = np.empty((len(kept), n_env))
    car_specs = np.empty((len(kept), 2, n_car // 2 + 1), dtype=complex)
    for i, (s, _) in enumerate(kept):
        half = int(np.ceil(4.0 * s))
        t = np.arange(-half, half + 1, dtype=float)
        env = np.exp(-t * t / (2.0 * s * s))
        env /= env.sum()
        env_specs[i] = np.fft.fft(_circular(n_env, env)).real
        car_specs[i, 0] = np.fft.rfft(
            _circular(n_car, env * np.cos(omega0 * t / s)))
        car_specs[i, 1] = np.fft.rfft(
            _circular(n_car, env * np.sin(omega0 * t / s)))
    env_specs.flags.writeable = False
    car_specs.flags.writeable = False
    return pad, tuple(zip([b for _, b in kept], env_specs,
                          car_specs[:, 0], car_specs[:, 1]))


def _morlet_ridge(img: np.ndarray, params: WaveletParams):
    """Ridge of the Morlet sweep with the carrier along axis 1 of ``img``.

    Returns the ridge modulus, real and imaginary parts, and the mask of
    pixels admitted at some scale (at least twice the scale from the border).
    """
    h, w = img.shape
    edge = int(np.ceil(2.0 * params.scale_min))
    admitted = np.zeros((h, w), dtype=bool)
    admitted[edge:h - edge, edge:w - edge] = True
    pad, bank = _filter_bank(h, w, params.scale_min, params.scale_max,
                             params.omega0)
    n_car = w + 2 * pad
    # the padded frame's 2-D half-spectrum, computed once: rfft along the
    # carrier, then fft along the envelope, with the envelope axis contiguous
    spec = np.fft.fft(
        np.fft.rfft(np.pad(img, pad, mode="symmetric"), axis=1).T, axis=1)
    env_buf = np.empty_like(spec)
    # the carrier stage runs on blocks of rows, in buffers reused by every
    # block and scale: they stay cache-sized, and no scale allocates
    car_buf = np.empty((RIDGE_ROWS, spec.shape[0]), dtype=complex)
    re_buf = np.empty((RIDGE_ROWS, n_car))
    im_buf = np.empty((RIDGE_ROWS, n_car))
    mod2_buf = np.empty((RIDGE_ROWS, w))
    sq_buf = np.empty((RIDGE_ROWS, w))
    upd_buf = np.empty((RIDGE_ROWS, w), dtype=bool)

    best_mod2 = np.zeros((h, w))
    best_re = np.zeros((h, w))
    best_im = np.zeros((h, w))
    for b, env_spec, cos_spec, sin_spec in bank:
        # envelope filter, back along the envelope axis: each column of
        # ``env_buf`` is then a filtered row's half-spectrum along the carrier
        np.multiply(spec, env_spec, out=env_buf)
        np.fft.ifft(env_buf, axis=1, out=env_buf)
        cols = slice(b, w - b)
        car_cols = slice(pad + b, pad + w - b)
        n_cols = w - 2 * b
        for r0 in range(b, h - b, RIDGE_ROWS):
            rows = slice(r0, min(r0 + RIDGE_ROWS, h - b))
            n = rows.stop - r0
            half_spec = env_buf[:, pad + r0:pad + rows.stop].T
            car = car_buf[:n]
            np.multiply(half_spec, cos_spec, out=car)
            re = np.fft.irfft(car, n_car, out=re_buf[:n])[:, car_cols]
            np.multiply(half_spec, sin_spec, out=car)
            im = np.fft.irfft(car, n_car, out=im_buf[:n])[:, car_cols]
            # the ridge compares squared moduli; one square root at the end
            mod2 = np.multiply(re, re, out=mod2_buf[:n, :n_cols])
            mod2 += np.multiply(im, im, out=sq_buf[:n, :n_cols])

            box = (rows, cols)
            upd = np.greater(mod2, best_mod2[box], out=upd_buf[:n, :n_cols])
            np.copyto(best_mod2[box], mod2, where=upd)
            np.copyto(best_re[box], re, where=upd)
            np.copyto(best_im[box], im, where=upd)
    return np.sqrt(best_mod2, out=best_mod2), best_re, best_im, admitted


def cwt2_phase(frame: Frame, params: WaveletParams) -> PhaseMap:
    """Single-orientation 2D Morlet transform, ridge-picked over scales.

    For each pixel the transform modulus is maximized over a log-spaced
    scale sweep; the phase is the argument at that ridge and the quality is
    the ridge modulus normalized by its 95th percentile. Pixels below
    ``Q_MIN`` quality or ``MOD_FLOOR`` modulus are invalid.

    Each scale's filter is separable: a Gaussian envelope across the fringes
    times a complex carrier along them. Both 1D convolutions run as products
    in the Fourier domain (``numpy.fft``) on the frame padded symmetrically
    by the widest kernel half-width, which reproduces direct convolution
    with a mirrored border to rounding. The padded frame's 2-D half-spectrum
    (``rfft`` along the carrier, ``fft`` along the envelope) is taken once;
    each scale multiplies it by its real envelope spectrum, inverts along
    the envelope and runs the cos and sin carrier ``irfft``s. The bank of
    spectra is built once per frame shape and ``params`` and cached
    read-only. The transform covers the whole frame, not just the
    foreground: the 95th-percentile normaliser is taken over every admitted
    pixel, so a crop would move ``valid``.

    Raises:
        NoRidgeError: fewer than 1% of pixels pass the quality threshold.
    """
    img = np.asarray(frame.intensity, dtype=float)
    if params.orientation == "y":
        img = np.ascontiguousarray(img.T)
    best_mod, best_re, best_im, admitted_any = _morlet_ridge(img, params)
    ref = np.percentile(best_mod[admitted_any], 95) if admitted_any.any() else 0.0
    valid = admitted_any & (best_mod >= MOD_FLOOR)
    # quality and phase overwrite the ridge arrays they are computed from
    quality = best_mod
    if ref < MOD_FLOOR:
        quality[:] = 0.0
    else:
        np.clip(np.divide(best_mod, ref, out=quality), 0.0, 1.0, out=quality)
    valid &= quality >= Q_MIN
    if valid.mean() < 0.01:
        raise NoRidgeError(
            f"orientation {params.orientation!r}: fewer than 1% of pixels pass "
            f"the ridge quality threshold"
        )
    phase = np.arctan2(best_im, best_re, out=best_re)
    phase[~valid] = np.nan
    if params.orientation == "y":
        phase, quality, valid = (np.ascontiguousarray(a.T)
                                 for a in (phase, quality, valid))
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


def _bounding_box(mask: np.ndarray) -> tuple[slice, slice] | None:
    """Row and column slices of the smallest box holding every set pixel
    of a 2-D mask, or None when no pixel is set."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return (slice(int(rows[0]), int(rows[-1]) + 1),
            slice(int(cols[0]), int(cols[-1]) + 1))


def unwrap2(pmap: PhaseMap, seed_pixel: tuple[int, int]) -> PhaseMap:
    """Quality-guided flood-fill unwrapping from a seed pixel (px, py).

    Pixels join in descending quality order (ties in row-major order); each
    one takes the 2 pi multiple that minimizes its jump against its
    highest-quality already-unwrapped neighbor. Valid components not
    4-connected to the seed stay invalid.

    The fill runs on the bounding box of ``pmap.valid`` plus a one-pixel
    invalid rim, so no neighbor needs a bounds test, in flat ``array`` and
    ``bytearray`` buffers indexed from Python.

    Raises:
        InvalidSeedError: the seed pixel is not valid.
    """
    sx, sy = seed_pixel
    h, w = pmap.phase.shape
    if not (0 <= sx < w and 0 <= sy < h) or not pmap.valid[sy, sx]:
        raise InvalidSeedError(f"seed pixel ({sx}, {sy}) is invalid")

    box = _bounding_box(pmap.valid)
    bw = box[1].stop - box[1].start + 2

    def rimmed(a, dtype):
        return np.pad(np.asarray(a[box], dtype=dtype), 1).ravel()

    phase = array("d", rimmed(pmap.phase, float).tobytes())
    quality = array("d", rimmed(pmap.quality, float).tobytes())
    valid = bytearray(rimmed(pmap.valid, bool).tobytes())
    done = bytearray(len(valid))
    queued = bytearray(len(valid))
    out = array("d", [math.nan]) * len(valid)
    seed = int((sy - box[0].start + 1) * bw + (sx - box[1].start + 1))
    out[seed] = phase[seed]
    done[seed] = 1

    two_pi = 2.0 * np.pi
    heap: list[tuple[float, int]] = []
    i = seed
    while True:
        for j in (i - bw, i + bw, i - 1, i + 1):
            if valid[j] and not done[j] and not queued[j]:
                queued[j] = 1
                heapq.heappush(heap, (-quality[j], j))
        if not heap:
            break
        i = heapq.heappop(heap)[1]
        best_q = -1.0
        ref = 0.0
        for j in (i - bw, i + bw, i - 1, i + 1):
            if done[j] and quality[j] > best_q:
                best_q = quality[j]
                ref = out[j]
        d = (ref - phase[i]) / two_pi
        # round half to even, keeping the sign of a zero as np.round does
        out[i] = phase[i] + two_pi * math.copysign(round(d), d)
        done[i] = 1

    phase_out = np.full((h, w), np.nan)
    phase_out[box] = np.frombuffer(out).reshape(-1, bw)[1:-1, 1:-1]
    done_out = np.zeros((h, w), dtype=bool)
    done_out[box] = np.frombuffer(done, dtype=bool).reshape(-1, bw)[1:-1, 1:-1]
    return PhaseMap(phase=phase_out, quality=pmap.quality.copy(),
                    valid=done_out, wrapped=False)


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


def _sever_phase_seams(pm: PhaseMap) -> PhaseMap:
    """Invalidate pixels whose wrapped-phase step to a neighbor exceeds
    ``MAX_STEP_SCALE`` * pi.

    Between correct fringe samples the wrapped step stays well below pi;
    across the cornea/sclera transition the correspondence jumps by many
    periods and the wrapped step is effectively random. Cutting those pixels
    splits the valid region so each side unwraps (and anchors) separately.

    Steps are taken on the bounding box of ``pm.valid`` only: every pair
    with an invalid pixel is masked out, and outside the box every pixel
    is invalid.
    """
    out = pm.copy()
    box = _bounding_box(pm.valid)
    if box is None:
        out.phase[:] = np.nan
        return out
    m = pm.valid[box]
    # NaN makes ``%`` several times slower; pairs with an invalid pixel are
    # masked out below, so any finite stand-in gives the same cut
    p = np.where(m, pm.phase[box], 0.0)
    lim = MAX_STEP_SCALE * np.pi

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
    out.valid[box] &= ~bad
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
    fragments and components with no anchorable pixel are dropped. Each
    component is processed on its bounding box.
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
    labels, _ = ndimage.label(joint, structure=FOUR_CONN)
    h, w = joint.shape
    u_out = np.full((h, w), np.nan)
    v_out = np.full((h, w), np.nan)
    valid_out = np.zeros((h, w), dtype=bool)
    pattern = CrossedFringe(period_x=period_x, period_y=period_y)

    # each component's work runs on its bounding box; row-major order in
    # the box is the frame's, so the anchor and the unwrap order are too
    for comp, box in enumerate(ndimage.find_objects(labels), start=1):
        mask = labels[box] == comp
        if mask.sum() < MIN_COMPONENT:
            continue
        anchorable = mask & anchor_truth.valid[box]
        if not anchorable.any():
            continue
        q = np.where(anchorable,
                     np.minimum(phi_x.quality[box], phi_y.quality[box]), -1.0)
        ay, ax = np.unravel_index(np.argmax(q), q.shape)

        # unwrap2 reads phase and quality at valid pixels only, so the
        # component needs its own mask but no copy of either map
        ux = unwrap2(PhaseMap(phi_x.phase[box], phi_x.quality[box], mask,
                              True), (ax, ay))
        uy = unwrap2(PhaseMap(phi_y.phase[box], phi_y.quality[box], mask,
                              True), (ax, ay))
        anchor = ((ax, ay), float(anchor_truth.u[box][ay, ax]),
                  float(anchor_truth.v[box][ay, ax]))
        corr = phase_to_correspondence(ux, uy, pattern, anchor)
        m = corr.valid
        u_out[box][m] = corr.u[m]
        v_out[box][m] = corr.v[m]
        valid_out[box] |= m

    return CorrespondenceMap(u=u_out, v=v_out, valid=valid_out)


def decode_crossed_fringe(
    frame: Frame,
    pattern: CrossedFringe,
    anchor_truth: CorrespondenceMap,
    wavelet_x: WaveletParams | None = None,
    wavelet_y: WaveletParams | None = None,
    seam_mask: np.ndarray | None = None,
) -> CorrespondenceMap:
    """Single-shot decode: crossed-fringe frame to correspondence map.

    The two orientations' Morlet sweeps run concurrently: the x sweep on
    a worker thread that ends with the call, the foreground mask and the
    y sweep on the calling thread. Neither reads the other's output, and
    the map is bit-identical to running them one after the other. Errors
    surface in that serial order too: the mask's, then x's, then y's. The
    y sweep, which also transposes the frame and its outputs, stays on the
    calling thread because memory it frees there serves later full-frame
    work; on the worker it raised the benchmark's peak resident memory.

    Raises:
        InvariantViolation: ``wavelet_x`` is not an "x" orientation or
            ``wavelet_y`` not a "y" one.
        NoRidgeError: as :func:`cwt2_phase`, for either orientation.
    """
    wx = wavelet_x or WaveletParams(orientation="x")
    wy = wavelet_y or WaveletParams(orientation="y")
    if wx.orientation != "x" or wy.orientation != "y":
        raise InvariantViolation(
            f"decode: wavelet_x and wavelet_y must have orientations 'x' and "
            f"'y', got {wx.orientation!r} and {wy.orientation!r}")
    with ThreadPoolExecutor(max_workers=1) as pool:
        future_x = pool.submit(cwt2_phase, frame, wx)
        fg = foreground_mask(frame)
        try:
            pm_y = cwt2_phase(frame, wy)
        except Exception:
            # x's error comes first, as it would in serial order
            error_x = future_x.exception()
            if error_x is not None:
                raise error_x from None
            raise
        pm_x = future_x.result()
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
