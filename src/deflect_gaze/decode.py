"""Correspondence recovery from intensity frames.

Two stages: per-pixel wrapped phase (single-shot 2D continuous wavelet
transform of a crossed fringe, or N-step phase shifting), then, on the
joint valid mask's bounding box, one quality-guided flood fill per axis
that unwraps every connected valid component from its own anchor pixel of
known correspondence. On real frames the fill's order decides the map, so
it is kept exactly: a Python heap loop gives the order, and numpy passes
compute the references and values from it (``_unwrap``).

The wavelet transform runs only on the foreground: the bounding box of
the foreground mask, grown by twice the largest scale. It evaluates its
separable Morlet filter bank as products in the Fourier domain
(``numpy.fft``) on that box plus the widest kernel's half-width of frame
samples, mirrored past the frame edge, which matches direct convolution
over the whole frame with a mirrored border to rounding on the box. Each
orientation takes the 2-D half-spectrum once and derives every scale from
it; the FFT lengths are rounded up to 2·3·5-smooth ones
(``scipy.fft.next_fast_len``), and the bank's spectra are built once per
pair of lengths and ``WaveletParams`` and cached read-only. Ridge quality
is normalised by a percentile over the whole frame with the modulus
counted as 0 outside the box, which on frames with a dark surround is the
full-frame sweep's percentile (``cwt2_phase``).

A crossed-fringe frame's two orientations are independent sweeps, so the
single-shot decode computes the foreground mask, then runs the y sweep on
a worker thread while the calling thread runs the x sweep: ``numpy.fft``
and the large-array ufuncs that make up a sweep release the interpreter
lock.
The depth sweep (``stereo``) is not split this way; its many small numpy
calls hold the lock, and splitting its pixels over two threads was slower.

The single-shot path cannot recover the absolute phase offset on its own;
the anchor is supplied by the simulator here (a real system would use a
marker). Each component has its own anchor, since the cornea/sclera
transition breaks phase continuity.

``scipy.ndimage`` is imported inside the two functions that call it, and
``scipy.fft`` inside the Morlet sweep, not at module scope. Every
``deflect_gaze`` import loads this module, and loading ``ndimage`` (about
0.4 s and 26 MB resident on a 2-CPU Xeon) would be most of the stereo
method's start-up, though it never decodes.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NoRidgeError, ShiftCountError
from .render import (CorrespondenceMap, CrossedFringe, PhaseShiftSet,
                     pixel_footprint, render_margins)

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
    scale_min: float
    scale_max: float
    omega0: float

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

    The decoders' phases are wrapped to (-pi, pi];
    :func:`correspondence_from_phases` unwraps them.
    """

    phase: np.ndarray
    quality: np.ndarray
    valid: np.ndarray


def _circular(n: int, kernel: np.ndarray) -> np.ndarray:
    """An odd, centred kernel placed circularly on ``n`` samples, so the
    spectral product is a true (not a flipped) convolution."""
    half = len(kernel) // 2
    g = np.zeros(n)
    g[np.arange(-half, half + 1) % n] = kernel
    return g


def _mirrored(n: int, start: int, stop: int) -> np.ndarray:
    """Indices of samples ``start`` .. ``stop - 1`` of an ``n``-sample axis
    extended past both ends as ``np.pad(..., mode="symmetric")`` extends
    it: the edge sample repeats, and an extension longer than the axis
    reflects again."""
    i = np.arange(start, stop) % (2 * n)
    return np.minimum(i, 2 * n - 1 - i)


@functools.lru_cache(maxsize=8)
def _filter_bank(n_env: int, n_car: int, scale_min: float, scale_max: float,
                 omega0: float):
    """Morlet filter bank on an ``n_env`` x ``n_car`` FFT grid with the
    carrier along axis 1: per scale, smallest first, its border ``b`` (the
    scale admits pixels at least ``b`` px inside the frame), the envelope's
    full spectrum over the ``n_env`` rows (real: the kernel is even) and
    the cos and sin carriers' half-spectra over the ``n_car`` columns. Both
    orientations and every call with the same arguments share the arrays,
    so they are read-only.
    """
    scales = np.geomspace(scale_min, scale_max, N_SCALES)
    env_specs = np.empty((N_SCALES, n_env))
    car_specs = np.empty((N_SCALES, 2, n_car // 2 + 1), dtype=complex)
    for i, s in enumerate(scales):
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
    borders = [int(np.ceil(2.0 * s)) for s in scales]
    return tuple(zip(borders, env_specs, car_specs[:, 0], car_specs[:, 1]))


def _morlet_ridge(img: np.ndarray, params: WaveletParams,
                  region: tuple[slice, slice]):
    """Ridge of the Morlet sweep with the carrier along axis 1 of ``img``,
    on the box ``region`` of it only.

    The FFT input is ``region`` plus the widest kernel's half-width of
    frame samples on each side, mirrored past the frame edge as
    ``np.pad(img, pad, "symmetric")`` mirrors them, and zero-filled up to
    2·3·5-smooth lengths beyond the reach of every kernel centred in
    ``region``. Returns the ridge modulus, real and imaginary parts over
    ``region``; all three are 0 where no scale admits the pixel (a scale
    admits pixels at least twice the scale inside the frame).
    """
    from scipy.fft import next_fast_len

    h, w = img.shape
    rows, cols = region
    pad = int(np.ceil(4.0 * params.scale_max))
    n_env = next_fast_len(rows.stop - rows.start + 2 * pad, real=True)
    n_car = next_fast_len(cols.stop - cols.start + 2 * pad, real=True)
    bank = _filter_bank(n_env, n_car, params.scale_min, params.scale_max,
                        params.omega0)
    # frame pixel (r, c) sits at (r - r_off, c - c_off) of the FFT input
    r_off, c_off = rows.start - pad, cols.start - pad
    data = img[np.ix_(_mirrored(h, r_off, rows.stop + pad),
                      _mirrored(w, c_off, cols.stop + pad))]
    # the input's 2-D half-spectrum, computed once: rfft along the carrier,
    # then fft along the envelope, with the envelope axis contiguous
    spec = np.fft.fft(np.fft.rfft(data, n_car, axis=1).T, n_env, axis=1)
    env_buf = np.empty_like(spec)
    # the carrier stage runs on blocks of rows, in buffers reused by every
    # block and scale: they stay cache-sized, and no scale allocates
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    car_buf = np.empty((RIDGE_ROWS, spec.shape[0]), dtype=complex)
    re_buf = np.empty((RIDGE_ROWS, n_car))
    im_buf = np.empty((RIDGE_ROWS, n_car))
    mod2_buf = np.empty((RIDGE_ROWS, shape[1]))
    sq_buf = np.empty((RIDGE_ROWS, shape[1]))
    upd_buf = np.empty((RIDGE_ROWS, shape[1]), dtype=bool)

    best_mod2 = np.zeros(shape)
    best_re = np.zeros(shape)
    best_im = np.zeros(shape)
    for b, env_spec, cos_spec, sin_spec in bank:
        # the pixels of ``region`` this scale admits, in frame coordinates
        r_lo, r_hi = max(b, rows.start), min(h - b, rows.stop)
        c_lo, c_hi = max(b, cols.start), min(w - b, cols.stop)
        if r_lo >= r_hi or c_lo >= c_hi:
            continue
        # envelope filter, back along the envelope axis: each column of
        # ``env_buf`` is then a filtered row's half-spectrum along the carrier
        np.multiply(spec, env_spec, out=env_buf)
        np.fft.ifft(env_buf, axis=1, out=env_buf)
        cols_out = slice(c_lo - cols.start, c_hi - cols.start)
        car_cols = slice(c_lo - c_off, c_hi - c_off)
        n_cols = c_hi - c_lo
        for r0 in range(r_lo, r_hi, RIDGE_ROWS):
            r1 = min(r0 + RIDGE_ROWS, r_hi)
            n = r1 - r0
            half_spec = env_buf[:, r0 - r_off:r1 - r_off].T
            car = car_buf[:n]
            np.multiply(half_spec, cos_spec, out=car)
            re = np.fft.irfft(car, n_car, out=re_buf[:n])[:, car_cols]
            np.multiply(half_spec, sin_spec, out=car)
            im = np.fft.irfft(car, n_car, out=im_buf[:n])[:, car_cols]
            # the ridge compares squared moduli; one square root at the end
            mod2 = np.multiply(re, re, out=mod2_buf[:n, :n_cols])
            mod2 += np.multiply(im, im, out=sq_buf[:n, :n_cols])

            box = (slice(r0 - rows.start, r1 - rows.start), cols_out)
            upd = np.greater(mod2, best_mod2[box], out=upd_buf[:n, :n_cols])
            np.copyto(best_mod2[box], mod2, where=upd)
            np.copyto(best_re[box], re, where=upd)
            np.copyto(best_im[box], im, where=upd)
    return np.sqrt(best_mod2, out=best_mod2), best_re, best_im


def _cwt2_on_box(frame: np.ndarray, params: WaveletParams,
                 box: tuple[slice, slice] | None) -> PhaseMap:
    """:func:`cwt2_phase` given the bounding box of ``frame``'s foreground
    mask (None when the mask is empty)."""
    if box is None:
        raise NoRidgeError(
            f"orientation {params.orientation!r}: the frame has no foreground")
    img = np.asarray(frame, dtype=float)
    h, w = img.shape
    # the sweep runs with the carrier along axis 1; the y orientation runs
    # on transposed views, so no full-frame array is copied
    if params.orientation == "y":
        img, box = img.T, box[::-1]
    grow = int(np.ceil(2.0 * params.scale_max))
    region = tuple(slice(max(s.start - grow, 0), min(s.stop + grow, n))
                   for s, n in zip(box, img.shape))
    best_mod, best_re, best_im = _morlet_ridge(img, params, region)

    edge = int(np.ceil(2.0 * params.scale_min))
    admitted = np.zeros(img.shape, dtype=bool)
    admitted[edge:img.shape[0] - edge, edge:img.shape[1] - edge] = True
    n_admitted = np.count_nonzero(admitted)
    admitted = admitted[region]
    inside = best_mod[admitted]
    # the normaliser counts the modulus as 0 at admitted pixels outside
    # the region
    ref = (np.percentile(np.concatenate(
        (np.zeros(n_admitted - inside.size), inside)), 95)
        if n_admitted else 0.0)
    valid = admitted & (best_mod >= MOD_FLOOR)
    # quality and phase overwrite the ridge arrays they are computed from
    quality = best_mod
    if ref < MOD_FLOOR:
        quality[:] = 0.0
    else:
        np.clip(np.divide(best_mod, ref, out=quality), 0.0, 1.0, out=quality)
    valid &= quality >= Q_MIN
    if np.count_nonzero(valid) / img.size < 0.01:
        raise NoRidgeError(
            f"orientation {params.orientation!r}: fewer than 1% of pixels pass "
            f"the ridge quality threshold"
        )
    phase = np.arctan2(best_im, best_re, out=best_re)
    phase[~valid] = np.nan

    out = PhaseMap(phase=np.full((h, w), np.nan), quality=np.zeros((h, w)),
                   valid=np.zeros((h, w), dtype=bool))
    for full, part in ((out.phase, phase), (out.quality, quality),
                       (out.valid, valid)):
        (full if params.orientation == "x" else full.T)[region] = part
    return out


def cwt2_phase(frame: np.ndarray, params: WaveletParams) -> PhaseMap:
    """Single-orientation 2D Morlet transform of an (H, W) intensity
    ``frame``, ridge-picked over scales, on the frame's foreground only.

    The sweep runs on the region E: the bounding box of
    :func:`foreground_mask` grown by ``2 scale_max`` px on each side and
    clipped to the frame. Outside E every pixel is invalid, with quality 0.
    For each pixel of E the transform modulus is maximized over a
    log-spaced scale sweep; the phase is the argument at that ridge.

    The quality is the ridge modulus divided by a normaliser: the 95th
    percentile of the ridge modulus over the frame's admitted pixels (at
    least ``2 scale_min`` px inside the frame), with the modulus counted as
    0 at admitted pixels outside E. The 2 ``scale_max`` margin of dark
    background puts the modulus the sweep leaves out of E far below that
    percentile, so on such frames it equals the percentile of a full-frame
    sweep. When E holds fewer than 5% of the admitted pixels, the
    percentile falls on the zeros and the frame raises ``NoRidgeError``.
    Pixels below ``Q_MIN`` quality or ``MOD_FLOOR`` modulus are invalid.

    Each scale's filter is separable: a Gaussian envelope across the fringes
    times a complex carrier along them. Both 1D convolutions run as products
    in the Fourier domain (``numpy.fft``) on E plus the widest kernel's
    half-width of frame samples on each side, mirrored past the frame
    edge, which reproduces full-frame direct convolution with a mirrored
    border to rounding on E. The FFT lengths are rounded up to
    2·3·5-smooth ones. The input's 2-D half-spectrum (``rfft`` along the
    carrier, ``fft`` along the envelope) is taken once; each scale
    multiplies it by its real envelope spectrum, inverts along the envelope
    and runs the cos and sin carrier ``irfft``s. The bank of spectra is
    built once per pair of FFT lengths and ``params`` and cached read-only.
    A scale admits only pixels at least twice the scale inside the frame.

    Raises:
        NoRidgeError: the frame has no foreground, or fewer than 1% of
            pixels pass the quality threshold.
    """
    return _cwt2_on_box(frame, params, _bounding_box(foreground_mask(frame)))


def phase_shift_decode(frames: list[np.ndarray],
                       pattern: PhaseShiftSet) -> PhaseMap:
    """Wrapped phase from N phase-shifted (H, W) intensity frames.

    ``phi = atan2(-sum I_k sin(2 pi k / N), sum I_k cos(2 pi k / N))``, the
    sign convention that reproduces ``2 pi coord / period`` on a noiseless
    render. Quality is the modulation amplitude normalized by its 95th
    percentile; pixels below ``M_MIN`` are invalid.

    Raises:
        ShiftCountError: len(frames) != pattern.n_shifts.
        InvariantViolation: a frame does not have frame 0's shape.
    """
    n = pattern.n_shifts
    if len(frames) != n:
        raise ShiftCountError(f"expected {n} frames, got {len(frames)}")
    frames = [np.asarray(f, dtype=float) for f in frames]
    for k, f in enumerate(frames):
        if f.shape != frames[0].shape:
            raise InvariantViolation(
                f"decode: frame {k} has shape {f.shape}, frame 0 "
                f"{frames[0].shape}")
    stack = np.stack(frames)
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
    return PhaseMap(phase=phase, quality=quality, valid=valid)


def _bounding_box(mask: np.ndarray) -> tuple[slice, slice] | None:
    """Row and column slices of the smallest box holding every set pixel
    of a 2-D mask, or None when no pixel is set."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return (slice(int(rows[0]), int(rows[-1]) + 1),
            slice(int(cols[0]), int(cols[-1]) + 1))


def _unwrap(phase: np.ndarray, quality: np.ndarray, mask: np.ndarray,
            seeds: np.ndarray) -> np.ndarray:
    """Quality-guided flood-fill unwrapping (Ghiglia & Pritt, 1998, ch. 4)
    of ``phase`` over ``mask`` from the flat pixel indices ``seeds``, one
    per 4-connected component of ``mask`` at most; NaN off their components.

    Pixels join in descending quality order (ties in row-major order); each
    one takes the 2 pi multiple that minimizes its jump against its
    highest-quality already-unwrapped neighbor (the first of up, down,
    left, right among equals; 0.0 when none has quality above -1).
    Components never touch, so each one joins in the order it would join
    alone.

    The fill runs on the grid plus a one-pixel invalid rim, so no neighbor
    needs a bounds test. Only the join order comes from a Python heap loop.
    Each pixel's reference is then picked at once, and the values are the
    rounded steps summed along the references (pointer jumping), corrected
    by the fill's rule applied to all pixels at once until no value changes
    bit for bit. A fixed point is the sequential result: by induction along
    the join order, every reference holds its final value. Each round
    settles one more level of references; on real frames the first holds.
    """
    w = mask.shape[1]
    bw = w + 2

    def rimmed(a, dtype):
        return np.pad(np.asarray(a, dtype=dtype), 1).ravel()

    phase, quality = rimmed(phase, float), rimmed(quality, float)
    valid = rimmed(mask, bool)
    n = valid.size
    sy, sx = np.divmod(seeds, w)
    seeds = (sy + 1) * bw + (sx + 1)

    # keys (dense rank of -quality) * n + index order as (-quality, index);
    # 0 marks invalid, seeded or queued pixels. Seeds pop first, as i - n
    key = np.zeros(n, dtype=np.int64)
    key[valid] = (np.unique(-quality[valid], return_inverse=True)[1]
                  .reshape(-1) * n + np.flatnonzero(valid))
    key[seeds] = 0
    key = key.tolist()
    heap = sorted((seeds - n).tolist())
    order = array("q")
    while heap:
        i = heapq.heappop(heap) % n
        order.append(i)
        for j in (i - bw, i + bw, i - 1, i + 1):
            k = key[j]
            if k:
                key[j] = 0
                heapq.heappush(heap, k)

    # each pixel's reference; the rim pixel 0 (phase 0.0, never joined)
    # stands in where no neighbor qualifies
    order = np.frombuffer(order, dtype=np.int64)
    joined = np.full(n, order.size)
    joined[order] = np.arange(order.size)
    pix = order[len(seeds):]
    nbr = pix + np.array([[-bw], [bw], [-1], [1]])
    q = quality[nbr]
    late = (joined[nbr] > joined[pix]) | ~(q > -1.0)
    nbr[late] = 0
    ref = nbr[np.where(late, -np.inf, q).argmax(axis=0), np.arange(pix.size)]

    two_pi = 2.0 * np.pi
    p = phase[pix]
    up = np.zeros(n, dtype=np.int64)
    up[pix] = ref
    turns = np.zeros(n)
    turns[pix] = np.round((phase[ref] - p) / two_pi)
    while up.any():
        turns += turns[up]
        up = up[up]
    out = phase + two_pi * turns
    out[seeds] = phase[seeds]
    while True:
        # np.round rounds half to even and keeps the sign of a zero
        new = p + two_pi * np.round((out[ref] - p) / two_pi)
        if np.array_equal(new.view(np.int64), out[pix].view(np.int64)):
            break
        out[pix] = new
    out[joined == order.size] = np.nan
    return out.reshape(-1, bw)[1:-1, 1:-1]


# ---------------------------------------------------------------------------
# Frame-to-correspondence pipelines.

def foreground_mask(frame: np.ndarray) -> np.ndarray:
    """Bright-region mask of an (H, W) intensity ``frame``: mean intensity
    over a ``FG_SIZE`` window above ``FG_THRESHOLD``, eroded by
    ``FG_ERODE`` px.

    Separates the fringe-lit eye surface from the dark surround so halo
    pixels (wavelet support bleeding into background) are not decoded.

    The erosion runs on the bounding box of the bright pixels only: every
    pixel outside it is dark, and the erosion's border counts as dark, so
    the mask is that of eroding the whole frame.
    """
    from scipy import ndimage

    mean = ndimage.uniform_filter(np.asarray(frame, float), FG_SIZE)
    bright = mean > FG_THRESHOLD
    fg = np.zeros_like(bright)
    box = _bounding_box(bright)
    if box is not None:
        fg[box] = ndimage.binary_erosion(bright[box], FOUR_CONN,
                                         iterations=FG_ERODE)
    return fg


def _phase_cuts(phase: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Pixels of ``valid`` whose wrapped-phase step to a valid neighbor
    exceeds ``MAX_STEP_SCALE`` * pi.

    Between correct fringe samples the wrapped step stays well below pi;
    across the cornea/sclera transition the correspondence jumps by many
    periods and the wrapped step is effectively random. Cutting those pixels
    splits the valid region so each side unwraps (and anchors) separately.

    ``phase`` is read at valid pixels only.
    """
    cut = np.zeros(valid.shape, dtype=bool)
    # NaN makes ``%`` several times slower; pairs with an invalid pixel are
    # masked out below, so any finite stand-in gives the same cut
    p = np.where(valid, phase, 0.0)
    # steps along rows, then along columns through transposed views
    for pv, mv, bad in ((p, valid, cut), (p.T, valid.T, cut.T)):
        d = np.abs((pv[:, 1:] - pv[:, :-1] + np.pi) % (2.0 * np.pi) - np.pi)
        step = mv[:, 1:] & mv[:, :-1] & (d > MAX_STEP_SCALE * np.pi)
        bad[:, 1:] |= step
        bad[:, :-1] |= step
    return cut


def correspondence_from_phases(
    phi_x: PhaseMap,
    phi_y: PhaseMap,
    period_x: float,
    period_y: float,
    anchor_truth: CorrespondenceMap,
    seam_mask: np.ndarray | None = None,
) -> CorrespondenceMap:
    """Unwrap wrapped phase pairs per connected component and anchor each
    component with its simulator-provided true correspondence:
    ``u = (phi_x - phi_x(anchor)) period_x / 2 pi + u0`` on the component,
    and v likewise, at the component's best-quality anchorable pixel (the
    first in row-major order among equals).

    ``seam_mask`` marks pixels straddling a known correspondence
    discontinuity (the cornea/sclera transition); they are invalidated so
    unwrapping cannot carry a wrong 2 pi multiple across. Wrapped-step
    severing alone cannot do this reliably: the multi-period seam jump
    aliases below pi three times out of four. The returned map is the
    union of all components of at least ``MIN_COMPONENT`` pixels; smaller
    fragments and components with no anchorable pixel are dropped. One
    flood fill per axis unwraps all kept components.

    Raises:
        InvariantViolation: ``phi_y``, a channel of ``anchor_truth`` or
            ``seam_mask`` does not have ``phi_x``'s shape, or a period is
            below 4 px or not finite.
    """
    from scipy import ndimage

    shape = phi_x.phase.shape
    others = {"the y phase map": phi_y.phase.shape,
              "the anchor's u": anchor_truth.u.shape,
              "the anchor's v": anchor_truth.v.shape,
              "the anchor's mask": anchor_truth.valid.shape}
    if seam_mask is not None:
        others["the seam mask"] = seam_mask.shape
    wrong = [f"{name} {other}" for name, other in others.items()
             if other != shape]
    if wrong:
        raise InvariantViolation(
            f"decode: the x phase map has shape {shape}, but "
            + ", ".join(wrong))
    if not (4 <= period_x < np.inf and 4 <= period_y < np.inf):
        raise InvariantViolation(f"decode: periods >= 4 px and finite, got "
                                 f"{period_x} and {period_y}")
    # the joint valid mask's box, grown by the pixel a cut at its edge reads
    box = _bounding_box(phi_x.valid & phi_y.valid) or (slice(0, 0),) * 2
    box = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in box)
    joint = np.ones(phi_x.valid[box].shape, dtype=bool)
    for pm in (phi_x, phi_y):
        valid = (pm.valid[box] if seam_mask is None
                 else pm.valid[box] & ~seam_mask[box])
        joint &= valid & ~_phase_cuts(pm.phase[box], valid)
    labels, n = ndimage.label(joint, structure=FOUR_CONN)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0

    # each kept component's anchor: its anchorable pixel of best
    # min(q_x, q_y), the first in row-major order among equals
    idx = np.flatnonzero((sizes >= MIN_COMPONENT)[labels]
                         & anchor_truth.valid[box])
    lab = labels.ravel()[idx]
    q = np.minimum(phi_x.quality[box].ravel()[idx],
                   phi_y.quality[box].ravel()[idx])
    order = np.lexsort((idx, -q, lab))
    comps, first = np.unique(lab[order], return_index=True)
    anchors = idx[order[first]]

    # each pixel's anchor, by its label; -1 on dropped components
    anchor_of = np.full(n + 1, -1)
    anchor_of[comps] = anchors
    at = anchor_of[labels]
    mask = at >= 0
    at = at[mask]
    u_out = np.full(shape, np.nan)
    v_out = np.full(shape, np.nan)
    valid_out = np.zeros(shape, dtype=bool)
    valid_out[box] = mask
    if anchors.size:
        for pm, period, truth, out in (
                (phi_x, period_x, anchor_truth.u, u_out),
                (phi_y, period_y, anchor_truth.v, v_out)):
            phase = _unwrap(pm.phase[box], pm.quality[box], mask, anchors)
            out[box][mask] = ((phase[mask] - phase.ravel()[at]) * period
                              / (2.0 * np.pi) + truth[box].ravel()[at])
    return CorrespondenceMap(u=u_out, v=v_out, valid=valid_out)


def decode_crossed_fringe(
    frame: np.ndarray,
    pattern: CrossedFringe,
    anchor_truth: CorrespondenceMap,
    wavelet_x: WaveletParams,
    wavelet_y: WaveletParams,
    seam_mask: np.ndarray | None = None,
) -> CorrespondenceMap:
    """Single-shot decode: an (H, W) crossed-fringe intensity frame to a
    correspondence map.

    The foreground mask is computed once: it masks both phase maps, and
    its bounding box sets the region both Morlet sweeps run on, as
    :func:`cwt2_phase` derives it. The two sweeps then run concurrently:
    the y sweep on a worker thread that ends with the call, the x sweep on
    the calling thread. Neither reads the other's output, and the map is
    bit-identical to running them one after the other. Errors surface in
    that serial order too, the mask's, then x's, then y's, because the x
    sweep runs where it is called: its error leaves the call once the
    worker has stopped, and y's result is read only after x succeeded.

    Raises:
        InvariantViolation: ``wavelet_x`` is not an "x" orientation or
            ``wavelet_y`` not a "y" one, or ``anchor_truth`` or
            ``seam_mask`` does not have the frame's shape.
        NoRidgeError: as :func:`cwt2_phase`, for either orientation.
    """
    if wavelet_x.orientation != "x" or wavelet_y.orientation != "y":
        raise InvariantViolation(
            f"decode: wavelet_x and wavelet_y must have orientations 'x' and "
            f"'y', got {wavelet_x.orientation!r} and "
            f"{wavelet_y.orientation!r}")
    fg = foreground_mask(frame)
    box = _bounding_box(fg)
    with ThreadPoolExecutor(max_workers=1) as pool:
        future_y = pool.submit(_cwt2_on_box, frame, wavelet_y, box)
        pm_x = _cwt2_on_box(frame, wavelet_x, box)
        pm_y = future_y.result()
    pm_x.valid &= fg
    pm_y.valid &= fg
    return correspondence_from_phases(
        pm_x, pm_y, pattern.period_x, pattern.period_y, anchor_truth,
        seam_mask=seam_mask,
    )


def decode_phase_shift(
    frames_x: list[np.ndarray],
    frames_y: list[np.ndarray],
    pattern_x: PhaseShiftSet,
    pattern_y: PhaseShiftSet,
    anchor_truth: CorrespondenceMap,
    seam_mask: np.ndarray | None = None,
) -> CorrespondenceMap:
    """N-step decode: two stacks of phase-shifted (H, W) intensity frames
    to a correspondence map.

    Raises:
        InvariantViolation: ``pattern_x`` is not an "x" direction or
            ``pattern_y`` not a "y" one.
    """
    if pattern_x.direction != "x" or pattern_y.direction != "y":
        raise InvariantViolation(
            f"decode: pattern_x and pattern_y must have directions 'x' and "
            f"'y', got {pattern_x.direction!r} and {pattern_y.direction!r}")
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
    ap = render_margins(scene, cam_index)["aperture"]
    deg_per_px = pixel_footprint(scene, cam_index)[1]
    return np.isfinite(ap) & (np.abs(ap) < SEAM_WIDTH_PX * deg_per_px)
