import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from deflect_gaze import decode
from deflect_gaze.decode import (WaveletParams, _phase_cuts, _unwrap,
                                 correspondence_from_phases, cwt2_phase,
                                 decode_crossed_fringe, decode_phase_shift,
                                 foreground_mask, phase_shift_decode,
                                 scene_seam_mask, PhaseMap)
from deflect_gaze.errors import (InvariantViolation, NoRidgeError,
                                 ShiftCountError)
from deflect_gaze.geometry import unit
from deflect_gaze.render import (CorrespondenceMap, CrossedFringe,
                                 PhaseShiftSet, render_correspondence,
                                 render_frame)
from deflect_gaze.scene import rotate_eye
from helpers import (assert_continuity, plane_mirror_correspondence,
                     reference_correspondence_from_phases,
                     reference_cwt2_phase, reference_sever_phase_seams,
                     reference_unwrap2)

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def fringe_frame(h=128, w=128, px=16.0, py=None, crossed=False):
    x = np.arange(w)[None, :] * np.ones((h, 1))
    y = np.arange(h)[:, None] * np.ones((1, w))
    if crossed:
        img = 0.5 + 0.25 * np.cos(2 * np.pi * x / px) \
            + 0.25 * np.cos(2 * np.pi * y / py)
    else:
        img = 0.5 + 0.4 * np.cos(2 * np.pi * x / px)
    return img


SINGLESHOT_WAVELET = dict(omega0=3.2, scale_min=3.0, scale_max=16.0)

# eye placements against the frame's edges and corners: (row, column) of
# the disc centre as -1 (top or left edge), 0 (middle) or 1 (bottom or right)
EDGES = {"n": (-1, 0), "s": (1, 0), "w": (0, -1), "e": (0, 1),
         "nw": (-1, -1), "ne": (-1, 1), "sw": (1, -1), "se": (1, 1)}


def disc_frame(h, w, center, radius, seed=0):
    """A crossed fringe on a disc at ``center`` (row, column) over a dark,
    noisy background: a stand-in eye that may be cut by the frame edge."""
    y, x = np.mgrid[:h, :w]
    inside = (y - center[0]) ** 2 + (x - center[1]) ** 2 <= radius ** 2
    fringe = (0.5 + 0.2 * np.cos(2 * np.pi * x / 12.0)
              + 0.2 * np.cos(2 * np.pi * y / 14.0))
    g = np.random.default_rng(seed)
    return np.where(inside, fringe, 0.02) + g.normal(0.0, 0.01, (h, w))


def edge_eye_frame(where, h=120, w=136):
    """``disc_frame`` with the disc cut by the edges named in ``where``."""
    dy, dx = EDGES[where]
    center = ({-1: 6, 0: h // 2, 1: h - 7}[dy], {-1: 6, 0: w // 2, 1: w - 7}[dx])
    return disc_frame(h, w, center, 34.0, seed=list(EDGES).index(where))


@pytest.fixture(scope="module")
def eye_frame(dec_scene):
    """Camera 0 of the decode scene under the single-shot crossed fringe."""
    corr = render_correspondence(dec_scene, 0)
    pat = CrossedFringe(period_x=36.0, period_y=36.0)
    return render_frame(dec_scene, 0, pat, sigma_i=0.01, seed=11,
                        correspondence=corr)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def interior_mask(valid, margin=8):
    m = valid.copy()
    m[:margin, :] = False
    m[-margin:, :] = False
    m[:, :margin] = False
    m[:, -margin:] = False
    return m


class TestCwt2:
    def test_pure_fringe_phase(self):
        frame = fringe_frame(px=16.0)
        pm = cwt2_phase(frame, WaveletParams(orientation="x", scale_min=8.0,
                                             scale_max=24.0, omega0=5.5))
        m = interior_mask(pm.valid)
        col = 4 + 16 * 3
        rows = np.where(m[:, col])[0]
        assert len(rows) > 0
        assert abs(pm.phase[rows[0], col] - np.pi / 2) < 0.05

    def test_wrong_orientation_no_ridge(self):
        frame = fringe_frame(px=16.0)
        wp = WaveletParams(orientation="y", scale_min=8.0, scale_max=24.0,
                           omega0=5.5)
        try:
            pm = cwt2_phase(frame, wp)
            assert (~pm.valid).mean() >= 0.99
        except NoRidgeError:
            pass

    def test_crossed_decode_ignores_other_axis(self):
        pure = fringe_frame(px=16.0)
        crossed = fringe_frame(px=16.0, py=22.0, crossed=True)
        wp = WaveletParams(orientation="x", scale_min=8.0, scale_max=24.0,
                           omega0=5.5)
        pm_p = cwt2_phase(pure, wp)
        pm_c = cwt2_phase(crossed, wp)
        m = interior_mask(pm_p.valid & pm_c.valid)
        d = np.angle(np.exp(1j * (pm_c.phase - pm_p.phase)))[m]
        assert np.abs(d).max() < 0.1

    @pytest.mark.parametrize("orientation", ["x", "y"])
    @pytest.mark.parametrize("case", ["fringe128", "frame40x52", "eye448"]
                             + [f"edge-{k}" for k in EDGES])
    def test_matches_direct_convolution(self, case, orientation, eye_frame):
        # the Fourier-domain sweep on the foreground region against 4
        # full-frame convolve1d passes per scale; the 40x52 frame is
        # shorter than its 96 px padding on both axes, and an eye against
        # an edge or corner takes the region's margin from mirrored samples
        if case == "fringe128":
            frame = fringe_frame(px=16.0, py=22.0, crossed=True)
            wp = WaveletParams(orientation=orientation, scale_min=8.0,
                               scale_max=24.0, omega0=5.5)
        elif case == "frame40x52":
            g = np.random.default_rng(4)
            frame = (fringe_frame(40, 52, px=14.0, py=19.0, crossed=True)
                     + g.normal(0.0, 0.02, (40, 52)))
            wp = WaveletParams(orientation=orientation, scale_min=8.0,
                               scale_max=24.0, omega0=5.5)
        elif case == "eye448":
            frame = eye_frame
            wp = WaveletParams(orientation=orientation, **SINGLESHOT_WAVELET)
        else:
            frame = edge_eye_frame(case.removeprefix("edge-"))
            wp = WaveletParams(orientation=orientation, **SINGLESHOT_WAVELET)
        got = cwt2_phase(frame, wp)
        ref = reference_cwt2_phase(frame, wp)
        assert np.array_equal(got.valid, ref.valid)
        assert got.valid.any()
        assert np.abs(got.quality - ref.quality).max() <= 1e-12
        assert np.array_equal(np.isnan(got.phase), np.isnan(ref.phase))
        d = got.phase[got.valid] - ref.phase[ref.valid]
        assert np.abs(d).max() <= 1e-12

    def test_quality_in_unit_range(self):
        pm = cwt2_phase(fringe_frame(), WaveletParams(orientation="x",
                                                      scale_min=8.0,
                                                      scale_max=24.0,
                                                      omega0=5.5))
        assert pm.quality.min() >= 0.0
        assert pm.quality.max() <= 1.0

    def test_filter_bank_cache(self, eye_frame):
        # interleaved shapes and params: every call equals a call made on a
        # freshly built bank, and the shared bank arrays are read-only
        small = fringe_frame(40, 52, px=14.0, py=19.0, crossed=True)
        cases = [(frame, WaveletParams(orientation=o, **kw))
                 for frame in (eye_frame, small)
                 for o, kw in (("x", SINGLESHOT_WAVELET),
                               ("y", dict(scale_min=8.0, scale_max=24.0,
                                          omega0=5.5)))]
        fresh = []
        for frame, wp in cases:
            decode._filter_bank.cache_clear()
            fresh.append(cwt2_phase(frame, wp))
        for _ in range(2):
            for (frame, wp), ref in zip(cases, fresh):
                got = cwt2_phase(frame, wp)
                for a, b in ((got.phase, ref.phase),
                             (got.quality, ref.quality),
                             (got.valid, ref.valid)):
                    assert same_bits(a, b)
        for _, wp in cases:
            bank = decode._filter_bank(300, 360, wp.scale_min, wp.scale_max,
                                       wp.omega0)
            assert len(bank) == decode.N_SCALES
            for _, *spectra in bank:
                for a in spectra:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0] = 0.0


    def test_bank_lengths_and_count(self, dec_scene, monkeypatch):
        # the regions of the benchmark's six frames round to 5-smooth FFT
        # lengths, and so few pairs of them that the bank cache holds
        pat = CrossedFringe(period_x=36.0, period_y=36.0)
        frames = []
        for a in (-3.0, 0.0, 3.0):
            sc = replace(dec_scene, eye=rotate_eye(dec_scene.eye, a, 0.0))
            frames += [render_frame(sc, cam, pat, sigma_i=0.01, seed=40 + cam,
                                    correspondence=render_correspondence(
                                        sc, cam))
                       for cam in (0, 1)]
        bank = decode._filter_bank
        keys = []

        def recording(*key):
            keys.append(key)
            return bank(*key)

        monkeypatch.setattr(decode, "_filter_bank", recording)

        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        for o in ("x", "y"):
            bank.cache_clear()
            keys.clear()
            wp = WaveletParams(orientation=o, **SINGLESHOT_WAVELET)
            for frame in frames:
                cwt2_phase(frame, wp)
            assert len(keys) == 6
            assert all(smooth(n) for key in keys for n in key[:2])
            info = bank.cache_info()
            assert info.misses == len(set(keys)) <= 2
            assert info.hits == 6 - info.misses

    @pytest.mark.parametrize("orientation", ["x", "y"])
    def test_no_foreground(self, orientation):
        wp = WaveletParams(orientation=orientation, **SINGLESHOT_WAVELET)
        with pytest.raises(NoRidgeError, match=f"'{orientation}'"):
            cwt2_phase(np.zeros((128, 128)), wp)

    def test_region_share_below_normaliser_rank(self):
        # the same small eye decodes in a 160 px frame, where its region
        # holds 32% of the admitted pixels; in a 448 px frame the region
        # holds 4.5%, so the 95th percentile falls on the zeros around it
        wp = WaveletParams(orientation="x", **SINGLESHOT_WAVELET)
        small = disc_frame(160, 160, (80, 80), 14.0)
        assert cwt2_phase(small, wp).valid.any()
        with pytest.raises(NoRidgeError, match="'x'"):
            cwt2_phase(disc_frame(448, 448, (224, 224), 14.0), wp)


class TestWaveletParams:
    @pytest.mark.parametrize("omega0", [0.0, -3.2, np.nan, np.inf])
    def test_rejects_omega0(self, omega0):
        with pytest.raises(InvariantViolation, match="omega0"):
            WaveletParams(orientation="x", omega0=omega0, scale_min=6.0,
                          scale_max=24.0)

    @pytest.mark.parametrize("scale_max", [np.inf, np.nan, 4.0])
    def test_rejects_scale_range(self, scale_max):
        with pytest.raises(InvariantViolation, match="scale_max"):
            WaveletParams(orientation="x", scale_min=6.0, scale_max=scale_max,
                          omega0=5.5)


class TestPhaseShiftDecode:
    def test_four_step_exact(self):
        x = np.arange(64)[None, :] * np.ones((8, 1))
        true_phase = 2 * np.pi * x / 32.0
        pat = PhaseShiftSet(period=32.0, n_shifts=4, direction="x")
        frames = [0.5 + 0.4 * np.cos(true_phase + 2 * np.pi * k / 4)
                  for k in range(4)]
        pm = phase_shift_decode(frames, pat)
        wrapped_true = np.angle(np.exp(1j * true_phase))
        d = np.angle(np.exp(1j * (pm.phase - wrapped_true)))[pm.valid]
        assert np.abs(d).max() < 1e-6

    def test_constant_frames_all_invalid(self):
        pat = PhaseShiftSet(period=32.0, n_shifts=4, direction="x")
        frames = [np.full((16, 16), 0.5) for _ in range(4)]
        pm = phase_shift_decode(frames, pat)
        assert not pm.valid.any()

    def test_shift_count_mismatch(self):
        pat = PhaseShiftSet(period=32.0, n_shifts=4, direction="x")
        with pytest.raises(ShiftCountError):
            phase_shift_decode([np.zeros((8, 8))] * 3, pat)

    def test_rejects_frames_of_different_shapes(self):
        pat = PhaseShiftSet(period=32.0, n_shifts=4, direction="x")
        frames = [np.zeros((8, 8)), np.zeros((8, 8)), np.zeros((8, 9)),
                  np.zeros((9, 8))]
        with pytest.raises(InvariantViolation,
                           match=r"frame 2 .*\(8, 9\).*frame 0 \(8, 8\)"):
            phase_shift_decode(frames, pat)

    @pytest.mark.parametrize("directions", [("y", "x"), ("x", "x"),
                                            ("y", "y")])
    def test_rejects_pattern_directions(self, directions):
        # u is scaled by pattern_x's period and v by pattern_y's, so a
        # swapped pair would decode each axis with the other's period
        px, py = (PhaseShiftSet(period=p, n_shifts=4, direction=d)
                  for p, d in zip((80.0, 60.0), directions))
        frames = [np.zeros((16, 16))] * 4
        with pytest.raises(InvariantViolation, match="directions"):
            decode_phase_shift(frames, frames, px, py,
                               all_valid_anchor((16, 16)))

    def test_noise_rmse(self, scene, corr_pair):
        # per-pixel RMSE vs ground truth on the rendered eye, N=8
        corr = corr_pair[0]
        pat = PhaseShiftSet(period=80.0, n_shifts=8, direction="x")
        rng = np.random.default_rng(0)
        frames = [render_frame(scene, 0, pat, k, sigma_i=0.01, seed=300 + k,
                               correspondence=corr) for k in range(8)]
        pm = phase_shift_decode(frames, pat)
        truth = np.angle(np.exp(1j * 2 * np.pi * corr.u / 80.0))
        m = pm.valid & corr.valid
        d = np.angle(np.exp(1j * (pm.phase - truth)))[m]
        assert np.sqrt(np.mean(d ** 2)) < 0.02


def unwrap_one(pm, seed_pixel):
    """``_unwrap`` of ``pm`` over its valid mask from one seed pixel (x, y)."""
    sx, sy = seed_pixel
    seed = np.array([sy * pm.phase.shape[1] + sx])
    return _unwrap(pm.phase, pm.quality, pm.valid, seed)


class TestUnwrap2:
    def test_linear_ramp(self):
        x = np.arange(64)[None, :] * np.ones((32, 1))
        true = 0.7 * x
        pm = PhaseMap(phase=np.angle(np.exp(1j * true)),
                      quality=np.ones((32, 64)),
                      valid=np.ones((32, 64), dtype=bool))
        out = unwrap_one(pm, (0, 0))
        offset = out[0, 0] - true[0, 0]
        assert np.abs(out - true - offset).max() < 1e-6
        assert_continuity(out)

    def test_already_continuous_unchanged(self):
        g = np.random.default_rng(3)
        smooth = ndimage.gaussian_filter(g.normal(size=(24, 24)), 4.0)
        pm = PhaseMap(phase=smooth, quality=np.ones((24, 24)),
                      valid=np.ones((24, 24), dtype=bool))
        out = unwrap_one(pm, (5, 5))
        d = out - smooth
        k = np.round(d[5, 5] / (2 * np.pi))
        assert np.abs(d - 2 * np.pi * k).max() < 1e-12

    def test_disconnected_component_stays_invalid(self):
        valid = np.zeros((8, 8), dtype=bool)
        valid[:, :3] = True
        valid[:, 5:] = True
        pm = PhaseMap(phase=np.zeros((8, 8)), quality=np.ones((8, 8)),
                      valid=valid)
        out = unwrap_one(pm, (0, 0))
        assert np.isfinite(out[:, :3]).all()
        assert np.isnan(out[:, 5:]).all()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_grid_reference(self, data):
        # arbitrary wrapped or unwrapped phases, so a continuous unwrap
        # usually does not exist; few quality levels, so heap ties are
        # common; exact multiples of pi exercise round-half-to-even and
        # signed zeros
        h = data.draw(st.integers(1, 14), label="h")
        w = data.draw(st.integers(1, 14), label="w")
        valid = data.draw(arrays(bool, (h, w)), label="valid")
        sy = data.draw(st.integers(0, h - 1), label="seed y")
        sx = data.draw(st.integers(0, w - 1), label="seed x")
        valid[sy, sx] = True
        phase = data.draw(arrays(float, (h, w), elements=st.one_of(
            st.floats(-20.0, 20.0),
            st.sampled_from([0.0, -0.0, np.pi, -np.pi, 3.0 * np.pi]))),
            label="phase")
        quality = data.draw(arrays(float, (h, w), elements=st.sampled_from(
            [0.0, 0.25, 0.5, 1.0])), label="quality")
        pm = PhaseMap(phase=phase, quality=quality, valid=valid)
        got = unwrap_one(pm, (sx, sy))
        ref = reference_unwrap2(pm, (sx, sy))
        assert same_bits(got, ref.phase)
        assert same_bits(~np.isnan(got), ref.valid)

    @pytest.mark.parametrize("fdtype,vdtype", [
        (np.float32, bool), (np.float64, np.uint8), (np.float32, np.int64)])
    def test_other_dtypes_match_grid_reference(self, fdtype, vdtype):
        g = np.random.default_rng(11)
        valid = g.random((12, 15)) < 0.7
        valid[6, 7] = True
        pm = PhaseMap(phase=g.uniform(-12.0, 12.0, (12, 15)).astype(fdtype),
                      quality=g.choice([0.25, 0.5, 1.0], (12, 15)).astype(fdtype),
                      valid=valid.astype(vdtype))
        got = unwrap_one(pm, (7, 6))
        ref = reference_unwrap2(pm, (7, 6))
        assert np.isfinite(got).sum() > 1
        assert same_bits(got, ref.phase)
        assert same_bits(~np.isnan(got), ref.valid)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_seeds_fill_as_each_component_alone(self, data):
        # one fill from a seed in each of several components equals the
        # reference filling each component alone; quality clipped at 1.0
        # makes heap ties the norm, and components without a seed stay NaN
        h = data.draw(st.integers(2, 16), label="h")
        w = data.draw(st.integers(2, 16), label="w")
        valid = data.draw(arrays(bool, (h, w)), label="valid")
        labels, n = ndimage.label(valid, structure=FOUR)
        if n == 0:
            return
        phase = data.draw(arrays(float, (h, w), elements=st.one_of(
            st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, np.pi]))),
            label="phase")
        quality = data.draw(arrays(float, (h, w), elements=st.sampled_from(
            [0.5, 1.0, 1.0, 1.0])), label="quality")
        seeded = data.draw(st.lists(st.integers(1, n), min_size=1,
                                    unique=True), label="seeded components")
        seeds = []
        want = np.full((h, w), np.nan)
        for c in seeded:
            pixels = np.flatnonzero(labels == c)
            s = int(pixels[data.draw(st.integers(0, pixels.size - 1))])
            seeds.append(s)
            alone = PhaseMap(phase, quality, labels == c)
            ref = reference_unwrap2(alone, (s % w, s // w))
            want[labels == c] = ref.phase[labels == c]
        got = _unwrap(phase, quality, valid, np.array(seeds))
        assert same_bits(got, want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_exact_pi_steps_on_long_strips(self, data):
        # every step along a row is exactly +-pi (the phases are -2 pi ..
        # 2 pi, all exact), so every join rounds a tie whose side the
        # unwrapped value's own rounding error picks: summing each pixel's
        # rounded step along its references misses the sequential fill,
        # and the fill iterates its rule for several rounds
        h = data.draw(st.integers(1, 2), label="h")
        w = data.draw(st.integers(2, 200), label="w")
        start = data.draw(arrays(np.int64, (h, 1), elements=st.integers(-2, 2)),
                          label="start")
        steps = data.draw(arrays(np.int64, (h, w - 1),
                                 elements=st.sampled_from([-1, 1])),
                          label="steps")
        c = np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1)
        # a walk folded into -2 .. 2, still one step per pixel
        phase = (2 - np.abs((c + 2) % 8 - 4)) * np.pi
        assert (np.abs(np.diff(phase, axis=1)) == np.pi).any()
        quality = data.draw(arrays(float, (h, w), elements=st.sampled_from(
            [0.5, 1.0, 1.0])), label="quality")
        sy = data.draw(st.integers(0, h - 1), label="seed y")
        sx = data.draw(st.integers(0, w - 1), label="seed x")
        pm = PhaseMap(phase=phase, quality=quality,
                      valid=np.ones((h, w), dtype=bool))
        got = unwrap_one(pm, (sx, sy))
        assert same_bits(got, reference_unwrap2(pm, (sx, sy)).phase)

    def test_eye_phase_unwrap_matches_truth(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        pat = PhaseShiftSet(period=80.0, n_shifts=8, direction="x")
        frames = [render_frame(scene, 0, pat, k, sigma_i=0.0, seed=0,
                               correspondence=corr)
                  for k in range(8)]
        pm = phase_shift_decode(frames, pat)
        pm.valid &= ~seam
        # same slope guard the pipeline applies
        pm.valid &= ~_phase_cuts(pm.phase, pm.valid)
        lab, n = ndimage.label(pm.valid, structure=FOUR)
        sizes = ndimage.sum(pm.valid, lab, range(1, n + 1))
        comp = int(np.argmax(sizes)) + 1
        pm.valid &= lab == comp
        ys, xs = np.nonzero(pm.valid)
        seed = (int(xs[len(xs) // 2]), int(ys[len(ys) // 2]))
        out = unwrap_one(pm, seed)
        true = 2 * np.pi * corr.u / 80.0
        m = np.isfinite(out) & corr.valid
        d = out[m] - true[m]
        k = np.round(np.median(d) / (2 * np.pi))
        resid = d - 2 * np.pi * k
        assert (np.abs(resid) < 0.05).mean() > 0.99
        assert_continuity(out)


def full_frame_foreground(frame):
    """``foreground_mask`` with the erosion run on the whole frame."""
    mean = ndimage.uniform_filter(np.asarray(frame, float), decode.FG_SIZE)
    return ndimage.binary_erosion(mean > decode.FG_THRESHOLD,
                                  decode.FOUR_CONN,
                                  iterations=decode.FG_ERODE)


class TestForegroundMask:
    """``foreground_mask`` erodes only the bright pixels' bounding box; it
    must return the whole-frame erosion's mask bit for bit."""

    @pytest.mark.parametrize("case", ["eye448", "dark", "bright"]
                             + [f"edge-{k}" for k in EDGES])
    def test_equals_full_frame_erosion(self, case, eye_frame):
        if case == "eye448":
            frame = eye_frame
        elif case in ("dark", "bright"):
            frame = np.full((40, 52), 0.02 if case == "dark" else 0.8)
        else:
            frame = edge_eye_frame(case.removeprefix("edge-"))
        got = foreground_mask(frame)
        assert same_bits(got, full_frame_foreground(frame))
        assert got.any() == (case != "dark")

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 40),
           w=st.integers(1, 40), level=st.floats(0.0, 0.8))
    def test_random_frames(self, seed, h, w, level):
        frame = np.random.default_rng(seed).uniform(0.0, level, (h, w))
        assert same_bits(foreground_mask(frame),
                         full_frame_foreground(frame))


class TestSeverPhaseSeams:
    def test_matches_nan_input_reference(self, eye_frame):
        fg = foreground_mask(eye_frame)
        maps = [cwt2_phase(eye_frame, WaveletParams(orientation=o,
                                                    **SINGLESHOT_WAVELET))
                for o in ("x", "y")]
        for pm in maps:
            pm.valid &= fg
        g = np.random.default_rng(2)
        maps.append(PhaseMap(phase=g.uniform(-np.pi, np.pi, (37, 41)),
                             quality=np.ones((37, 41)),
                             valid=g.random((37, 41)) < 0.7))
        empty = PhaseMap(phase=g.uniform(-np.pi, np.pi, (37, 41)),
                         quality=np.ones((37, 41)),
                         valid=np.zeros((37, 41), dtype=bool))
        for pm in maps + [empty]:
            pm.phase[~pm.valid] = np.nan
            got = pm.valid & ~_phase_cuts(pm.phase, pm.valid)
            ref = reference_sever_phase_seams(pm)
            assert same_bits(got, ref.valid)
            # every non-empty map has a seam to cut
            assert (~got & pm.valid).any() == (pm is not empty)


@st.composite
def component_maps(draw):
    """Wrapped phase maps whose joint valid mask holds a ring along the
    frame edge, whose bounding box holds every other component's box; an
    anchorable block; a fragment below ``MIN_COMPONENT``; a block with no
    anchorable pixel; and optional random holes that split them further."""
    h = draw(st.integers(32, 44))
    w = draw(st.integers(32, 44))
    t = draw(st.integers(2, 3))
    valid = np.zeros((h, w), dtype=bool)
    valid[:t] = valid[-t:] = True
    valid[:, :t] = valid[:, -t:] = True
    top, bottom = t + 1, h - t - 1
    left = t + 1
    block_w = draw(st.integers(7, 9))
    valid[top:bottom, left:left + block_w] = True
    frag = left + block_w + 1
    frag_h = draw(st.integers(1, 63 // 4))
    valid[top:top + frag_h, frag:frag + 4] = True
    lone = slice(frag + 5, w - t - 1)
    valid[top:bottom, lone] = True
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    holes = draw(st.sampled_from([0.0, 0.02, 0.08]))
    valid &= g.random((h, w)) >= holes

    y, x = np.mgrid[:h, :w]
    maps = []
    for _ in range(2):
        slope = g.uniform(-1.5, 1.5, 2)
        noise = draw(st.sampled_from([0.0, 0.3, 0.6]))
        phase = np.angle(np.exp(1j * (slope[0] * x + slope[1] * y
                                      + g.normal(0.0, noise, (h, w)))))
        quality = g.integers(1, 6, (h, w)) / 5.0
        phase[~valid] = np.nan
        maps.append(PhaseMap(phase, quality, valid.copy()))
    anchor_valid = g.random((h, w)) < draw(st.sampled_from([0.05, 0.3, 1.0]))
    anchor_valid[:, lone] = False
    anchor = CorrespondenceMap(u=g.uniform(0, 500, (h, w)),
                               v=g.uniform(0, 500, (h, w)),
                               valid=anchor_valid)
    seam = g.random((h, w)) < 0.05 if draw(st.booleans()) else None
    return maps, anchor, seam


def path_dependent_edges(phase, coord, valid, period):
    """Neighbor pairs of ``valid`` whose unwrapped step (``coord`` scaled
    back to radians) is not their wrapped phase step: a fill along any
    path through such an edge would decode another map."""
    count = 0
    rest, head, tail = slice(None), slice(None, -1), slice(1, None)
    for a, b in (((rest, head), (rest, tail)), ((head, rest), (tail, rest))):
        step = 2.0 * np.pi * (coord[b] - coord[a]) / period
        wrapped = np.angle(np.exp(1j * (phase[b] - phase[a])))
        count += np.count_nonzero((np.abs(step - wrapped) > np.pi)
                                  [valid[a] & valid[b]])
    return count


class TestCorrespondenceFromPhases:
    @pytest.mark.parametrize("seam", [False, True])
    def test_matches_reference(self, dec_scene, seam):
        for cam in (0, 1):
            corr = render_correspondence(dec_scene, cam)
            frame = render_frame(dec_scene, cam,
                                 CrossedFringe(period_x=36.0, period_y=36.0),
                                 sigma_i=0.01, seed=20 + cam,
                                 correspondence=corr)
            fg = foreground_mask(frame)
            maps = [cwt2_phase(frame, WaveletParams(orientation=o,
                                                    **SINGLESHOT_WAVELET))
                    for o in ("x", "y")]
            for pm in maps:
                pm.valid &= fg
                pm.phase[~pm.valid] = np.nan
            seam_mask = scene_seam_mask(dec_scene, cam) if seam else None
            got = correspondence_from_phases(*maps, 36.0, 36.0, corr,
                                             seam_mask=seam_mask)
            ref = reference_correspondence_from_phases(*maps, 36.0, 36.0, corr,
                                                       seam_mask=seam_mask)
            assert got.n_valid > 3000
            for a, b in ((got.u, ref.u), (got.v, ref.v),
                         (got.valid, ref.valid)):
                assert same_bits(a, b)
            # the y fill's order matters on these frames: a fill along
            # another spanning tree would decode another map
            assert path_dependent_edges(maps[1].phase, got.v, got.valid,
                                        36.0) > 0

    @settings(max_examples=80, deadline=None)
    @given(component_maps(), st.sampled_from([36.0, 20.0]))
    def test_matches_reference_on_synthetic_components(self, case, period):
        (phi_x, phi_y), anchor, seam = case
        got = correspondence_from_phases(phi_x, phi_y, period, 36.0, anchor,
                                         seam_mask=seam)
        ref = reference_correspondence_from_phases(phi_x, phi_y, period, 36.0,
                                                   anchor, seam_mask=seam)
        for a, b in ((got.u, ref.u), (got.v, ref.v), (got.valid, ref.valid)):
            assert same_bits(a, b)

    def test_anchor_is_first_of_tied_best(self):
        # two 10 x 10 components of flat phase, each with two anchorable
        # pixels at the best min(q_x, q_y) = 1.0; a pixel with q_x = 1.0
        # but a lower q_y does not count as best. The whole component
        # takes the true coordinates of its first tied pixel in row-major
        # order, so a last-tie rule (``ndimage.maximum_position``) fails
        valid = np.zeros((12, 24), dtype=bool)
        valid[1:11, 1:11] = valid[1:11, 13:23] = True
        q_x = np.full(valid.shape, 0.5)
        q_y = np.full(valid.shape, 0.5)
        for y, x in ((3, 4), (8, 2), (2, 20), (9, 14)):
            q_x[y, x] = q_y[y, x] = 1.0
        q_x[1, 1] = 1.0
        maps = [PhaseMap(np.where(valid, 0.0, np.nan), q, valid.copy())
                for q in (q_x, q_y)]
        y, x = np.mgrid[:12, :24].astype(float)
        anchor = CorrespondenceMap(u=x, v=y, valid=np.ones(valid.shape, bool))
        got = correspondence_from_phases(*maps, 36.0, 36.0, anchor)
        assert np.array_equal(got.valid, valid)
        for cols, (ay, ax) in ((slice(1, 11), (3, 4)),
                               (slice(13, 23), (2, 20))):
            assert (got.u[1:11, cols] == ax).all()
            assert (got.v[1:11, cols] == ay).all()

    def test_cut_reads_neighbor_outside_joint_box(self):
        # x is valid one column further right than y, across a phase step
        # of 2.5 rad; the step cuts the joint mask's last column, although
        # the column it reads lies outside the joint mask's bounding box
        valid_y = np.zeros((12, 24), dtype=bool)
        valid_y[1:11, 1:11] = True
        valid_x = valid_y.copy()
        valid_x[1:11, 11] = True
        phase_x = np.where(valid_x, 0.0, np.nan)
        phase_x[1:11, 11] = 2.5
        maps = [PhaseMap(phase_x, np.ones(valid_x.shape), valid_x),
                PhaseMap(np.where(valid_y, 0.0, np.nan),
                         np.ones(valid_y.shape), valid_y)]
        y, x = np.mgrid[:12, :24].astype(float)
        anchor = CorrespondenceMap(u=x, v=y, valid=np.ones(valid_x.shape, bool))
        got = correspondence_from_phases(*maps, 36.0, 36.0, anchor)
        ref = reference_correspondence_from_phases(*maps, 36.0, 36.0, anchor)
        want = valid_y.copy()
        want[:, 10] = False
        assert np.array_equal(got.valid, want)
        for a, b in ((got.u, ref.u), (got.v, ref.v), (got.valid, ref.valid)):
            assert same_bits(a, b)

    def test_gauge_invariance(self, scene, corr_pair):
        # a constant added to a wrapped map moves the anchor pixel's phase
        # with it, so the map does not change
        corr = corr_pair[0]
        maps = []
        for direction in ("x", "y"):
            pat = PhaseShiftSet(period=80.0, n_shifts=8, direction=direction)
            maps.append(phase_shift_decode(
                [render_frame(scene, 0, pat, k, sigma_i=0.0, seed=0,
                              correspondence=corr)
                 for k in range(8)], pat))
        seam = scene_seam_mask(scene, 0)
        ref = correspondence_from_phases(*maps, 80.0, 80.0, corr,
                                         seam_mask=seam)
        assert ref.n_valid > 800
        for cx, cy in ((1.2345, 0.0), (0.0, -2.5), (np.pi, 2.0 * np.pi)):
            shifted = [PhaseMap(np.angle(np.exp(1j * (pm.phase + c))),
                                pm.quality, pm.valid)
                       for pm, c in zip(maps, (cx, cy))]
            got = correspondence_from_phases(*shifted, 80.0, 80.0, corr,
                                             seam_mask=seam)
            assert np.array_equal(got.valid, ref.valid)
            assert np.abs(got.u - ref.u)[ref.valid].max() <= 1e-9
            assert np.abs(got.v - ref.v)[ref.valid].max() <= 1e-9

    @pytest.mark.parametrize("period", [2.0, np.nan, np.inf])
    def test_rejects_period(self, period):
        frame = fringe_frame(px=16.0, py=22.0, crossed=True)
        maps = [cwt2_phase(frame, WaveletParams(orientation=o, scale_min=8.0,
                                                scale_max=24.0, omega0=5.5))
                for o in ("x", "y")]
        for px, py in ((period, 36.0), (36.0, period)):
            with pytest.raises(InvariantViolation, match="periods"):
                correspondence_from_phases(*maps, px, py,
                                           all_valid_anchor((128, 128)))


class TestDecoderConsistency:
    def test_end_to_end_matches_truth(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        dec = decode_phase_shift(
            *[[render_frame(scene, 0, p, k, sigma_i=0.0, seed=0,
                            correspondence=corr)
               for k in range(8)]
              for p in (PhaseShiftSet(period=80.0, n_shifts=8, direction="x"),
                        PhaseShiftSet(period=80.0, n_shifts=8,
                                      direction="y"))],
            PhaseShiftSet(period=80.0, n_shifts=8, direction="x"),
            PhaseShiftSet(period=80.0, n_shifts=8, direction="y"),
            corr, seam_mask=seam)
        m = dec.valid & corr.valid
        e = np.hypot(dec.u[m] - corr.u[m], dec.v[m] - corr.v[m])
        assert (e < 0.05).mean() > 0.99

    def test_noiseless_median(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        px = PhaseShiftSet(period=80.0, n_shifts=8, direction="x")
        py = PhaseShiftSet(period=80.0, n_shifts=8, direction="y")
        fx = [render_frame(scene, 0, px, k, sigma_i=0.0, seed=0,
                           correspondence=corr)
              for k in range(8)]
        fy = [render_frame(scene, 0, py, k, sigma_i=0.0, seed=0,
                           correspondence=corr)
              for k in range(8)]
        dec = decode_phase_shift(fx, fy, px, py, corr, seam_mask=seam)
        m = dec.valid & corr.valid
        assert m.sum() > 800
        e = np.hypot(dec.u[m] - corr.u[m], dec.v[m] - corr.v[m])
        assert np.median(e) < 0.1

    def test_noisy_median(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        px = PhaseShiftSet(period=80.0, n_shifts=8, direction="x")
        py = PhaseShiftSet(period=80.0, n_shifts=8, direction="y")
        fx = [render_frame(scene, 0, px, k, sigma_i=0.01, seed=100 + k,
                           correspondence=corr) for k in range(8)]
        fy = [render_frame(scene, 0, py, k, sigma_i=0.01, seed=200 + k,
                           correspondence=corr) for k in range(8)]
        dec = decode_phase_shift(fx, fy, px, py, corr, seam_mask=seam)
        m = dec.valid & corr.valid
        e = np.hypot(dec.u[m] - corr.u[m], dec.v[m] - corr.v[m])
        assert np.median(e) < 0.5

    def test_cwt_agrees_with_phase_shift_on_plane_mirror(self, scene):
        p0 = np.array([0.0, 0.0, 12.0])
        cam = scene.cameras[0]
        screen_mid = scene.screen.uv_to_world(299.5, 169.5)
        n = unit(unit(cam.center - p0) + unit(screen_mid - p0))
        corr = plane_mirror_correspondence(scene, 0, p0, n)
        period = 24.0
        cf = CrossedFringe(period_x=period, period_y=period)
        frame = render_frame(scene, 0, cf, sigma_i=0.0, seed=0,
                             correspondence=corr)
        ps = PhaseShiftSet(period=period, n_shifts=8, direction="x")
        frames = [render_frame(scene, 0, ps, k, sigma_i=0.0, seed=0,
                               correspondence=corr)
                  for k in range(8)]
        pm_cwt = cwt2_phase(frame, WaveletParams(
            orientation="x", scale_min=6.0, scale_max=24.0, omega0=5.5))
        pm_ps = phase_shift_decode(frames, ps)
        joint = pm_cwt.valid & pm_ps.valid & corr.valid
        joint = ndimage.binary_erosion(joint, FOUR, iterations=3)
        d = np.angle(np.exp(1j * (pm_cwt.phase - pm_ps.phase)))[joint]
        assert joint.sum() > 2000
        assert np.sqrt(np.mean(d ** 2)) < 0.1

    def test_cwt_eye_scene_regression(self, dec_scene):
        # chirped reflection off the curved eye: the single-shot transform
        # carries a known ridge bias here; guard against regressions only
        corr = render_correspondence(dec_scene, 0)
        seam = scene_seam_mask(dec_scene, 0)
        pat = CrossedFringe(period_x=36.0, period_y=36.0)
        frame = render_frame(dec_scene, 0, pat, sigma_i=0.0, seed=0,
                             correspondence=corr)
        wx = WaveletParams(orientation="x", omega0=3.2, scale_min=3.0,
                           scale_max=16.0)
        wy = WaveletParams(orientation="y", omega0=3.2, scale_min=3.0,
                           scale_max=16.0)
        dec = decode_crossed_fringe(frame, pat, corr, wx, wy, seam_mask=seam)
        m = dec.valid & corr.valid
        assert m.sum() > 3000
        e = np.hypot(dec.u[m] - corr.u[m], dec.v[m] - corr.v[m])
        assert np.median(e) < 8.0


def serial_decode(frame, pattern, anchor, wavelets, seam_mask=None):
    """``decode_crossed_fringe`` composed from its stages on one thread."""
    fg = foreground_mask(frame)
    maps = [cwt2_phase(frame, w) for w in wavelets]
    for pm in maps:
        pm.valid &= fg
        pm.phase[~pm.valid] = np.nan
    return correspondence_from_phases(*maps, pattern.period_x,
                                      pattern.period_y, anchor,
                                      seam_mask=seam_mask)


def all_valid_anchor(shape):
    return CorrespondenceMap(u=np.zeros(shape), v=np.zeros(shape),
                             valid=np.ones(shape, dtype=bool))


class TestDecodeCrossedFringe:
    PATTERN = CrossedFringe(period_x=36.0, period_y=36.0)
    WAVELETS = [WaveletParams(orientation=o, **SINGLESHOT_WAVELET)
                for o in ("x", "y")]
    SMALL = [WaveletParams(orientation=o, scale_min=8.0, scale_max=24.0,
                           omega0=5.5)
             for o in ("x", "y")]

    @pytest.mark.parametrize("a", [-6.0, 0.0, 6.0])
    def test_matches_serial_composition(self, dec_scene, a):
        sc = replace(dec_scene, eye=rotate_eye(dec_scene.eye, a, 0.0))
        for cam in (0, 1):
            truth = render_correspondence(sc, cam)
            frame = render_frame(sc, cam, self.PATTERN, sigma_i=0.01,
                                 seed=30 + cam, correspondence=truth)
            for seam in (None, scene_seam_mask(sc, cam)):
                got = decode_crossed_fringe(frame, self.PATTERN, truth,
                                            *self.WAVELETS, seam_mask=seam)
                ref = serial_decode(frame, self.PATTERN, truth, self.WAVELETS,
                                    seam_mask=seam)
                assert got.n_valid > 3000
                for x, y in ((got.u, ref.u), (got.v, ref.v),
                             (got.valid, ref.valid)):
                    assert same_bits(x, y)

    def test_errors_in_serial_order(self):
        # a frame with one carrier fails the other orientation; a flat frame
        # and a frame with no foreground fail both, and x's error comes first
        pattern = CrossedFringe(period_x=16.0, period_y=16.0)
        anchor = all_valid_anchor((128, 128))
        x_only = fringe_frame(px=16.0)
        cases = ((x_only, "'y'"), (x_only.T.copy(), "'x'"),
                 (np.full((128, 128), 0.5), "'x'"),
                 (np.zeros((128, 128)), "'x'.*no foreground"))
        for frame, name in cases:
            with pytest.raises(NoRidgeError, match=name):
                decode_crossed_fringe(frame, pattern, anchor, *self.SMALL)

    @pytest.mark.parametrize("slot", [0, 1])
    def test_rejects_wrong_orientation(self, slot):
        wavelets = list(self.SMALL)
        wavelets[slot] = replace(wavelets[slot],
                                 orientation=wavelets[1 - slot].orientation)
        frame = fringe_frame(px=16.0, py=22.0, crossed=True)
        with pytest.raises(InvariantViolation, match="orientation"):
            decode_crossed_fringe(frame, self.PATTERN,
                                  all_valid_anchor((128, 128)), *wavelets)

    @pytest.mark.parametrize("size", [160, 100])
    def test_rejects_anchor_of_another_shape(self, size):
        # a larger anchor would be read at the wrong pixels, a smaller one
        # fail inside numpy
        frame = fringe_frame(px=16.0, py=22.0, crossed=True)
        with pytest.raises(InvariantViolation,
                           match=rf"\(128, 128\).*\({size}, {size}\)"):
            decode_crossed_fringe(frame, self.PATTERN,
                                  all_valid_anchor((size, size)), *self.SMALL)

    @pytest.mark.parametrize("shape", [(1, 128), (64, 64)],
                             ids=["1x128", "64x64"])
    def test_rejects_seam_mask_of_another_shape(self, shape):
        # a (1, W) mask would broadcast and cut whole columns, a (64, 64)
        # one fail inside numpy
        frame = fringe_frame(px=16.0, py=22.0, crossed=True)
        with pytest.raises(InvariantViolation,
                           match=r"\(128, 128\).*seam mask "
                           + re.escape(str(shape))):
            decode_crossed_fringe(frame, self.PATTERN,
                                  all_valid_anchor((128, 128)), *self.SMALL,
                                  seam_mask=np.zeros(shape, dtype=bool))

    def test_rejects_phase_maps_of_different_shapes(self):
        frame = fringe_frame(px=16.0, py=22.0, crossed=True)
        pm_x, pm_y = (cwt2_phase(frame, w) for w in self.SMALL)
        pm_y = PhaseMap(pm_y.phase[:100], pm_y.quality[:100],
                        pm_y.valid[:100])
        with pytest.raises(InvariantViolation,
                           match=r"\(128, 128\).*y phase map \(100, 128\)"):
            correspondence_from_phases(pm_x, pm_y, 36.0, 36.0,
                                       all_valid_anchor((128, 128)))

    def test_transient_memory_at_448(self, eye_frame, dec_scene):
        # two full-frame sweeps at once peaked at 25.7 MB; the returned map
        # and each orientation's phase map take 3.4 MB apiece
        truth = render_correspondence(dec_scene, 0)
        decode_crossed_fringe(eye_frame, self.PATTERN, truth, *self.WAVELETS)
        tracemalloc.start()
        try:
            decode_crossed_fringe(eye_frame, self.PATTERN, truth,
                                  *self.WAVELETS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22e6

    def test_no_thread_outlives_the_call(self):
        start = threading.active_count()
        frame = fringe_frame(px=16.0, py=22.0, crossed=True)
        corr = decode_crossed_fringe(frame, self.PATTERN,
                                     all_valid_anchor((128, 128)),
                                     *self.SMALL)
        assert corr.n_valid > 0
        assert threading.active_count() == start
        with pytest.raises(NoRidgeError):
            decode_crossed_fringe(np.full((128, 128), 0.5),
                                  self.PATTERN, all_valid_anchor((128, 128)),
                                  *self.SMALL)
        assert threading.active_count() == start

    def test_concurrent_calls_match_serial(self):
        # more decodes than cores, switching threads often, on a cold
        # filter-bank cache that both orientations of a square frame share
        g = np.random.default_rng(5)
        frames = [fringe_frame(px=16.0, py=22.0, crossed=True)
                  + g.normal(0.0, 0.02, (128, 128)) for _ in range(4)]
        anchor = all_valid_anchor((128, 128))
        refs = [serial_decode(f, self.PATTERN, anchor, self.SMALL)
                for f in frames]
        decode._filter_bank.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(frames)) as pool:
                futures = [pool.submit(decode_crossed_fringe, f, self.PATTERN,
                                       anchor, *self.SMALL) for f in frames]
                got = [fut.result(timeout=120) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for corr, ref in zip(got, refs):
            assert corr.n_valid > 0
            for x, y in ((corr.u, ref.u), (corr.v, ref.v),
                         (corr.valid, ref.valid)):
                assert same_bits(x, y)
