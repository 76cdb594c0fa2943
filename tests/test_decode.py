import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from deflect_gaze import decode
from deflect_gaze.decode import (WaveletParams, _sever_phase_seams,
                                 correspondence_from_phases, cwt2_phase,
                                 decode_crossed_fringe, decode_phase_shift,
                                 foreground_mask, phase_shift_decode,
                                 phase_to_correspondence, scene_seam_mask,
                                 unwrap2, PhaseMap)
from deflect_gaze.errors import (InvalidAnchorError, InvalidSeedError,
                                 InvariantViolation, NoRidgeError,
                                 ShiftCountError)
from deflect_gaze.geometry import unit
from deflect_gaze.render import (CorrespondenceMap, CrossedFringe, Frame,
                                 PhaseShiftSet, render_correspondence,
                                 render_frame)
from deflect_gaze.scene import rotate_eye
from helpers import (assert_continuity, plane_mirror_surface,
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
    return Frame(img)


SINGLESHOT_WAVELET = dict(omega0=3.2, scale_min=3.0, scale_max=16.0)


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
                                             scale_max=24.0))
        m = interior_mask(pm.valid)
        col = 4 + 16 * 3
        rows = np.where(m[:, col])[0]
        assert len(rows) > 0
        assert abs(pm.phase[rows[0], col] - np.pi / 2) < 0.05

    def test_wrong_orientation_no_ridge(self):
        frame = fringe_frame(px=16.0)
        wp = WaveletParams(orientation="y", scale_min=8.0, scale_max=24.0)
        try:
            pm = cwt2_phase(frame, wp)
            assert (~pm.valid).mean() >= 0.99
        except NoRidgeError:
            pass

    def test_crossed_decode_ignores_other_axis(self):
        pure = fringe_frame(px=16.0)
        crossed = fringe_frame(px=16.0, py=22.0, crossed=True)
        wp = WaveletParams(orientation="x", scale_min=8.0, scale_max=24.0)
        pm_p = cwt2_phase(pure, wp)
        pm_c = cwt2_phase(crossed, wp)
        m = interior_mask(pm_p.valid & pm_c.valid)
        d = np.angle(np.exp(1j * (pm_c.phase - pm_p.phase)))[m]
        assert np.abs(d).max() < 0.1

    @pytest.mark.parametrize("orientation", ["x", "y"])
    @pytest.mark.parametrize("case", ["fringe128", "frame40x52", "eye448"])
    def test_matches_direct_convolution(self, case, orientation, eye_frame):
        # the Fourier-domain sweep against 4 convolve1d passes per scale;
        # the 40x52 frame is shorter than its 96 px padding on both axes
        if case == "fringe128":
            frame = fringe_frame(px=16.0, py=22.0, crossed=True)
            wp = WaveletParams(orientation=orientation, scale_min=8.0,
                               scale_max=24.0)
        elif case == "frame40x52":
            g = np.random.default_rng(4)
            frame = Frame(fringe_frame(40, 52, px=14.0, py=19.0,
                                       crossed=True).intensity
                          + g.normal(0.0, 0.02, (40, 52)))
            wp = WaveletParams(orientation=orientation, scale_min=8.0,
                               scale_max=24.0)
        else:
            frame = eye_frame
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
                                                      scale_max=24.0))
        assert pm.quality.min() >= 0.0
        assert pm.quality.max() <= 1.0

    def test_filter_bank_cache(self, eye_frame):
        # interleaved shapes and params: every call equals a call made on a
        # freshly built bank, and the shared bank arrays are read-only
        small = Frame(fringe_frame(40, 52, px=14.0, py=19.0,
                                   crossed=True).intensity)
        cases = [(frame, WaveletParams(orientation=o, **kw))
                 for frame in (eye_frame, small)
                 for o, kw in (("x", SINGLESHOT_WAVELET),
                               ("y", dict(scale_min=8.0, scale_max=24.0)))]
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
        for frame, wp in cases:
            img = frame.intensity if wp.orientation == "x" else frame.intensity.T
            _, bank = decode._filter_bank(*img.shape, wp.scale_min,
                                          wp.scale_max, wp.omega0)
            assert bank
            for _, *spectra in bank:
                for a in spectra:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0] = 0.0


class TestWaveletParams:
    @pytest.mark.parametrize("omega0", [0.0, -3.2, np.nan, np.inf])
    def test_rejects_omega0(self, omega0):
        with pytest.raises(InvariantViolation, match="omega0"):
            WaveletParams(orientation="x", omega0=omega0)

    @pytest.mark.parametrize("scale_max", [np.inf, np.nan, 4.0])
    def test_rejects_scale_range(self, scale_max):
        with pytest.raises(InvariantViolation, match="scale_max"):
            WaveletParams(orientation="x", scale_min=6.0, scale_max=scale_max)


class TestPhaseShiftDecode:
    def test_four_step_exact(self):
        x = np.arange(64)[None, :] * np.ones((8, 1))
        true_phase = 2 * np.pi * x / 32.0
        pat = PhaseShiftSet(period=32.0, n_shifts=4)
        frames = [Frame(0.5 + 0.4 * np.cos(true_phase + 2 * np.pi * k / 4))
                  for k in range(4)]
        pm = phase_shift_decode(frames, pat)
        wrapped_true = np.angle(np.exp(1j * true_phase))
        d = np.angle(np.exp(1j * (pm.phase - wrapped_true)))[pm.valid]
        assert np.abs(d).max() < 1e-6

    def test_constant_frames_all_invalid(self):
        pat = PhaseShiftSet(period=32.0, n_shifts=4)
        frames = [Frame(np.full((16, 16), 0.5)) for _ in range(4)]
        pm = phase_shift_decode(frames, pat)
        assert not pm.valid.any()

    def test_shift_count_mismatch(self):
        pat = PhaseShiftSet(period=32.0, n_shifts=4)
        with pytest.raises(ShiftCountError):
            phase_shift_decode([Frame(np.zeros((8, 8)))] * 3, pat)

    def test_noise_rmse(self, scene, corr_pair):
        # per-pixel RMSE vs ground truth on the rendered eye, N=8
        corr = corr_pair[0]
        pat = PhaseShiftSet(period=80.0, n_shifts=8)
        rng = np.random.default_rng(0)
        frames = [render_frame(scene, 0, pat, k, sigma_i=0.01, seed=300 + k,
                               correspondence=corr) for k in range(8)]
        pm = phase_shift_decode(frames, pat)
        truth = np.angle(np.exp(1j * 2 * np.pi * corr.u / 80.0))
        m = pm.valid & corr.valid
        d = np.angle(np.exp(1j * (pm.phase - truth)))[m]
        assert np.sqrt(np.mean(d ** 2)) < 0.02


class TestUnwrap2:
    def test_linear_ramp(self):
        x = np.arange(64)[None, :] * np.ones((32, 1))
        true = 0.7 * x
        pm = PhaseMap(phase=np.angle(np.exp(1j * true)),
                      quality=np.ones((32, 64)),
                      valid=np.ones((32, 64), dtype=bool), wrapped=True)
        out = unwrap2(pm, (0, 0))
        offset = out.phase[0, 0] - true[0, 0]
        assert np.abs(out.phase - true - offset).max() < 1e-6
        assert_continuity(out)

    def test_already_continuous_unchanged(self):
        g = np.random.default_rng(3)
        smooth = ndimage.gaussian_filter(g.normal(size=(24, 24)), 4.0)
        pm = PhaseMap(phase=smooth, quality=np.ones((24, 24)),
                      valid=np.ones((24, 24), dtype=bool), wrapped=True)
        out = unwrap2(pm, (5, 5))
        d = out.phase - smooth
        k = np.round(d[5, 5] / (2 * np.pi))
        assert np.abs(d - 2 * np.pi * k).max() < 1e-12

    def test_invalid_seed(self):
        pm = PhaseMap(phase=np.zeros((8, 8)), quality=np.ones((8, 8)),
                      valid=np.zeros((8, 8), dtype=bool), wrapped=True)
        with pytest.raises(InvalidSeedError):
            unwrap2(pm, (2, 2))

    def test_disconnected_component_stays_invalid(self):
        valid = np.zeros((8, 8), dtype=bool)
        valid[:, :3] = True
        valid[:, 5:] = True
        pm = PhaseMap(phase=np.zeros((8, 8)), quality=np.ones((8, 8)),
                      valid=valid, wrapped=True)
        out = unwrap2(pm, (0, 0))
        assert out.valid[:, :3].all()
        assert not out.valid[:, 5:].any()

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
        pm = PhaseMap(phase=phase, quality=quality, valid=valid,
                      wrapped=True)
        got = unwrap2(pm, (sx, sy))
        ref = reference_unwrap2(pm, (sx, sy))
        assert same_bits(got.phase, ref.phase)
        assert same_bits(got.valid, ref.valid)
        assert same_bits(got.quality, ref.quality)
        assert got.wrapped is False

    @pytest.mark.parametrize("fdtype,vdtype", [
        (np.float32, bool), (np.float64, np.uint8), (np.float32, np.int64)])
    def test_other_dtypes_match_grid_reference(self, fdtype, vdtype):
        g = np.random.default_rng(11)
        valid = g.random((12, 15)) < 0.7
        valid[6, 7] = True
        pm = PhaseMap(phase=g.uniform(-12.0, 12.0, (12, 15)).astype(fdtype),
                      quality=g.choice([0.25, 0.5, 1.0], (12, 15)).astype(fdtype),
                      valid=valid.astype(vdtype), wrapped=True)
        got = unwrap2(pm, (7, 6))
        ref = reference_unwrap2(pm, (7, 6))
        assert got.valid.sum() > 1
        assert same_bits(got.phase, ref.phase)
        assert same_bits(got.valid, ref.valid)
        assert same_bits(got.quality, ref.quality)

    def test_eye_phase_unwrap_matches_truth(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        pat = PhaseShiftSet(period=80.0, n_shifts=8)
        frames = [render_frame(scene, 0, pat, k, correspondence=corr)
                  for k in range(8)]
        pm = phase_shift_decode(frames, pat)
        pm.valid &= ~seam
        pm.phase[~pm.valid] = np.nan
        pm = _sever_phase_seams(pm)  # same slope guard the pipeline applies
        lab, n = ndimage.label(pm.valid, structure=FOUR)
        sizes = ndimage.sum(pm.valid, lab, range(1, n + 1))
        comp = int(np.argmax(sizes)) + 1
        pm.valid &= lab == comp
        ys, xs = np.nonzero(pm.valid)
        seed = (int(xs[len(xs) // 2]), int(ys[len(ys) // 2]))
        out = unwrap2(pm, seed)
        true = 2 * np.pi * corr.u / 80.0
        m = out.valid & corr.valid
        d = out.phase[m] - true[m]
        k = np.round(np.median(d) / (2 * np.pi))
        resid = d - 2 * np.pi * k
        assert (np.abs(resid) < 0.05).mean() > 0.99
        assert_continuity(out)


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
                             valid=g.random((37, 41)) < 0.7, wrapped=True))
        empty = PhaseMap(phase=g.uniform(-np.pi, np.pi, (37, 41)),
                         quality=np.ones((37, 41)),
                         valid=np.zeros((37, 41), dtype=bool), wrapped=True)
        for pm in maps + [empty]:
            pm.phase[~pm.valid] = np.nan
            got = _sever_phase_seams(pm)
            ref = reference_sever_phase_seams(pm)
            assert same_bits(got.valid, ref.valid)
            assert same_bits(got.phase, ref.phase)
            # every non-empty map has a seam to cut
            assert (~got.valid & pm.valid).any() == (pm is not empty)


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
        maps.append(PhaseMap(phase, quality, valid.copy(), wrapped=True))
    anchor_valid = g.random((h, w)) < draw(st.sampled_from([0.05, 0.3, 1.0]))
    anchor_valid[:, lone] = False
    anchor = CorrespondenceMap(u=g.uniform(0, 500, (h, w)),
                               v=g.uniform(0, 500, (h, w)),
                               valid=anchor_valid)
    seam = g.random((h, w)) < 0.05 if draw(st.booleans()) else None
    return maps, anchor, seam


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


class TestPhaseToCorrespondence:
    def _maps(self, scene, corr):
        pat = PhaseShiftSet(period=80.0, n_shifts=8)
        pay = PhaseShiftSet(period=80.0, n_shifts=8, direction="y")
        fx = [render_frame(scene, 0, pat, k, correspondence=corr)
              for k in range(8)]
        fy = [render_frame(scene, 0, pay, k, correspondence=corr)
              for k in range(8)]
        return phase_shift_decode(fx, pat), phase_shift_decode(fy, pay)

    def test_end_to_end_matches_truth(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        dec = decode_phase_shift(
            *[[render_frame(scene, 0, p, k, correspondence=corr)
               for k in range(8)]
              for p in (PhaseShiftSet(period=80.0, n_shifts=8),
                        PhaseShiftSet(period=80.0, n_shifts=8,
                                      direction="y"))],
            PhaseShiftSet(period=80.0, n_shifts=8),
            PhaseShiftSet(period=80.0, n_shifts=8, direction="y"),
            corr, seam_mask=seam)
        m = dec.valid & corr.valid
        e = np.hypot(dec.u[m] - corr.u[m], dec.v[m] - corr.v[m])
        assert (e < 0.05).mean() > 0.99

    def test_gauge_invariance(self, scene, corr_pair):
        corr = corr_pair[0]
        pmx, pmy = self._maps(scene, corr)
        seam = scene_seam_mask(scene, 0)
        for pm in (pmx, pmy):
            pm.valid &= ~seam
            pm.phase[~pm.valid] = np.nan
        lab, n = ndimage.label(pmx.valid & pmy.valid, structure=FOUR)
        sizes = ndimage.sum(pmx.valid & pmy.valid, lab, range(1, n + 1))
        comp = int(np.argmax(sizes)) + 1
        mask = lab == comp
        for pm in (pmx, pmy):
            pm.valid &= mask
            pm.phase[~pm.valid] = np.nan
        ys, xs = np.nonzero(mask & corr.valid)
        ax, ay = int(xs[0]), int(ys[0])
        ux = unwrap2(pmx, (ax, ay))
        uy = unwrap2(pmy, (ax, ay))
        pat = CrossedFringe(period_x=80.0, period_y=80.0)
        anchor = ((ax, ay), float(corr.u[ay, ax]), float(corr.v[ay, ax]))
        c1 = phase_to_correspondence(ux, uy, pat, anchor)
        ux2 = ux.copy()
        ux2.phase = ux2.phase + 2 * np.pi
        c2 = phase_to_correspondence(ux2, uy, pat, anchor)
        m = c1.valid
        assert np.allclose(c1.u[m], c2.u[m])
        uxg = ux.copy()
        uxg.phase = uxg.phase + 1.2345
        c3 = phase_to_correspondence(uxg, uy, pat, anchor)
        assert np.allclose(c1.u[m], c3.u[m])

    def test_invalid_anchor_raises(self):
        pm = PhaseMap(phase=np.zeros((8, 8)), quality=np.ones((8, 8)),
                      valid=np.zeros((8, 8), dtype=bool), wrapped=False)
        with pytest.raises(InvalidAnchorError):
            phase_to_correspondence(pm, pm,
                                    CrossedFringe(period_x=16, period_y=16),
                                    ((2, 2), 0.0, 0.0))


class TestDecoderConsistency:
    def test_noiseless_median(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        px = PhaseShiftSet(period=80.0, n_shifts=8)
        py = PhaseShiftSet(period=80.0, n_shifts=8, direction="y")
        fx = [render_frame(scene, 0, px, k, correspondence=corr)
              for k in range(8)]
        fy = [render_frame(scene, 0, py, k, correspondence=corr)
              for k in range(8)]
        dec = decode_phase_shift(fx, fy, px, py, corr, seam_mask=seam)
        m = dec.valid & corr.valid
        assert m.sum() > 800
        e = np.hypot(dec.u[m] - corr.u[m], dec.v[m] - corr.v[m])
        assert np.median(e) < 0.1

    def test_noisy_median(self, scene, corr_pair):
        corr = corr_pair[0]
        seam = scene_seam_mask(scene, 0)
        px = PhaseShiftSet(period=80.0, n_shifts=8)
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
        surface = plane_mirror_surface(p0, n)
        corr = render_correspondence(scene, 0, surface=surface)
        period = 24.0
        cf = CrossedFringe(period_x=period, period_y=period)
        frame = render_frame(scene, 0, cf, correspondence=corr)
        ps = PhaseShiftSet(period=period, n_shifts=8)
        frames = [render_frame(scene, 0, ps, k, correspondence=corr)
                  for k in range(8)]
        pm_cwt = cwt2_phase(frame, WaveletParams(orientation="x"))
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
        frame = render_frame(dec_scene, 0, pat, correspondence=corr)
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
    SMALL = [WaveletParams(orientation=o, scale_min=8.0, scale_max=24.0)
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
        # fails both, and x's error comes first
        pattern = CrossedFringe(period_x=16.0, period_y=16.0)
        anchor = all_valid_anchor((128, 128))
        x_only = fringe_frame(px=16.0)
        cases = ((x_only, "'y'"), (Frame(x_only.intensity.T.copy()), "'x'"),
                 (Frame(np.full((128, 128), 0.5)), "'x'"))
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

    def test_no_thread_outlives_the_call(self):
        start = threading.active_count()
        frame = fringe_frame(px=16.0, py=22.0, crossed=True)
        corr = decode_crossed_fringe(frame, self.PATTERN,
                                     all_valid_anchor((128, 128)),
                                     *self.SMALL)
        assert corr.n_valid > 0
        assert threading.active_count() == start
        with pytest.raises(NoRidgeError):
            decode_crossed_fringe(Frame(np.full((128, 128), 0.5)),
                                  self.PATTERN, all_valid_anchor((128, 128)),
                                  *self.SMALL)
        assert threading.active_count() == start

    def test_concurrent_calls_match_serial(self):
        # more decodes than cores, switching threads often, on a cold
        # filter-bank cache that both orientations of a square frame share
        g = np.random.default_rng(5)
        frames = [Frame(fringe_frame(px=16.0, py=22.0, crossed=True).intensity
                        + g.normal(0.0, 0.02, (128, 128))) for _ in range(4)]
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
