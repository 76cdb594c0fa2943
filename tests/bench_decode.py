"""Layer benchmark of the single-shot decode: ``cwt2_phase`` per
orientation, ``correspondence_from_phases``, its quality-guided fill
``_unwrap`` per axis, and the whole ``decode_crossed_fringe``.

Not part of the tier-1 suite: pytest collects only ``test_*.py``. Run with

    PYTHONPATH=src python -m pytest tests/bench_decode.py

The frame is camera 0 of the decode scene at 448 px under the crossed
fringe, noise and wavelets of the ``singleshot-448`` benchmark workload;
the phase maps are masked to the foreground as ``decode_crossed_fringe``
masks them. ``_unwrap`` runs on the arguments that
``correspondence_from_phases`` passes it for these maps.
"""

import numpy as np
import pytest

from deflect_gaze import decode
from deflect_gaze.decode import (WaveletParams, correspondence_from_phases,
                                 cwt2_phase, decode_crossed_fringe,
                                 foreground_mask)
from deflect_gaze.render import (CrossedFringe, render_correspondence,
                                 render_frame)

PATTERN = CrossedFringe(period_x=36.0, period_y=36.0)
WAVELETS = {o: WaveletParams(orientation=o, omega0=3.2, scale_min=3.0,
                             scale_max=16.0) for o in ("x", "y")}


@pytest.fixture(scope="module")
def truth_448(dec_scene):
    return render_correspondence(dec_scene, 0)


@pytest.fixture(scope="module")
def frame_448(dec_scene, truth_448):
    return render_frame(dec_scene, 0, PATTERN, sigma_i=0.01, seed=11,
                        correspondence=truth_448)


@pytest.fixture(scope="module")
def phases_448(frame_448):
    fg = foreground_mask(frame_448)
    maps = [cwt2_phase(frame_448, WAVELETS[o]) for o in ("x", "y")]
    for pm in maps:
        pm.valid &= fg
        pm.phase[~pm.valid] = np.nan
    return maps


@pytest.fixture(scope="module")
def unwrap_args_448(phases_448, truth_448):
    """``_unwrap``'s arguments per axis (the box views, joint mask and
    anchors), captured from one ``correspondence_from_phases`` call."""
    calls = []
    unwrap = decode._unwrap

    def spy(*args):
        calls.append(args)
        return unwrap(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode, "_unwrap", spy)
        correspondence_from_phases(*phases_448, PATTERN.period_x,
                                   PATTERN.period_y, truth_448)
    return dict(zip("xy", calls))


@pytest.mark.parametrize("orientation", ["x", "y"])
def test_cwt2_phase_448(benchmark, frame_448, orientation):
    pm = benchmark(cwt2_phase, frame_448, WAVELETS[orientation])
    assert pm.valid.mean() > 0.05


def test_correspondence_from_phases_448(benchmark, phases_448, truth_448):
    corr = benchmark(correspondence_from_phases, *phases_448,
                     PATTERN.period_x, PATTERN.period_y, truth_448)
    assert corr.n_valid > 3000


@pytest.mark.parametrize("axis", ["x", "y"])
def test_unwrap_448(benchmark, unwrap_args_448, axis):
    phase = benchmark(decode._unwrap, *unwrap_args_448[axis])
    assert np.count_nonzero(~np.isnan(phase)) > 3000


def test_decode_crossed_fringe_448(benchmark, frame_448, truth_448):
    corr = benchmark(decode_crossed_fringe, frame_448, PATTERN, truth_448,
                     WAVELETS["x"], WAVELETS["y"])
    assert corr.n_valid > 3000
