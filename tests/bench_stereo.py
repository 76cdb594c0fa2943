"""Layer benchmark of the stereo depth sweep (``reconstruct_field``).

Not part of the tier-1 suite: pytest collects only ``test_*.py``. Run with

    PYTHONPATH=src python -m pytest tests/bench_stereo.py

The 128-px case is the default scene at stride 1 with sigma_c = 0.5, as in
the ``stereo-128`` benchmark workload. The 448-px case sweeps crossed-fringe
maps decoded from the decode scene at stride 2, as ``singleshot-448`` does;
decoded maps have holes that split the usable depths of a ray into runs.
"""

from deflect_gaze.stereo import reconstruct_field


def test_reconstruct_128_stride1(benchmark, scene, maps_128):
    field = benchmark(reconstruct_field, scene, *maps_128)
    assert len(field) > 900


def test_reconstruct_448_stride2(benchmark, dec_scene, maps_448):
    field = benchmark(reconstruct_field, dec_scene, *maps_448, stride=2)
    assert len(field) > 1000
