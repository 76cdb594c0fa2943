"""Layer benchmark of two-centre gaze (``estimate_gaze_two_center``).

Not part of the tier-1 suite: pytest collects only ``test_*.py``. Run with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest tests/bench_gaze.py

The RANSAC scoring is a BLAS matrix product; one BLAS thread matches the
benchmark harness, which pins BLAS to one thread. The 128-px field is the
default scene's stride-1 sweep of maps with sigma_c = 0.5, as in the
``stereo-128`` workload; the 448-px field is the stride-2 sweep of
crossed-fringe maps decoded from the decode scene, as in
``singleshot-448``.
"""

import pytest

from deflect_gaze.gaze import ClusterParams, estimate_gaze_two_center
from deflect_gaze.stereo import reconstruct_field


@pytest.fixture(scope="module")
def field_128(scene, maps_128):
    return reconstruct_field(scene, *maps_128)


@pytest.fixture(scope="module")
def field_448(dec_scene, maps_448):
    return reconstruct_field(dec_scene, *maps_448, stride=2)


@pytest.mark.parametrize("name", ["field_128", "field_448"])
def test_two_center(benchmark, request, name):
    field = request.getfixturevalue(name)
    est = benchmark(estimate_gaze_two_center, field, ClusterParams(rng_seed=0))
    assert min(est.n_cornea_inliers, est.n_sclera_inliers) >= 50
