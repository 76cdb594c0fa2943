import json
from functools import partial

import numpy as np
import pytest

from deflect_gaze import bench
from deflect_gaze.bench import (BenchmarkConfig, epsilon, report,
                                run_benchmark)
from deflect_gaze.errors import (BenchmarkAbortError, InvariantViolation,
                                 NoDescentError)
from helpers import parse_csv_report


class TestEpsilon:
    def test_table_values_stereo(self):
        # |mean_3 - mean_0| = 3.24 at a = 3 -> 0.24 relative error
        assert epsilon(3.24, 0.0, 3.0) == pytest.approx(0.24)
        # |mean_6 - mean_0| = 5.83 at a = 6 -> 0.17
        assert epsilon(5.83, 0.0, 6.0) == pytest.approx(0.17)

    def test_zero_position(self):
        assert epsilon(0.123, 0.123, 0.0) == 0.0

    def test_sign_flip_invariance(self):
        # flipping the rotation axis flips both theta means and a
        assert epsilon(-3.24, 0.0, -3.0) == pytest.approx(
            epsilon(3.24, 0.0, 3.0))


class TestConfig:
    def test_defaults_per_method(self):
        assert BenchmarkConfig(method="stereo-normals").positions == \
            (-3.0, 0.0, 3.0, 6.0)
        assert BenchmarkConfig(method="optimize").positions == \
            (-4.0, -2.0, 0.0, 2.0, 4.0)

    def test_requires_zero_position(self):
        with pytest.raises(InvariantViolation):
            BenchmarkConfig(positions=(1.0, 2.0))

    @pytest.mark.parametrize("a", [np.nan, np.inf])
    def test_rejects_non_finite_position(self, a):
        with pytest.raises(InvariantViolation, match="positions"):
            BenchmarkConfig(positions=(0.0, a))

    def test_unknown_method(self):
        with pytest.raises(InvariantViolation):
            BenchmarkConfig(method="magic")

    @pytest.mark.parametrize("sigma_c", [np.nan, np.inf, -0.5])
    def test_rejects_sigma_c(self, sigma_c):
        with pytest.raises(InvariantViolation, match="sigma_c"):
            BenchmarkConfig(sigma_c=sigma_c)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_rejects_master_seed_outside_32_bits(self, seed):
        # masked to 32 bits, -1 and 2**32 - 1 would draw the same reps
        with pytest.raises(InvariantViolation, match="master_seed"):
            BenchmarkConfig(master_seed=seed)
        for ok in (0, 2**32 - 1):
            assert BenchmarkConfig(master_seed=ok).master_seed == ok


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in an inline pool for the process pool: it records the size
    it was asked for and runs each position in this process, so no process
    starts. Returns the recorded sizes."""
    sizes = []

    class Done:
        def __init__(self, value):
            self.value = value

        def result(self):
            return self.value

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return Done(fn(*args))

    # run_benchmark imports the pool class when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    return sizes


@pytest.fixture(scope="module")
def small_result(scene):
    cfg = BenchmarkConfig(method="stereo-normals", positions=(-3.0, 0.0, 3.0),
                          reps=3, sigma_c=0.5, master_seed=5)
    return run_benchmark(cfg, scene, max_workers=1)


class TestRunBenchmark:
    def test_positions_and_reps(self, small_result):
        assert len(small_result.positions) == 3
        for pr in small_result.positions:
            assert len(pr.thetas) == 3
            assert pr.n_failed == 0

    def test_epsilon_zero_at_reference(self, small_result):
        pr0 = next(p for p in small_result.positions if p.position == 0.0)
        assert pr0.epsilon == 0.0

    def test_thetas_near_commanded(self, small_result):
        for pr in small_result.positions:
            assert abs(pr.mean_theta - pr.position) < 0.2

    def test_deterministic_across_workers(self, scene):
        cfg = BenchmarkConfig(method="stereo-normals",
                              positions=(0.0, 3.0), reps=2, sigma_c=0.5,
                              master_seed=9)
        r1 = run_benchmark(cfg, scene, max_workers=1)
        r2 = run_benchmark(cfg, scene, max_workers=2)
        assert report(r1, "csv") == report(r2, "csv")

    def test_pool_has_at_most_one_worker_per_position(self, scene,
                                                      pool_sizes):
        cfg = BenchmarkConfig(method="stereo-normals", positions=(0.0, 3.0),
                              reps=1, sigma_c=0.5, master_seed=9)
        result = run_benchmark(cfg, scene, max_workers=10_000)
        assert pool_sizes == [2]
        ref = run_benchmark(cfg, scene, max_workers=1)
        assert report(result, "csv") == report(ref, "csv")

    @pytest.mark.parametrize("n_cpus, sizes", [(1, []), (3, [2])])
    def test_default_pool_size_follows_usable_cpus(self, scene, pool_sizes,
                                                   monkeypatch, n_cpus,
                                                   sizes):
        # one CPU runs the positions serially; more than one asks for a
        # pool of at most one worker per position
        monkeypatch.setattr(bench.os, "sched_getaffinity",
                            lambda pid: set(range(n_cpus)))
        cfg = BenchmarkConfig(method="stereo-normals", positions=(0.0, 3.0),
                              reps=1, sigma_c=0.5, master_seed=9)
        result = run_benchmark(cfg, scene)
        assert pool_sizes == sizes
        ref = run_benchmark(cfg, scene, max_workers=1)
        assert report(result, "csv") == report(ref, "csv")

    def test_abort_on_failures(self, scene, monkeypatch):
        # an impossible clustering setup: min_inliers above the sample count
        from deflect_gaze.gaze import ClusterParams
        monkeypatch.setattr(bench, "ClusterParams",
                            partial(ClusterParams, min_inliers=5000))
        cfg = BenchmarkConfig(
            method="stereo-normals", positions=(0.0, 3.0), reps=2,
            sigma_c=0.0, master_seed=1)
        with pytest.raises(BenchmarkAbortError):
            run_benchmark(cfg, scene, max_workers=1)


class TestEstimatorInputs:
    def test_estimators_get_the_loaded_eye(self, scene, monkeypatch):
        # the stage pose is for scoring only: at a = 3 deg neither the
        # sweep window nor the optimizer's start may see the rotated eye
        seen = []
        real_reconstruct = bench.reconstruct_field

        def reconstruct(scene_in, *args, **kwargs):
            seen.append(scene_in.eye)
            return real_reconstruct(scene_in, *args, **kwargs)

        def init_guess(measured, nominal, *args, **kwargs):
            seen.append(nominal.eye)
            raise NoDescentError("stop after init")

        monkeypatch.setattr(bench, "reconstruct_field", reconstruct)
        monkeypatch.setattr(bench, "init_guess", init_guess)
        for method in ("stereo-normals", "optimize"):
            cfg = BenchmarkConfig(method=method, positions=(0.0, 3.0),
                                  reps=1, sigma_c=0.5)
            bench._run_position(scene, cfg, 1, np.array([0.0, 0.0, 1.0]))
        rotated = bench._rotated(scene, 3.0).eye
        assert not np.array_equal(rotated.optical_axis,
                                  scene.eye.optical_axis)
        assert len(seen) == 2
        for eye in seen:
            assert np.array_equal(eye.optical_axis, scene.eye.optical_axis)
            assert np.array_equal(eye.sclera_center, scene.eye.sclera_center)


class TestReport:
    def test_csv_round_trip_against_json(self, small_result):
        csv_vals = parse_csv_report(report(small_result, "csv"))
        doc = json.loads(report(small_result, "json"))
        for pr in doc["positions"]:
            mean, std, eps = csv_vals[pr["position"]]
            assert abs(mean - pr["mean_theta"]) < 1e-9
            assert abs(std - pr["std_theta"]) < 1e-9
            assert abs(eps - pr["epsilon"]) < 1e-9

    def test_table_layout(self, small_result):
        table = report(small_result, "table")
        lines = table.strip().splitlines()
        assert "Rotation position" in lines[1]
        # one epsilon column per nonzero position
        n_nonzero = sum(1 for p in small_result.positions if p.position != 0)
        assert lines[1].count("deg") == n_nonzero
        assert lines[2].count("deg") == n_nonzero

    def test_csv_excludes_wall_times(self, small_result):
        text = report(small_result, "csv")
        assert "wall" not in text
        assert "_s" not in text.splitlines()[0]

    def test_json_carries_seeds_and_raw(self, small_result):
        doc = json.loads(report(small_result, "json"))
        assert doc["master_seed"] == 5
        for pr in doc["positions"]:
            assert len(pr["seeds"]) == 3
            assert len(pr["thetas"]) == 3
