"""Self-tests of the benchmark harness.

Usage: ``python3 perfbench/selftest.py``  (about 1.5 minutes on 2 CPUs)

- honest optimize protocol: ``init_guess`` and ``optimize_gaze`` receive
  the loaded, unrotated eye at every stage position, never the rotated
  true eye;
- same program as ``deflect-gaze bench``: the harness's stereo-128
  per-rep angles equal ``run_benchmark(..., max_workers=1)`` bit for bit;
- determinism: two short runs of each workload give identical angles,
  epsilon and std;
- the singleshot decode probes see what the estimate decodes: a traced
  rep's ``correspondence_from_phases`` probe reproduces the
  ``decode_crossed_fringe`` map bit for bit.

Exits non-zero on the first failed check.
"""

import harness  # first: pins BLAS/OpenMP threads before numpy loads

import dataclasses  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from deflect_gaze import bench, optimize  # noqa: E402


class SelfTestFailure(Exception):
    pass


def check(cond, message):
    if not cond:
        raise SelfTestFailure(message)


def same_eye(a, b):
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(a))


def run_with_nominal_check(wl, seed, rounds):
    """Run ``wl`` while asserting on every optimizer entry point that its
    scene carries the loaded eye."""
    seen = []
    originals = (optimize.init_guess, optimize.optimize_gaze)

    def init_guess(measured, scene, *args, **kwargs):
        seen.append(same_eye(scene.eye, wl.scene.eye))
        return originals[0](measured, scene, *args, **kwargs)

    def optimize_gaze(init, measured, scene, *args, **kwargs):
        seen.append(same_eye(scene.eye, wl.scene.eye))
        return originals[1](init, measured, scene, *args, **kwargs)

    optimize.init_guess, optimize.optimize_gaze = init_guess, optimize_gaze
    try:
        res = harness.run_workload(wl, seed, rounds=rounds)
    finally:
        optimize.init_guess, optimize.optimize_gaze = originals
    # one reference estimate plus one per rep, two entry points each
    check(len(seen) == 2 * (1 + len(res.records)),
          f"optimizer entry points seen {len(seen)} times")
    check(all(seen), "the optimizer was given a rotated (true) eye")
    return res


def test_honest_optimize_and_determinism(seed=3):
    runs = [run_with_nominal_check(harness.Optimize128(), seed, rounds=1),
            harness.run_workload(harness.Optimize128(), seed, rounds=1)]
    check_identical(runs)


def test_same_program_as_bench(seed=5, reps=2):
    wl = harness.Stereo128()
    res = harness.run_workload(wl, seed, rounds=reps)
    cfg = bench.BenchmarkConfig(method=bench.METHOD_STEREO,
                                positions=wl.positions, reps=reps,
                                sigma_c=wl.sigma_c, master_seed=seed)
    ref = bench.run_benchmark(cfg, wl.scene, max_workers=1)
    check(res.reference == list(ref.reference_direction),
          "reference direction differs from run_benchmark")
    for pr in ref.positions:
        ours = [r.theta for r in res.records if r.position == pr.position]
        check(np.array_equal(ours, pr.thetas, equal_nan=True),
              f"a = {pr.position}: {ours} != bench {list(pr.thetas)}")
        check(res.positions[pr.position]["epsilon"] == pr.epsilon,
              f"a = {pr.position}: epsilon differs from run_benchmark")


def check_identical(runs):
    a, b = runs
    check([r.theta for r in a.records] == [r.theta for r in b.records],
          f"{a.workload}: angles differ between two runs")
    check(a.positions == b.positions,
          f"{a.workload}: epsilon/std differ between two runs")


def test_determinism(seed=3):
    for cls in (harness.Stereo128, harness.Singleshot448):
        check_identical([harness.run_workload(cls(), seed, rounds=1)
                         for _ in range(2)])


def test_decode_probe_matches_decode(seed=3):
    wl = harness.Singleshot448()
    reference = harness.reference_direction(wl, seed)
    try:
        harness.run_rep(wl, harness.Tracer(), seed, 0, 0, reference)
    except harness.OutputCheckError as e:
        raise SelfTestFailure(str(e)) from e


def main():
    for test in (test_same_program_as_bench, test_determinism,
                 test_honest_optimize_and_determinism,
                 test_decode_probe_matches_decode):
        try:
            test()
        except SelfTestFailure as e:
            print(f"FAIL {test.__name__}: {e}")
            return 1
        print(f"ok   {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
