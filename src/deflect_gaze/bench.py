"""Rotation-stage benchmark harness.

Re-creates the evaluation protocol: rotate the eye to each stage position,
take repeated synthetic measurements with fresh noise, estimate gaze with
the configured method, and compare mean relative gaze angles against the
mechanical rotation. The headline number per position is the mean
relative error against the 0-degree position,
``epsilon = ||mean(theta_a) - mean(theta_0)| - |a - 0||``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import BenchmarkAbortError, DeflectGazeError, InvariantViolation
from .gaze import ClusterParams, estimate_gaze_two_center, relative_gaze_angle
from .optimize import OptConfig, init_guess, optimize_gaze
from .render import add_correspondence_noise, render_correspondence
from .scene import WORLD_UP, SceneConfig, rotate_eye
from .stereo import reconstruct_field

METHOD_STEREO = "stereo-normals"
METHOD_OPTIMIZE = "optimize"
DEFAULT_POSITIONS = {
    METHOD_STEREO: (-3.0, 0.0, 3.0, 6.0),
    METHOD_OPTIMIZE: (-4.0, -2.0, 0.0, 2.0, 4.0),
}
# the cameras each method measures with: the stereo pair, or camera 0 alone
METHOD_CAMERAS = {METHOD_STEREO: 2, METHOD_OPTIMIZE: 1}
DEFAULT_WORKER_CAP = 8
# the optimize method fits on every second pixel
OPT_CONFIG = OptConfig(pixel_stride=2)


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run: which method, which stage positions, how many
    repeats, and how measurement noise is injected (sigma_c perturbs the
    correspondences directly; it is the fast default operating point).
    The stage turns about ``WORLD_UP``."""

    method: str = METHOD_STEREO
    positions: tuple[float, ...] | None = None
    reps: int = 20
    sigma_c: float = 0.5
    master_seed: int = 7
    # a constant, kept readable for perfbench's harness
    rotation_axis: ClassVar[tuple[float, ...]] = tuple(WORLD_UP.tolist())

    def __post_init__(self):
        if self.method not in (METHOD_STEREO, METHOD_OPTIMIZE):
            raise InvariantViolation(f"bench: unknown method {self.method!r}")
        pos = self.positions
        if pos is None:
            pos = DEFAULT_POSITIONS[self.method]
        pos = tuple(float(a) for a in pos)
        if not np.all(np.isfinite(pos)):
            raise InvariantViolation("bench: positions must be finite")
        if 0.0 not in pos:
            raise InvariantViolation(
                "bench: positions must include 0 (epsilon is relative to it)"
            )
        object.__setattr__(self, "positions", pos)
        if self.reps < 1:
            raise InvariantViolation("bench: reps >= 1")
        if not 0 <= self.sigma_c < np.inf:
            raise InvariantViolation("bench: sigma_c finite and >= 0")
        # _rep_seeds draws each rep's states from the seed as one 32-bit word
        if not 0 <= self.master_seed <= 0xFFFFFFFF:
            raise InvariantViolation(f"bench: master_seed {self.master_seed} "
                                     f"outside 0 .. 2**32 - 1")


@dataclass(frozen=True)
class PositionResult:
    position: float
    thetas: tuple[float, ...]        # one per rep, NaN where the rep failed
    seeds: tuple[int, ...]
    mean_theta: float
    std_theta: float
    epsilon: float
    n_failed: int
    errors: tuple[str, ...]
    wall_s: float


@dataclass(frozen=True)
class BenchmarkResult:
    method: str
    master_seed: int
    sigma_c: float
    reps: int
    reference_direction: tuple[float, float, float]
    positions: tuple[PositionResult, ...]
    total_wall_s: float


def epsilon(mean_theta_a: float, mean_theta_0: float, a: float) -> float:
    """Mean relative error against the 0-degree position:
    ``||mean_a - mean_0| - |a||`` in degrees."""
    return abs(abs(mean_theta_a - mean_theta_0) - abs(a))


def _rep_seeds(master_seed: int, pos_index: int, rep: int) -> np.ndarray:
    ss = np.random.SeedSequence([master_seed, pos_index, rep])
    return ss.generate_state(4)


def _rotated(scene: SceneConfig, a: float) -> SceneConfig:
    return replace(scene, eye=rotate_eye(scene.eye, a, 0.0))


def _measure_and_estimate(scene: SceneConfig, scene_a: SceneConfig,
                          method: str, sigma_c: float, seeds) -> np.ndarray:
    """One rep: render the stage-rotated ``scene_a`` with the method's
    cameras, add ``sigma_c`` noise (camera i drawing from ``seeds[i]``)
    and estimate the gaze direction with ``method``.

    The estimators get the loaded ``scene`` with the method's cameras,
    never the rotated one: the stage pose is for scoring only, so it must
    not reach the sweep window or the optimizer's start.
    """
    maps = [render_correspondence(scene_a, cam)
            for cam in range(METHOD_CAMERAS[method])]
    maps = [add_correspondence_noise(
                m, sigma_c, int(seeds[cam]),
                screen_resolution=scene.screen.resolution)
            for cam, m in enumerate(maps)]
    if method == METHOD_STEREO:
        field_ = reconstruct_field(scene, *maps)
        return estimate_gaze_two_center(
            field_, ClusterParams(rng_seed=int(seeds[2]))).direction
    init = init_guess(maps, scene)
    return optimize_gaze(init, maps, scene, OPT_CONFIG)[1].direction


def _run_position(scene: SceneConfig, config: BenchmarkConfig, pos_index: int,
                  reference_direction: np.ndarray) -> PositionResult:
    """All reps of one stage position; the rotation is applied afresh for
    every rep, mirroring a stage that moves before each measurement."""
    a = config.positions[pos_index]
    t0 = time.perf_counter()
    thetas = []
    seeds = []
    errors = []
    for rep in range(config.reps):
        s = _rep_seeds(config.master_seed, pos_index, rep)
        seeds.append(int(s[0]))
        try:
            direction = _measure_and_estimate(
                scene, _rotated(scene, a), config.method, config.sigma_c, s)
            thetas.append(relative_gaze_angle(direction, reference_direction,
                                              WORLD_UP))
        except DeflectGazeError as e:
            thetas.append(float("nan"))
            errors.append(f"rep {rep}: {type(e).__name__}: {e}")
    thetas = np.array(thetas)
    ok = np.isfinite(thetas)
    n_failed = int((~ok).sum())
    mean = float(np.mean(thetas[ok])) if ok.any() else float("nan")
    std = float(np.std(thetas[ok])) if ok.any() else float("nan")
    return PositionResult(
        position=a,
        thetas=tuple(float(t) for t in thetas),
        seeds=tuple(seeds),
        mean_theta=mean,
        std_theta=std,
        epsilon=float("nan"),  # filled once the 0-position mean is known
        n_failed=n_failed,
        errors=tuple(errors),
        wall_s=time.perf_counter() - t0,
    )


def run_benchmark(
    config: BenchmarkConfig,
    scene: SceneConfig,
    max_workers: int | None = None,
) -> BenchmarkResult:
    """Execute the benchmark; the result is identical for any worker
    count, given (config, scene).

    The positions run in a pool of ``min(max_workers,
    len(config.positions))`` worker processes, or in this process where
    that is 1. ``max_workers`` defaults to the CPUs this process may run
    on, capped at ``DEFAULT_WORKER_CAP``.

    The reference gaze direction comes from a dedicated noiseless run at
    the 0-degree position, so per-rep angles isolate method noise.

    Raises:
        InvariantViolation: the scene has fewer cameras than the method
            measures with.
        BenchmarkAbortError: a position failed more than 20% of its reps.
    """
    n_cams = METHOD_CAMERAS[config.method]
    if len(scene.cameras) < n_cams:
        raise InvariantViolation(
            f"bench: {config.method} needs {n_cams} camera(s), the scene "
            f"has {len(scene.cameras)}")
    if max_workers is None:
        # the CPUs this process may use, fewer than the machine's under
        # taskset or a cpuset; the call is missing on some platforms
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        max_workers = min(DEFAULT_WORKER_CAP, cpus)
    t0 = time.perf_counter()
    # the scene the method measures and estimates with, one instance for
    # the whole run: init_guess caches its nominal render on it
    scene = replace(scene, cameras=scene.cameras[:n_cams])

    try:
        reference = _measure_and_estimate(
            scene, _rotated(scene, 0.0), config.method, 0.0,
            _rep_seeds(config.master_seed, 10_000, 0))
    except DeflectGazeError as e:
        raise BenchmarkAbortError(
            f"noiseless reference run failed: {type(e).__name__}: {e}"
        ) from e

    indices = list(range(len(config.positions)))
    if max_workers <= 1 or len(indices) == 1:
        results = [_run_position(scene, config, i, reference) for i in indices]
    else:
        # imported here: it pulls in multiprocessing, socket and
        # subprocess, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once; more than one per
        # position would sit idle
        with ProcessPoolExecutor(
                max_workers=min(max_workers, len(indices))) as pool:
            futures = [
                pool.submit(_run_position, scene, config, i, reference)
                for i in indices
            ]
            results = [f.result() for f in futures]

    mean0 = next(r.mean_theta for r in results if r.position == 0.0)
    final = []
    for r in results:
        if r.n_failed > 0.2 * config.reps:
            raise BenchmarkAbortError(
                f"position {r.position}: {r.n_failed}/{config.reps} reps "
                f"failed: " + "; ".join(r.errors[:3])
            )
        final.append(replace(r, epsilon=epsilon(r.mean_theta, mean0,
                                                r.position)))
    return BenchmarkResult(
        method=config.method,
        master_seed=config.master_seed,
        sigma_c=config.sigma_c,
        reps=config.reps,
        reference_direction=tuple(float(x) for x in reference),
        positions=tuple(final),
        total_wall_s=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Reports. result.csv carries only deterministic values (criterion: repeat
# runs are bit-identical); wall times live in the JSON's runtime block.

CSV_HEADER = ("position_deg,rep,seed,theta_deg,"
              "mean_theta_deg,std_theta_deg,epsilon_deg,n_failed")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def report(result: BenchmarkResult, fmt: str) -> str:
    """Render a benchmark result as ``csv``, ``json``, or ``table`` text."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for pr in result.positions:
            for rep, (theta, seed) in enumerate(zip(pr.thetas, pr.seeds)):
                lines.append(",".join([
                    _fmt(pr.position), str(rep), str(seed), _fmt(theta),
                    _fmt(pr.mean_theta), _fmt(pr.std_theta),
                    _fmt(pr.epsilon), str(pr.n_failed),
                ]))
        return "\n".join(lines) + "\n"

    if fmt == "json":
        doc = {
            "method": result.method,
            "master_seed": result.master_seed,
            "sigma_c": result.sigma_c,
            "rotation_axis": WORLD_UP.tolist(),
            "reps": result.reps,
            "reference_direction": list(result.reference_direction),
            "positions": [
                {
                    "position": pr.position,
                    "thetas": list(pr.thetas),
                    "seeds": list(pr.seeds),
                    "mean_theta": pr.mean_theta,
                    "std_theta": pr.std_theta,
                    "epsilon": pr.epsilon,
                    "n_failed": pr.n_failed,
                    "errors": list(pr.errors),
                }
                for pr in result.positions
            ],
            "runtime": {
                "total_s": result.total_wall_s,
                "per_position_s": [pr.wall_s for pr in result.positions],
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    if fmt == "table":
        nz = [pr for pr in result.positions if pr.position != 0.0]
        head = "Rotation position a      |"
        row = "Mean relative error e_0  |"
        for pr in nz:
            head += f" {pr.position:+7.1f} deg |"
            row += f" {pr.epsilon:7.3f} deg |"
        lines = [
            f"Method: {result.method} (synthetic, sigma_c = "
            f"{result.sigma_c:g} px, {result.reps} reps, seed "
            f"{result.master_seed})",
            head,
            row,
        ]
        return "\n".join(lines) + "\n"

    raise ValueError(f"unknown report format {fmt!r}")
