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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BenchmarkAbortError, DeflectGazeError, InvariantViolation
from .gaze import ClusterParams, estimate_gaze_two_center, relative_gaze_angle
from .optimize import OptConfig, init_guess, optimize_gaze
from .render import add_correspondence_noise, render_correspondence
from .scene import SceneConfig, rotate_eye
from .stereo import reconstruct_field

METHOD_STEREO = "stereo-normals"
METHOD_OPTIMIZE = "optimize"
DEFAULT_POSITIONS = {
    METHOD_STEREO: (-3.0, 0.0, 3.0, 6.0),
    METHOD_OPTIMIZE: (-4.0, -2.0, 0.0, 2.0, 4.0),
}
THREADS_ENV = "DEFLECT_GAZE_THREADS"


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark run: which method, which stage positions, how many
    repeats, and how measurement noise is injected (sigma_c perturbs the
    correspondences directly; it is the fast default operating point)."""

    method: str = METHOD_STEREO
    positions: tuple[float, ...] | None = None
    reps: int = 20
    sigma_c: float = 0.0
    rotation_axis: tuple[float, float, float] = (0.0, 1.0, 0.0)
    master_seed: int = 0
    stereo_stride: int = 1
    cluster: ClusterParams = field(default_factory=ClusterParams)
    opt: OptConfig = field(default_factory=lambda: OptConfig(pixel_stride=2))

    def __post_init__(self):
        if self.method not in (METHOD_STEREO, METHOD_OPTIMIZE):
            raise InvariantViolation(f"bench: unknown method {self.method!r}")
        pos = self.positions
        if pos is None:
            pos = DEFAULT_POSITIONS[self.method]
        pos = tuple(float(a) for a in pos)
        if 0.0 not in pos:
            raise InvariantViolation(
                "bench: positions must include 0 (epsilon is relative to it)"
            )
        object.__setattr__(self, "positions", pos)
        if self.reps < 1:
            raise InvariantViolation("bench: reps >= 1")
        if self.sigma_c < 0:
            raise InvariantViolation("bench: sigma_c >= 0")


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
    rotation_axis: tuple[float, float, float]
    reps: int
    reference_direction: tuple[float, float, float]
    positions: tuple[PositionResult, ...]
    total_wall_s: float


def epsilon(mean_theta_a: float, mean_theta_0: float, a: float) -> float:
    """Mean relative error against the 0-degree position:
    ``||mean_a - mean_0| - |a||`` in degrees."""
    return abs(abs(mean_theta_a - mean_theta_0) - abs(a))


def _rep_seeds(master_seed: int, pos_index: int, rep: int) -> np.ndarray:
    ss = np.random.SeedSequence(
        [master_seed & 0xFFFFFFFF, pos_index & 0xFFFFFFFF, rep & 0xFFFFFFFF]
    )
    return ss.generate_state(4)


def _rotated(scene: SceneConfig, a: float, axis) -> SceneConfig:
    return replace(scene, eye=rotate_eye(scene.eye, a, 0.0, up=np.array(axis)))


# The estimators get the loaded scene, never the rotated one: the stage pose
# is for scoring only, so it must not reach the sweep window or the
# optimizer's start.

def _stereo_direction(scene: SceneConfig, corr1, corr2, config, seeds):
    if config.sigma_c > 0:
        corr1 = add_correspondence_noise(
            corr1, config.sigma_c, int(seeds[0]),
            screen_resolution=scene.screen.resolution,
        )
        corr2 = add_correspondence_noise(
            corr2, config.sigma_c, int(seeds[1]),
            screen_resolution=scene.screen.resolution,
        )
    field_ = reconstruct_field(scene, corr1, corr2,
                               stride=config.stereo_stride)
    cluster = replace(config.cluster, rng_seed=int(seeds[2]))
    return estimate_gaze_two_center(field_, cluster).direction


def _optimize_direction(scene: SceneConfig, corr, config, seeds):
    nominal = replace(scene, cameras=scene.cameras[:1])
    if config.sigma_c > 0:
        corr = add_correspondence_noise(
            corr, config.sigma_c, int(seeds[0]),
            screen_resolution=nominal.screen.resolution,
        )
    init = init_guess([corr], nominal)
    _, est, _ = optimize_gaze(init, [corr], nominal, config.opt)
    return est.direction


def _run_position(scene: SceneConfig, config: BenchmarkConfig, pos_index: int,
                  reference_direction: np.ndarray) -> PositionResult:
    """All reps of one stage position; the rotation is applied afresh for
    every rep, mirroring a stage that moves before each measurement."""
    a = config.positions[pos_index]
    axis = np.array(config.rotation_axis, dtype=float)
    t0 = time.perf_counter()
    thetas = []
    seeds = []
    errors = []
    for rep in range(config.reps):
        s = _rep_seeds(config.master_seed, pos_index, rep)
        seeds.append(int(s[0]))
        try:
            scene_a = _rotated(scene, a, axis)
            if config.method == METHOD_STEREO:
                corr1 = render_correspondence(scene_a, 0)
                corr2 = render_correspondence(scene_a, 1)
                direction = _stereo_direction(scene, corr1, corr2, config, s)
            else:
                corr = render_correspondence(scene_a, 0)
                direction = _optimize_direction(scene, corr, config, s)
            thetas.append(relative_gaze_angle(direction, reference_direction,
                                              axis))
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


def max_workers_from_env(default_cap: int = 8) -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, int(env))
    return max(1, min(default_cap, os.cpu_count() or 1))


def run_benchmark(
    config: BenchmarkConfig,
    scene: SceneConfig,
    max_workers: int | None = None,
) -> BenchmarkResult:
    """Execute the benchmark; deterministic for fixed (config, scene)
    regardless of worker count.

    The reference gaze direction comes from a dedicated noiseless run at
    the 0-degree position, so per-rep angles isolate method noise.

    Raises:
        BenchmarkAbortError: a position failed more than 20% of its reps.
    """
    if max_workers is None:
        max_workers = max_workers_from_env()
    t0 = time.perf_counter()
    axis = np.array(config.rotation_axis, dtype=float)

    scene_ref = _rotated(scene, 0.0, axis)
    ref_cfg = replace(config, sigma_c=0.0)
    seeds_ref = _rep_seeds(config.master_seed, 10_000, 0)
    try:
        if config.method == METHOD_STEREO:
            c1 = render_correspondence(scene_ref, 0)
            c2 = render_correspondence(scene_ref, 1)
            reference = _stereo_direction(scene, c1, c2, ref_cfg, seeds_ref)
        else:
            c = render_correspondence(scene_ref, 0)
            reference = _optimize_direction(scene, c, ref_cfg, seeds_ref)
    except DeflectGazeError as e:
        raise BenchmarkAbortError(
            f"noiseless reference run failed: {type(e).__name__}: {e}"
        ) from e

    indices = list(range(len(config.positions)))
    if max_workers <= 1 or len(indices) == 1:
        results = [_run_position(scene, config, i, reference) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(_run_position, scene, config, i, reference)
                for i in indices
            ]
            results = [f.result() for f in futures]

    mean0 = next(r.mean_theta for r in results if r.position == 0.0)
    final = []
    for r in results:
        if config.reps > 0 and r.n_failed > 0.2 * config.reps:
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
        rotation_axis=tuple(float(x) for x in axis),
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
            "rotation_axis": list(result.rotation_axis),
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


def parse_csv_report(text: str) -> dict:
    """Read back a csv report into {position: (mean, std, epsilon)}."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if lines[0] != CSV_HEADER:
        raise ValueError("unexpected csv header")
    out = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        out[float(parts[0])] = (float(parts[4]), float(parts[5]),
                                float(parts[6]))
    return out
