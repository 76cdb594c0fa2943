"""Rotation-stage benchmark harness: workloads, span tracer and scoring.

The harness replays the paper's rotation-stage protocol through the
package's public functions only, so every layer is timed from outside the
package. Each workload simulates one measurement per rep (``simulate``),
estimates one gaze direction from it (``estimate``) and scores the
direction against a noiseless 0-degree reference (``score``). A traced
run also runs probes after each rep, outside the estimate, which time
single calls and compare intermediate results with ground truth.

Import this module before anything imports numpy: it pins BLAS and OpenMP
to one thread first, and it imports the package from ``src/`` next to
this directory, never from site-packages.
"""

import sys

from setup_probe import pin_threads

NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
pin_threads()

import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "deflect_gaze" / "__init__.py").is_file():
    raise SystemExit("perfbench: package source src/deflect_gaze not found "
                     "next to the benchmark directory")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import deflect_gaze  # noqa: E402
from deflect_gaze import (bench, decode, gaze, geometry,  # noqa: E402
                          optimize, render, scene, stereo)
from deflect_gaze.errors import DeflectGazeError  # noqa: E402

if Path(deflect_gaze.__file__).resolve().parent != SRC / "deflect_gaze":
    raise SystemExit(f"perfbench: imported deflect_gaze from "
                     f"{deflect_gaze.__file__}, not from src/")

AXIS = np.array(bench.BenchmarkConfig().rotation_axis, dtype=float)
# Machine-speed calibration. On a shared host the same call runs up to 1.6x
# slower for seconds to minutes at a time. A fixed numpy kernel timed next
# to each rep slows down with it (the ratio of the two varies 5x less), so
# times are reported scaled to the speed at which the kernel takes
# CAL_REF_S: ``t * CAL_REF_S / kernel time``.
CAL_REF_S = 2.0e-3
REFERENCE_SLOT = 10_000  # bench's seed slot for the noiseless reference
UNIT_TOL = 1e-9


class OutputCheckError(Exception):
    """An estimate broke the output contract (finite unit direction)."""


# ---------------------------------------------------------------------------
# Tracing. Spans live in memory as [name, start, end, parent, rep]; parents
# are appended before their children, so one forward pass sees both.

class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False
    rep = -1

    @contextmanager
    def span(self, name):
        yield

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.rep])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def span_cost_s(n=20_000):
    """Wall time one traced call adds over a direct call, measured here."""

    def noop():
        return None

    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    direct = time.perf_counter() - t0
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        tr.call("x", noop)
    traced = time.perf_counter() - t0
    return max(traced - direct, 0.0) / n


def calibration_s():
    """Wall time of the fixed calibration kernel (small-array numpy
    arithmetic, about 2 ms on an idle 2-CPU host)."""
    x = np.linspace(0.0, 1.0, 2048)
    t0 = time.perf_counter()
    for _ in range(400):
        x = np.sqrt(x * x + 1.0) - 0.75
    return time.perf_counter() - t0


PHASES = ("simulate", "estimate", "score", "probe")


def span_tables(spans, scale, keep):
    """Per-name durations, per-layer self time within reps (probes
    excluded) and the share of estimate time that child spans cover, over
    the reps where ``keep[rep]`` is true. Durations are multiplied by
    ``scale[rep]``, the rep's calibration.

    A span's layer is the part of its name before the dot; the harness's
    own ``rep`` and phase spans count as layer ``bench``.
    """
    n = len(spans)
    child = [0.0] * n
    phase = [None] * n
    for i, (name, t0, t1, parent, rep) in enumerate(spans):
        if parent >= 0:
            child[parent] += (t1 - t0) * scale[rep]
        phase[i] = name if name in PHASES else (
            phase[parent] if parent >= 0 else None)
    durations = {}
    self_s = {}
    est_total = est_child = 0.0
    for i, (name, t0, t1, _, rep) in enumerate(spans):
        if not keep[rep]:
            continue
        d = (t1 - t0) * scale[rep]
        durations.setdefault(name, []).append(d)
        if name == "estimate":
            est_total += d
            est_child += child[i]
        if phase[i] == "probe":
            continue
        layer = name.split(".")[0] if "." in name else "bench"
        self_s[layer] = self_s.get(layer, 0.0) + d - child[i]
    accounted = est_child / est_total if est_total > 0 else 0.0
    return durations, self_s, accounted


# ---------------------------------------------------------------------------
# Workloads

def rep_seeds(master_seed, pos_index, rep):
    """Per-rep seeds, derived as ``deflect-gaze bench`` derives them:
    [0], [1] measurement noise of camera 0, 1; [2] the RANSAC seed."""
    ss = np.random.SeedSequence([master_seed & 0xFFFFFFFF,
                                 pos_index & 0xFFFFFFFF, rep & 0xFFFFFFFF])
    return ss.generate_state(4)


def check_direction(d):
    d = np.asarray(d, dtype=float)
    if d.shape != (3,) or not np.all(np.isfinite(d)):
        raise OutputCheckError(f"non-finite gaze direction {d!r}")
    if abs(float(np.linalg.norm(d)) - 1.0) > UNIT_TOL:
        raise OutputCheckError(f"gaze direction is not unit length: {d!r}")


def same_map(a, b):
    """Two correspondence maps hold the same valid mask and coordinates."""
    return (np.array_equal(a.valid, b.valid)
            and np.array_equal(a.u, b.u, equal_nan=True)
            and np.array_equal(a.v, b.v, equal_nan=True))


@dataclass
class Estimate:
    direction: np.ndarray
    info: dict                                    # counts kept for every rep
    outputs: dict = field(default_factory=dict)   # what the probes inspect


def _eye_px_frac(maps):
    return float(np.mean([m.n_valid / m.valid.size for m in maps]))


def _two_center(tr, scene0, maps, stride, rng_seed):
    """Stereo depth sweep on cameras 0/1, then two-centre gaze. The sweep
    gets the loaded scene: the stage pose is not the estimator's input."""
    fld = tr.call("stereo.reconstruct", stereo.reconstruct_field, scene0,
                  maps[0], maps[1], stride=stride)
    est = tr.call("gaze.two_center", gaze.estimate_gaze_two_center, fld,
                  gaze.ClusterParams(rng_seed=int(rng_seed)))
    info = {"candidate_px": int(maps[0].valid[::stride, ::stride].sum()),
            "samples": len(fld)}
    return Estimate(est.direction, info, {"field": fld, "gaze": est})


def _inlier_frac(fld, est, tol=gaze.ClusterParams().inlier_tol):
    """Share of back-traced lines within the RANSAC tolerance of the nearer
    fitted centre. ``GazeEstimate``'s own counts include every line."""
    points, dirs = gaze.backtrace_lines(fld)
    dist = np.minimum(
        geometry.point_line_distances(est.cornea_center, points, dirs),
        geometry.point_line_distances(est.sclera_center, points, dirs))
    return float(np.mean(dist < tol))


def _field_errors(tr, scene_a, fld):
    """Median point (um) and normal (deg) error of a reconstructed field
    against the true eye surface along the same camera rays."""
    origin, dirs = scene_a.cameras[fld.camera_index].pixel_rays()
    rays = dirs[fld.pixels[:, 1], fld.pixels[:, 0]]
    pts, nrm, _, hit = tr.call("scene.surface_hit",
                               scene.eye_surface_hit_batch, scene_a.eye,
                               origin, rays)
    perr = np.linalg.norm(fld.points[hit] - pts[hit], axis=1) * 1e3
    cos = np.clip(np.sum(fld.normals[hit] * nrm[hit], axis=1), -1.0, 1.0)
    return {"point_err_um": float(np.median(perr)),
            "normal_err_deg": float(np.median(np.degrees(np.arccos(cos))))}


def _stereo_probes(tr, scene_a, est):
    fld = est.outputs["field"]
    out = _field_errors(tr, scene_a, fld)
    out["inlier_frac"] = _inlier_frac(fld, est.outputs["gaze"])
    return out


def _render_probes(tr, scene_e):
    tr.call("render.correspondence_s2", render.render_correspondence,
            scene_e, 0, stride=2)
    tr.call("render.margins_s2", render.render_margins, scene_e, 0, stride=2)


class Workload:
    """One rotation-stage protocol: a shipped scene, stage positions, how a
    measurement is simulated and how gaze is estimated from it."""

    name = ""
    scene_file = ""
    positions = ()

    def __init__(self):
        self.scene = {"default": scene.default_scene,
                      "decode": scene.decode_scene}[self.scene_file]()

    def rotated(self, a):
        return replace(self.scene, eye=scene.rotate_eye(self.scene.eye, a,
                                                        0.0, up=AXIS))

    def simulate(self, tr, scene_a, seeds, noisy=True):
        raise NotImplementedError

    def estimate(self, tr, meas, seeds):
        raise NotImplementedError

    def probe(self, tr, scene_a, meas, est):
        raise NotImplementedError


class Stereo128(Workload):
    name = "stereo-128"
    scene_file = "default"
    positions = (-3.0, 0.0, 3.0, 6.0)
    sigma_c = 0.5

    def simulate(self, tr, scene_a, seeds, noisy=True):
        truth = [tr.call("render.correspondence",
                         render.render_correspondence, scene_a, cam)
                 for cam in (0, 1)]
        maps = truth
        if noisy:
            maps = [tr.call("render.noise", render.add_correspondence_noise,
                            m, self.sigma_c, int(seeds[cam]),
                            screen_resolution=scene_a.screen.resolution)
                    for cam, m in enumerate(truth)]
        return {"maps": maps, "info": {"eye_px_frac": _eye_px_frac(truth)}}

    def estimate(self, tr, meas, seeds):
        return _two_center(tr, self.scene, meas["maps"], 1, seeds[2])

    def probe(self, tr, scene_a, meas, est):
        _render_probes(tr, scene_a)
        return _stereo_probes(tr, scene_a, est)


class Optimize128(Workload):
    name = "optimize-128"
    scene_file = "default"
    positions = (-4.0, -2.0, 0.0, 2.0, 4.0)
    sigma_c = 0.5
    config = optimize.OptConfig(pixel_stride=2)

    def __init__(self):
        super().__init__()
        # the honest protocol: the nominal eye is the loaded, unrotated one
        self.nominal = replace(self.scene, cameras=self.scene.cameras[:1])

    def simulate(self, tr, scene_a, seeds, noisy=True):
        corr = tr.call("render.correspondence", render.render_correspondence,
                       scene_a, 0)
        info = {"eye_px_frac": _eye_px_frac([corr])}
        if noisy:
            corr = tr.call("render.noise", render.add_correspondence_noise,
                           corr, self.sigma_c, int(seeds[0]),
                           screen_resolution=scene_a.screen.resolution)
        return {"maps": [corr], "info": info}

    def estimate(self, tr, meas, seeds):
        init = tr.call("optimize.init", optimize.init_guess, meas["maps"],
                       self.nominal)
        params, est, trace = tr.call("optimize.gaze", optimize.optimize_gaze,
                                     init, meas["maps"], self.nominal,
                                     self.config)
        info = {"iters": len(trace) - 1, "final_loss": trace[-1]["loss"]}
        return Estimate(est.direction, info, {"params": params})

    def probe(self, tr, scene_a, meas, est):
        params = est.outputs["params"]
        fitted = replace(self.nominal,
                         eye=params.materialize(self.nominal.eye))
        _render_probes(tr, fitted)
        tr.call("optimize.loss", optimize.correspondence_loss, params,
                meas["maps"], self.nominal,
                pixel_stride=self.config.pixel_stride)
        return {}


class Singleshot448(Workload):
    name = "singleshot-448"
    scene_file = "decode"
    # At +-6 deg the unmasked cornea/sclera seam makes two-centre gaze raise
    # AmbiguousRadiiError in about one rep in ten; a benchmark workload must
    # not fail, so the stage stops at +-3 deg (README, "Known defect").
    positions = (-3.0, 0.0, 3.0)
    sigma_i = 0.01
    stride = 2
    pattern = render.CrossedFringe(period_x=36.0, period_y=36.0)
    wavelets = tuple(decode.WaveletParams(orientation=o, omega0=3.2,
                                          scale_min=3.0, scale_max=16.0)
                     for o in ("x", "y"))

    def simulate(self, tr, scene_a, seeds, noisy=True):
        truth, frames = [], []
        for cam in (0, 1):
            corr = tr.call("render.correspondence",
                           render.render_correspondence, scene_a, cam)
            frames.append(tr.call(
                "render.frame", render.render_frame, scene_a, cam,
                self.pattern, sigma_i=self.sigma_i if noisy else 0.0,
                seed=int(seeds[cam]), correspondence=corr))
            truth.append(corr)
        return {"frames": frames, "truth": truth,
                "info": {"eye_px_frac": _eye_px_frac(truth)}}

    def estimate(self, tr, meas, seeds):
        # the anchor map is the true correspondence: the one remaining
        # ground-truth input, which decode's API demands
        maps = [tr.call("decode.crossed_fringe", decode.decode_crossed_fringe,
                        frame, self.pattern, anchor, *self.wavelets)
                for frame, anchor in zip(meas["frames"], meas["truth"])]
        est = _two_center(tr, self.scene, maps, self.stride, seeds[2])
        est.outputs["decoded"] = maps
        return est

    def probe(self, tr, scene_a, meas, est):
        _render_probes(tr, scene_a)
        frame, anchor = meas["frames"][0], meas["truth"][0]
        phases = [tr.call("decode.cwt", decode.cwt2_phase, frame, w)
                  for w in self.wavelets]
        fg = decode.foreground_mask(frame)   # as decode_crossed_fringe does
        for pm in phases:
            pm.valid &= fg
            pm.phase[~pm.valid] = np.nan
        probed = tr.call("decode.from_phases",
                         decode.correspondence_from_phases, *phases,
                         self.pattern.period_x, self.pattern.period_y, anchor)
        if not same_map(probed, est.outputs["decoded"][0]):
            raise OutputCheckError("decode probe input no longer matches "
                                   "what decode_crossed_fringe decodes")
        yields, errs = [], []
        for dec, true in zip(est.outputs["decoded"], meas["truth"]):
            m = dec.valid & true.valid
            yields.append(dec.n_valid / true.n_valid)
            errs.append(float(np.median(np.hypot(dec.u[m] - true.u[m],
                                                 dec.v[m] - true.v[m]))))
        out = _stereo_probes(tr, scene_a, est)
        out.update(decode_yield=float(np.mean(yields)),
                   decode_err_px=float(np.mean(errs)))
        return out


WORKLOADS = {w.name: w for w in (Stereo128, Optimize128, Singleshot448)}


# ---------------------------------------------------------------------------
# Protocol

@dataclass
class RepRecord:
    position: float
    rep: int
    theta: float          # NaN when the estimator raised
    error: str | None     # DeflectGazeError type name
    simulate_s: float     # wall times
    estimate_s: float
    rep_s: float          # simulate + estimate + score
    info: dict
    cal_s: float = float("nan")   # calibration kernel time around the rep

    @property
    def scale(self):
        """Factor from wall time to reference-speed time for this rep."""
        return CAL_REF_S / self.cal_s


@dataclass
class RunResult:
    workload: str
    seed: int
    reference: list
    records: list
    rounds: int
    loop_s: float
    positions: dict = field(default_factory=dict)   # a -> mean/std/epsilon


def reference_direction(wl, seed):
    """Noiseless 0-degree estimate with the workload's own method, as
    ``run_benchmark`` makes it."""
    tr = NullTracer()
    seeds = rep_seeds(seed, REFERENCE_SLOT, 0)
    meas = wl.simulate(tr, wl.rotated(0.0), seeds, noisy=False)
    direction = wl.estimate(tr, meas, seeds).direction
    check_direction(direction)
    return direction


def run_rep(wl, tr, seed, pos_index, rep, reference):
    a = wl.positions[pos_index]
    seeds = rep_seeds(seed, pos_index, rep)
    theta, error, est = float("nan"), None, None
    with tr.span("rep"):
        t0 = time.perf_counter()
        with tr.span("simulate"):
            scene_a = tr.call("scene.rotate_eye", wl.rotated, a)
            meas = wl.simulate(tr, scene_a, seeds)
        t1 = time.perf_counter()
        try:
            with tr.span("estimate"):
                est = wl.estimate(tr, meas, seeds)
        except DeflectGazeError as e:
            error = type(e).__name__
        t2 = time.perf_counter()
        info = dict(meas["info"])
        if est is not None:
            check_direction(est.direction)
            with tr.span("score"):
                theta = tr.call("gaze.relative_angle",
                                gaze.relative_gaze_angle, est.direction,
                                reference, AXIS)
            if not np.isfinite(theta):
                raise OutputCheckError(f"non-finite angle at a = {a}")
            info.update(est.info)
        t3 = time.perf_counter()
        if est is not None and tr.enabled:
            with tr.span("probe"):
                info.update(wl.probe(tr, scene_a, meas, est))
    return RepRecord(a, rep, theta, error, t1 - t0, t2 - t1, t3 - t0, info)


def score(wl, records):
    """Per-position mean/std of theta over the reps that succeeded and
    ``bench.epsilon`` against the 0-degree mean."""
    out = {}
    for a in wl.positions:
        th = np.array([r.theta for r in records
                       if r.position == a and r.error is None])
        out[a] = {"mean": float(np.mean(th)) if th.size else float("nan"),
                  "std": float(np.std(th)) if th.size else float("nan")}
    mean0 = out[0.0]["mean"]
    for a, p in out.items():
        p["epsilon"] = bench.epsilon(p["mean"], mean0, a)
    return out


def run_workload(wl, seed, seconds=None, rounds=None, tracer=None):
    """Whole rounds (one rep at every position, in order) until ``rounds``
    are done, or while at least half a round's time of ``seconds`` is
    left. Rep ``r`` of position ``i`` uses ``rep_seeds(seed, i, r)``."""
    tr = tracer or NullTracer()
    reference = reference_direction(wl, seed)
    records = []
    n = 0
    start = time.perf_counter()
    cal = calibration_s()
    while True:
        for i in range(len(wl.positions)):
            tr.rep = len(records)
            rec = run_rep(wl, tr, seed, i, n, reference)
            cal_after = calibration_s()
            rec.cal_s = 0.5 * (cal + cal_after)
            cal = cal_after
            records.append(rec)
        n += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if n >= rounds:
                break
        elif seconds - elapsed < 0.5 * elapsed / n:
            break
    loop_s = time.perf_counter() - start
    res = RunResult(wl.name, seed, [float(x) for x in reference], records, n,
                    loop_s)
    res.positions = score(wl, records)
    return res
