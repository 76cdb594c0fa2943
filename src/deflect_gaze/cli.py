"""Command-line front end.

Subcommands mirror the pipeline stages: ``simulate`` renders frames and
ground-truth correspondences, ``decode`` recovers correspondences from
frames, ``reconstruct`` runs the stereo depth sweep, ``gaze-normals`` and
``gaze-optimize`` estimate gaze, and ``bench`` reproduces the
rotation-stage evaluation. Exit codes: 0 success, 2 configuration error,
3 aborted benchmark positions.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import imagefiles
from .bench import (BenchmarkConfig, max_workers_from_env, report,
                    run_benchmark)
from .decode import (WaveletParams, decode_crossed_fringe,
                     decode_phase_shift, scene_seam_mask)
from .errors import BenchmarkAbortError, DeflectGazeError, InvariantViolation, SceneParseError
from .gaze import GAZE_CSV_HEADER, ClusterParams, estimate_gaze_two_center
from .optimize import OptConfig, init_guess, optimize_gaze
from .render import (CorrespondenceMap, CrossedFringe, Frame, PhaseShiftSet,
                     render_correspondence, render_frame)
from .scene import load_scene
from .stereo import NormalField, default_sweep, reconstruct_field


def _write_corr(outdir: Path, cam: int, corr: CorrespondenceMap, shift: int = 0):
    imagefiles.write_two_channel_pfm(
        outdir / f"cam{cam}_corr_{shift:03d}.pfm", corr.u, corr.v
    )
    imagefiles.write_mask_pgm(outdir / f"cam{cam}_mask_{shift:03d}.pgm",
                              corr.valid)


def _read_corr(outdir: Path, cam: int, shift: int = 0) -> CorrespondenceMap:
    u, v = imagefiles.read_two_channel_pfm(
        outdir / f"cam{cam}_corr_{shift:03d}.pfm"
    )
    valid = imagefiles.read_mask_pgm(outdir / f"cam{cam}_mask_{shift:03d}.pgm")
    return CorrespondenceMap(u=u, v=v, valid=valid)


def _cmd_simulate(args) -> int:
    scene = load_scene(args.scene)
    if args.cam >= len(scene.cameras):
        raise InvariantViolation(f"--cam {args.cam}: the scene has "
                                 f"{len(scene.cameras)} camera(s)")
    # patterns are checked before anything is written
    if args.pattern == "crossed":
        crossed = CrossedFringe(period_x=args.period_x, period_y=args.period_y)
    else:
        stacks = [(name, PhaseShiftSet(period=period, n_shifts=args.shifts,
                                       direction=direction))
                  for direction, name, period in (("x", "psx", args.period_x),
                                                  ("y", "psy", args.period_y))]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cams = range(len(scene.cameras)) if args.cam < 0 else [args.cam]
    for cam in cams:
        corr = render_correspondence(scene, cam)
        _write_corr(outdir, cam, corr)
        if args.pattern == "crossed":
            frame = render_frame(scene, cam, crossed, sigma_i=args.sigma_i,
                                 seed=args.seed + cam, correspondence=corr)
            imagefiles.write_frame_pgm(outdir / f"cam{cam}_frame_000.pgm",
                                       frame.intensity)
        else:
            for name, pattern in stacks:
                for k in range(args.shifts):
                    frame = render_frame(
                        scene, cam, pattern, shift_index=k,
                        sigma_i=args.sigma_i,
                        seed=args.seed + 1000 * cam + k, correspondence=corr,
                    )
                    imagefiles.write_frame_pgm(
                        outdir / f"cam{cam}_{name}_{k:03d}.pgm",
                        frame.intensity,
                    )
    print(f"wrote simulation products for {len(list(cams))} camera(s) to "
          f"{outdir}")
    return 0


def _cmd_decode(args) -> int:
    indir = Path(getattr(args, "in"))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    anchor = _read_corr(indir, args.cam)
    seam = None
    if args.scene:
        # known stage pose: cut the cornea/sclera transition geometrically
        # so unwrapping cannot drag a wrong period across it
        seam = scene_seam_mask(load_scene(args.scene), args.cam)
    if args.mode == "cwt":
        frame = Frame(imagefiles.read_frame_pgm(
            indir / f"cam{args.cam}_frame_000.pgm"
        ))
        pattern = CrossedFringe(period_x=args.period_x, period_y=args.period_y)
        wx = WaveletParams(orientation="x", omega0=args.omega0,
                           scale_min=args.scale_min, scale_max=args.scale_max)
        wy = WaveletParams(orientation="y", omega0=args.omega0,
                           scale_min=args.scale_min, scale_max=args.scale_max)
        corr = decode_crossed_fringe(frame, pattern, anchor, wx, wy,
                                     seam_mask=seam)
    else:
        def stack(name):
            frames = []
            k = 0
            while (indir / f"cam{args.cam}_{name}_{k:03d}.pgm").exists():
                frames.append(Frame(imagefiles.read_frame_pgm(
                    indir / f"cam{args.cam}_{name}_{k:03d}.pgm"
                )))
                k += 1
            return frames
        fx, fy = stack("psx"), stack("psy")
        if not fx or not fy:
            raise SceneParseError(f"no phase-shift frames found in {indir}")
        px = PhaseShiftSet(period=args.period_x, n_shifts=len(fx),
                           direction="x")
        py = PhaseShiftSet(period=args.period_y, n_shifts=len(fy),
                           direction="y")
        corr = decode_phase_shift(fx, fy, px, py, anchor, seam_mask=seam)
    imagefiles.write_two_channel_pfm(
        outdir / f"cam{args.cam}_decoded_000.pfm", corr.u, corr.v
    )
    imagefiles.write_mask_pgm(outdir / f"cam{args.cam}_decodedmask_000.pgm",
                              corr.valid)
    print(f"decoded {corr.n_valid} pixels -> {outdir}")
    return 0


def _cmd_reconstruct(args) -> int:
    scene = load_scene(args.scene)
    c1 = _read_corr(Path(args.corr_dir), 0)
    c2 = _read_corr(Path(args.corr_dir), 1)
    if (args.t_min is None) != (args.t_max is None):
        raise ValueError("--t-min and --t-max must be given together")
    params = default_sweep(scene, n_steps=args.n_steps,
                           refine=not args.no_refine)
    if args.t_min is not None:
        params = replace(params, t_min=args.t_min, t_max=args.t_max)
    field = reconstruct_field(scene, c1, c2, params=params,
                              stride=args.stride)
    field.to_csv(args.out)
    print(f"reconstructed {len(field)} samples -> {args.out}")
    return 0


def _cmd_gaze_normals(args) -> int:
    field = NormalField.from_csv(args.field)
    params = ClusterParams(ransac_iters=args.ransac_iters,
                           inlier_tol=args.inlier_tol,
                           min_inliers=args.min_inliers,
                           rng_seed=args.seed)
    est = estimate_gaze_two_center(field, params)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(GAZE_CSV_HEADER + "\n")
            f.write(est.csv_row() + "\n")
    print(est.pretty())
    return 0


def _cmd_gaze_optimize(args) -> int:
    scene = load_scene(args.scene)
    measured = [_read_corr(Path(args.measured), i)
                for i in range(len(scene.cameras))]
    active = [True] * 5 + [False] * 3
    if args.freeze == "none":
        active = [True] * 8
    elif args.freeze == "pose":
        active = [False] * 5 + [True] * 3
    init = init_guess(measured, scene, active=tuple(active))
    config = OptConfig(max_iters=args.max_iters,
                       pixel_stride=args.pixel_stride)
    params, est, trace = optimize_gaze(init, measured, scene, config)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write("iter,loss,step,azimuth,elevation,tx,ty,tz\n")
            for row in trace:
                f.write(",".join(
                    f"{row[k]:.12g}" if isinstance(row[k], float) else
                    str(row[k])
                    for k in ("iter", "loss", "step", "azimuth", "elevation",
                              "tx", "ty", "tz")
                ) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(GAZE_CSV_HEADER + "\n")
            f.write(est.csv_row() + "\n")
    print(est.pretty())
    return 0


def _cmd_bench(args) -> int:
    scene = load_scene(args.scene)
    config = BenchmarkConfig(
        method=args.method,
        positions=tuple(args.positions) if args.positions else None,
        reps=args.reps,
        sigma_c=args.sigma_c,
        master_seed=args.seed,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_benchmark(config, scene,
                           max_workers=max_workers_from_env())
    (outdir / "result.csv").write_text(report(result, "csv"),
                                       encoding="utf-8")
    (outdir / "result.json").write_text(report(result, "json"),
                                        encoding="utf-8")
    table = report(result, "table")
    (outdir / "table.txt").write_text(table, encoding="utf-8")
    with open(outdir / "reps.csv", "w", encoding="utf-8") as f:
        f.write("position_deg,rep,seed,theta_deg\n")
        for pr in result.positions:
            for rep, (theta, seed) in enumerate(zip(pr.thetas, pr.seeds)):
                f.write(f"{pr.position:.12g},{rep},{seed},{theta:.12g}\n")
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="deflect-gaze",
        description="Deflectometric eye-tracking simulation and evaluation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="render frames and ground truth")
    s.add_argument("--scene", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--pattern", choices=["crossed", "phaseshift"],
                   default="crossed")
    s.add_argument("--period-x", type=float, default=200.0)
    s.add_argument("--period-y", type=float, default=200.0)
    s.add_argument("--shifts", type=int, default=8)
    s.add_argument("--sigma-i", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--cam", type=int, default=-1,
                   help="camera index, or all if negative")
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("decode", help="frames to correspondence map")
    s.add_argument("--mode", choices=["cwt", "phaseshift"], required=True)
    s.add_argument("--in", dest="in", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--scene", default=None,
                   help="scene JSON for the geometric region-seam cut")
    s.add_argument("--cam", type=int, default=0)
    s.add_argument("--period-x", type=float, default=200.0)
    s.add_argument("--period-y", type=float, default=200.0)
    s.add_argument("--omega0", type=float, default=5.5)
    s.add_argument("--scale-min", type=float, default=6.0)
    s.add_argument("--scale-max", type=float, default=24.0)
    s.set_defaults(func=_cmd_decode)

    s = sub.add_parser("reconstruct", help="stereo depth sweep")
    s.add_argument("--scene", required=True)
    s.add_argument("--corr-dir", required=True,
                   help="directory with cam0/cam1 correspondence PFMs")
    s.add_argument("--out", required=True)
    s.add_argument("--stride", type=int, default=1)
    s.add_argument("--t-min", type=float, default=None,
                   help="near end of the depth window along camera-0 rays, "
                        "mm (with --t-max; default: around the nominal eye)")
    s.add_argument("--t-max", type=float, default=None,
                   help="far end of the depth window, mm (with --t-min)")
    s.add_argument("--n-steps", type=int, default=256,
                   help="depths in the sweep grid across the window (at "
                        "least 16); the sweep scores a coarse subset of them "
                        "and the grid around each pixel's coarse minimum")
    s.add_argument("--no-refine", action="store_true",
                   help="keep the best grid depth, without the parabolic "
                        "refine between grid steps")
    s.set_defaults(func=_cmd_reconstruct)

    s = sub.add_parser("gaze-normals", help="two-center gaze from a field")
    s.add_argument("--field", required=True, help="NormalField CSV")
    s.add_argument("--out", default=None)
    s.add_argument("--ransac-iters", type=int, default=500)
    s.add_argument("--inlier-tol", type=float, default=0.3)
    s.add_argument("--min-inliers", type=int, default=50)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=_cmd_gaze_normals)

    s = sub.add_parser("gaze-optimize", help="inverse-rendering gaze")
    s.add_argument("--scene", required=True)
    s.add_argument("--measured", required=True,
                   help="directory with measured correspondence PFMs")
    s.add_argument("--freeze", choices=["shape", "pose", "none"],
                   default="shape")
    s.add_argument("--max-iters", type=int, default=300,
                   help="cap on trial steps")
    s.add_argument("--pixel-stride", type=int, default=1)
    s.add_argument("--trace", default=None, help="trace CSV path")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_gaze_optimize)

    s = sub.add_parser("bench", help="rotation-stage benchmark")
    s.add_argument("--method", choices=["stereo-normals", "optimize"],
                   required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--sigma-c", type=float, default=0.5)
    s.add_argument("--reps", type=int, default=20)
    s.add_argument("--seed", type=int, default=7)
    s.add_argument("--positions", type=float, nargs="*", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DeflectGazeError, FileNotFoundError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        if isinstance(e, BenchmarkAbortError):
            return 3
        if isinstance(e, (SceneParseError, InvariantViolation,
                          FileNotFoundError, ValueError)):
            return 2
        return 1


if __name__ == "__main__":
    sys.exit(main())
