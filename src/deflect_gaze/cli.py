"""Command-line front end.

Subcommands mirror the pipeline stages: ``simulate`` renders frames and
ground-truth correspondences, ``decode`` recovers correspondences from
frames, ``reconstruct`` runs the stereo depth sweep, ``gaze-normals`` and
``gaze-optimize`` estimate gaze, and ``bench`` reproduces the
rotation-stage evaluation. Exit codes: 0 success, 2 configuration error,
3 aborted benchmark positions.

Every correspondence map, true or decoded, is the pair
``cam{c}_corr_000.pfm`` (u, v) plus ``cam{c}_mask_000.pgm`` (valid), so
any directory of maps feeds any subcommand that reads maps:

- ``simulate --out D`` writes camera c's true map, and either
  ``cam{c}_frame_000.pgm`` (crossed fringe) or the phase-shift stacks
  ``cam{c}_psx_{k:03d}.pgm`` and ``cam{c}_psy_{k:03d}.pgm``, k < ``--shifts``.
- ``decode --in D --out E`` reads ``--cam``'s true map from D as the
  unwrap anchor, and its frame or its two stacks, and writes the decoded
  map to E. E must not be D, where the decoded map would replace the
  anchor.
- ``reconstruct --corr-dir E`` reads cameras 0 and 1's maps and writes a
  normal-field CSV; ``gaze-normals --field`` reads that CSV.
- ``gaze-optimize --measured E`` reads every scene camera's map.
- ``gaze-normals`` and ``gaze-optimize`` write a one-row gaze CSV to
  ``--out``; ``bench --out`` writes result.csv, result.json, table.txt and
  reps.csv.

The fringe defaults, a 36 px period on both screen axes and a single-shot
Morlet sweep over scales 3 to 16 px at omega0 3.2, suit the decode scene.
``decode --scene`` cuts the cornea/sclera seam at the scene's eye pose;
without it a component can be decoded a whole period off across the seam,
with no error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import imagefiles
from .bench import BenchmarkConfig, report, run_benchmark
from .decode import (WaveletParams, decode_crossed_fringe,
                     decode_phase_shift, scene_seam_mask)
from .errors import BenchmarkAbortError, DeflectGazeError, InvariantViolation, SceneParseError
from .gaze import GAZE_CSV_HEADER, ClusterParams, estimate_gaze_two_center
from .optimize import DEFAULT_ACTIVE, OptConfig, init_guess, optimize_gaze
from .render import (CorrespondenceMap, CrossedFringe, PhaseShiftSet,
                     check_camera_map, render_correspondence, render_frame)
from .scene import load_scene
from .stereo import NormalField, reconstruct_field

# screen px, both axes; simulate and decode must agree on it, or the
# decode comes out off with no error
FRINGE_PERIOD = 36.0


def _write_corr(outdir: Path, cam: int, corr: CorrespondenceMap):
    imagefiles.write_two_channel_pfm(outdir / f"cam{cam}_corr_000.pfm",
                                     corr.u, corr.v)
    imagefiles.write_mask_pgm(outdir / f"cam{cam}_mask_000.pgm", corr.valid)


def _read_corr(outdir: Path, cam: int) -> CorrespondenceMap:
    u, v = imagefiles.read_two_channel_pfm(outdir / f"cam{cam}_corr_000.pfm")
    valid = imagefiles.read_mask_pgm(outdir / f"cam{cam}_mask_000.pgm")
    return CorrespondenceMap(u=u, v=v, valid=valid)


def _write_estimate(out, est) -> None:
    """Write ``est`` as a one-row gaze CSV to ``out``, if given, and print
    its summary."""
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(GAZE_CSV_HEADER + "\n")
            f.write(est.csv_row() + "\n")
    print(est.pretty())


def _check_cam(scene, cam: int) -> None:
    if cam >= len(scene.cameras):
        raise InvariantViolation(f"--cam {cam}: the scene has "
                                 f"{len(scene.cameras)} camera(s)")


def _cmd_simulate(args) -> int:
    scene = load_scene(args.scene)
    _check_cam(scene, args.cam)
    # the seed, noise and patterns are checked before anything is written
    if args.seed < 0:
        raise InvariantViolation(f"--seed {args.seed}: must be >= 0")
    if not 0 <= args.sigma_i < float("inf"):
        raise InvariantViolation(f"--sigma-i {args.sigma_i}: sigma_i must "
                                 f"be finite and >= 0")
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
                                       frame)
        else:
            for stack, (name, pattern) in enumerate(stacks):
                for k in range(args.shifts):
                    # independent noise per (seed, camera, stack, frame)
                    frame = render_frame(
                        scene, cam, pattern, shift_index=k,
                        sigma_i=args.sigma_i, seed=(args.seed, cam, stack, k),
                        correspondence=corr,
                    )
                    imagefiles.write_frame_pgm(
                        outdir / f"cam{cam}_{name}_{k:03d}.pgm", frame)
    print(f"wrote simulation products for {len(list(cams))} camera(s) to "
          f"{outdir}")
    return 0


def _cmd_decode(args) -> int:
    indir = Path(getattr(args, "in"))
    outdir = Path(args.out)
    if outdir.resolve() == indir.resolve():
        # the decoded map takes the true map's names
        raise InvariantViolation(
            f"decode: --out {outdir} is the --in directory; the decoded map "
            f"would overwrite its cam{args.cam}_corr_000.pfm anchor")
    anchor = _read_corr(indir, args.cam)
    seam = None
    if args.scene:
        # known stage pose: cut the cornea/sclera transition geometrically
        # so unwrapping cannot drag a wrong period across it
        scene = load_scene(args.scene)
        _check_cam(scene, args.cam)
        check_camera_map(scene, args.cam, anchor)
        seam = scene_seam_mask(scene, args.cam)
    if args.mode == "cwt":
        frame = imagefiles.read_frame_pgm(
            indir / f"cam{args.cam}_frame_000.pgm")
        pattern = CrossedFringe(period_x=args.period_x, period_y=args.period_y)
        wx = WaveletParams(orientation="x", omega0=args.omega0,
                           scale_min=args.scale_min, scale_max=args.scale_max)
        wy = WaveletParams(orientation="y", omega0=args.omega0,
                           scale_min=args.scale_min, scale_max=args.scale_max)
        corr = decode_crossed_fringe(frame, pattern, anchor, wx, wy,
                                     seam_mask=seam)
    else:
        # both stacks run 000..n-1, n the larger stack's file count, so a
        # gap in either, or a last frame missing from one, names a file
        n = max(len(list(indir.glob(f"cam{args.cam}_{s}_*.pgm")))
                for s in ("psx", "psy"))
        if n == 0:
            raise SceneParseError(f"no phase-shift frames found in {indir}")
        stacks = [[indir / f"cam{args.cam}_{s}_{k:03d}.pgm" for k in range(n)]
                  for s in ("psx", "psy")]
        for path in stacks[0] + stacks[1]:
            if not path.exists():
                raise SceneParseError(f"{path} is missing: both phase-shift "
                                      f"stacks must run 000 to {n - 1:03d}")
        fx, fy = ([imagefiles.read_frame_pgm(p) for p in st] for st in stacks)
        px = PhaseShiftSet(period=args.period_x, n_shifts=n, direction="x")
        py = PhaseShiftSet(period=args.period_y, n_shifts=n, direction="y")
        corr = decode_phase_shift(fx, fy, px, py, anchor, seam_mask=seam)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_corr(outdir, args.cam, corr)
    print(f"decoded {corr.n_valid} pixels -> {outdir}")
    return 0


def _cmd_reconstruct(args) -> int:
    scene = load_scene(args.scene)
    c1 = _read_corr(Path(args.corr_dir), 0)
    c2 = _read_corr(Path(args.corr_dir), 1)
    field = reconstruct_field(scene, c1, c2, stride=args.stride)
    field.to_csv(args.out)
    print(f"reconstructed {len(field)} samples -> {args.out}")
    return 0


def _cmd_gaze_normals(args) -> int:
    params = ClusterParams(ransac_iters=args.ransac_iters,
                           inlier_tol=args.inlier_tol,
                           min_inliers=args.min_inliers,
                           rng_seed=args.seed)
    field = NormalField.from_csv(args.field)
    _write_estimate(args.out, estimate_gaze_two_center(field, params))
    return 0


def _cmd_gaze_optimize(args) -> int:
    scene = load_scene(args.scene)
    measured = [_read_corr(Path(args.measured), i)
                for i in range(len(scene.cameras))]
    active = {"shape": DEFAULT_ACTIVE,
              "pose": tuple(not a for a in DEFAULT_ACTIVE),
              "none": (True,) * len(DEFAULT_ACTIVE)}[args.freeze]
    init = init_guess(measured, scene, active=active)
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
    _write_estimate(args.out, est)
    print(f"final loss:     {trace[-1]['loss']:.6g} px^2")
    print(f"stop:           {trace[-1]['stop']}")
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
    result = run_benchmark(config, scene)
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
    s.add_argument("--period-x", type=float, default=FRINGE_PERIOD)
    s.add_argument("--period-y", type=float, default=FRINGE_PERIOD)
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
                   help="scene JSON for the geometric region-seam cut; "
                   "without it a component can be decoded a whole period "
                   "off across the cornea/sclera seam, with no error")
    s.add_argument("--cam", type=int, default=0)
    s.add_argument("--period-x", type=float, default=FRINGE_PERIOD)
    s.add_argument("--period-y", type=float, default=FRINGE_PERIOD)
    s.add_argument("--omega0", type=float, default=3.2)
    s.add_argument("--scale-min", type=float, default=3.0)
    s.add_argument("--scale-max", type=float, default=16.0)
    s.set_defaults(func=_cmd_decode)

    s = sub.add_parser("reconstruct", help="stereo depth sweep")
    s.add_argument("--scene", required=True)
    s.add_argument("--corr-dir", required=True,
                   help="directory with cam0/cam1 correspondence maps, as "
                   "written by simulate or decode")
    s.add_argument("--out", required=True)
    s.add_argument("--stride", type=int, default=1)
    s.set_defaults(func=_cmd_reconstruct)

    s = sub.add_parser("gaze-normals", help="two-center gaze from a field")
    s.add_argument("--field", required=True, help="NormalField CSV")
    s.add_argument("--out", default=None)
    s.add_argument("--ransac-iters", type=int,
                   default=ClusterParams.ransac_iters)
    s.add_argument("--inlier-tol", type=float,
                   default=ClusterParams.inlier_tol)
    s.add_argument("--min-inliers", type=int,
                   default=ClusterParams.min_inliers)
    s.add_argument("--seed", type=int, default=ClusterParams.rng_seed)
    s.set_defaults(func=_cmd_gaze_normals)

    s = sub.add_parser("gaze-optimize", help="inverse-rendering gaze")
    s.add_argument("--scene", required=True)
    s.add_argument("--measured", required=True,
                   help="directory with measured correspondence maps, as "
                   "written by simulate or decode")
    s.add_argument("--freeze", choices=["shape", "pose", "none"],
                   default="shape")
    s.add_argument("--max-iters", type=int, default=OptConfig.max_iters,
                   help="cap on trial steps")
    s.add_argument("--pixel-stride", type=int, default=1)
    s.add_argument("--trace", default=None, help="trace CSV path")
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_gaze_optimize)

    s = sub.add_parser("bench", help="rotation-stage benchmark")
    s.add_argument("--method", choices=["stereo-normals", "optimize"],
                   required=True)
    s.add_argument("--scene", required=True)
    s.add_argument("--sigma-c", type=float, default=BenchmarkConfig.sigma_c)
    s.add_argument("--reps", type=int, default=BenchmarkConfig.reps)
    s.add_argument("--seed", type=int, default=BenchmarkConfig.master_seed)
    s.add_argument("--positions", type=float, nargs="*", default=None)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DeflectGazeError, OSError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        if isinstance(e, BenchmarkAbortError):
            return 3
        if isinstance(e, (SceneParseError, InvariantViolation, OSError,
                          ValueError)):
            return 2
        return 1


if __name__ == "__main__":
    sys.exit(main())
