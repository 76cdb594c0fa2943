"""Run the benchmark over several seeds and summarise how steady it is.

Usage::

    python3 perfbench/spread.py [--traced-seed S] [--write perfbench/baseline.json]

For each workload in ``BENCHMARK.json``, runs ``run.py --trace 0`` once per
seed 0-9 for ``run_seconds``, one run after the other, and reports each
end-to-end metric's median, quartiles and spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median. A spread above a third of the metric's bound in
``BENCHMARK.json`` is flagged, ``setup_s`` included, and makes the exit
code 1.
``--traced-seed`` adds one ``--trace 1`` run per workload; ``--write``
saves the summary together with those per-layer tables.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# printed by every --trace 0 run but not bounded in BENCHMARK.json
UNBOUNDED = ("estimates_per_s", "wall.setup_s", "wall.estimate_s_p50",
             "wall.estimates_per_s", "machine.cal_ms_p50",
             "machine.numpy_import_ms")
SEEDS = range(10)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}_seed{seed}_trace{trace}"
                         ".json").read_text())
    return line, report


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--write")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {}}
    steady = True
    for wl in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        reports = []
        for seed in SEEDS:
            line, report = run_once(wl, seed, seconds, 0)
            if not line["correct"] or line["failed"]:
                print(f"{wl} seed {seed}: correct={line['correct']} "
                      f"failed={line['failed']}")
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
            reports.append(report)
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in line["metrics"].items()),
                flush=True)
        entry = {"end_to_end": {}, "accuracy": {}}
        for name, vals in values.items():
            s = summarise(vals)
            ok = s["spread"] < bounds[name] / 3
            steady &= ok
            entry["end_to_end"][name] = s
            print(f"  {name:18s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}  bound {bounds[name]}"
                  f"{'' if ok else '  NOT STEADY'}")
        for name in UNBOUNDED:
            s = summarise([r["metrics"][name]["value"] for r in reports])
            entry["end_to_end"][name] = s
            print(f"  {name:18s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}  (not bounded)")
        for name in reports[0]["metrics"]:
            if name.startswith(("epsilon", "std", "failed", "abs_err",
                                "bench.", "estimate_s_p90")):
                vals = [r["metrics"].get(name, {}).get("value")
                        for r in reports]
                vals = [v for v in vals if v is not None]
                if vals:
                    entry["accuracy"][name] = {
                        "median": statistics.median(vals),
                        "max": max(vals),
                        "unit": reports[0]["metrics"][name]["unit"]}
        entry["reps_per_run"] = [len(r["reps"]) for r in reports]
        entry["error_types"] = sorted({e for r in reports
                                       for e in r["error_types"]})
        entry["environment"] = reports[0]["environment"]
        if args.traced_seed is not None:
            line, report = run_once(wl, args.traced_seed, seconds, 1)
            entry["traced"] = {"seed": args.traced_seed,
                               "reps": len(report["reps"]),
                               "metrics": report["metrics"]}
        summary["workloads"][wl] = entry
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
