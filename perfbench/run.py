"""gridtopo benchmark: one workload per call, every metric by name and unit.

    python3 perfbench/run.py --workload learn-n200 --seed 0 --seconds 25 --trace 0

With --trace 0 the workload runs once, untraced, in a fresh process with the
reference clock on (refclock.py), and the end-to-end metrics are reported in
reference seconds, with their wall-clock values on a comment line. With
--trace 1 it runs twice, each in a fresh process and without the clock:
untraced for half the time, then traced over exactly the same passes; the
per-layer metrics come from the traced run, and the two runs must learn
bit-identical grids. Either way the correctness gate runs, the
report goes to standard output, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A failed gate prints that
object with "correct": false and exits with 1.

Workloads, metrics and seeds are described in perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n30", "learn-n200", "csv-n100")
RUN_DEADLINE_S = 170  # the whole command, both workers included

# Reported by name and unit but not in BENCHMARK.json, whose metrics must
# exist on every workload and never read 0 (README.md).
REPORT_ONLY_UNITS = {
    "end_to_end": {
        "grid_s_p90": "s",
        "recovery_rate": "frac",
        "mean_edge_difference": "count",
        "mean_impedance_error": "frac",
        "failed_frac": "frac",
    },
    "per_layer": {
        "lcpf.save_measurements_s": "s",
        "lcpf.load_measurements_s": "s",
        "lcpf.load_rows_per_s": "1/s",
        "lcpf.csv_bytes": "bytes",
        "bench.run_experiment_self_s": "s",
        "cli.main_self_s": "s",
    },
}
WHY_ABSENT = {
    "grid_s_p90": "needs >= 100 distinct inputs",
    "mean_edge_difference": "no grid learned",
    "mean_impedance_error": "no grid recovered",
}


def run_worker(args, workdir: Path, deadline: float, name: str, trace: int, seconds: float,
               passes: int = 0, setup_repeats: int = 3, refclock: int = 0) -> dict:
    out = workdir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--passes", str(passes), "--trace", str(trace),
           "--setup-repeats", str(setup_repeats), "--refclock", str(refclock),
           "--size", args.size,
           "--workdir", str(workdir), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: the {name} worker ran past the deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: the {name} worker exited with {proc.returncode}")
    return json.loads(out.read_text())


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "gridtopo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gridtopo sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            plain = run_worker(args, workdir, deadline, "untraced", 0, args.seconds / 2,
                               setup_repeats=1)
            res = run_worker(args, workdir, deadline, "traced", 1, args.seconds,
                             passes=plain["passes"], setup_repeats=1)
        else:
            plain = res = run_worker(args, workdir, deadline, "untraced", 0, args.seconds,
                                     refclock=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    problems = list(plain["problems"])
    if res is not plain:
        problems += res["problems"]
        if res["fingerprints"] != plain["fingerprints"]:
            problems.append("the traced run learned different grids than the untraced run")

    env = res["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: python {env['python']}, "
          f"numpy {env['numpy']} ({env['blas']}), nproc {env['nproc']}, "
          f"usable cpus {env['cpus_usable']}, BLAS/OpenMP threads pinned to 1")
    print(f"# {res['attempted']} learn calls in {res['passes']} passes, "
          f"{res['timed_s']:.3f} s timed; set-up: median of {len(res['imports_s'])} imports "
          f"{res['import_s']:.3f} s + median of {len(res['prep_s'])} set-ups "
          f"{statistics.median(res['prep_s']):.3f} s")

    if args.trace:
        section = "per_layer"
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = res["timed_s"] - plain["timed_s"]
        print(f"# {res['spans']} spans; trace.overhead_s compares two runs in turn, "
              "so it carries the host's drift between them")
        for phase, split in res["split"].items():
            print(f"# {phase} split by layer (own time): "
                  + ", ".join(f"{k} {v:.1%}" for k, v in split.items()))
        report = metrics
    else:
        section = "end_to_end"
        # grid_s percentiles are taken over inputs, each input counting
        # once with the median of its repeats, so they do not depend on
        # which inputs the run had time to repeat.
        grid_s = [statistics.median(v) for v in res["grid_s"]]
        metrics = {
            "setup_s": res["setup_s"],
            "grids_per_s": res["grids_per_s"],
            "grid_s_p50": statistics.median(grid_s) if grid_s else None,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        report = dict(res["accuracy"])
        report["grid_s_p90"] = percentile(grid_s, 90) if len(grid_s) >= 100 else None
        print(f"# grid_s samples: {sum(map(len, res['grid_s']))} over {len(grid_s)} distinct "
              f"inputs; accuracy over the {report.pop('grids')} distinct inputs")
        ref = res["refclock"]
        print(f"# times below are scaled to the reference clock (refclock.py): "
              f"{ref['slices']} slices, {ref['slice_s']:.3f} s left out of the timings, "
              f"scale {ref['setup_scale']:.4f} in set-up and {ref['timed_scale']:.4f} timed "
              "(mean over passes)")
        print(f"# wall clock: setup_s {res['setup_wall_s']:.6g} s, grids_per_s "
              f"{res['grids_per_wall_s']:.6g} 1/s, grid_s_p50 "
              f"{statistics.median(statistics.median(v) for v in res['grid_wall_s']):.6g} s")

    for name, unit in REPORT_ONLY_UNITS[section].items():
        why = ""
        if report[name] is None:
            why = f"  ({WHY_ABSENT.get(name, 'not called on this workload')})"
        print(f"{name} {fmt(report[name])} {unit}{why}")

    units = {m["name"]: m["unit"] for m in spec[section]}
    out = {}
    for name, unit in units.items():
        print(f"{name} {fmt(metrics[name])} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    for p in problems:
        print(f"# GATE FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
