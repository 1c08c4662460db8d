"""One workload in one fresh, single-threaded process.

Usage (run.py starts this; it is not the benchmark command):

    python3 perfbench/worker.py --workload learn-n200 --seed 0 --seconds 25 \
        --trace 0 --out result.json --workdir DIR

The worker imports gridtopo from `src/`, starts the reference clock if
`--refclock 1` (refclock.py), sets up the workload's inputs
(`--setup-repeats` times, timing each), warms up where the workload asks
for it, then runs whole passes of the workload until `--seconds` have been
measured (or exactly `--passes` passes), and writes its measurements, the
learned grids' fingerprints and the correctness problems it found to
`--out` as JSON. Timings leave the reference slices out; the `*_wall_*`
fields are raw, the others scaled to reference seconds.
"""
import os

# Pin BLAS and OpenMP pools before numpy is imported: unpinned, a single
# accumulate call was seen to take 60x its median.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from tracer import Tracer  # noqa: E402

# Sizes per workload. "full" is the benchmark; "tiny" is for the smoke test.
SIZES = {
    "full": {
        "sweep-n30": dict(n=30, trials=25, samples=(1_000, 2_000, 5_000, 10_000), sweeps=6),
        "learn-n200": dict(n=200, T=10_000, grids=4),
        "csv-n100": dict(n=100, T=10_000),
    },
    "tiny": {
        "sweep-n30": dict(n=12, trials=3, samples=(400, 800), sweeps=2),
        "learn-n200": dict(n=20, T=800, grids=2),
        "csv-n100": dict(n=15, T=800),
    },
}


class Sweep:
    """`run_experiment` on the criterion-4 configuration; a pass is one sweep.

    A run times a panel of sweeps whose experiment seeds are derived from
    --seed (seed * sweeps + j); passes cycle through the panel, which is run
    whole at least once. One sweep has only `trials` distinct grids, and
    their median learn time moves with the seed; the panel's median over
    sweeps * trials grids does not. grid_s is each cell's
    TrialResult.runtime: the learn_from_moments call, since run_experiment
    reads the clock before it calls evaluate. Set-up only builds configs,
    so the first sweep also runs once untimed before the timed phase, as a
    warm-up; its artifacts must match those of the first timed pass.
    """

    def __init__(self, gt, size, workdir, clock):
        self.gt, self.size, self.workdir = gt, size, workdir
        self.min_passes = size["sweeps"]
        self.passes = 0
        self.warm_rows = self.first_rows = None
        self.outcomes = []
        # The sweep times each cell itself, from after `accumulate` until
        # `evaluate` is called: reference slices wait for the end of a cell.
        accumulate, evaluate = gt.bench.accumulate, gt.bench.evaluate

        def held_accumulate(*args, **kwargs):
            m = accumulate(*args, **kwargs)
            clock.hold()
            return m

        def released_evaluate(*args, **kwargs):
            clock.release()
            return evaluate(*args, **kwargs)

        gt.bench.accumulate, gt.bench.evaluate = held_accumulate, released_evaluate
        self.clock = clock

    def setup(self, seed):
        size = self.size
        return [self.gt.bench.ExperimentConfig(
            name="sweep-n30", n=size["n"], trials=size["trials"], samples=size["samples"],
            eps0=(0.07,), seed=seed * size["sweeps"] + j, threads=1)
            for j in range(size["sweeps"])]

    def warm_up(self, cfgs):
        self.warm_rows = self.gt.bench.run_experiment(cfgs[0])

    def run_pass(self, cfgs, tracer):
        rows = self.gt.bench.run_experiment(cfgs[self.passes % len(cfgs)])
        self.clock.release()  # a cell whose learn raised never calls evaluate
        self.passes += 1
        if self.passes == 1:
            self.first_rows = rows
        if self.passes <= len(cfgs):
            self.outcomes += [dict(recovered=r.recovered, edge_difference=r.edge_difference,
                                   impedance_error=r.impedance_error, failed=bool(r.error))
                              for r in rows]
        j = (self.passes - 1) % len(cfgs)
        return [((j, r.trial, r.samples), r.runtime, bool(r.error)) for r in rows]

    def check(self, cfgs):
        artifacts = []
        for i, rows in enumerate((self.warm_rows, self.first_rows)):
            csv_path = self.workdir / f"results-{i}.csv"
            json_path = self.workdir / f"summary-{i}.json"
            self.gt.bench.write_results_csv(rows, csv_path)
            self.gt.bench.write_summary_json(cfgs[0], rows, json_path)
            artifacts.append((csv_path.read_bytes(), json_path.read_bytes()))
        return gate.artifact_problems(artifacts)


class Learn:
    """A fixed panel of grids learned from moments; a pass is one grid.

    The grids are the generator's seeds 0..grids-1 on every run, so runs at
    different seeds time the same topologies. --seed draws the measurements,
    with a separate simulate seed per grid: one shared seed gives every grid
    the same injection draws, and their grouping costs then move together.
    Simulation is set-up. Passes cycle through the panel, which is learned
    whole at least once. grid_s is accumulate + learn_from_moments +
    evaluate for one grid.
    """

    def __init__(self, gt, size, workdir, clock):
        self.gt, self.size, self.clock = gt, size, clock
        self.min_passes = size["grids"]
        self.passes = 0
        self.outcomes = []

    def setup(self, seed):
        gt, size = self.gt, self.size
        units = []
        grids = size["grids"]
        for i in range(grids):
            g = gt.bench.random_radial_grid(size["n"], i)
            ms = gt.lcpf.simulate(g, gt.lcpf.InjectionSpec(), size["T"], seed * grids + i)
            units.append((g, ms))
        return units

    def run_pass(self, units, tracer):
        i = self.passes % len(units)
        g, ms = units[i]
        self.passes += 1
        tracer.truth = g
        start = self.clock.now()
        try:
            m = self.gt.moments.accumulate(ms)
            report = self.gt.bench.evaluate(g, self.gt.learn.learn_from_moments(m))
        except self.gt.Error:
            report = None
        elapsed = self.clock.now() - start
        if self.passes <= len(units):
            self.outcomes.append(_outcome(report))
        return [(i, elapsed, report is None)]

    def check(self, units):
        return []


class Csv:
    """The file path through `cli.main`: simulate -o, estimate, evaluate.

    One fixed grid (generator seed 0), written by generate-grid at set-up;
    --seed is the simulate seed. A pass is the three commands; grid_s is
    the estimate command, which reads the CSV and learns.
    """

    min_passes = 1

    def __init__(self, gt, size, workdir, clock):
        self.gt, self.size, self.workdir, self.clock = gt, size, workdir, clock
        self.paths = {k: str(workdir / f) for k, f in (
            ("grid", "grid.json"), ("csv", "measurements.csv"),
            ("learned", "learned.json"), ("report", "report.json"))}
        self.outcomes = []
        self.seed = None

    def _cli(self, *argv):
        code = self.gt.cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"gridtopo {argv[0]} exited with {code}")

    def setup(self, seed):
        self.seed = seed
        self._cli("generate-grid", "--nodes", str(self.size["n"]), "--seed", "0",
                  "-o", self.paths["grid"])
        return self.gt.grid.load_grid(self.paths["grid"])

    def run_pass(self, g, tracer):
        p = self.paths
        self._cli("simulate", "--grid", p["grid"], "--samples", str(self.size["T"]),
                  "--seed", str(self.seed), "-o", p["csv"])
        tracer.truth = g
        start = self.clock.now()
        failed = self.gt.cli.main(["estimate", "--measurements", p["csv"], "-o", p["learned"]]) != 0
        elapsed = self.clock.now() - start
        report = None
        if not failed:
            self._cli("evaluate", "--true", p["grid"], "--learned", p["learned"], "-o", p["report"])
            report = self.gt.bench.EvalReport(**json.loads(Path(p["report"]).read_text()))
        if not self.outcomes:
            self.outcomes.append(_outcome(report))
        return [(0, elapsed, failed)]

    def check(self, g):
        lcpf = self.gt.lcpf
        written = lcpf.simulate(g, lcpf.InjectionSpec(), self.size["T"], self.seed)
        return gate.roundtrip_problems(written, lcpf.load_measurements(self.paths["csv"]))


def _outcome(report):
    """Accuracy of one learned grid from its EvalReport; None if learning failed."""
    if report is None:
        return dict(recovered=False, edge_difference=None, impedance_error=None, failed=True)
    return dict(recovered=report.exact_recovery, edge_difference=report.edge_difference,
                impedance_error=report.avg_impedance_error, failed=False)


WORKLOADS = {"sweep-n30": Sweep, "learn-n200": Learn, "csv-n100": Csv}


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def accuracy(outcomes) -> dict:
    learned = [o for o in outcomes if not o["failed"]]
    recovered = [o for o in learned if o["recovered"]]
    imps = [o["impedance_error"] for o in recovered if o["impedance_error"] is not None]
    return {
        "grids": len(outcomes),
        "recovery_rate": len(recovered) / len(outcomes),
        "mean_edge_difference": statistics.fmean(o["edge_difference"] for o in learned) if learned else None,
        "mean_impedance_error": statistics.fmean(imps) if imps else None,
        "failed_frac": (len(outcomes) - len(learned)) / len(outcomes),
    }


def layer_metrics(tracer: Tracer, gt) -> dict:
    """Per-layer numbers from a traced run; see README.md for each one.

    A function the workload never called gives None.
    """
    spans = tracer.spans
    own = tracer.self_seconds()

    def median_of(name, values):
        vals = [v for s, v in zip(spans, values) if s.name == name]
        return statistics.median(vals) if vals else None

    durations = [s.seconds for s in spans]
    out = {}
    for name in ("lcpf.sample_injections", "lcpf.solve_lcpf", "lcpf.save_measurements",
                 "lcpf.load_measurements", "moments.accumulate", "moments.estimate_distances",
                 "grouping.rg_sampled", "learn.assign_reactances", "bench.evaluate",
                 "grid.random_radial_grid"):
        out[name + "_s"] = median_of(name, durations)
    for name in ("learn.learn_from_moments", "bench.run_experiment", "cli.main"):
        out[name + "_self_s"] = median_of(name, own)
    load_s = sum(d for s, d in zip(spans, durations) if s.name == "lcpf.load_measurements")
    out["lcpf.load_rows_per_s"] = sum(tracer.rows_loaded) / load_s if load_s else None
    out["lcpf.csv_bytes"] = statistics.median(tracer.csv_bytes) if tracer.csv_bytes else None

    diags = tracer.diagnostics
    for field in ("rounds", "eps_escalations", "tau_escalations", "merged_junctions", "clamped_lengths"):
        out["grouping." + field] = statistics.fmean(getattr(d, field) for d in diags) if diags else 0.0
    passes = sum(d.rounds + d.eps_escalations for d in diags)
    out["grouping.productive_pass_frac"] = sum(d.rounds for d in diags) / passes if passes else 0.0

    truth_dm = {}
    rmse = []
    for d, truth in tracer.distances:
        if id(truth) not in truth_dm:
            truth_dm[id(truth)] = gt.DistanceMatrix.from_grid(truth)
        rmse.append(gt.bench.distance_rmse(d, truth_dm[id(truth)]))
    out["moments.distance_rmse"] = statistics.fmean(rmse) if rmse else 0.0
    return out


def layer_split(tracer: Tracer, phase: str, wall: float) -> dict:
    """Share of a phase's wall time spent in each layer's own code."""
    shares: dict[str, float] = {}
    for s, own in zip(tracer.spans, tracer.self_seconds()):
        if s.phase == phase:
            layer = s.name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + own
    covered = sum(s.seconds for s in tracer.spans if s.phase == phase and s.parent is None)
    shares["(benchmark loop)"] = wall - covered
    return {k: v / wall for k, v in sorted(shares.items(), key=lambda kv: -kv[1])} if wall else {}


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import gridtopo, gridtopo.cli; print(time.perf_counter() - t)")


def fresh_import_s() -> float:
    """Seconds to import numpy and gridtopo in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def run(args) -> dict:
    # A process imports once, so the other set-up repeats import in fresh
    # interpreters, one after another, before this one does.
    imports = [fresh_import_s() for _ in range(args.setup_repeats - 1)]
    start = time.perf_counter()
    import gridtopo as gt
    import gridtopo.cli  # noqa: F401  (not imported by the package itself)
    imports.append(time.perf_counter() - start)
    import_s = statistics.median(imports)
    warnings.simplefilter("ignore")
    from refclock import RefClock  # imports numpy, which import_s must include

    workdir = Path(args.workdir)
    clock = RefClock()
    workload = WORKLOADS[args.workload](gt, SIZES[args.size][args.workload], workdir, clock)
    tracer = Tracer(timing=bool(args.trace))
    tracer.install(gt)

    setup_start = time.perf_counter()
    if args.refclock:
        clock.start()
    prep_s = []
    for _ in range(args.setup_repeats):
        state = None
        t = clock.now()
        state = workload.setup(args.seed)
        prep_s.append(clock.now() - t)

    warm_up = getattr(workload, "warm_up", None)  # only where set-up leaves the CPU idle
    if warm_up is not None:
        tracer.enabled = False
        warm_up(state)
        tracer.enabled = True

    tracer.phase = "timed"
    timed_start = time.perf_counter()
    pass_s, pass_bounds, per_pass = [], [], []
    while True:
        t, wall = clock.now(), time.perf_counter()
        units = workload.run_pass(state, tracer)
        pass_s.append(clock.now() - t)
        pass_bounds.append((wall, time.perf_counter()))
        per_pass.append(units)
        if args.passes:
            if len(pass_s) >= args.passes:
                break
        elif sum(pass_s) >= args.seconds and len(pass_s) >= workload.min_passes:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False
    clock.stop()
    if args.refclock:
        setup_scale = clock.scale(setup_start, timed_start)
        pass_scale = [clock.scale(*bounds) for bounds in pass_bounds]
    else:
        setup_scale, pass_scale = 1.0, [1.0] * len(pass_s)

    problems = []
    for terminals, learned in tracer.learned:
        problems += [f"learned grid: {p}" for p in gate.learned_tree_problems(learned, terminals)]
    problems += workload.check(state)

    # Learned grids' times, per distinct input (a pass may repeat an input).
    grid_s: dict = {}
    grid_wall_s: dict = {}
    for units, scale in zip(per_pass, pass_scale):
        for key, sec, failed in units:
            if not failed:
                grid_s.setdefault(key, []).append(sec * scale)
                grid_wall_s.setdefault(key, []).append(sec)
    learned = sum(len(v) for v in grid_s.values())
    scaled_timed_s = sum(sec * scale for sec, scale in zip(pass_s, pass_scale))
    attempted = sum(len(units) for units in per_pass)
    setup_wall_s = import_s + statistics.median(prep_s)
    result = {
        "env": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_wall_s * setup_scale,
        "setup_wall_s": setup_wall_s,
        "import_s": import_s,
        "imports_s": imports,
        "prep_s": prep_s,
        "pass_s": pass_s,
        "timed_s": sum(pass_s),
        "passes": len(pass_s),
        "attempted": attempted,
        "failed": attempted - learned,
        "grid_s": list(grid_s.values()),
        "grid_wall_s": list(grid_wall_s.values()),
        "grids_per_s": learned / scaled_timed_s,
        "grids_per_wall_s": learned / sum(pass_s),
        "refclock": {"slices": len(clock.slices), "slice_s": clock.spent,
                     "setup_scale": setup_scale, "timed_scale": scaled_timed_s / sum(pass_s)},
        "peak_rss_mb": peak_rss_mb,
        "accuracy": accuracy(workload.outcomes),
        "fingerprints": [gate.fingerprint(learned) for _, learned in tracer.learned],
        "problems": problems,
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, gt)
        result["spans"] = len(tracer.spans)
        result["split"] = {
            "setup": layer_split(tracer, "setup", sum(prep_s)),
            "timed": layer_split(tracer, "timed", sum(pass_s)),
        }
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=0, help="run exactly this many passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-repeats", type=int, default=3)
    parser.add_argument("--refclock", type=int, choices=(0, 1), default=0,
                        help="scale timings by the reference clock (refclock.py)")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = run(args)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
