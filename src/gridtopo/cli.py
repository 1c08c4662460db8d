"""Command-line front end.

Subcommands mirror the library pipeline: generate-grid, simulate, estimate,
evaluate, pipeline (simulate + estimate + evaluate against a grid file), and
sweep (the benchmark harness). Exit codes: 0 on success, 1 for validation or
file-format problems, 2 for unexpected runtime failures. Errors print one
line to stderr, never a stack trace.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .bench import (
    CONFIG_KEYS,
    IMPEDANCE_RANGE,
    MAX_DEGREE,
    evaluate,
    load_experiment_config,
    random_radial_grid,
    rows_by_cell,
    run_experiment,
    summarize,
    write_results_csv,
    write_summary_json,
)
from .exceptions import Error, FormatError, ValidationError
from .grid import Grid, ensure_valid, load_grid, save_grid, write_json
from .grouping import RGConfig
from .learn import LearnedGrid, learn_from_moments, load_learned, save_learned
from .lcpf import FAMILIES, InjectionSpec, read_measurement_blocks, save_measurements, simulate_blocks
from .lcpf import load_measurements, simulate  # noqa: F401  (perfbench/tracer.py wraps them here)
from .moments import MomentAccumulator, accumulate, load_moments, save_moments

GRID_FORMAT = (
    'grid JSON: {"nodes": [{"id", "root", "observed"}], '
    '"edges": [{"u", "v", "r", "x"}]}'
)
MEAS_FORMAT = (
    "measurements CSV: optional first line '# seed=<n>', header 't,v:<id>,p:<id>,q:<id>,...' "
    "(one v, p, q triple per node, in that order), one row per sample; empty lines are skipped"
)
MOMENTS_FORMAT = "moments JSON: node list, sample count, dense moment tables"
LEARNED_FORMAT = "learned grid JSON: grid JSON schema plus a 'provenance' object"
CONFIG_FORMAT = f"experiment config: 'key = value' lines; keys {', '.join(CONFIG_KEYS)}"


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers, got {text!r}") from None
    return lo, hi


def _add_sampling_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--samples", type=int, required=True,
                     help="number of measurement rows T (memory does not grow with T)")
    sub.add_argument("--seed", type=int, default=0, help="sampling seed (default %(default)s)")
    grp = sub.add_argument_group("injection model")
    grp.add_argument("--sigma-pp", type=float, default=InjectionSpec.sigma_pp,
                     help="active power variance (default %(default)s)")
    grp.add_argument("--sigma-qq", type=float, default=InjectionSpec.sigma_qq,
                     help="reactive power variance (default %(default)s)")
    grp.add_argument("--sigma-pq", type=float, default=InjectionSpec.sigma_pq,
                     help="active/reactive covariance (default %(default)s)")
    grp.add_argument("--family", choices=FAMILIES, default=InjectionSpec.family,
                     help="injection sampling family (default %(default)s)")


def _add_learner_flags(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("learner")
    grp.add_argument("--eps", type=float, default=RGConfig.eps0,
                     help="grouping tolerance eps0, in ohms of (r+x)/2 (default %(default)s)")
    grp.add_argument("--fixed-eps", action="store_true",
                     help="fail on a stalled round instead of growing eps")


def _rg_config(args: argparse.Namespace) -> RGConfig:
    return RGConfig(eps0=args.eps, dynamic_eps=not args.fixed_eps)


def _injection_spec(args: argparse.Namespace) -> InjectionSpec:
    return InjectionSpec(sigma_pp=args.sigma_pp, sigma_qq=args.sigma_qq,
                         sigma_pq=args.sigma_pq, family=args.family)


def _grid_summary(g: Grid) -> str:
    return (f"{len(g.nodes)} nodes ({len(g.observed_nodes)} observed, "
            f"{len(g.hidden_nodes)} hidden), {len(g.edges)} lines")


def _learned_summary(lg: LearnedGrid) -> str:
    clamped = lg.provenance["clamped_lengths"]
    return (f"{len(lg.nodes)} nodes ({len(lg.hidden)} junctions synthesized), "
            f"{len(lg.edges)} lines, {lg.provenance['rounds']} grouping rounds"
            + (f", {clamped} negative estimates clamped to zero" if clamped else ""))


def _report_line(report) -> str:
    imp = "n/a" if report.avg_impedance_error is None else f"{report.avg_impedance_error:.6f}"
    rec = "yes" if report.exact_recovery else "no"
    return f"exact_recovery={rec} edge_difference={report.edge_difference} avg_impedance_error={imp}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate_grid(args) -> int:
    g = random_radial_grid(args.nodes, args.seed, max_degree=args.max_degree,
                           r_range=args.r_range, x_range=args.x_range)
    save_grid(g, args.out)
    print(f"wrote {args.out}: {_grid_summary(g)}")
    return 0


def _cmd_simulate(args) -> int:
    g = load_grid(args.grid)
    ensure_valid(g)
    blocks = simulate_blocks(g, _injection_spec(args), args.samples, args.seed)
    k = len(g.observed_nodes)
    if args.out and args.moments:  # one draw for both: each block is folded as it is written
        acc = MomentAccumulator(g.observed_nodes)
        blocks = map(acc.add, blocks)
    if args.out:
        save_measurements(blocks, args.out)
        print(f"wrote {args.out}: {args.samples} samples x {k} terminals (seed {args.seed})")
    if args.moments:
        save_moments(acc.result() if args.out else accumulate(blocks), args.moments)
        print(f"wrote {args.moments}: moments over {k} terminals from {args.samples} samples")
    return 0


def _cmd_estimate(args) -> int:
    if args.measurements:
        try:  # the CSV format holds any float; the moments must be finite
            m = accumulate(read_measurement_blocks(args.measurements))
        except ValidationError as exc:
            raise FormatError(f"{args.measurements}: {exc}") from None
    else:
        m = load_moments(args.moments)
    learned = learn_from_moments(m, cfg=_rg_config(args))
    save_learned(learned, args.out)
    print(f"wrote {args.out}: {_learned_summary(learned)}")
    return 0


def _cmd_evaluate(args) -> int:
    g = load_grid(args.true)
    ensure_valid(g)
    learned = load_learned(args.learned)
    report = evaluate(g, learned)
    print(_report_line(report))
    if args.out:
        write_json(asdict(report), args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    g = load_grid(args.grid)
    ensure_valid(g)
    print(f"grid {args.grid}: {_grid_summary(g)}")
    blocks = simulate_blocks(g, _injection_spec(args), args.samples, args.seed)
    learned = learn_from_moments(accumulate(blocks), cfg=_rg_config(args))
    print(f"learned: {_learned_summary(learned)}")
    report = evaluate(g, learned)
    print(_report_line(report))
    if args.learned_out:
        save_learned(learned, args.learned_out)
        print(f"wrote {args.learned_out}")
    if args.report:
        write_json(asdict(report), args.report)
        print(f"wrote {args.report}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_experiment_config(args.config)
    rows = run_experiment(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results_path = out_dir / "results.csv"
    summary_path = out_dir / "summary.json"
    write_results_csv(rows, results_path)
    write_summary_json(cfg, rows, summary_path)
    by_cell = rows_by_cell(rows)
    for cell in summarize(cfg, rows)["cells"]:
        times = [row.runtime for row in by_cell[(cell["samples"], cell["eps0"])]]
        print(
            f"samples={cell['samples']} eps0={cell['eps0']:g}: "
            f"recovery {cell['recovery_rate']:.0%} over {cell['trials']} trials, "
            f"mean runtime {sum(times) / len(times):.3f}s"
        )
    print(f"wrote {results_path}")
    print(f"wrote {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridtopo",
        description="Reconstruct radial grid topology and line impedances from terminal measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-grid", help="draw a random radial test grid",
                       epilog=f"Output format -- {GRID_FORMAT}")
    p.add_argument("--nodes", type=int, required=True, help="total node count, root included (>= 5)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default %(default)s)")
    p.add_argument("--max-degree", type=int, default=MAX_DEGREE, help="degree cap, >= 4 (default %(default)s)")
    lo, hi = IMPEDANCE_RANGE
    p.add_argument("--r-range", type=_parse_range, default=IMPEDANCE_RANGE, metavar="LO,HI",
                   help=f"uniform resistance bounds in ohms (default {lo},{hi})")
    p.add_argument("--x-range", type=_parse_range, default=IMPEDANCE_RANGE, metavar="LO,HI",
                   help=f"uniform reactance bounds in ohms (default {lo},{hi})")
    p.add_argument("-o", "--out", required=True, help="grid JSON output path")
    p.set_defaults(func=_cmd_generate_grid)

    p = sub.add_parser("simulate", help="draw measurement samples at the terminals of a grid",
                       epilog=f"Input -- {GRID_FORMAT}. Output -- {MEAS_FORMAT}; {MOMENTS_FORMAT}.")
    p.add_argument("--grid", required=True, help="grid JSON path")
    _add_sampling_flags(p)
    p.add_argument("-o", "--out", help="measurements CSV output path")
    p.add_argument("--moments", help="also write accumulated moments JSON here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="learn a grid from measurements or moments",
                       epilog=f"Inputs -- {MEAS_FORMAT}; {MOMENTS_FORMAT}. Output -- {LEARNED_FORMAT}.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--measurements",
                     help="measurements CSV path, read in blocks (memory does not grow with its rows)")
    src.add_argument("--moments", help="moments JSON path")
    _add_learner_flags(p)
    p.add_argument("-o", "--out", required=True, help="learned grid JSON output path")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate", help="score a learned grid against the true grid",
                       epilog=f"Inputs -- {GRID_FORMAT}; {LEARNED_FORMAT}. "
                              "Report JSON fields: exact_recovery, edge_difference, avg_impedance_error.")
    p.add_argument("--true", required=True, help="true grid JSON path")
    p.add_argument("--learned", required=True, help="learned grid JSON path")
    p.add_argument("-o", "--out", help="optional report JSON output path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="simulate, learn, and score against a grid file in one run",
                       epilog=f"Input -- {GRID_FORMAT}. Outputs -- {LEARNED_FORMAT}; report JSON.")
    p.add_argument("--grid", required=True, help="true grid JSON path")
    _add_sampling_flags(p)
    _add_learner_flags(p)
    p.add_argument("--learned-out", help="optional learned grid JSON output path")
    p.add_argument("--report", help="optional report JSON output path")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("sweep", help="run a benchmark experiment from a config file",
                       epilog=f"Input -- {CONFIG_FORMAT}. Outputs -- results.csv (one row per "
                              "cell per trial) and summary.json in --out-dir.")
    p.add_argument("--config", required=True, help="experiment config path")
    p.add_argument("--out-dir", required=True, help="directory for results.csv and summary.json")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "simulate" and not (args.out or args.moments):
        parser.error("simulate: give -o/--out, --moments or both")
    try:
        return args.func(args)
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - safety net
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
