"""Benchmark harness: random radial grids, recovery metrics, sample sweeps.

An experiment draws random radial test grids, simulates measurement streams
at their terminals, runs the learner at each requested sample count and
tolerance, and scores the result against the ground truth. Trials share
grids and measurement-stream prefixes across sample counts, so recovery
curves move because of the sample count, not trial-to-trial grid luck.

All artifacts (results CSV, summary JSON) are byte-deterministic for a given
config: rows are canonically ordered and contain no timestamps.
"""
from __future__ import annotations

import csv
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .distances import DistanceMatrix
from .exceptions import Error, FormatError, MetricUndefinedError, ValidationError
from .grid import Grid, ensure_valid, tree_paths, write_json
from .grouping import LearnedTree, RGConfig
from .learn import LearnedGrid, learn_from_moments
from .lcpf import InjectionSpec, _check_seed, simulate
from .moments import accumulate

ROOT_NAME = "t"
# The generator's defaults, which sweep configs and the CLI share.
MAX_DEGREE = 4
IMPEDANCE_RANGE = (0.05, 0.5)


# ---------------------------------------------------------------------------
# Random radial grids
# ---------------------------------------------------------------------------

def _check_generator_args(n: int, seed: int, max_degree: int, r_range, x_range) -> None:
    """random_radial_grid's argument checks, shared with ExperimentConfig."""
    _check_seed(seed)
    if n < 5:
        raise ValidationError(f"need n >= 5 for a hub plus three terminals, got n={n}")
    if max_degree < 4:
        raise ValidationError(f"need max_degree >= 4, got {max_degree}")
    for rng in (r_range, x_range):
        lo, hi = rng if isinstance(rng, (tuple, list)) and len(rng) == 2 else (None, None)
        if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
            raise ValidationError(f"impedance range {rng!r} must be two numbers")
        if not (math.isfinite(hi) and 0 < lo <= hi):
            raise ValidationError(f"impedance range ({lo}, {hi}) must be finite with 0 < lo <= hi")


def random_radial_grid(
    n: int,
    seed: int,
    max_degree: int = MAX_DEGREE,
    r_range: tuple[float, float] = IMPEDANCE_RANGE,
    x_range: tuple[float, float] = IMPEDANCE_RANGE,
) -> Grid:
    """Random radial grid with n nodes (root included) and i.i.d. impedances.

    The root hangs off a hub junction by a single line; the rest of the tree
    grows from the hub by either attaching a new terminal to a junction with
    spare degree, or promoting a terminal to a junction by giving it two new
    terminals at once (so every junction keeps degree >= 3). Terminals are
    observed, junctions hidden. Line r and x are drawn i.i.d. uniform from
    the given ranges.

    Raises ValidationError when no valid grid meets the size and degree cap.
    The one such case is n=6 with max_degree=4: every hidden node needs
    degree >= 3 among the non-root nodes, so the only valid 6-node grid is
    the hub with four terminals, and the hub then has degree 5.
    """
    _check_generator_args(n, seed, max_degree, r_range, x_range)

    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(1, n)]
    hub = names[0]
    parent = {c: hub for c in names[1:4]}
    # Spare lines per junction: the hub reserves one for the root line; other
    # junctions get the full degree budget (their parent line plus children).
    capacity = {hub: (max_degree - 1) - 3}
    leaves = list(names[1:4])
    next_id = 5

    while next_id <= n - 1:
        remaining = (n - 1) - (next_id - 1)
        spare = sum(capacity.values())
        can_attach = spare >= 1 and not (remaining == 2 and spare < 2)
        can_promote = remaining >= 2
        if not (can_attach or can_promote):
            raise ValidationError(
                f"no valid grid has n={n} nodes under max_degree={max_degree}: "
                f"{remaining} node left to place, no junction has a spare line, "
                "and a promotion places two"
            )
        promote = rng.random() < 0.5 if can_attach and can_promote else can_promote
        if promote:
            pick = leaves[rng.integers(len(leaves))]
            leaves.remove(pick)
            new = [f"n{next_id}", f"n{next_id + 1}"]
            next_id += 2
            capacity[pick] = max_degree - 3  # parent line + two children
            for c in new:
                parent[c] = pick
            leaves.extend(new)
        else:
            spots = sorted(j for j, cap in capacity.items() if cap >= 1)
            pick = spots[rng.integers(len(spots))]
            new = f"n{next_id}"
            next_id += 1
            capacity[pick] -= 1
            parent[new] = pick
            leaves.append(new)

    kinds = {ROOT_NAME: "root"}
    for name in names:
        kinds[name] = "hidden" if name in capacity else "observed"
    edge_list = [(ROOT_NAME, hub)] + [(parent[c], c) for c in names[1:]]
    rs = rng.uniform(r_range[0], r_range[1], size=len(edge_list))
    xs = rng.uniform(x_range[0], x_range[1], size=len(edge_list))
    g = Grid.create(kinds, [(u, v, float(r), float(x)) for (u, v), r, x in zip(edge_list, rs, xs)])
    ensure_valid(g)
    return g


# ---------------------------------------------------------------------------
# Topology and impedance metrics
# ---------------------------------------------------------------------------

def _tree_view(obj) -> tuple[list[tuple[str, str, float, float]], frozenset[str], frozenset[str]]:
    """Normalize to (lines with r/x, observed set, hidden nodes); a grid's root lines are left out."""
    if isinstance(obj, Grid):
        root = obj.root
        lines = [(e.u, e.v, e.r, e.x) for e in obj.edges if root not in (e.u, e.v)]
        return lines, obj.observed, frozenset(obj.hidden_nodes)
    if isinstance(obj, LearnedGrid):
        return [(e.u, e.v, e.r, e.x) for e in obj.edges], obj.observed, obj.hidden
    if isinstance(obj, LearnedTree):
        observed = frozenset(obj.nodes) - obj.hidden
        return [(e.u, e.v, e.length, float("nan")) for e in obj.edges], observed, obj.hidden
    raise ValidationError(f"cannot extract a tree from {type(obj).__name__}")


def edge_splits(obj) -> list[tuple[frozenset[str], float, float]]:
    """One (observed-bipartition key, r, x) triple per line.

    The key for a line is the set of observed terminals cut off from a fixed
    anchor terminal when the line is removed; two trees over the same
    terminals are the same topology exactly when their key multisets match.
    For a rooted grid the root and its line are left out: terminal
    measurements carry no information about the root side of the hub.
    """
    lines, observed, hidden = _tree_view(obj)
    if not observed:
        raise MetricUndefinedError("tree has no observed terminals")
    ends = [line[:2] for line in lines]
    nodes = hidden.union(*ends)  # a hidden node on no line leaves the tree disconnected
    anchor = min(observed)
    if anchor not in nodes:
        raise MetricUndefinedError(f"anchor terminal {anchor!r} is not in the tree")
    paths = tree_paths(ends, anchor)
    if len(paths) != len(nodes):
        raise MetricUndefinedError("tree is not connected over its terminals")
    if len(lines) != len(nodes) - 1:
        raise MetricUndefinedError("tree has a cycle or a parallel line")
    missing = observed - paths.keys()
    if missing:
        raise MetricUndefinedError(f"terminals {sorted(missing)} are not in the tree")
    # A line cuts off from the anchor exactly the terminals whose anchor
    # path runs through it.
    below: list[set[str]] = [set() for _ in lines]
    for n in observed:
        for j in paths[n]:
            below[j].add(n)
    return [(frozenset(cut), r, x) for cut, (_u, _v, r, x) in zip(below, lines)]


def _compare(a, b, impedance: bool = True) -> tuple[int, float | None]:
    """Edge difference of two trees over one terminal set and, when it is 0
    and `impedance` is set, their impedance error with a as the truth (else None)."""
    obs_a, obs_b = _tree_view(a)[1], _tree_view(b)[1]
    if obs_a != obs_b:
        raise MetricUndefinedError(f"terminal sets differ: {sorted(obs_a ^ obs_b)} not shared")
    true_by_key: dict[frozenset, list] = {}
    learned_by_key: dict[frozenset, list] = {}
    for obj, by_key in ((a, true_by_key), (b, learned_by_key)):
        for key, r, x in edge_splits(obj):
            by_key.setdefault(key, []).append((r, x))
    diff = sum(abs(len(true_by_key.get(key, ())) - len(learned_by_key.get(key, ())))
               for key in true_by_key.keys() | learned_by_key.keys())
    if diff or not impedance:
        return diff, None
    total, count = 0.0, 0
    for key, truths in true_by_key.items():
        for (r, x), (re_, xe) in zip(sorted(truths), sorted(learned_by_key[key])):
            if r <= 0 or x <= 0:
                raise MetricUndefinedError("true line impedances must be positive")
            total += abs(r - re_) / r + abs(x - xe) / x
            count += 1
    return 0, total / (2 * count)


def edge_difference(a, b) -> int:
    """Topology distance: symmetric difference of the two split multisets.

    Zero exactly when the trees are the same labeled topology over the
    shared terminals (hidden junction names do not matter). Raises
    MetricUndefinedError when the two terminal sets differ.
    """
    return _compare(a, b, impedance=False)[0]


def impedance_error(true_grid, learned) -> float:
    """Mean relative (r, x) error over split-matched lines.

    Defined only when the topologies agree (edge_difference == 0); the root
    line of a true grid is excluded, since no terminal data identifies it.
    """
    diff, imp = _compare(true_grid, learned)
    if diff:
        raise MetricUndefinedError("topologies differ; impedance error is undefined")
    return imp


@dataclass(frozen=True)
class EvalReport:
    exact_recovery: bool
    edge_difference: int
    avg_impedance_error: float | None


def evaluate(true_grid: Grid, learned: LearnedGrid) -> EvalReport:
    """Score a reconstruction: exact-topology flag, split distance, impedances."""
    diff, imp = _compare(true_grid, learned)
    return EvalReport(exact_recovery=diff == 0, edge_difference=diff, avg_impedance_error=imp)


def distance_rmse(d_est: DistanceMatrix, d_true: DistanceMatrix) -> float:
    """Root-mean-square error over unordered pairs, r and x metrics pooled."""
    nodes = d_true.nodes
    if set(nodes) != set(d_est.nodes):
        raise ValidationError("distance matrices cover different node sets")
    sub = d_est.sub(nodes)
    iu = np.triu_indices(len(nodes), k=1)
    err_r = sub.d_r[iu] - d_true.d_r[iu]
    err_x = sub.d_x[iu] - d_true.d_x[iu]
    return float(np.sqrt(np.mean(np.concatenate([err_r, err_x]) ** 2)))


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; file form is `key = value` lines."""

    name: str = "experiment"
    n: int = 100
    trials: int = 25
    samples: tuple[int, ...] = (1_000, 10_000, 100_000)
    eps0: tuple[float, ...] = (RGConfig.eps0,)
    eps_mode: str = "dynamic"  # "dynamic" grows eps on stall; "fixed" fails instead
    seed: int = 0
    max_degree: int = MAX_DEGREE
    r_range: tuple[float, float] = IMPEDANCE_RANGE
    x_range: tuple[float, float] = IMPEDANCE_RANGE
    sigma_pp: float = InjectionSpec.sigma_pp
    sigma_qq: float = InjectionSpec.sigma_qq
    sigma_pq: float = InjectionSpec.sigma_pq
    injection_family: str = InjectionSpec.family
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(int(t) for t in self.samples))
        object.__setattr__(self, "eps0", tuple(float(e) for e in self.eps0))
        _check_generator_args(self.n, self.seed, self.max_degree, self.r_range, self.x_range)
        # A repeated count or tolerance would learn every grid twice and
        # write rows with duplicate (samples, eps0, trial) keys.
        samples, tols = list(self.samples), list(self.eps0)
        if not samples or min(samples) < 2 or len(set(samples)) < len(samples):
            raise ValidationError(f"samples must be a non-empty list of distinct counts >= 2, got {samples}")
        if not tols or len(set(tols)) < len(tols):
            raise ValidationError(f"eps0 must be a non-empty list of distinct tolerances, got {tols}")
        if self.eps_mode not in ("dynamic", "fixed"):
            raise ValidationError(f"eps_mode must be 'dynamic' or 'fixed', got {self.eps_mode!r}")
        for eps0 in self.eps0:  # the learner's and the simulator's own checks, before any trial runs
            self.rg_config(eps0)
        self.injection_spec()
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")

    def injection_spec(self) -> InjectionSpec:
        return InjectionSpec(
            sigma_pp=self.sigma_pp,
            sigma_qq=self.sigma_qq,
            sigma_pq=self.sigma_pq,
            family=self.injection_family,
        )

    def rg_config(self, eps0: float) -> RGConfig:
        return RGConfig(eps0=eps0, dynamic_eps=self.eps_mode == "dynamic")


@dataclass(frozen=True)
class TrialResult:
    """One sweep cell outcome. runtime is in-memory/stdout only: artifact
    files stay byte-reproducible, so wall-clock never lands in them."""

    samples: int
    eps0: float
    trial: int
    recovered: bool
    edge_difference: int | None
    impedance_error: float | None
    error: str = ""
    runtime: float = field(default=0.0, compare=False)


def _run_trial(cfg: ExperimentConfig, trial: int, grid_seed: int, meas_seed: int) -> list[TrialResult]:
    g = random_radial_grid(
        cfg.n, grid_seed, max_degree=cfg.max_degree,
        r_range=cfg.r_range, x_range=cfg.x_range,
    )
    meas = simulate(g, cfg.injection_spec(), max(cfg.samples), meas_seed)
    rows: list[TrialResult] = []
    for t in sorted(cfg.samples):
        m = accumulate(meas.head(t))
        for eps0 in cfg.eps0:
            report, error = None, ""
            start = time.perf_counter()
            try:
                learned = learn_from_moments(m, cfg=cfg.rg_config(eps0))
                runtime = time.perf_counter() - start  # read before evaluate: a cell times the learn only
                report = evaluate(g, learned)
            except Error as exc:
                runtime, error = time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
            scores = (False, None, None) if report is None else (
                report.exact_recovery, report.edge_difference, report.avg_impedance_error)
            rows.append(TrialResult(t, eps0, trial, *scores, error=error, runtime=runtime))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[TrialResult]:
    """Run every (samples, eps0, trial) cell; rows come back canonically sorted.

    Per-trial seeds derive from cfg.seed, and each trial is independent of
    scheduling, so the result is identical for any thread count. A cell
    reports its clamped estimates only through the learned grid's
    provenance; the sweep touches no process-global state.
    """
    state = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.trials, dtype=np.uint32)
    jobs = [
        (trial, int(state[2 * trial]), int(state[2 * trial + 1]))
        for trial in range(cfg.trials)
    ]
    if cfg.threads == 1:
        batches = [_run_trial(cfg, *job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            batches = list(pool.map(lambda job: _run_trial(cfg, *job), jobs))
    rows = [row for batch in batches for row in batch]
    rows.sort(key=lambda r: (r.samples, r.eps0, r.trial))
    return rows


def rows_by_cell(rows: list[TrialResult]) -> dict[tuple[int, float], list[TrialResult]]:
    """Rows keyed by (samples, eps0) cell: cells in sorted order, each cell's rows by trial."""
    cells: dict[tuple[int, float], list[TrialResult]] = {}
    for row in sorted(rows, key=lambda r: (r.samples, r.eps0, r.trial)):
        cells.setdefault((row.samples, row.eps0), []).append(row)
    return cells


def summarize(cfg: ExperimentConfig, rows: list[TrialResult]) -> dict:
    """Aggregate per (samples, eps0) cell; key order is canonical."""
    out = []
    for (t, eps0), batch in rows_by_cell(rows).items():
        recovered = [r for r in batch if r.recovered]
        diffs = [r.edge_difference for r in batch if r.edge_difference is not None]
        imps = [r.impedance_error for r in recovered if r.impedance_error is not None]
        out.append({
            "samples": t,
            "eps0": eps0,
            "trials": len(batch),
            "recovery_rate": len(recovered) / len(batch),
            "mean_edge_difference": float(np.mean(diffs)) if diffs else None,
            "mean_impedance_error": float(np.mean(imps)) if imps else None,
            "failures": sum(1 for r in batch if r.error),
        })
    config = asdict(cfg)  # json renders its tuples as lists
    # Thread count changes scheduling, never results; keeping it out of the
    # artifact keeps summaries byte-identical across worker counts.
    del config["threads"]
    return {"config": config, "cells": out}


def tradeoff_report(rows: list[TrialResult]) -> dict[float, dict[int, float]]:
    """Recovery rate by eps0 then samples: the tolerance trade-off at a glance."""
    table: dict[float, dict[int, float]] = {}
    for (t, eps0), batch in rows_by_cell(rows).items():  # samples ascend within each eps0
        table.setdefault(eps0, {})[t] = sum(r.recovered for r in batch) / len(batch)
    return dict(sorted(table.items()))


# ---------------------------------------------------------------------------
# Artifacts and config files
# ---------------------------------------------------------------------------

RESULT_COLUMNS = tuple(f.name for f in fields(TrialResult) if f.name != "runtime")


def write_results_csv(rows: list[TrialResult], path: str | Path) -> None:
    """One row per cell per trial; csv writes None as an empty field and a float as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            writer.writerow([int(r.recovered) if c == "recovered" else getattr(r, c) for c in RESULT_COLUMNS])


def write_summary_json(cfg: ExperimentConfig, rows: list[TrialResult], path: str | Path) -> None:
    write_json(summarize(cfg, rows), path)


# Config file keys are ExperimentConfig's fields, each read as its default's
# type; the impedance ranges are flattened to their bounds (r_lo/r_hi, x_lo/x_hi).
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_BOUNDS = {"r_range": ("r_lo", "r_hi"), "x_range": ("x_lo", "x_hi")}
CONFIG_KEYS = sorted(key for name in _DEFAULTS for key in _BOUNDS.get(name, (name,)))


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse a `key = value` experiment config file; unknown keys are errors.

    The keys are CONFIG_KEYS. Lists (samples, eps0) are comma-separated;
    '#' starts a comment. Every fault raises FormatError naming the file.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise FormatError(f"{path}: file not found") from None
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(CONFIG_KEYS)})")
        if key in values:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        default = _DEFAULTS.get(key, 0.0)  # r_lo, r_hi, x_lo and x_hi are floats
        try:
            if isinstance(default, tuple):
                parts = [p.strip() for p in val.split(",") if p.strip()]
                if not parts:
                    raise ValueError("expected a comma-separated list")
                values[key] = tuple(map(type(default[0]), parts))
            else:
                values[key] = type(default)(val)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: key {key!r}: {exc}") from None
    for pair, (lo_key, hi_key) in _BOUNDS.items():
        if lo_key in values or hi_key in values:
            if not (lo_key in values and hi_key in values):
                raise FormatError(f"{path}: {lo_key} and {hi_key} must be given together")
            values[pair] = (values.pop(lo_key), values.pop(hi_key))
    try:
        return ExperimentConfig(**values)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
