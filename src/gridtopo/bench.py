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
import json
import time
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .distances import DistanceMatrix
from .exceptions import Error, FormatError, MetricUndefinedError, ValidationError
from .grid import Grid, ensure_valid, tree_paths
from .grouping import RGConfig
from .learn import LearnedGrid, learn_from_moments
from .lcpf import InjectionSpec, simulate
from .moments import accumulate

ROOT_NAME = "t"
HUB_NAME = "n1"


# ---------------------------------------------------------------------------
# Random radial grids
# ---------------------------------------------------------------------------

def random_radial_grid(
    n: int,
    seed: int,
    max_degree: int = 4,
    r_range: tuple[float, float] = (0.05, 0.5),
    x_range: tuple[float, float] = (0.05, 0.5),
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
    if n < 5:
        raise ValidationError(f"need n >= 5 for a hub plus three terminals, got n={n}")
    if max_degree < 4:
        raise ValidationError(f"need max_degree >= 4, got {max_degree}")
    for lo, hi in (r_range, x_range):
        if not (0 < lo <= hi):
            raise ValidationError(f"impedance range ({lo}, {hi}) must satisfy 0 < lo <= hi")

    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(1, n)]
    hub = names[0]
    children: dict[str, list[str]] = {hub: names[1:4]}
    parent = {c: hub for c in names[1:4]}
    # The hub reserves one slot for the root line; other junctions get the
    # full degree budget (their parent line plus children).
    capacity = {hub: (max_degree - 1) - 3}
    leaves = list(names[1:4])
    next_id = 5

    while next_id <= n - 1:
        remaining = (n - 1) - (next_id - 1)
        spare = sum(capacity.values())
        can_attach = spare >= 1 and not (remaining == 2 and spare < 2)
        can_promote = remaining >= 2
        if can_attach and can_promote:
            promote = rng.random() < 0.5
        elif can_promote:
            promote = True
        elif can_attach:
            promote = False
        else:
            raise ValidationError(
                f"no valid grid has n={n} nodes under max_degree={max_degree}: "
                f"{remaining} node left to place, no junction has a spare line, "
                "and a promotion places two"
            )
        if promote:
            pick = leaves[rng.integers(len(leaves))]
            leaves.remove(pick)
            new = [f"n{next_id}", f"n{next_id + 1}"]
            next_id += 2
            children[pick] = list(new)
            capacity[pick] = max_degree - 3  # parent line + two children
            for c in new:
                parent[c] = pick
            leaves.extend(new)
        else:
            spots = sorted(j for j, cap in capacity.items() if cap >= 1)
            pick = spots[rng.integers(len(spots))]
            new = f"n{next_id}"
            next_id += 1
            children[pick].append(new)
            capacity[pick] -= 1
            parent[new] = pick
            leaves.append(new)

    kinds = {ROOT_NAME: "root"}
    for name in names:
        kinds[name] = "hidden" if name in children else "observed"
    edge_list = [(ROOT_NAME, hub)] + [(parent[c], c) for c in names[1:]]
    rs = rng.uniform(r_range[0], r_range[1], size=len(edge_list))
    xs = rng.uniform(x_range[0], x_range[1], size=len(edge_list))
    g = Grid.create(kinds, [(u, v, float(r), float(x)) for (u, v), r, x in zip(edge_list, rs, xs)])
    ensure_valid(g)
    return g


# ---------------------------------------------------------------------------
# Topology and impedance metrics
# ---------------------------------------------------------------------------

def _tree_view(obj) -> tuple[list[tuple[str, str, float, float]], frozenset[str], set[str]]:
    """Normalize to (edge list with r/x, observed set, nodes to strip)."""
    if isinstance(obj, Grid):
        root = obj.root
        return ([(e.u, e.v, e.r, e.x) for e in obj.edges], obj.observed, {root})
    if isinstance(obj, LearnedGrid):
        return ([(e.u, e.v, e.r, e.x) for e in obj.edges], obj.observed, set())
    # grouping.LearnedTree quacks like this
    if hasattr(obj, "edges") and hasattr(obj, "hidden"):
        observed = frozenset(obj.nodes) - obj.hidden
        return ([(e.u, e.v, e.length, float("nan")) for e in obj.edges], observed, set())
    raise ValidationError(f"cannot extract a tree from {type(obj).__name__}")


def edge_splits(obj) -> list[tuple[frozenset[str], float, float]]:
    """One (observed-bipartition key, r, x) triple per line.

    The key for a line is the set of observed terminals cut off from a fixed
    anchor terminal when the line is removed; two trees over the same
    terminals are the same topology exactly when their key multisets match.
    For a rooted grid the root and its line are stripped first: terminal
    measurements carry no information about the root side of the hub.
    """
    edge_list, observed, strip = _tree_view(obj)
    if not observed:
        raise MetricUndefinedError("tree has no observed terminals")
    kept = [i for i, (u, v, _r, _x) in enumerate(edge_list) if u not in strip and v not in strip]
    ends = [edge_list[i][:2] for i in kept]
    nodes = {n for pair in ends for n in pair}
    anchor = min(observed)
    if anchor not in nodes:
        raise MetricUndefinedError(f"anchor terminal {anchor!r} is not in the tree")
    paths = tree_paths(ends, anchor)
    if len(paths) != len(nodes):
        raise MetricUndefinedError("tree is not connected over its terminals")
    if len(kept) != len(nodes) - 1:
        raise MetricUndefinedError("tree has a cycle or a parallel line")
    missing = observed - paths.keys()
    if missing:
        raise MetricUndefinedError(f"terminals {sorted(missing)} are not in the tree")
    # A line cuts off from the anchor exactly the terminals whose anchor
    # path runs through it.
    below: list[set[str]] = [set() for _ in kept]
    for n in observed:
        for j in paths[n]:
            below[j].add(n)
    return [
        (frozenset(below[j]), edge_list[i][2], edge_list[i][3])
        for j, i in enumerate(kept)
    ]


def _paired_splits(a, b) -> tuple[list, list]:
    """Both trees' edge_splits, once each; their terminal sets must match."""
    _, obs_a, _ = _tree_view(a)
    _, obs_b, _ = _tree_view(b)
    if frozenset(obs_a) != frozenset(obs_b):
        raise MetricUndefinedError(
            f"terminal sets differ: {sorted(set(obs_a) ^ set(obs_b))} not shared"
        )
    return edge_splits(a), edge_splits(b)


def _split_difference(splits_a: list, splits_b: list) -> int:
    ca = Counter(key for key, _r, _x in splits_a)
    cb = Counter(key for key, _r, _x in splits_b)
    return sum((ca - cb).values()) + sum((cb - ca).values())


def _split_impedance_error(true_splits: list, learned_splits: list) -> float:
    if _split_difference(true_splits, learned_splits) != 0:
        raise MetricUndefinedError("topologies differ; impedance error is undefined")
    true_by_key: dict[frozenset, list[tuple[float, float]]] = {}
    for key, r, x in true_splits:
        true_by_key.setdefault(key, []).append((r, x))
    learned_by_key: dict[frozenset, list[tuple[float, float]]] = {}
    for key, r, x in learned_splits:
        learned_by_key.setdefault(key, []).append((r, x))
    total = 0.0
    count = 0
    for key, truths in true_by_key.items():
        estimates = learned_by_key[key]
        for (r, x), (re_, xe) in zip(sorted(truths), sorted(estimates)):
            if r <= 0 or x <= 0:
                raise MetricUndefinedError("true line impedances must be positive")
            total += abs(r - re_) / r + abs(x - xe) / x
            count += 1
    return total / (2 * count)


def edge_difference(a, b) -> int:
    """Topology distance: symmetric difference of the two split multisets.

    Zero exactly when the trees are the same labeled topology over the
    shared terminals (hidden junction names do not matter). Raises
    MetricUndefinedError when the two terminal sets differ.
    """
    return _split_difference(*_paired_splits(a, b))


def impedance_error(true_grid, learned) -> float:
    """Mean relative (r, x) error over split-matched lines.

    Defined only when the topologies agree (edge_difference == 0); the root
    line of a true grid is excluded, since no terminal data identifies it.
    """
    return _split_impedance_error(*_paired_splits(true_grid, learned))


def match_hidden_and_diff(truth: Grid, learned) -> int:
    """Edge difference after matching hidden junctions across the two trees.

    Junctions are matched implicitly through the terminal bipartition each
    line induces, which is exact for trees with labeled terminals; the count
    is the symmetric difference of the line multisets under that matching.
    """
    return edge_difference(truth, learned)


@dataclass(frozen=True)
class EvalReport:
    exact_recovery: bool
    edge_difference: int
    avg_impedance_error: float | None
    runtime: float = field(default=0.0, compare=False)


def evaluate(true_grid: Grid, learned: LearnedGrid, runtime: float = 0.0) -> EvalReport:
    """Score a reconstruction: exact-topology flag, split distance, impedances."""
    true_splits, learned_splits = _paired_splits(true_grid, learned)
    diff = _split_difference(true_splits, learned_splits)
    imp = _split_impedance_error(true_splits, learned_splits) if diff == 0 else None
    return EvalReport(exact_recovery=diff == 0, edge_difference=diff,
                      avg_impedance_error=imp, runtime=runtime)


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
    eps0: tuple[float, ...] = (0.07,)
    eps_mode: str = "dynamic"  # "dynamic" grows eps on stall; "fixed" fails instead
    eps_growth: float = 1.5
    seed: int = 0
    max_degree: int = 4
    r_range: tuple[float, float] = (0.05, 0.5)
    x_range: tuple[float, float] = (0.05, 0.5)
    sigma_pp: float = 1.0
    sigma_qq: float = 1.0
    sigma_pq: float = 0.0
    injection_family: str = "gaussian"
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(int(t) for t in self.samples))
        object.__setattr__(self, "eps0", tuple(float(e) for e in self.eps0))
        if self.n < 5:
            raise ValidationError(f"n must be >= 5 (hub plus three terminals plus root), got {self.n}")
        if self.max_degree < 4:
            raise ValidationError(f"max_degree must be >= 4, got {self.max_degree}")
        for lo, hi in (self.r_range, self.x_range):
            if not (0 < lo <= hi):
                raise ValidationError(f"impedance range ({lo}, {hi}) must satisfy 0 < lo <= hi")
        if not self.samples or any(t < 2 for t in self.samples):
            raise ValidationError("samples must be a non-empty list of counts >= 2")
        if not self.eps0 or any(e <= 0 for e in self.eps0):
            raise ValidationError("eps0 must be a non-empty list of positive tolerances")
        if self.eps_mode not in ("dynamic", "fixed"):
            raise ValidationError(f"eps_mode must be 'dynamic' or 'fixed', got {self.eps_mode!r}")
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
        return RGConfig(
            eps0=eps0,
            eps_growth=self.eps_growth,
            dynamic_eps=self.eps_mode == "dynamic",
        )


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
            start = time.perf_counter()
            try:
                learned = learn_from_moments(m, cfg=cfg.rg_config(eps0))
                report = evaluate(g, learned, runtime=time.perf_counter() - start)
                rows.append(TrialResult(
                    samples=t, eps0=eps0, trial=trial,
                    recovered=report.exact_recovery,
                    edge_difference=report.edge_difference,
                    impedance_error=report.avg_impedance_error,
                    runtime=report.runtime,
                ))
            except Error as exc:
                rows.append(TrialResult(
                    samples=t, eps0=eps0, trial=trial,
                    recovered=False, edge_difference=None, impedance_error=None,
                    error=f"{type(exc).__name__}: {exc}",
                    runtime=time.perf_counter() - start,
                ))
    return rows


def run_experiment(cfg: ExperimentConfig) -> list[TrialResult]:
    """Run every (samples, eps0, trial) cell; rows come back canonically sorted.

    Per-trial seeds derive from cfg.seed, and each trial is independent of
    scheduling, so the result is identical for any thread count. Warnings
    are silenced for the whole sweep.
    """
    state = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.trials, dtype=np.uint32)
    jobs = [
        (trial, int(state[2 * trial]), int(state[2 * trial + 1]))
        for trial in range(cfg.trials)
    ]
    # The warning filters are process-global, so they are set once here, in
    # the calling thread: a worker that saved and restored them itself would
    # undo the silencing for the workers still running.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if cfg.threads == 1:
            batches = [_run_trial(cfg, *job) for job in jobs]
        else:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                batches = list(pool.map(lambda job: _run_trial(cfg, *job), jobs))
    rows = [row for batch in batches for row in batch]
    rows.sort(key=lambda r: (r.samples, r.eps0, r.trial))
    return rows


def summarize(cfg: ExperimentConfig, rows: list[TrialResult]) -> dict:
    """Aggregate per (samples, eps0) cell; key order is canonical."""
    cells: dict[tuple[int, float], list[TrialResult]] = {}
    for row in rows:
        cells.setdefault((row.samples, row.eps0), []).append(row)
    out = []
    for (t, eps0) in sorted(cells):
        batch = cells[(t, eps0)]
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
    config = config_to_dict(cfg)
    # Thread count changes scheduling, never results; keeping it out of the
    # artifact keeps summaries byte-identical across worker counts.
    config.pop("threads", None)
    return {"config": config, "cells": out}


def tradeoff_report(rows: list[TrialResult]) -> dict[float, dict[int, float]]:
    """Recovery rate by eps0 then samples: the tolerance trade-off at a glance."""
    table: dict[float, dict[int, list[bool]]] = {}
    for row in rows:
        table.setdefault(row.eps0, {}).setdefault(row.samples, []).append(row.recovered)
    return {
        eps0: {t: sum(flags) / len(flags) for t, flags in sorted(by_t.items())}
        for eps0, by_t in sorted(table.items())
    }


# ---------------------------------------------------------------------------
# Artifacts and config files
# ---------------------------------------------------------------------------

RESULT_COLUMNS = ("samples", "eps0", "trial", "recovered", "edge_difference", "impedance_error", "error")


def write_results_csv(rows: list[TrialResult], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in rows:
            writer.writerow([
                r.samples,
                repr(r.eps0),
                r.trial,
                int(r.recovered),
                "" if r.edge_difference is None else r.edge_difference,
                "" if r.impedance_error is None else repr(r.impedance_error),
                r.error,
            ])


def write_summary_json(cfg: ExperimentConfig, rows: list[TrialResult], path: str | Path) -> None:
    Path(path).write_text(json.dumps(summarize(cfg, rows), indent=2) + "\n")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        out[f.name] = list(val) if isinstance(val, tuple) else val
    return out


# Config file keys. Impedance bounds are flattened (r_lo/r_hi, x_lo/x_hi).
_INT_KEYS = {"n", "trials", "seed", "max_degree", "threads"}
_FLOAT_KEYS = {"eps_growth", "sigma_pp", "sigma_qq", "sigma_pq"}
_STR_KEYS = {"name", "eps_mode", "injection_family"}
_BOUND_KEYS = {"r_lo", "r_hi", "x_lo", "x_hi"}
_LIST_KEYS = {"samples", "eps0"}
CONFIG_KEYS = sorted(_INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _BOUND_KEYS | _LIST_KEYS)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse a `key = value` experiment config file; unknown keys are errors.

    Keys: n, max_degree, r_lo, r_hi, x_lo, x_hi, samples, eps0, eps_growth,
    trials, seed, eps_mode, sigma_pp, sigma_qq, sigma_pq, injection_family,
    threads, name. Lists (samples, eps0) are comma-separated; '#' starts a
    comment.
    """
    path = Path(path)
    values: dict = {}
    bounds: dict[str, float] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise FormatError(f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(CONFIG_KEYS)})")
        if key in values or key in bounds:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_KEYS:
                parts = [p.strip() for p in val.split(",") if p.strip()]
                if not parts:
                    raise ValueError("expected a comma-separated list")
                values[key] = tuple(int(p) for p in parts) if key == "samples" else tuple(float(p) for p in parts)
            elif key in _BOUND_KEYS:
                bounds[key] = float(val)
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: key {key!r}: {exc}") from None
    for pair, (lo_key, hi_key) in (("r_range", ("r_lo", "r_hi")), ("x_range", ("x_lo", "x_hi"))):
        if lo_key in bounds or hi_key in bounds:
            if not (lo_key in bounds and hi_key in bounds):
                raise FormatError(f"{path}: {lo_key} and {hi_key} must be given together")
            values[pair] = (bounds[lo_key], bounds[hi_key])
    try:
        return ExperimentConfig(**values)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_experiment_config(cfg: ExperimentConfig, path: str | Path) -> None:
    lines = [
        f"name = {cfg.name}",
        f"n = {cfg.n}",
        f"max_degree = {cfg.max_degree}",
        f"r_lo = {cfg.r_range[0]!r}",
        f"r_hi = {cfg.r_range[1]!r}",
        f"x_lo = {cfg.x_range[0]!r}",
        f"x_hi = {cfg.x_range[1]!r}",
        f"samples = {', '.join(str(t) for t in cfg.samples)}",
        f"eps0 = {', '.join(repr(e) for e in cfg.eps0)}",
        f"eps_mode = {cfg.eps_mode}",
        f"eps_growth = {cfg.eps_growth!r}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
        f"sigma_pp = {cfg.sigma_pp!r}",
        f"sigma_qq = {cfg.sigma_qq!r}",
        f"sigma_pq = {cfg.sigma_pq!r}",
        f"injection_family = {cfg.injection_family}",
        f"threads = {cfg.threads}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
