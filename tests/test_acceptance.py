"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criteria 4 and 5 drive full-size benchmark sweeps; by default they run a
scaled variant sized for CI, and setting GRIDTOPO_FULL=1 switches both to the
full-size runs (n=100 grids; expect tens of minutes).
"""
import itertools
import os
import time

import numpy as np

from gridtopo import (
    Edge,
    ExperimentConfig,
    Grid,
    InjectionSpec,
    LearnedGrid,
    analytic_moments,
    assign_reactances,
    edge_difference,
    edge_splits,
    estimate_distances,
    h_inverse_entry,
    impedance_error,
    learn_from_samples,
    random_radial_grid,
    reduced_laplacian,
    rg_exact,
    run_experiment,
    save_learned,
    simulate,
    tradeoff_report,
    write_results_csv,
    write_summary_json,
)
from _trees import (
    as_learned_grid,
    brute_isomorphic,
    enumerate_leaf_trees,
    naive_edge_difference,
)

FULL = os.environ.get("GRIDTOPO_FULL") == "1"
T_GRID = (1000, 2000, 5000, 10000)


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")


def _learned_from_exact(g, d, tree) -> LearnedGrid:
    _rs, xs, _r_clamped, _x_clamped = assign_reactances(tree, d)
    edges = tuple(Edge(e.u, e.v, e.length, float(x)) for e, x in zip(tree.edges, xs))
    return LearnedGrid(tree.nodes, edges, frozenset(g.observed_nodes))


def test_criterion_1_exact_pipeline_oracle():
    """100/100 exact topology + impedances to 1e-9 from analytic moments."""
    t0 = time.perf_counter()
    wrong_topology = 0
    worst_imp = 0.0
    for i in range(100):
        g = random_radial_grid(
            100, seed=5000 + i, max_degree=5,
            r_range=(0.1, 0.2), x_range=(0.1, 0.2),
        )
        d = estimate_distances(analytic_moments(g))
        tree = rg_exact(g.observed_nodes, d.d_r)
        if edge_difference(g, tree) != 0:
            wrong_topology += 1
            continue
        learned = _learned_from_exact(g, d, tree)
        truth = {key: (r, x) for key, r, x in edge_splits(g)}
        for key, r, x in edge_splits(learned):
            tr, tx = truth[key]
            worst_imp = max(worst_imp, abs(r - tr), abs(x - tx))
    elapsed = time.perf_counter() - t0
    ok = wrong_topology == 0 and worst_imp <= 1e-9 and elapsed < 60.0
    _line(1, "exact pipeline oracle", ok,
          f"recovered {100 - wrong_topology}/100, worst |r/x| error "
          f"{worst_imp:.2e}, {elapsed:.1f}s")
    assert wrong_topology == 0
    assert worst_imp <= 1e-9
    assert elapsed < 60.0


def test_criterion_2_laplacian_path_identity():
    """Path-formula inverse entries match dense inversion to 1e-9 relative."""
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 51))
        # The only valid 6-node grid is the hub with four terminals, which
        # needs degree 5; every other n draws at the default cap of 4.
        max_degree = 5 if n == 6 else 4
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)), max_degree=max_degree)
        for mode in ("r", "x"):
            dense = np.linalg.inv(reduced_laplacian(g, mode))
            m = len(g.reduced_nodes)
            path = np.empty((m, m))
            for i, u in enumerate(g.reduced_nodes):
                for j, v in enumerate(g.reduced_nodes):
                    path[i, j] = h_inverse_entry(g, u, v, mode)
            rel = np.abs(path - dense) / np.maximum(np.abs(dense), 1e-30)
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-9
    _line(2, "Laplacian path identity", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_3_moment_convergence_rate():
    """Empirical-moment error decays like 1/sqrt(T): log-log slope -0.5 +/- 0.15."""
    g = random_radial_grid(20, seed=777)
    ana = analytic_moments(g)
    t_values = (1_000, 10_000, 100_000)
    replicates = 6
    errs = []
    for t in t_values:
        per_seed = []
        for rep in range(replicates):
            ms = simulate(g, InjectionSpec(), T=t, seed=1000 * rep + 17)
            emp_vp = ms.v.T @ ms.p / ms.T
            emp_vq = ms.v.T @ ms.q / ms.T
            per_seed.append(max(
                float(np.abs(emp_vp - ana.vp).max()),
                float(np.abs(emp_vq - ana.vq).max()),
            ))
        errs.append(np.mean(per_seed))
    slope = float(np.polyfit(np.log(t_values), np.log(errs), 1)[0])
    ok = -0.65 <= slope <= -0.35
    _line(3, "moment convergence rate", ok,
          f"slope {slope:.3f}, errors " + ", ".join(f"{e:.4f}" for e in errs))
    assert ok


def test_criterion_4_recovery_curve():
    """Recovery is non-decreasing in T and reaches >= 90% at T=10000."""
    if FULL:
        cfg = ExperimentConfig(name="curve-full", n=100, trials=100,
                               samples=T_GRID, eps0=(0.07,), seed=0)
        budget = 1800.0
    else:
        cfg = ExperimentConfig(name="curve-smoke", n=30, trials=25,
                               samples=T_GRID, eps0=(0.07,), seed=0)
        budget = 120.0
    t0 = time.perf_counter()
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    curve = tradeoff_report(rows)[0.07]
    rates = [curve[t] for t in T_GRID]
    monotone = all(b >= a - 0.03 for a, b in zip(rates, rates[1:]))
    endpoint = rates[-1] >= 0.90
    imp_5000 = [r.impedance_error for r in rows
                if r.samples == 5000 and r.recovered and r.impedance_error is not None]
    mean_imp = float(np.mean(imp_5000)) if imp_5000 else float("nan")
    impedance_ok = bool(mean_imp <= 0.10) if FULL else True
    in_time = elapsed < budget
    ok = monotone and endpoint and impedance_ok and in_time
    scale = "full n=100" if FULL else "smoke n=30"
    _line(4, f"recovery curve ({scale})", ok,
          "recovery " + "/".join(f"{r:.0%}" for r in rates)
          + f" over T={T_GRID}, impedance@5000 {mean_imp:.3f}, {elapsed:.0f}s")
    assert monotone, rates
    assert endpoint, rates
    assert impedance_ok, mean_imp
    assert in_time, elapsed


def _two_se(p1: float, p2: float, trials: int) -> float:
    """Monte-Carlo slack: 2 standard errors of a recovery-rate difference,
    with add-one smoothing so a 0% or 100% cell still carries uncertainty."""
    def var(p: float) -> float:
        k = p * trials
        pt = (k + 1.0) / (trials + 2.0)
        return pt * (1.0 - pt) / (trials + 2.0)

    return 2.0 * float(np.sqrt(var(p1) + var(p2)))


def test_criterion_5_tolerance_tradeoff():
    """Fixed eps 0.1 beats 0.07 at small T; 0.07 beats 0.1 at large T.

    Each end of the sample range is classified as confirmed, indeterminate
    (margin below Monte-Carlo slack, allowed), or contradicted (fails).
    """
    n = 100 if FULL else 30
    cfg = ExperimentConfig(name="tradeoff", n=n, trials=25,
                           samples=(1000, 10000), eps0=(0.07, 0.1),
                           eps_mode="fixed", seed=0)
    rows = run_experiment(cfg)
    rep = tradeoff_report(rows)
    t_lo, t_hi = 1000, 10000
    gain_lo = rep[0.1][t_lo] - rep[0.07][t_lo]    # larger eps should win here
    gain_hi = rep[0.07][t_hi] - rep[0.1][t_hi]    # smaller eps should win here
    slack_lo = _two_se(rep[0.1][t_lo], rep[0.07][t_lo], cfg.trials)
    slack_hi = _two_se(rep[0.07][t_hi], rep[0.1][t_hi], cfg.trials)

    def verdict(gain: float, slack: float) -> str:
        if gain >= slack:
            return "confirmed"
        if gain <= -slack:
            return "contradicted"
        return "indeterminate"

    v_lo, v_hi = verdict(gain_lo, slack_lo), verdict(gain_hi, slack_hi)
    ok = "contradicted" not in (v_lo, v_hi)
    detail = (
        f"n={n} fixed-eps recovery: "
        f"T={t_lo}: eps0.1 {rep[0.1][t_lo]:.0%} vs eps0.07 {rep[0.07][t_lo]:.0%} ({v_lo}); "
        f"T={t_hi}: eps0.07 {rep[0.07][t_hi]:.0%} vs eps0.1 {rep[0.1][t_hi]:.0%} ({v_hi}); "
        f"slack {slack_lo:.2f}/{slack_hi:.2f}"
    )
    _line(5, "tolerance trade-off direction", ok, detail)
    assert ok, detail


def test_criterion_6_round_bound():
    """On exact inputs, grouping rounds never exceed the true tree depth."""
    rng = np.random.default_rng(9000)
    worst = 0.0
    violations = 0
    for _ in range(100):
        n = int(rng.integers(10, 100))
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)))
        d = estimate_distances(analytic_moments(g))
        tree = rg_exact(g.observed_nodes, d.d_r)
        rounds = tree.diagnostics.rounds
        worst = max(worst, rounds / g.depth)
        if rounds > g.depth:
            violations += 1
    ok = violations == 0
    _line(6, "grouping round bound", ok,
          f"violations {violations}/100, worst rounds/depth {worst:.2f}")
    assert ok


def test_criterion_7_metric_unit_cases():
    """Hand impedance-error values to 1e-12; split distance vs brute force."""
    kinds = {"t": "root", "j": "hidden"}
    kinds.update({leaf: "observed" for leaf in "abcde"})
    g5 = Grid.create(kinds, [("t", "j", 1.0, 1.0)] + [
        ("j", leaf, 1.0, 1.0) for leaf in "abcde"
    ])

    def twin(scale_one_r: float = 1.0, scale_all: float = 1.0) -> LearnedGrid:
        edges = []
        for k, leaf in enumerate("abcde"):
            r = 1.0 * scale_all * (scale_one_r if k == 0 else 1.0)
            edges.append(Edge("j", leaf, r, 1.0 * scale_all))
        return LearnedGrid(tuple("abcde") + ("j",), tuple(edges), frozenset("abcde"))

    e_zero = impedance_error(g5, twin())
    e_one = impedance_error(g5, twin(scale_one_r=1.1))
    uniform = LearnedGrid(
        tuple("abcde") + ("j",),
        tuple(Edge("j", leaf, 1.05, 1.05) for leaf in "abcde"),
        frozenset("abcde"),
    )
    e_unif = impedance_error(g5, uniform)
    hand_ok = (
        abs(e_zero - 0.0) <= 1e-12
        and abs(e_one - 0.01) <= 1e-12
        and abs(e_unif - 0.05) <= 1e-12
    )

    mismatches = 0
    checked = 0
    for size in (3, 4, 5):
        leaves = tuple("abcde"[:size])
        trees = enumerate_leaf_trees(leaves)
        for t1, t2 in itertools.product(trees, trees):
            got = edge_difference(as_learned_grid(leaves, t1), as_learned_grid(leaves, t2))
            checked += 1
            if got != naive_edge_difference(leaves, t1, t2):
                mismatches += 1
            elif (got == 0) != brute_isomorphic(t1, t2):
                mismatches += 1
    ok = hand_ok and mismatches == 0
    _line(7, "metric unit cases", ok,
          f"hand values {e_zero:.0e}/{e_one:.3f}/{e_unif:.3f}, "
          f"brute-force mismatches {mismatches}/{checked}")
    assert hand_ok, (e_zero, e_one, e_unif)
    assert mismatches == 0


def test_criterion_8_determinism(tmp_path):
    """Sweeps and pipelines are byte-reproducible for any thread count."""
    base = dict(name="determinism", n=12, trials=4, samples=(500, 2000),
                eps0=(0.07, 0.1), seed=33)
    artifacts = []
    for threads in (1, 4):
        cfg = ExperimentConfig(**base, threads=threads)
        rows = run_experiment(cfg)
        csv_path = tmp_path / f"results-{threads}.csv"
        json_path = tmp_path / f"summary-{threads}.json"
        write_results_csv(rows, csv_path)
        write_summary_json(cfg, rows, json_path)
        artifacts.append((csv_path.read_bytes(), json_path.read_bytes()))
    sweep_ok = artifacts[0] == artifacts[1]

    g = random_radial_grid(15, seed=2)
    blobs = []
    for run in range(2):
        lg = learn_from_samples(simulate(g, InjectionSpec(), T=4000, seed=8))
        path = tmp_path / f"learned-{run}.json"
        save_learned(lg, path)
        blobs.append(path.read_bytes())
    pipeline_ok = blobs[0] == blobs[1]

    ok = sweep_ok and pipeline_ok
    _line(8, "byte determinism", ok,
          f"sweep artifacts equal: {sweep_ok}, pipeline artifacts equal: {pipeline_ok}")
    assert ok
