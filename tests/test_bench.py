"""Benchmark harness: generator, scoring metrics, sweeps, and artifacts."""
import dataclasses
import itertools
import json
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gridtopo import bench
from gridtopo import (
    DistanceMatrix,
    Edge,
    ExperimentConfig,
    FormatError,
    Grid,
    LearnedGrid,
    MetricUndefinedError,
    NegativeLengthWarning,
    TrialResult,
    ValidationError,
    distance_rmse,
    edge_difference,
    edge_splits,
    evaluate,
    grid_to_dict,
    impedance_error,
    learn_from_moments,
    analytic_moments,
    load_experiment_config,
    random_radial_grid,
    run_experiment,
    save_grid,
    save_learned,
    summarize,
    tradeoff_report,
    validate_grid,
    write_results_csv,
    write_summary_json,
)
from gridtopo.cli import main
from _trees import (
    as_learned_grid,
    brute_isomorphic,
    enumerate_leaf_trees,
    naive_edge_difference,
)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_generator_produces_valid_grids():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(5, 80))
        max_degree = int(rng.integers(4, 7))
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)), max_degree=max_degree)
        assert len(g.nodes) == n
        report = validate_grid(g)
        assert report == (), report
        assert max(g.degree(node) for node in g.nodes) <= max_degree


def test_generator_is_deterministic():
    a = random_radial_grid(40, seed=123)
    b = random_radial_grid(40, seed=123)
    assert grid_to_dict(a) == grid_to_dict(b)
    c = random_radial_grid(40, seed=124)
    assert grid_to_dict(a) != grid_to_dict(c)


def test_generator_respects_impedance_ranges():
    g = random_radial_grid(60, seed=5, r_range=(0.1, 0.2), x_range=(0.3, 0.4))
    for e in g.edges:
        assert 0.1 <= e.r <= 0.2
        assert 0.3 <= e.x <= 0.4


def test_generator_argument_validation():
    with pytest.raises(ValidationError):
        random_radial_grid(4, seed=0)
    with pytest.raises(ValidationError):
        random_radial_grid(10, seed=0, max_degree=3)
    with pytest.raises(ValidationError):
        random_radial_grid(10, seed=0, r_range=(0.0, 0.1))
    for bad in ((0.1, np.inf), (np.nan, 0.2), (0.1, np.nan)):
        with pytest.raises(ValidationError, match="must be finite"):
            random_radial_grid(10, seed=0, x_range=bad)
    # numpy's generators take non-negative seeds only.
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        random_radial_grid(10, seed=-1)
    # The only valid 6-node grid is the hub with four terminals: degree 5.
    for seed in range(5):
        with pytest.raises(ValidationError, match="max_degree=4"):
            random_radial_grid(6, seed, max_degree=4)
        g = random_radial_grid(6, seed, max_degree=5)
        assert validate_grid(g) == ()
        assert len(g.observed_nodes) == 4
        assert max(g.degree(node) for node in g.nodes) <= 5


# ---------------------------------------------------------------------------
# Split metric and impedance error
# ---------------------------------------------------------------------------

def test_edge_splits_star(star_grid):
    splits = {tuple(sorted(key)): (r, x) for key, r, x in edge_splits(star_grid)}
    # The root line is stripped; three terminal lines remain. Keys are the
    # terminals cut off from the anchor terminal "a" when the line goes.
    assert splits == {
        ("b", "c"): (1.0, 1.0),
        ("b",): (2.0, 2.0),
        ("c",): (3.0, 3.0),
    }


def _learned(lines, observed) -> LearnedGrid:
    nodes = tuple(sorted({n for line in lines for n in line}))
    return LearnedGrid(nodes, tuple(Edge(u, v, 1.0, 1.0) for u, v in lines), frozenset(observed))


def test_edge_splits_reject_non_trees(split_grid):
    star = [("j", "a"), ("j", "b"), ("j", "c")]
    for tree in (split_grid, _learned(star + [("d", "e")], "abcde")):
        with pytest.raises(MetricUndefinedError, match="not connected"):
            edge_splits(tree)
    with pytest.raises(MetricUndefinedError, match="cycle"):
        edge_splits(_learned(star + [("a", "b")], "abc"))
    # A hidden node on no line: three lines for five nodes is no tree.
    isolated = LearnedGrid((*"abcj", "h99"), _learned(star, "abc").edges, frozenset("abc"))
    with pytest.raises(MetricUndefinedError, match="^tree is not connected over its terminals$"):
        edge_splits(isolated)


def test_evaluate_refuses_an_isolated_junction(tmp_path, capsys, star_grid):
    star = _learned([("j", "a"), ("j", "b"), ("j", "c")], "abc")
    learned = LearnedGrid((*"abcj", "h99"), star.edges, frozenset("abc"))
    true, path = tmp_path / "true.json", tmp_path / "learned.json"
    save_grid(star_grid, true)
    save_learned(learned, path)
    assert main(["evaluate", "--true", str(true), "--learned", str(path)]) == 1
    assert capsys.readouterr().err == "error: tree is not connected over its terminals\n"


def test_edge_splits_refuse_what_is_not_a_tree():
    with pytest.raises(ValidationError, match="^cannot extract a tree from int$"):
        edge_splits(42)


# The true grid is star_grid (terminals a, b, c); evaluate names the guard
# only when the two terminal sets agree.
@pytest.mark.parametrize("lines, observed, message, cli_message", [
    ([("j", "a"), ("j", "b"), ("j", "c")], "", "tree has no observed terminals",
     "terminal sets differ: ['a', 'b', 'c'] not shared"),
    ([("j", "b"), ("j", "c"), ("j", "d")], "abc", "anchor terminal 'a' is not in the tree", None),
    ([("j", "a"), ("j", "b"), ("j", "d")], "abc", "terminals ['c'] are not in the tree", None),
], ids=["no-terminals", "anchor-missing", "terminal-missing"])
def test_edge_splits_guards(tmp_path, capsys, star_grid, lines, observed, message, cli_message):
    nodes = tuple(sorted({n for line in lines for n in line} | set(observed)))
    learned = LearnedGrid(nodes, tuple(Edge(u, v, 1.0, 1.0) for u, v in lines), frozenset(observed))
    with pytest.raises(MetricUndefinedError) as err:
        edge_splits(learned)
    assert str(err.value) == message
    true, path = tmp_path / "true.json", tmp_path / "learned.json"
    save_grid(star_grid, true)
    save_learned(learned, path)
    assert main(["evaluate", "--true", str(true), "--learned", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {cli_message or message}\n"


def test_edge_difference_zero_for_relabeled_copy(cherry_grid):
    lg = learn_from_moments(analytic_moments(cherry_grid))
    assert edge_difference(cherry_grid, lg) == 0


def test_edge_difference_requires_same_terminals(star_grid, cherry_grid):
    with pytest.raises(MetricUndefinedError):
        edge_difference(star_grid, cherry_grid)


def test_edge_difference_hand_cases():
    leaves = ("a", "b", "c", "d", "e")
    # True tree: cherries (a,b) and (c,d) meet at a junction that also holds e.
    truth = as_learned_grid(leaves, (
        ("h1", "h2", "h3"),
        frozenset({
            frozenset(("a", "h2")), frozenset(("b", "h2")),
            frozenset(("c", "h3")), frozenset(("d", "h3")),
            frozenset(("h2", "h1")), frozenset(("h3", "h1")), frozenset(("e", "h1")),
        }),
    ))
    # Re-attaching e under the (c, d) junction changes two lines.
    moved = as_learned_grid(leaves, (
        ("h1", "h2", "h3"),
        frozenset({
            frozenset(("a", "h2")), frozenset(("b", "h2")),
            frozenset(("c", "h3")), frozenset(("d", "h3")),
            frozenset(("h2", "h1")), frozenset(("h3", "h1")), frozenset(("e", "h3")),
        }),
    ))
    assert edge_difference(truth, moved) == 2
    # Collapsing the (c, d) junction into the center is one line off.
    collapsed = as_learned_grid(leaves, (
        ("h1", "h2"),
        frozenset({
            frozenset(("a", "h2")), frozenset(("b", "h2")),
            frozenset(("c", "h1")), frozenset(("d", "h1")),
            frozenset(("h2", "h1")), frozenset(("e", "h1")),
        }),
    ))
    assert edge_difference(truth, collapsed) == 1


def test_impedance_error_hand_cases(star_grid):
    exact = learn_from_moments(analytic_moments(star_grid))
    assert impedance_error(star_grid, exact) == pytest.approx(0.0, abs=1e-12)

    # Five-line grid with one resistance 10% off: mean over 2 * 5 entries.
    kinds = {"t": "root", "j": "hidden", "a": "observed", "b": "observed",
             "c": "observed", "d": "observed"}
    g5 = Grid.create(kinds, [
        ("t", "j", 1.0, 1.0),
        ("j", "a", 1.0, 1.0), ("j", "b", 1.0, 1.0),
        ("j", "c", 1.0, 1.0), ("j", "d", 1.0, 1.0),
    ])
    # The learner never sees the root line, so the comparable set is the four
    # terminal lines; build the learned twin directly with 10% on one line.
    twin = LearnedGrid(
        ("a", "b", "c", "d", "j"),
        (
            Edge("j", "a", 1.1, 1.0), Edge("j", "b", 1.0, 1.0),
            Edge("j", "c", 1.0, 1.0), Edge("j", "d", 1.0, 1.0),
        ),
        frozenset(("a", "b", "c", "d")),
    )
    assert impedance_error(g5, twin) == pytest.approx(0.1 / 8.0, abs=1e-12)

    # Uniform 5% error on every r and x.
    twin5 = LearnedGrid(
        ("a", "b", "c", "d", "j"),
        tuple(Edge("j", leaf, 1.05, 0.95) for leaf in "abcd"),
        frozenset(("a", "b", "c", "d")),
    )
    assert impedance_error(g5, twin5) == pytest.approx(0.05, abs=1e-12)

    # An unvalidated true grid with a zero resistance has no relative error.
    zero_r = replace(g5, edges=(g5.edges[0], Edge("j", "a", 0.0, 1.0), *g5.edges[2:]))
    with pytest.raises(MetricUndefinedError, match="^true line impedances must be positive$"):
        impedance_error(zero_r, twin)


def test_impedance_error_undefined_when_topology_differs(star_grid):
    other = LearnedGrid(
        ("a", "b", "c", "h1", "h2"),
        (
            Edge("h1", "a", 1.0, 1.0), Edge("h1", "b", 2.0, 2.0),
            Edge("h1", "h2", 0.5, 0.5), Edge("h2", "c", 2.5, 2.5),
        ),
        frozenset(("a", "b", "c")),
    )
    with pytest.raises(MetricUndefinedError):
        impedance_error(star_grid, other)


def test_edge_difference_agrees_with_brute_force():
    for size in (3, 4, 5):
        leaves = tuple("abcde"[:size])
        trees = enumerate_leaf_trees(leaves)
        expected = {3: 1, 4: 4, 5: 26}[size]
        assert len(trees) == expected
        for t1, t2 in itertools.product(trees, trees):
            got = edge_difference(as_learned_grid(leaves, t1), as_learned_grid(leaves, t2))
            want = naive_edge_difference(leaves, t1, t2)
            assert got == want, (t1, t2)
            # Zero distance must mean genuinely the same tree, and only then.
            assert (got == 0) == brute_isomorphic(t1, t2)


def test_distance_rmse_zero_and_shift(star_grid):
    d = DistanceMatrix.from_grid(star_grid)
    assert distance_rmse(d, d) == 0.0
    shifted = DistanceMatrix(
        d.nodes, d.d_r + 0.1 - 0.1 * np.eye(3), d.d_x + 0.1 - 0.1 * np.eye(3)
    )
    assert distance_rmse(shifted, d) == pytest.approx(0.1)
    with pytest.raises(ValidationError, match="^distance matrices cover different node sets$"):
        distance_rmse(d.sub(["a", "b"]), d)


def test_evaluate_reports(star_grid, monkeypatch):
    lg = learn_from_moments(analytic_moments(star_grid))
    calls = []

    def counted(obj):
        calls.append(obj)
        return edge_splits(obj)

    monkeypatch.setattr(bench, "edge_splits", counted)
    rep = evaluate(star_grid, lg)
    assert calls == [star_grid, lg]  # each tree is split once
    assert rep.exact_recovery and rep.edge_difference == 0
    assert rep.avg_impedance_error == pytest.approx(0.0, abs=1e-12)
    assert rep.avg_impedance_error == impedance_error(star_grid, lg)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SMALL = ExperimentConfig(
    name="small", n=10, trials=3, samples=(500, 4000), eps0=(0.1,), seed=42,
)


def test_run_experiment_shape_and_determinism():
    rows = run_experiment(SMALL)
    assert len(rows) == 3 * 2
    assert rows == run_experiment(SMALL)
    cells = {(r.samples, r.eps0, r.trial) for r in rows}
    assert len(cells) == len(rows)
    for r in rows:
        assert r.recovered in (True, False)
        if r.recovered:
            assert r.edge_difference == 0
            assert r.impedance_error is not None


def test_run_experiment_thread_count_is_invisible():
    serial = run_experiment(SMALL)
    threaded = run_experiment(replace(SMALL, threads=4))
    assert serial == threaded


def test_threaded_sweep_keeps_warnings_silenced():
    # Warning filters are process-global: a worker that saved and restored
    # them itself would un-silence the workers still running. At T = 1000
    # most of these grids clamp a negative length.
    cfg = ExperimentConfig(name="race", n=30, trials=12, samples=(1000,), seed=0, threads=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(8):
                run_experiment(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert not [w for w in caught if issubclass(w.category, NegativeLengthWarning)]


def test_more_samples_do_not_hurt_small_grids():
    rows = run_experiment(SMALL)
    rate = {t: np.mean([r.recovered for r in rows if r.samples == t]) for t in (500, 4000)}
    assert rate[4000] >= rate[500]


def test_summarize_and_tradeoff_report():
    rows = run_experiment(SMALL)
    summary = summarize(SMALL, rows)
    assert "threads" not in summary["config"]
    assert [c["samples"] for c in summary["cells"]] == [500, 4000]
    for cell in summary["cells"]:
        assert 0.0 <= cell["recovery_rate"] <= 1.0
        assert cell["trials"] == 3
    report = tradeoff_report(rows)
    assert set(report.keys()) == {0.1}
    assert set(report[0.1].keys()) == {500, 4000}


def test_cell_summaries_ignore_row_order(tmp_path):
    rows = run_experiment(TRADEOFF)
    shuffled = list(rows)
    np.random.default_rng(0).shuffle(shuffled)
    for order in (shuffled, rows[::-1]):
        assert list(bench.rows_by_cell(order)) == [(100, 0.07), (100, 0.1), (200, 0.07), (200, 0.1)]
        report = tradeoff_report(order)
        assert report == tradeoff_report(rows)
        assert list(report) == [0.07, 0.1] and all(list(by_t) == [100, 200] for by_t in report.values())
        a_json, b_json = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(TRADEOFF, rows, a_json)
        write_summary_json(TRADEOFF, order, b_json)
        assert a_json.read_bytes() == b_json.read_bytes()


def test_artifacts_are_byte_deterministic(tmp_path):
    rows = run_experiment(SMALL)
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(rows, a_csv)
    write_results_csv(run_experiment(SMALL), b_csv)
    assert a_csv.read_bytes() == b_csv.read_bytes()

    a_json, b_json = tmp_path / "a.json", tmp_path / "b.json"
    write_summary_json(SMALL, rows, a_json)
    write_summary_json(SMALL, rows, b_json)
    assert a_json.read_bytes() == b_json.read_bytes()


def test_results_csv_bytes_are_pinned(tmp_path):
    # csv writes None as an empty field and a float as its repr; runtime stays out.
    rows = [
        TrialResult(samples=1000, eps0=0.07, trial=0, recovered=True, edge_difference=0,
                    impedance_error=0.1 + 0.2, runtime=1.5),
        TrialResult(samples=1000, eps0=0.07, trial=1, recovered=False, edge_difference=None,
                    impedance_error=None, error="GroupingStalledError: stalled", runtime=2.5),
    ]
    path = tmp_path / "results.csv"
    write_results_csv(rows, path)
    assert path.read_bytes() == (
        b"samples,eps0,trial,recovered,edge_difference,impedance_error,error\r\n"
        b"1000,0.07,0,1,0,0.30000000000000004,\r\n"
        b"1000,0.07,1,0,,,GroupingStalledError: stalled\r\n"
    )


def test_config_keys_are_the_experiment_fields():
    # The impedance ranges are the one flattened pair of keys.
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    expected = names - {"r_range", "x_range"} | {"r_lo", "r_hi", "x_lo", "x_hi"}
    assert bench.CONFIG_KEYS == sorted(expected)
    assert len(bench.CONFIG_KEYS) == 17


TRADEOFF = ExperimentConfig(
    name="tradeoff", n=12, trials=2, samples=(100, 200), eps0=(0.07, 0.1),
    eps_mode="fixed", seed=9, injection_family="uniform",
)


def test_experiment_config_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "name = tradeoff\nn = 12\nmax_degree = 4\n"
        "r_lo = 0.05\nr_hi = 0.5\nx_lo = 0.05\nx_hi = 0.5\n"
        "samples = 100, 200\neps0 = 0.07, 0.1\neps_mode = fixed  # no escalation\n\n"
        "trials = 2\nseed = 9\nsigma_pp = 1.0\nsigma_qq = 1.0\nsigma_pq = 0.0\n"
        "injection_family = uniform\nthreads = 1\n"
    )
    assert load_experiment_config(path) == TRADEOFF


def test_summary_config_bytes_are_pinned():
    # The summary artifact's config block, byte for byte; threads stays out.
    text = json.dumps(summarize(replace(TRADEOFF, threads=3), [])["config"], indent=2)
    assert text == """{
  "name": "tradeoff",
  "n": 12,
  "trials": 2,
  "samples": [
    100,
    200
  ],
  "eps0": [
    0.07,
    0.1
  ],
  "eps_mode": "fixed",
  "seed": 9,
  "max_degree": 4,
  "r_range": [
    0.05,
    0.5
  ],
  "x_range": [
    0.05,
    0.5
  ],
  "sigma_pp": 1.0,
  "sigma_qq": 1.0,
  "sigma_pq": 0.0,
  "injection_family": "uniform"
}"""


def test_experiment_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("name = x\nbogus_key = 3\n")
    with pytest.raises(FormatError):
        load_experiment_config(bad)
    worse = tmp_path / "worse.cfg"
    worse.write_text("n = notanumber\n")
    with pytest.raises(FormatError):
        load_experiment_config(worse)
    gone = tmp_path / "gone.cfg"
    gone.write_text("tau_rule = auto\n")
    with pytest.raises(FormatError, match="unknown key 'tau_rule'"):
        load_experiment_config(gone)
    gone.write_text("eps_growth = 2\n")
    with pytest.raises(FormatError, match="unknown key 'eps_growth'"):
        load_experiment_config(gone)
    missing = tmp_path / "absent.cfg"
    with pytest.raises(FormatError) as err:
        load_experiment_config(missing)
    assert str(err.value) == f"{missing}: file not found"
    faults = [
        ("n 12\n", ":1: expected 'key = value', got 'n 12'"),
        ("n = 12\nn = 13\n", ":2: duplicate key 'n'"),
        ("samples = ,\n", ":1: key 'samples': expected a comma-separated list"),
        ("r_lo = 0.1\n", ": r_lo and r_hi must be given together"),
        # A repeated count would learn every grid twice under one row key.
        ("samples = 400, 400\n", ": samples must be a non-empty list of distinct counts >= 2, got [400, 400]"),
    ]
    for text, message in faults:
        bad.write_text(text)
        with pytest.raises(FormatError) as err:
            load_experiment_config(bad)
        assert str(err.value) == f"{bad}{message}"


# Values that would hang the sweep (a NaN eps0), spoil every moment (a NaN
# variance) or fail partway through on a random grid's node (a singular
# injection matrix) are refused when the file is read, naming the file.
@pytest.mark.parametrize("line, message", [
    ("eps0 = 0.07, nan", "eps0 must be finite and > 0, got nan"),
    ("eps0 = inf", "eps0 must be finite and > 0, got inf"),
    ("sigma_pp = nan", "injection moments (nan, 1.0, 0.0) must be finite"),
    ("sigma_pq = 1.0", "injection moments (1.0, 1.0, 1.0) are not positive definite"),
    ("r_lo = 0.1\nr_hi = inf", "impedance range (0.1, inf) must be finite with 0 < lo <= hi"),
    ("seed = -1", "seed must be >= 0, got -1"),
], ids=["eps0-nan", "eps0-inf", "sigma_pp-nan", "sigma_pq-singular", "r_hi-inf", "seed-negative"])
def test_experiment_config_rejects_bad_values_naming_the_file(tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"n = 20\ntrials = 2\nsamples = 1000\n{line}\n")
    with pytest.raises(FormatError) as err:
        load_experiment_config(path)
    assert str(err.value) == f"{path}: {message}"


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(n=3)
    with pytest.raises(ValidationError):
        ExperimentConfig(eps_mode="adaptive")
    with pytest.raises(ValidationError):
        ExperimentConfig(samples=())
    with pytest.raises(ValidationError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValidationError, match="^threads must be >= 1, got 0$"):
        ExperimentConfig(threads=0)
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        ExperimentConfig(seed=-1)
    # One cell per (samples, eps0): repeats would write duplicate row keys.
    with pytest.raises(ValidationError, match="distinct tolerances, got \\[0.07, 0.07\\]"):
        ExperimentConfig(n=12, trials=2, samples=(400, 800), eps0=(0.07, 0.07))
    with pytest.raises(ValidationError, match="distinct counts"):
        ExperimentConfig(n=12, trials=2, samples=(400, 400), eps0=(0.07,))
