"""End-to-end learner: moments (or samples) in, grid with impedances out."""
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridtopo import (
    DistanceMatrix,
    FormatError,
    InjectionSpec,
    LearnedTree,
    MeasurementSet,
    MomentSet,
    NegativeLengthWarning,
    RGConfig,
    TreeEdge,
    ValidationError,
    accumulate,
    analytic_moments,
    assign_reactances,
    evaluate,
    learn_from_moments,
    learn_from_samples,
    load_learned,
    random_radial_grid,
    rg_exact,
    save_learned,
    simulate,
)
from _trees import perturbed

STAR_D = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])


def test_learn_from_analytic_moments_star(star_grid):
    lg = learn_from_moments(analytic_moments(star_grid))
    report = evaluate(star_grid, lg)
    assert report.exact_recovery
    assert report.edge_difference == 0
    assert report.avg_impedance_error == pytest.approx(0.0, abs=1e-9)
    assert lg.observed == frozenset(("a", "b", "c"))
    assert len(lg.hidden) == 1
    assert lg.provenance["samples"] is None
    assert lg.provenance["rounds"] >= 1


def test_learn_recovers_both_impedance_kinds(cherry_grid):
    lg = learn_from_moments(analytic_moments(cherry_grid))
    assert evaluate(cherry_grid, lg).exact_recovery
    # Hidden names differ between truth and reconstruction, so compare the
    # (r, x) multisets; every true value is distinct, so sorting pairs them.
    learned_rx = sorted((e.r, e.x) for e in lg.edges)
    true_rx = sorted((e.r, e.x) for e in cherry_grid.edges if "t" not in (e.u, e.v))
    assert len(learned_rx) == len(true_rx)
    for (lr, lx), (tr, tx) in zip(learned_rx, true_rx):
        assert lr == pytest.approx(tr, abs=1e-9)
        assert lx == pytest.approx(tx, abs=1e-9)


def test_learn_from_samples_star(star_grid):
    meas = simulate(star_grid, InjectionSpec(), T=150_000, seed=17)
    lg = learn_from_samples(meas)
    report = evaluate(star_grid, lg)
    assert report.exact_recovery
    assert report.avg_impedance_error < 0.05
    assert lg.provenance["samples"] == 150_000


def test_learner_input_validation(star_grid):
    one = MomentSet(("a",), None, np.ones((1, 1)), np.ones((1, 1)), np.ones(1), np.ones(1), np.zeros(1))
    with pytest.raises(ValidationError, match="at least two observed terminals"):
        learn_from_moments(one)
    lone = DistanceMatrix(("a",), np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValidationError, match="^impedance fit needs at least two observed nodes$"):
        assign_reactances(rg_exact(("a",), np.zeros((1, 1))), lone)
    # The two-sample rule is on the moment set, whatever formed it: one
    # sample's injection determinants are rounding noise.
    meas = simulate(star_grid, InjectionSpec(), T=1, seed=0)
    exact = analytic_moments(star_grid)
    for learn, arg in ((learn_from_samples, meas), (learn_from_moments, accumulate(meas)),
                       (learn_from_moments, replace(exact, count=1))):
        with pytest.raises(ValidationError) as err:
            learn(arg)
        assert str(err.value) == "need at least 2 samples to form moments, got 1"
    assert learn_from_moments(replace(exact, count=2)) == learn_from_moments(exact)
    empty = MeasurementSet(star_grid.observed_nodes, *(np.zeros((0, 3)) for _ in "vpq"))
    with pytest.raises(ValidationError, match="^cannot accumulate an empty measurement set$"):
        learn_from_samples(empty)


def test_assign_reactances_exact(star_grid):
    d = DistanceMatrix(
        ("a", "b", "c"),
        STAR_D.copy(),
        STAR_D.copy() * 0.5,
    )
    tree = rg_exact(("a", "b", "c"), STAR_D)
    rs, xs, r_clamped, x_clamped = assign_reactances(tree, d)
    assert r_clamped == x_clamped == 0
    assert sorted(xs) == pytest.approx([0.5, 1.0, 1.5])
    assert sorted(rs) == pytest.approx([1.0, 2.0, 3.0])


def _explicit_pair_fit(tree, d: DistanceMatrix, mode: str) -> np.ndarray:
    """Least squares on one row per observed pair, paths found by search."""
    adj = {n: [] for n in tree.nodes}
    for e_idx, e in enumerate(tree.edges):
        adj[e.u].append((e.v, e_idx))
        adj[e.v].append((e.u, e_idx))
    nodes = [n for n in d.nodes if n in adj]
    rows, rhs = [], []
    for i, a in enumerate(nodes):
        via = {a: None}  # node -> (previous node, edge index) on the path from a
        stack = [a]
        while stack:
            u = stack.pop()
            for w, e_idx in adj[u]:
                if w not in via:
                    via[w] = (u, e_idx)
                    stack.append(w)
        for b in nodes[i + 1:]:
            row = np.zeros(len(tree.edges))
            node = b
            while via[node] is not None:
                node, e_idx = via[node]
                row[e_idx] = 1.0
            rows.append(row)
            rhs.append(getattr(d, f"d_{mode}")[d.index[a], d.index[b]])
    return np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]


@pytest.mark.parametrize("n", [5, 8, 12, 20, 30, 45, 60, 75, 92])
def test_assign_reactances_matches_pair_row_lstsq(n):
    g = random_radial_grid(n, seed=n)
    exact = DistanceMatrix.from_grid(g)
    tree = rg_exact(g.observed_nodes, exact.d_r)
    d = perturbed(exact, noise=0.05, seed=n)
    rs, xs, r_clamped, x_clamped = assign_reactances(tree, d)
    for mode, got, clamped in (("r", rs, r_clamped), ("x", xs, x_clamped)):
        want = _explicit_pair_fit(tree, d, mode)
        assert clamped == int((want < 0).sum())
        assert np.abs(got - np.maximum(want, 0.0)).max() <= 1e-10


def test_assign_reactances_degree_two_junction_is_min_norm():
    # a - h1 - h2 with b and c on h2: the lines a-h1 and h1-h2 lie on the
    # same pair paths, so only their sum is identified and the minimum-norm
    # solution splits it evenly.
    edges = tuple(TreeEdge(u, v, 1.0) for u, v in (("a", "h1"), ("h1", "h2"), ("h2", "b"), ("h2", "c")))
    tree = LearnedTree(("a", "b", "c", "h1", "h2"), edges, frozenset({"h1", "h2"}))
    dx = np.array([[0.0, 3.1, 2.9], [3.1, 0.0, 2.05], [2.9, 2.05, 0.0]])
    d = DistanceMatrix(("a", "b", "c"), dx, dx)
    with pytest.warns(UserWarning, match=r"impedance fit is rank-deficient \(3 < 4\)") as caught:
        _, xs, _, clamped = assign_reactances(tree, d)
    assert len(caught) == 1  # one warning for r and x: they share the fit
    assert clamped == 0
    assert xs == pytest.approx([0.9875, 0.9875, 1.125, 0.925], abs=1e-12)
    assert xs == pytest.approx(np.maximum(_explicit_pair_fit(tree, d, "x"), 0.0), abs=1e-12)


def test_assign_reactances_memory_stays_below_pair_matrix():
    # k = 132 terminals: one row per pair would be 8,646 x 198 floats, about
    # 14 MB, before lstsq copies it.
    g = random_radial_grid(200, seed=0)
    d = DistanceMatrix.from_grid(g)
    tree = rg_exact(g.observed_nodes, d.d_r)
    assert len(g.observed_nodes) >= 128
    tracemalloc.start()
    try:
        assign_reactances(tree, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_assign_reactances_rejects_disconnected_tree(split_tree):
    d5 = np.ones((5, 5)) - np.eye(5)
    d = DistanceMatrix(("a", "b", "c", "d", "e"), d5, d5)
    with pytest.raises(ValidationError, match="not connected"):
        assign_reactances(split_tree, d)


# A reactance metric that forces one hub branch negative: a sits 1.0 from b
# but only 0.2 from c, so the three-pair solve goes below zero on one line.
CLAMP_D_X = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 1.5], [0.2, 1.5, 0.0]])


def test_assign_reactances_clamps_negative_solutions():
    d = DistanceMatrix(("a", "b", "c"), STAR_D.copy(), CLAMP_D_X.copy())
    tree = rg_exact(("a", "b", "c"), STAR_D)
    _, xs, _, clamped = assign_reactances(tree, d)
    assert clamped == 1
    assert np.all(xs >= 0.0)


def test_learner_warns_when_reactances_clamp():
    # Synthetic moments with unit injections: vp carries the resistance
    # inverse-Laplacian entries, vq a reactance block whose distances are
    # CLAMP_D_X (h(a,b) = (h(a,a) + h(b,b) - d(a,b)) / 2).
    h_r = np.array([[1.5, 0.5, 0.5], [0.5, 2.5, 0.5], [0.5, 0.5, 3.5]])
    diag = np.ones(3)
    h_x = (diag[:, None] + diag[None, :] - CLAMP_D_X) / 2.0
    m = MomentSet(("a", "b", "c"), None, h_r, h_x,
                  np.ones(3), np.ones(3), np.zeros(3))
    with pytest.warns(NegativeLengthWarning):
        lg = learn_from_moments(m)
    assert lg.provenance["clamped_lengths"] >= 1
    assert all(e.x >= 0.0 for e in lg.edges)


def test_learner_counts_resistance_clamps():
    # The same construction with the roles swapped: the resistance metric
    # forces one line negative and the reactance metric is a clean star.
    diag = np.ones(3)
    h_r = (diag[:, None] + diag[None, :] - CLAMP_D_X) / 2.0
    h_x = (diag[:, None] + diag[None, :] - STAR_D) / 2.0
    m = MomentSet(("a", "b", "c"), None, h_r, h_x,
                  np.ones(3), np.ones(3), np.zeros(3))
    with pytest.warns(NegativeLengthWarning, match="1 resistance, 0 reactance"):
        lg = learn_from_moments(m)
    assert lg.provenance["clamped_lengths"] == 1
    assert all(e.r >= 0.0 for e in lg.edges)
    assert sorted(e.x for e in lg.edges) == pytest.approx([1.0, 2.0, 3.0])


def test_learned_json_round_trip(tmp_path, star_grid):
    lg = learn_from_moments(analytic_moments(star_grid))
    path = tmp_path / "learned.json"
    save_learned(lg, path)
    back = load_learned(path)
    assert back.nodes == lg.nodes
    assert back.observed == lg.observed
    assert [(e.u, e.v, e.r, e.x) for e in back.edges] == [
        (e.u, e.v, e.r, e.x) for e in lg.edges
    ]
    assert back.provenance == lg.provenance


def test_learned_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": ["a"], "edges": [{"u": "a"}]}')
    with pytest.raises(FormatError):
        load_learned(bad)
    node = {"id": "a", "observed": True}
    faults = [
        ({"nodes": [node], "edges": [], "provenance": []}, "field 'provenance' must be an object"),
        ({"nodes": [node], "edges": [{"u": "a", "v": "z", "r": 1.0, "x": 1.0}]},
         "edge ('a', 'z') references an unknown node"),
        ({"nodes": [node, node], "edges": []}, "learned grid has duplicate node ids"),
    ]
    for data, message in faults:
        bad.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            load_learned(bad)
        assert str(err.value) == f"{bad}: {message}"


def test_learn_sampled_cfg_is_honored(star_grid):
    lg = learn_from_moments(analytic_moments(star_grid), cfg=RGConfig(eps0=0.3))
    assert lg.provenance["eps0"] == 0.3
