"""Pair classification and the tree-grouping engine."""
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gridtopo
from gridtopo import (
    DistanceMatrix,
    GroupingStalledError,
    NotAdditiveError,
    RGConfig,
    ValidationError,
    edge_difference,
    random_radial_grid,
    rg_exact,
    rg_sampled,
    tree_path_lengths,
)
from gridtopo import grouping
from gridtopo.grouping import (
    EPS_GROWTH,
    EXACT_TOL,
    WITNESS_CAP,
    _greedy_partition,
    _pair_stats,
    _passes,
    _relations_from_stats,
    _search_eps,
)
from _trees import degrees, perturbed

STAR_NODES = ("a", "b", "c")
STAR_D = np.array([
    [0.0, 3.0, 4.0],
    [3.0, 0.0, 5.0],
    [4.0, 5.0, 0.0],
])

# A three-node path a - b - c with unit lines; b plays the parent role.
CHAIN = DistanceMatrix(
    ("a", "b", "c"),
    np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
    np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
)


def _star_matrix() -> DistanceMatrix:
    return DistanceMatrix(STAR_NODES, STAR_D.copy(), STAR_D.copy())


def _relations(d: DistanceMatrix, eps: float = EXACT_TOL) -> dict:
    """The engine's verdict on every pair over all witnesses, keyed by names.

    Values are (kind, parent, score): score is the parent residual or the
    sibling spread. Pairs that are neither parent nor siblings are absent.
    """
    D = np.array(d.d_r)
    stats = _all_pair_stats(D, None)
    parents, siblings = _relations_from_stats(stats, _passes(eps, *stats[4:]))
    out = {}
    for _, res, _, p, c in parents:
        out[frozenset((d.nodes[p], d.nodes[c]))] = ("parent", d.nodes[p], res)
    for score, a, b in siblings:
        out[frozenset((d.nodes[a], d.nodes[b]))] = ("siblings", None, score)
    return out


def test_classify_siblings_on_star():
    kind, parent, score = _relations(_star_matrix())[frozenset("ab")]
    assert (kind, parent) == ("siblings", None)
    assert score <= 1e-12


def test_classify_parent_on_chain():
    rel = _relations(CHAIN)
    assert rel[frozenset("ab")][:2] == ("parent", "b")
    assert rel[frozenset("bc")][:2] == ("parent", "b")


def test_classify_unrelated_across_junctions(cherry_grid):
    assert frozenset("ac") not in _relations(DistanceMatrix.from_grid(cherry_grid))


def test_classify_tolerance_widens_acceptance():
    noisy = perturbed(_star_matrix(), noise=0.02, seed=5)
    assert frozenset("ab") in _relations(noisy, eps=0.2)  # small noise keeps a verdict


def _all_pair_stats(D: np.ndarray, cap: int | None) -> tuple:
    return _pair_stats(D, *np.triu_indices(len(D), 1), cap)


def _pair_stats_input(case: str) -> tuple[np.ndarray, int | None]:
    rng = np.random.default_rng(11)
    if case == "ties":
        # A path metric on integers: every neighbour pair is an exact parent
        # relation, so Phi -/+ d(a, b) hits zero, and equal distances tie at
        # the witness cap. The first two nodes coincide, so both parent
        # directions pass with equal residuals.
        idx = np.r_[0.0, np.arange(9.0)]
        return np.abs(idx[:, None] - idx[None, :]), 3
    # The last three pin the row starts at their edges: one witness per
    # pair, the last uncapped size and the first capped one.
    k = {"three": 3, "cap + 2": WITNESS_CAP + 2, "cap + 3": WITNESS_CAP + 3}.get(case, 24)
    D = np.triu(rng.uniform(0.5, 3.0, size=(k, k)), 1)
    return D + D.T, None if case == "no cap" else WITNESS_CAP


def _witnesses(D: np.ndarray, a: int, b: int, cap: int | None) -> list[int]:
    """Every node but a and b; with a cap, the cap closest by the larger of
    d(a, c) and d(b, c), plus every node tied with the cap-th."""
    others = [c for c in range(len(D)) if c not in (a, b)]
    if cap is None or len(others) <= cap:
        return others
    kth = sorted(max(D[a, c], D[b, c]) for c in others)[cap - 1]
    return [c for c in others if max(D[a, c], D[b, c]) <= kth]


@pytest.mark.parametrize("case", ["cap", "no cap", "ties", "three", "cap + 2", "cap + 3"])
def test_pair_stats_deviations_match_definition(case):
    D, cap = _pair_stats_input(case)
    i, j, d, phi_mean, spread, dev_ba, dev_ab = _all_pair_stats(D, cap)
    k = len(D)
    assert list(zip(i, j)) == [(a, b) for a in range(k) for b in range(a + 1, k)]
    most = 0
    for p, (a, b) in enumerate(zip(i, j)):
        wit = _witnesses(D, a, b, cap)
        most = max(most, len(wit))
        phi = D[a, wit] - D[b, wit]
        assert d[p] == D[a, b]
        assert dev_ba[p].tobytes() == np.abs(phi - D[a, b]).max().tobytes()
        assert dev_ab[p].tobytes() == np.abs(phi + D[a, b]).max().tobytes()
        assert spread[p].tobytes() == (phi.max() - phi.min()).tobytes()
        assert phi_mean[p] == pytest.approx(phi.mean(), rel=1e-12, abs=1e-12)
    if case in ("three", "cap + 2", "cap + 3"):
        assert most == min(k - 2, WITNESS_CAP)
    if case == "ties":
        assert most > cap  # ties kept more than the cap
        assert (dev_ba == 0).any() and (dev_ab == 0).any()


def _relations_loop(k, eps, i, j, d, phi_mean, spread, dev_ba, dev_ab):
    """Pair-by-pair reference for _relations_from_stats."""
    parents, siblings = [], []
    pairs = iter(range(len(i)))
    for a in range(k):
        for b in range(a + 1, k):
            p = next(pairs)
            assert (i[p], j[p]) == (a, b)
            pass_ba, pass_ab = dev_ba[p] <= eps, dev_ab[p] <= eps
            if pass_ba or pass_ab:
                res_ba, res_ab = abs(d[p] - phi_mean[p]), abs(d[p] + phi_mean[p])
                a_up = res_ab <= res_ba if pass_ba and pass_ab else pass_ab
                par, c = (a, b) if a_up else (b, a)
                res, dev = (res_ab, dev_ab[p]) if a_up else (res_ba, dev_ba[p])
                parents.append((float(d[p]), float(res), float(dev), par, c))
            elif spread[p] <= eps:
                siblings.append((float(spread[p]), a, b))
    return parents, siblings


@pytest.mark.parametrize("case", ["cap", "no cap", "ties"])
def test_pair_stats_do_not_depend_on_block_size(case, monkeypatch):
    D, cap = _pair_stats_input(case)
    i, j = np.triu_indices(len(D), 1)
    want = _pair_stats(D, i, j, cap)
    monkeypatch.setattr(grouping, "PAIR_BLOCK", 7)
    got = _pair_stats(D, i, j, cap)
    assert len(i) > 7
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


def test_relations_match_pair_loop():
    # Leaves of a noisy additive metric give sibling verdicts; the integer
    # path metric gives exact, tied parent verdicts.
    g = random_radial_grid(36, seed=4)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.02, seed=4).d_r
    inputs = [(noisy, cap) for cap in (WITNESS_CAP, None)]
    inputs.append(_pair_stats_input("ties"))
    kinds = set()
    for D, cap in inputs:
        stats = _all_pair_stats(D, cap)
        for eps in (1e-9, 0.02, 0.05, 0.1, 0.3):
            parents, siblings = _relations_from_stats(stats, _passes(eps, *stats[4:]))
            want_parents, want_siblings = _relations_loop(len(D), eps, *stats)
            assert sorted(parents) == sorted(want_parents)
            assert sorted(siblings) == sorted(want_siblings)
            kinds |= {"parent"} if parents else set()
            kinds |= {"sibling"} if siblings else set()
    assert kinds == {"parent", "sibling"}


def _eps_by_steps(eps0: float, stats: tuple) -> tuple:
    """Reference eps search: _passes at eps0, then at every EPS_GROWTH step."""
    eps, steps = eps0, 0
    while not any(m.any() for m in _passes(eps, *stats[4:])):
        eps *= EPS_GROWTH
        steps += 1
    return eps, steps, _passes(eps, *stats[4:])


def _phi_beyond_d(eps0: float) -> np.ndarray:
    """Five nodes, not a metric: for the pair (0, 1), Phi(0, 1; c) = 3 + delta_c
    exceeds d(0, 1) = 1 at every witness, with a spread of 1.2 eps0 that no
    other pair's statistic undercuts."""
    delta = np.array([0.0, 1.2, 0.6]) * eps0
    d_1c = np.array([2.0, 2.5, 3.0])
    D = np.zeros((5, 5))
    D[0, 1] = 1.0
    D[1, 2:], D[0, 2:] = d_1c, d_1c + 3.0 + delta
    D[2, 3], D[3, 4], D[2, 4] = 1.7, 1.1, 2.9
    return D + D.T


@pytest.mark.parametrize("eps0", [1e-9, 1e-4, 0.02, 0.07])
@pytest.mark.parametrize("case", ["cap", "no cap", "ties", "phi beyond d"])
def test_eps_search_matches_single_steps(case, eps0):
    D, cap = (_phi_beyond_d(eps0), None) if case == "phi beyond d" else _pair_stats_input(case)
    stats = _all_pair_stats(D, cap)
    want_eps, want_steps, want_passes = _eps_by_steps(eps0, stats)
    if case == "phi beyond d":
        # |Phi| - d(0, 1) > eps, and the pair passes as siblings, alone, at
        # the first step at or above its spread.
        assert np.abs(D[0, 2:] - D[1, 2:]).max() - D[0, 1] > want_eps
        assert want_steps == 1 and want_eps >= stats[4][0] > eps0
        assert [m.nonzero()[0].tolist() for m in want_passes] == [[], [], [0]]
    eps, steps, passes = _search_eps(RGConfig(eps0=eps0), stats)
    assert (eps, steps) == (want_eps, want_steps)
    for got, want in zip(passes, want_passes):
        assert np.array_equal(got, want)
    # A fixed eps either passes at eps0 or raises there, without escalating.
    fixed = RGConfig(eps0=eps0, dynamic_eps=False)
    if want_steps == 0:
        assert _search_eps(fixed, stats)[:2] == (eps0, 0)
    else:
        with pytest.raises(GroupingStalledError, match=rf"^no pair classified at eps={eps0:g} and eps is fixed$"):
            _search_eps(fixed, stats)


def test_pair_stats_memory_stays_below_dense_tensors():
    # k = 132 terminals: one (k, k, k) float tensor takes 18.4 MB, one
    # array over the k(k - 1)/2 unordered pairs by k witnesses 9.1 MB.
    g = random_radial_grid(200, seed=0)
    d = DistanceMatrix.from_grid(g)
    D = (d.d_r + d.d_x) / 2.0
    assert len(D) == 132
    tracemalloc.start()
    try:
        _all_pair_stats(D, WITNESS_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_000_000


def test_grouping_memory_stays_below_one_pair_array():
    # k = 132: one float array over the unordered pairs by k witnesses
    # takes 9.1 MB; grouping works on blocks of pairs and never holds one.
    g = random_radial_grid(200, seed=0)
    d = DistanceMatrix.from_grid(g)
    D = (d.d_r + d.d_x) / 2.0
    k = len(D)
    pair_array = k * (k - 1) // 2 * k * 8
    pairs = np.triu_indices(k, 1)
    for run in (
        lambda: _pair_stats(D, *pairs, WITNESS_CAP),
        lambda: rg_exact(g.observed_nodes, D),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pair_array


def test_coarsest_partition_hand_relations():
    nodes = ("p", "u", "v", "w", "z")
    # p is the parent of u and of v; u and v are siblings; w and z unrelated.
    parents = [(1.0, 0.0, 0.0, 0, 1), (1.0, 0.0, 0.0, 0, 2)]
    siblings = [(0.0, 1, 2)]
    # p's block holds u and v; the sibling pair u, v is already placed, and
    # w and z stay unplaced.
    assert _greedy_partition(parents, siblings) == ({0: [1, 2]}, [])


def test_sibling_blocks_grow_by_half_quorum():
    parents = [(1.0, 0.0, 0.0, 0, 13)]  # 0 and 13 sit in a parent block
    siblings = [
        (0.01, 11, 12), (0.02, 7, 8), (0.03, 1, 2), (0.04, 5, 6), (0.05, 9, 10),  # five new blocks
        (0.06, 13, 14), (0.065, 0, 15),  # skipped: 13 and 0 are placed
        (0.07, 1, 3),  # joins {1, 2}: 1 of 2 cross pairs
        (0.08, 4, 1),  # refused by {1, 2, 3}: 1 of 3
        (0.09, 5, 7), (0.12, 6, 8),  # {5, 6} absorbs {7, 8}: 2 of 4
        (0.10, 9, 11),  # {9, 10} and {11, 12} stay apart: 1 of 4
        (0.11, 14, 15),  # a new block, after the merge
    ]
    # Blocks keep their creation order; the merged block keeps {5, 6}'s place.
    assert _greedy_partition(parents, siblings) == (
        {0: [13]}, [[11, 12], [1, 2, 3], [5, 6, 7, 8], [9, 10], [14, 15]],
    )
    # Pair order is spread order, whatever the input order.
    assert _greedy_partition(parents, siblings[::-1]) == _greedy_partition(parents, siblings)
    # A pair counts in either order: (4, 2) is refused at first (1 of 4
    # cross pairs), then counts as the cross pair (2, 4) when (1, 3) merges
    # {1, 2} and {3, 4}: 2 of 4.
    reversed_pair = [(0.01, 1, 2), (0.02, 3, 4), (0.025, 4, 2), (0.03, 1, 3)]
    assert _greedy_partition([], reversed_pair) == ({}, [[1, 2, 3, 4]])


def test_rg_exact_star_recovers_hub():
    tree = rg_exact(STAR_NODES, STAR_D)
    assert len(tree.hidden) == 1
    hub = next(iter(tree.hidden))
    lengths = sorted(e.length for e in tree.edges)
    assert lengths == pytest.approx([1.0, 2.0, 3.0])
    assert degrees(tree)[hub] == 3
    rebuilt = tree_path_lengths(tree, STAR_NODES)
    assert np.allclose(rebuilt, STAR_D, atol=1e-12)


def test_rg_exact_cherry_topology(cherry_grid):
    d = DistanceMatrix.from_grid(cherry_grid)
    for mode in ("r", "x"):
        tree = rg_exact(cherry_grid.observed_nodes, getattr(d, f"d_{mode}"))
        assert edge_difference(cherry_grid, tree) == 0
        assert len(tree.hidden) == 3


def test_rg_exact_random_grids_roundtrip():
    rng = np.random.default_rng(99)
    for _ in range(15):
        n = int(rng.integers(6, 40))
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)))
        d = DistanceMatrix.from_grid(g)
        tree = rg_exact(g.observed_nodes, d.d_r)
        assert edge_difference(g, tree) == 0, f"n={n}"
        rebuilt = tree_path_lengths(tree, g.observed_nodes)
        assert np.allclose(rebuilt, d.d_r, atol=1e-9)


def test_rg_exact_rejects_non_additive_metric():
    # Four points on a Euclidean square violate the four-point condition.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    with pytest.raises(NotAdditiveError):
        rg_exact(("a", "b", "c", "d"), d)


def test_rg_exact_stalls_on_unstructured_distances():
    # A random symmetric matrix classifies no pair at the fixed exact
    # tolerance, so the first round stalls.
    a = np.random.default_rng(0).uniform(1.0, 2.0, (6, 6))
    d = a + a.T
    np.fill_diagonal(d, 0.0)
    # The tolerance is EXACT_TOL times the largest entry, 3.86...
    message = (r"^input distances are not an additive tree metric "
               r"\(no pair classified at eps=3.86039e-09 and eps is fixed\)$")
    with pytest.raises(NotAdditiveError, match=message):
        rg_exact(tuple("abcdef"), d)


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e12, 1e300])
def test_rg_exact_does_not_depend_on_units(scale):
    # The tolerance scales with the largest distance; an absolute one groups
    # every pair of a tiny metric and no pair of a huge one.
    for seed in range(30):
        g = random_radial_grid(30, seed)
        d = DistanceMatrix.from_grid(g).d_r * scale
        tree = rg_exact(g.observed_nodes, d)
        assert edge_difference(g, tree) == 0, f"seed={seed}"
        assert np.abs(tree_path_lengths(tree, g.observed_nodes) - d).max() <= EXACT_TOL * d.max()


def test_rg_exact_round_count_within_depth():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_radial_grid(int(rng.integers(8, 50)), seed=int(rng.integers(1 << 31)))
        tree = rg_exact(g.observed_nodes, DistanceMatrix.from_grid(g).d_r)
        assert tree.diagnostics is not None
        assert tree.diagnostics.rounds <= g.depth


def test_rg_sampled_is_deterministic():
    g = random_radial_grid(20, seed=3)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.01, seed=7).d_r
    t1 = rg_sampled(g.observed_nodes, noisy)
    t2 = rg_sampled(g.observed_nodes, noisy)
    assert t1.edges == t2.edges
    assert t1.nodes == t2.nodes


def test_rg_sampled_recovers_under_small_noise():
    rng = np.random.default_rng(23)
    recovered = 0
    for _ in range(10):
        g = random_radial_grid(int(rng.integers(10, 30)), seed=int(rng.integers(1 << 31)))
        noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.01, seed=int(rng.integers(1 << 31)))
        tree = rg_sampled(g.observed_nodes, noisy.d_r, RGConfig(eps0=0.05))
        recovered += edge_difference(g, tree) == 0
    assert recovered >= 9


# Edge lists (u, v, length.hex()) pinned when the junction merge was first
# covered. With 0.02 noise at the default RGConfig, the 16-node grid's round 3
# forms a sibling block whose new junction lands on one of its own hidden
# members (own-child merge). Edge order is pinned too: it is the column order
# of the reactance fit and of the learned JSON.
MERGE_PINS = {
    "own-child": (16, 0, [
        ("h#1", "n6", "0x1.e485c384e53bep-5"), ("h#1", "n13", "0x1.203c49ae0f907p-4"),
        ("h#2", "n9", "0x1.cbdc8d9bd7c27p-2"), ("h#2", "n11", "0x1.84c4b452ca4f2p-3"),
        ("h#3", "n7", "0x1.8d30dd57a9f3ep-2"), ("h#3", "n8", "0x1.049ab9aa8c0f4p-3"),
        ("h#3", "n12", "0x1.f5e95763e23d6p-3"), ("h#4", "n14", "0x1.c775c883ee527p-4"),
        ("h#4", "n15", "0x1.6c357a82249a2p-2"), ("h#2", "h#4", "0x1.17d2c7085bdeap-2"),
        ("h#1", "h#3", "0x1.c3d5c5ff40817p-2"), ("h#1", "n3", "0x1.d281c8a49a11ep-2"),
        ("h#1", "h#2", "0x1.0a442b9e136e7p-1"),
    ]),
}


@pytest.mark.parametrize("case", MERGE_PINS)
def test_rg_sampled_junction_merges_are_pinned(case):
    n, seed, pinned = MERGE_PINS[case]
    g = random_radial_grid(n, seed)
    tree = rg_sampled(g.observed_nodes, perturbed(DistanceMatrix.from_grid(g), noise=0.02, seed=seed).d_r)
    assert tree.diagnostics.merged_junctions >= 1
    assert [(e.u, e.v, e.length.hex()) for e in tree.edges] == pinned


@pytest.mark.parametrize("n, seed", [(12, 35), (60, 2)])
def test_rg_sampled_recovers_without_a_kept_junction_target(n, seed):
    # With 0.02 noise, merging a new junction of each grid into a junction
    # kept from an earlier round makes the one wrong line; a new junction
    # merges only into its own block's members.
    g = random_radial_grid(n, seed)
    tree = rg_sampled(g.observed_nodes, perturbed(DistanceMatrix.from_grid(g), noise=0.02, seed=seed).d_r)
    assert edge_difference(g, tree) == 0


# rg_sampled on the 60-node grid of seed 2 with 0.02 noise: its 39 terminals
# exceed WITNESS_CAP + 2, so every pair's witness set is trimmed. Pinned
# (u, v, length.hex()) edge list and diagnostics.
CAPPED_PIN = [
    ('h#1', 'n53', '0x1.c190d8585f8adp-3'), ('h#1', 'n54', '0x1.20aed6631bf23p-2'),
    ('h#1', 'n55', '0x1.80125638d3179p-5'), ('h#2', 'n37', '0x1.3ccfbff4f9606p-2'),
    ('h#2', 'n38', '0x1.0a3c75a882abfp-4'), ('h#2', 'n49', '0x1.00e663f4fc894p-2'),
    ('h#3', 'n14', '0x1.4044d86035401p-2'), ('h#3', 'n15', '0x1.8d461d83ca875p-2'),
    ('h#4', 'n40', '0x1.d87e4242139bep-2'), ('h#4', 'n44', '0x1.6f9840b7c7d70p-5'),
    ('h#5', 'n35', '0x1.496e0615d5d8ep-3'), ('h#5', 'n36', '0x1.77072cbb3da16p-2'),
    ('h#5', 'n43', '0x1.80e0f656fb9a0p-3'), ('h#6', 'n24', '0x1.8a23457afa52cp-4'),
    ('h#6', 'n25', '0x1.006f97af69ee6p-2'), ('h#6', 'n27', '0x1.547854c17fe76p-2'),
    ('h#7', 'n41', '0x1.95c4938541b20p-2'), ('h#7', 'n42', '0x1.9536a48af9af4p-5'),
    ('h#7', 'n45', '0x1.ad7e62e660924p-2'), ('h#8', 'n21', '0x1.bc6d5b36baa2cp-4'),
    ('h#8', 'n23', '0x1.bb28f04640995p-2'), ('h#9', 'n56', '0x1.04484c34bf30ep-3'),
    ('h#9', 'n57', '0x1.367c3d987133ep-3'), ('h#10', 'n46', '0x1.a6c95ec22d8c2p-4'),
    ('h#10', 'n47', '0x1.49d9392f3b976p-4'), ('h#10', 'n48', '0x1.f8251412630bfp-2'),
    ('h#11', 'n50', '0x1.8cfaed3efc935p-3'), ('h#11', 'n52', '0x1.c6376bb8205bfp-3'),
    ('h#12', 'n28', '0x1.1b6f1a5484d8cp-2'), ('h#12', 'n29', '0x1.e84c3c5162c6dp-2'),
    ('h#12', 'n34', '0x1.f6dce4bca8f9cp-2'), ('h#13', 'n11', '0x1.b0c4291cf577ap-2'),
    ('h#13', 'n12', '0x1.bf2d37037d1b4p-3'), ('h#14', 'n58', '0x1.e86c533df66a4p-3'),
    ('h#14', 'n59', '0x1.68766d70971cap-3'), ('h#11', 'h#14', '0x1.50d3591fe01f6p-4'),
    ('h#4', 'h#7', '0x1.89a16e297567cp-3'), ('h#3', 'h#2', '0x1.1ddd167d7e6fdp-2'),
    ('h#15', 'h#1', '0x1.914090d017cd3p-2'), ('h#15', 'h#10', '0x1.4f26c4d5d3e87p-2'),
    ('h#16', 'n33', '0x1.1b7434ad90c41p-2'), ('h#16', 'h#5', '0x1.e4ef27e4d61ecp-4'),
    ('h#17', 'n20', '0x1.40cdcc20c3242p-2'), ('h#17', 'h#12', '0x1.d759025d9d680p-3'),
    ('h#18', 'n5', '0x1.2cd6c6680c9e7p-3'), ('h#18', 'h#6', '0x1.cea7566ff265ap-2'),
    ('h#19', 'n7', '0x1.1a8cd75e1c12bp-4'), ('h#19', 'h#9', '0x1.fabbe121c8a08p-3'),
    ('h#16', 'h#11', '0x1.0e09bcecdecf0p-3'), ('h#15', 'h#4', '0x1.38daf18c8e006p-2'),
    ('h#13', 'h#3', '0x1.f37b6908365aap-2'), ('h#8', 'h#15', '0x1.a53f88f773fd0p-5'),
    ('h#19', 'h#16', '0x1.7659875a6808dp-2'), ('h#17', 'h#8', '0x1.2a02a2ff38328p-3'),
    ('h#20', 'h#13', '0x1.6f99e1d767097p-2'), ('h#20', 'h#19', '0x1.a0844e4341646p-3'),
    ('h#18', 'h#17', '0x1.89b8ada9ca698p-4'), ('h#18', 'h#20', '0x1.23e190a6d9a54p-2'),
]


def test_rg_sampled_capped_witnesses_are_pinned():
    g = random_radial_grid(60, 2)
    assert len(g.observed_nodes) > WITNESS_CAP + 2
    tree = rg_sampled(g.observed_nodes, perturbed(DistanceMatrix.from_grid(g), noise=0.02, seed=2).d_r)
    assert [(e.u, e.v, e.length.hex()) for e in tree.edges] == CAPPED_PIN
    assert tree.diagnostics == grouping.RGDiagnostics(rounds=6, merged_junctions=0)


def test_junction_lengths_read_each_pairs_mean(monkeypatch):
    # Round 1 merges nothing, so the lines of its first sibling block's
    # junction h#1 are the block's distances to it: for each member a, the
    # mean over its block mates b of L(a, b) / 2, where L(a, b) = d(a, b)
    # plus the mean of Phi(a, b; c) over the pair's witnesses c.
    g = random_radial_grid(60, 1)
    D = perturbed(DistanceMatrix.from_grid(g), noise=0.02, seed=1).d_r
    rounds = []
    real = grouping._greedy_partition
    monkeypatch.setattr(grouping, "_greedy_partition", lambda *args: rounds.append(real(*args)) or rounds[-1])
    tree = rg_sampled(g.observed_nodes, D)
    block = rounds[0][1][0]
    assert len(block) >= 3 and len(D) > WITNESS_CAP + 2
    got = {e.v: e.length for e in tree.edges if e.u == "h#1"}
    for a in block:
        L = [D[a, b] + np.mean([D[a, c] - D[b, c] for c in _witnesses(D, a, b, WITNESS_CAP)])
             for b in block if b != a]
        assert got[g.observed_nodes[a]] == pytest.approx(np.mean(L) / 2, rel=1e-12, abs=0)


def test_rg_sampled_partitions_once_per_round(monkeypatch):
    # eps escalates on the pair statistics alone, so a round tests the pairs
    # and partitions once however many eps steps it takes.
    calls = {"_pair_stats": 0, "_passes": 0, "_greedy_partition": 0}

    def count(name):
        real = getattr(grouping, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(grouping, name, counted)

    for name in calls:
        count(name)
    g = random_radial_grid(20, seed=6)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.05, seed=8).d_r
    diag = rg_sampled(g.observed_nodes, noisy, RGConfig(eps0=1e-6)).diagnostics
    assert diag.eps_escalations > diag.rounds
    # Every round computes pair statistics once, except a closing round that
    # joins the last two nodes with one line.
    two_node_line = diag.rounds - calls["_pair_stats"]
    assert two_node_line in (0, 1)
    assert calls["_passes"] == calls["_greedy_partition"] == diag.rounds - two_node_line


def test_rg_sampled_fixed_eps_stalls():
    g = random_radial_grid(20, seed=6)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.2, seed=8).d_r
    cfg = RGConfig(eps0=1e-6, dynamic_eps=False)
    with pytest.raises(GroupingStalledError):
        rg_sampled(g.observed_nodes, noisy, cfg)


def test_rg_sampled_dynamic_eps_always_finishes():
    g = random_radial_grid(20, seed=6)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.05, seed=8).d_r
    tree = rg_sampled(g.observed_nodes, noisy, RGConfig(eps0=1e-6))
    assert tree.diagnostics.eps_escalations > 0
    assert all(degrees(tree)[n] <= 1 for n in g.observed_nodes)


def test_a_round_that_attaches_no_line_raises_at_once(monkeypatch):
    # Some pair passes in every round, so a block forms and attaches a line;
    # a round that breaks this is an internal error, raised in that round.
    calls = []
    monkeypatch.setattr(grouping, "_greedy_partition", lambda *args: calls.append(args) or ({}, []))
    g = random_radial_grid(20, seed=6)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.05, seed=8).d_r
    with pytest.raises(GroupingStalledError, match="^internal error: a grouping round attached no line$"):
        rg_sampled(g.observed_nodes, noisy)
    assert len(calls) == 1


def test_rg_input_validation():
    with pytest.raises(ValidationError):
        rg_sampled(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        rg_sampled((), np.zeros((0, 0)))
    with pytest.raises(ValidationError):
        rg_sampled(("a", "b"), np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        RGConfig(eps0=-1.0)
    # A NaN tolerance classifies no pair, so grouping would never end; an
    # infinite one lumps every terminal onto one junction.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="eps0 must be finite"):
            RGConfig(eps0=bad)
    # A NaN passes no eps test, so no pair would ever classify and the eps
    # escalation would never end.
    g = random_radial_grid(20, seed=6)
    for bad in (np.nan, np.inf):
        D = np.array(DistanceMatrix.from_grid(g).d_r)
        D[0, 1] = D[1, 0] = bad
        for run in (rg_sampled, rg_exact):
            with pytest.raises(ValidationError, match="non-finite"):
                run(g.observed_nodes, D)
    # Below max|d| of about 2.2e-299, rg_exact's tolerance EXACT_TOL * max|d|
    # is subnormal: at 1e-316 it rounds to 0.0, and at 3e-315 it is a few
    # ulps, below the metric's own rounding, which once made most of these
    # grids "not additive". Refused for the distances' scale, not for an eps0.
    g = random_radial_grid(30, 0)
    for scale, shown in ((1e-316, r"2\.963e-316"), (3e-315, r"8\.889e-315")):
        d = DistanceMatrix.from_grid(g).d_r * scale
        message = rf"^distances too small: EXACT_TOL \* max\|d\| underflows float64 at max\|d\| = {shown}$"
        with pytest.raises(ValidationError, match=message):
            rg_exact(g.observed_nodes, d)


def _huge_distances() -> np.ndarray:
    """8 nodes, off-diagonal entries uniform in [2e307, 4e307]: finite, but
    grouping's sums over several input nodes overflow float64."""
    D = np.triu(np.random.default_rng(0).uniform(2e307, 4e307, (8, 8)), 1)
    return D + D.T


def test_rg_sampled_refuses_float64_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValidationError, match="^distances too large: float64 overflow encountered$"):
            rg_sampled(tuple("abcdefgh"), _huge_distances())


def test_rg_sampled_refuses_float64_overflow_with_warnings_ignored(tmp_path):
    # With the overflow warning ignored, NaN pair statistics once made the
    # eps search raise eps forever; a child process puts a deadline on it.
    np.save(tmp_path / "d.npy", _huge_distances())
    code = ("import numpy as np, gridtopo\n"
            f"try: gridtopo.rg_sampled(tuple('abcdefgh'), np.load({str(tmp_path / 'd.npy')!r}))\n"
            "except gridtopo.Error as exc: print(type(exc).__name__)")
    env = {**os.environ, "PYTHONPATH": str(Path(gridtopo.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.stdout, out.stderr) == ("ValidationError\n", "")


def test_single_and_pair_inputs():
    lone = rg_sampled(("a",), np.zeros((1, 1)))
    assert lone.nodes == ("a",)
    assert lone.edges == ()
    duo = rg_exact(("a", "b"), np.array([[0.0, 2.5], [2.5, 0.0]]))
    assert len(duo.edges) == 1
    assert duo.edges[0].length == pytest.approx(2.5)


def test_tree_path_lengths_subset(star_grid):
    tree = rg_exact(STAR_NODES, STAR_D)
    sub = tree_path_lengths(tree, ("a", "c"))
    assert sub[0, 1] == pytest.approx(4.0)
    with pytest.raises(ValidationError, match="^tree has no node 'z'$"):
        tree_path_lengths(tree, ("a", "z"))


def test_tree_path_lengths_rejects_disconnected_tree(split_tree):
    with pytest.raises(ValidationError, match="not connected"):
        tree_path_lengths(split_tree, ("a", "b"))
