"""Pair classification and the tree-grouping engine."""
import numpy as np
import pytest

from gridtopo import (
    DistanceMatrix,
    GroupingStalledError,
    NotAdditiveError,
    RGConfig,
    ValidationError,
    match_hidden_and_diff,
    perturbed,
    random_radial_grid,
    rg_exact,
    rg_sampled,
    tree_path_lengths,
)
from gridtopo.grouping import (
    EXACT_TOL,
    _greedy_partition,
    _pair_stats,
    _relations_from_stats,
    _witness_mask,
)

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
    W = _witness_mask(D, None)
    phi_mean, spread, absmax, dev_ba, dev_ab, _ = _pair_stats(D, W)
    parents, siblings, _ = _relations_from_stats(D, eps, phi_mean, spread, absmax, dev_ba, dev_ab)
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


def test_coarsest_partition_hand_relations():
    nodes = ("p", "u", "v", "w", "z")
    # p is the parent of u and of v; u and v are siblings; w and z unrelated.
    parents = [(1.0, 0.0, 0.0, 0, 1), (1.0, 0.0, 0.0, 0, 2)]
    siblings = [(0.0, 1, 2)]
    sib_ok = np.zeros((5, 5), dtype=bool)
    sib_ok[1, 2] = sib_ok[2, 1] = True
    blocks = _greedy_partition(len(nodes), parents, siblings, sib_ok)
    as_sets = {
        frozenset(nodes[i] for i in b["members"]):
            None if b["parent"] is None else nodes[b["parent"]]
        for b in blocks
    }
    assert as_sets[frozenset(("p", "u", "v"))] == "p"
    assert as_sets[frozenset(("w",))] is None
    assert as_sets[frozenset(("z",))] is None
    assert len(blocks) == 3


def test_rg_exact_star_recovers_hub():
    tree = rg_exact(STAR_NODES, STAR_D)
    assert len(tree.hidden) == 1
    hub = next(iter(tree.hidden))
    lengths = sorted(e.length for e in tree.edges)
    assert lengths == pytest.approx([1.0, 2.0, 3.0])
    assert tree.degree(hub) == 3
    rebuilt = tree_path_lengths(tree, STAR_NODES)
    assert np.allclose(rebuilt, STAR_D, atol=1e-12)


def test_rg_exact_cherry_topology(cherry_grid):
    d = DistanceMatrix.from_grid(cherry_grid)
    for mode in ("r", "x"):
        tree = rg_exact(cherry_grid.observed_nodes, d, mode=mode)
        assert match_hidden_and_diff(cherry_grid, tree) == 0
        assert len(tree.hidden) == 3


def test_rg_exact_random_grids_roundtrip():
    rng = np.random.default_rng(99)
    for _ in range(15):
        n = int(rng.integers(6, 40))
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)))
        d = DistanceMatrix.from_grid(g)
        tree = rg_exact(g.observed_nodes, d)
        assert match_hidden_and_diff(g, tree) == 0, f"n={n}"
        rebuilt = tree_path_lengths(tree, g.observed_nodes)
        assert np.allclose(rebuilt, d.mode("r"), atol=1e-9)


def test_rg_exact_rejects_non_additive_metric():
    # Four points on a Euclidean square violate the four-point condition.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    with pytest.raises(NotAdditiveError):
        rg_exact(("a", "b", "c", "d"), d)


def test_rg_exact_round_count_within_depth():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_radial_grid(int(rng.integers(8, 50)), seed=int(rng.integers(1 << 31)))
        tree = rg_exact(g.observed_nodes, DistanceMatrix.from_grid(g))
        assert tree.diagnostics is not None
        assert tree.diagnostics.rounds <= g.depth


def test_rg_sampled_is_deterministic():
    g = random_radial_grid(20, seed=3)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.01, seed=7)
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
        tree = rg_sampled(g.observed_nodes, noisy, RGConfig(eps0=0.05))
        recovered += match_hidden_and_diff(g, tree) == 0
    assert recovered >= 9


def test_rg_sampled_fixed_eps_stalls_and_carries_partial():
    g = random_radial_grid(20, seed=6)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.2, seed=8)
    cfg = RGConfig(eps0=1e-6, dynamic_eps=False)
    with pytest.raises(GroupingStalledError) as err:
        rg_sampled(g.observed_nodes, noisy, cfg)
    assert err.value.partial is not None


def test_rg_sampled_dynamic_eps_always_finishes():
    g = random_radial_grid(20, seed=6)
    noisy = perturbed(DistanceMatrix.from_grid(g), noise=0.05, seed=8)
    tree = rg_sampled(g.observed_nodes, noisy, RGConfig(eps0=1e-6))
    assert tree.diagnostics.eps_escalations > 0
    assert set(tree.leaves) >= set(g.observed_nodes)


def test_rg_input_validation():
    with pytest.raises(ValidationError):
        rg_sampled(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        rg_sampled((), np.zeros((0, 0)))
    with pytest.raises(ValidationError):
        rg_sampled(("a", "b"), np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        RGConfig(eps0=-1.0)
    with pytest.raises(ValidationError):
        RGConfig(eps_growth=1.0)


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


def test_tree_path_lengths_rejects_disconnected_tree(split_tree):
    with pytest.raises(ValidationError, match="not connected"):
        tree_path_lengths(split_tree, ("a", "b"))
