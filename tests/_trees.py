"""Small-tree enumeration and naive re-implementations of the topology metric.

Used to verify the packaged edge-difference computation on every leaf-labeled
tree with a handful of terminals: the naive distance recomputes each line's
terminal bipartition by cutting the line and flooding the remainder, and the
naive isomorphism check tries every hidden-node bijection outright. Also
holds the noisy-distance and node-degree helpers the grouping tests share,
and builders for tree shapes that random_radial_grid does not make.
"""
import itertools
from collections import Counter

import numpy as np

from gridtopo import DistanceMatrix, Edge, Grid, LearnedGrid

Tree = tuple[tuple[str, ...], frozenset]  # (hidden names, edge set of frozenset pairs)


def _component(edges: frozenset, cut: frozenset, start: str) -> set[str]:
    adj: dict[str, set[str]] = {}
    for e in edges:
        if e == cut:
            continue
        u, v = tuple(e)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = {start}
    stack = [start]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def naive_splits(leaves: tuple[str, ...], edges: frozenset) -> Counter:
    """Terminal bipartition keys, one per edge, via cut-and-flood."""
    anchor = min(leaves)
    keys = []
    for e in edges:
        near = _component(edges, e, anchor)
        keys.append(tuple(sorted(set(leaves) - near)))
    return Counter(keys)


def split_key(leaves: tuple[str, ...], edges: frozenset) -> tuple:
    """Canonical form of a tree: its sorted split multiset."""
    return tuple(sorted(naive_splits(leaves, edges).elements()))


def enumerate_leaf_trees(leaves: tuple[str, ...]) -> list[Tree]:
    """All trees over the given labeled leaves with internal degree >= 3."""
    if len(leaves) < 3:
        raise ValueError("need at least three leaves")
    a, b, c = leaves[:3]
    base: Tree = (
        ("h1",),
        frozenset({frozenset((a, "h1")), frozenset((b, "h1")), frozenset((c, "h1"))}),
    )
    trees = {split_key(leaves[:3], base[1]): base}
    have = 3
    for leaf in leaves[3:]:
        have += 1
        grown: dict[tuple, Tree] = {}
        for hidden, edges in trees.values():
            # Attach the new leaf to an existing junction...
            for h in hidden:
                new_edges = edges | {frozenset((leaf, h))}
                grown.setdefault(split_key(leaves[:have], new_edges), (hidden, new_edges))
            # ...or subdivide an existing line with a fresh junction.
            fresh = f"h{len(hidden) + 1}"
            for e in edges:
                u, v = tuple(e)
                new_edges = (edges - {e}) | {
                    frozenset((u, fresh)), frozenset((fresh, v)), frozenset((leaf, fresh)),
                }
                grown.setdefault(
                    split_key(leaves[:have], new_edges), (hidden + (fresh,), new_edges)
                )
        trees = grown
    return list(trees.values())


def as_learned_grid(leaves: tuple[str, ...], tree: Tree) -> LearnedGrid:
    hidden, edges = tree
    nodes = tuple(leaves) + tuple(hidden)
    return LearnedGrid(
        nodes,
        tuple(Edge(*sorted(e), 1.0, 1.0) for e in sorted(edges, key=sorted)),
        frozenset(leaves),
    )


def naive_edge_difference(leaves: tuple[str, ...], t1: Tree, t2: Tree) -> int:
    """Symmetric difference of the two split multisets, recomputed naively."""
    c1 = naive_splits(leaves, t1[1])
    c2 = naive_splits(leaves, t2[1])
    return sum((c1 - c2).values()) + sum((c2 - c1).values())


def brute_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Exhaustive check: some hidden-node bijection maps one edge set onto the other."""
    hidden1, edges1 = t1
    hidden2, edges2 = t2
    if len(hidden1) != len(hidden2) or len(edges1) != len(edges2):
        return False
    plain2 = {frozenset(e) for e in edges2}
    for image in itertools.permutations(hidden2, len(hidden1)):
        ren = dict(zip(hidden1, image))
        mapped = {frozenset(ren.get(u, u) for u in e) for e in edges1}
        if mapped == plain2:
            return True
    return False


def perturbed(dm: DistanceMatrix, noise: float, seed: int) -> DistanceMatrix:
    """Add independent uniform(-noise, +noise) error to each off-diagonal entry."""
    rng = np.random.default_rng(seed)
    out = []
    for d in (dm.d_r, dm.d_x):
        m = d.shape[0]
        delta = rng.uniform(-noise, noise, size=(m, m))
        delta = np.triu(delta, k=1)
        delta = delta + delta.T
        out.append(d + delta)
    return DistanceMatrix(dm.nodes, out[0], out[1])


def degrees(tree) -> Counter:
    """Line count at each node of a tree with .edges of (u, v, ...)."""
    return Counter(n for e in tree.edges for n in (e.u, e.v))


# ---------------------------------------------------------------------------
# Tree shapes: every junction keeps degree >= 3 without the root line
# ---------------------------------------------------------------------------

def _grid_from_lines(lines: list[tuple[str, str]], seed: int) -> Grid:
    """Root 't' above the first line's upper end; nodes without a line below are terminals.

    Each line's r and x, the root line's included, are i.i.d. uniform(0.05, 0.5).
    """
    uppers = {u for u, _ in lines}
    kinds = {"t": "root", lines[0][0]: "hidden"}
    kinds.update((v, "hidden" if v in uppers else "observed") for _, v in lines)
    lines = [("t", lines[0][0])] + lines
    r, x = np.random.default_rng(seed).uniform(0.05, 0.5, size=(2, len(lines)))
    return Grid.create(kinds, [(u, v, ri, xi) for (u, v), ri, xi in zip(lines, r, x)])


def _leg(name: str, m: int) -> list[tuple[str, str]]:
    """m >= 2 junctions in a line, one terminal on each and a second on the last."""
    lines = [(f"{name}{i}", f"{name}{i + 1}") for i in range(1, m)]
    lines += [(f"{name}{i}", f"{name}{i}.o") for i in range(1, m + 1)]
    return lines + [(f"{name}{m}", f"{name}{m}.o2")]


def caterpillar(m: int, seed: int) -> Grid:
    """A spine of m junctions, one terminal on each and a second at both ends: m + 2 terminals."""
    return _grid_from_lines(_leg("j", m) + [("j1", "j1.o2")], seed)


def spider(m: int, seed: int) -> Grid:
    """A hub with three caterpillar legs of m junctions each: 3(m + 1) terminals."""
    return _grid_from_lines([("h", f"{leg}1") for leg in "abc"]
                            + [line for leg in "abc" for line in _leg(leg, m)], seed)


def binary(m: int, seed: int) -> Grid:
    """A hub with three children, each junction below it two: depth m, 3 * 2^(m - 1) terminals."""
    lines, level = [], ["h"]
    for _ in range(m):
        new = [(u, f"{u}{c}") for u in level for c in ("abc" if u == "h" else "ab")]
        lines, level = lines + new, [v for _, v in new]
    return _grid_from_lines(lines, seed)


def star(m: int, seed: int) -> Grid:
    """One hub with m terminals."""
    return _grid_from_lines([("h", f"o{i}") for i in range(m)], seed)
