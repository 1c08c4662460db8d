"""Recursive grouping: rebuild a latent tree from additive leaf distances.

The engine is the witness statistic phi(a, b; c) = d(a, c) - d(b, c). On an
additive tree metric it is constant in the witness c exactly when a and b are
adjacent-or-siblings at the same junction:

* phi = +d(a, b) for every witness  <=>  b sits on every path out of a
  (a is a leaf and b its parent); the mirrored sign swaps the roles;
* phi constant with |phi| < d(a, b)  <=>  a and b hang off a common junction.

Since phi(b, a; c) = -phi(a, b; c), each round computes the witness
statistics once per unordered active pair. It classifies the pairs, groups
the coarsest consistent blocks, replaces sibling blocks with a fresh hidden
junction, and re-derives the active distance matrix from the input entries
through the nodes already placed below each survivor, until two or fewer
nodes remain. The sampled variant runs the same tests with a tolerance eps
over each pair's WITNESS_CAP nearest witnesses, escalating eps until some
block forms and committing every block that formed at that eps. A new
junction that lands on an earlier round's junction is merged into it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distances import _canonical
from .exceptions import (
    GroupingStalledError,
    NegativeLengthWarning,
    NotAdditiveError,
    ValidationError,
)
from .grid import path_incidence, path_lengths, tree_paths

EXACT_TOL = 1e-9
HIDDEN_PREFIX = "h#"
# Each pair's witness set keeps only this many closest witnesses (by the
# larger of the two distances). The spread test is a range statistic, so a
# single far, noisy witness pins it high; trimming to the nearest witnesses
# keeps the straddling ones that carry the signal while dropping the tail
# that carries mostly estimation noise.
WITNESS_CAP = 15
# A round that classifies no pair retries at this many times the tolerance.
EPS_GROWTH = 1.5
# _pair_stats works on this many pairs at a time, so its arrays are
# (PAIR_BLOCK, k) rather than (k(k - 1)/2, k).
PAIR_BLOCK = 512


@dataclass(frozen=True)
class RGConfig:
    """Knobs for sampled grouping.

    eps0 is the starting tolerance; when a round classifies no pair into a
    block and dynamic_eps is set, eps grows by EPS_GROWTH and the round
    retries (eps resets to eps0 after any productive round). With dynamic_eps
    off, a stalled round raises instead. eps0 is in the units of the metric
    grouped on; the learner groups on (d_r + d_x) / 2, so there it is ohms
    of that mean. Every pair keeps only its WITNESS_CAP closest witnesses,
    and grouping gives up after 4 rounds per input node.
    """

    eps0: float = 0.07
    dynamic_eps: bool = True

    def __post_init__(self):
        if not math.isfinite(self.eps0) or self.eps0 <= 0:
            raise ValidationError(f"eps0 must be finite and > 0, got {self.eps0}")


@dataclass(frozen=True)
class TreeEdge:
    u: str
    v: str
    length: float


@dataclass
class RGDiagnostics:
    rounds: int = 0
    eps_escalations: int = 0
    tau_escalations: int = 0  # always 0: witness sets have no radius; perfbench reads it by name
    clamped_lengths: int = 0
    merged_junctions: int = 0


@dataclass(frozen=True)
class LearnedTree:
    """Unrooted weighted tree over the input nodes plus synthesized junctions."""

    nodes: tuple[str, ...]
    edges: tuple[TreeEdge, ...]
    hidden: frozenset[str]
    diagnostics: RGDiagnostics | None = field(default=None, compare=False, repr=False)

    def path_incidence(self, nodes: tuple[str, ...]) -> np.ndarray:
        """grid.path_incidence of `nodes`, anchored at nodes[0] of the tree.

        Raises ValidationError for a node not in the tree, or when the tree
        is not connected.
        """
        known = set(self.nodes)
        for n in nodes:
            if n not in known:
                raise ValidationError(f"tree has no node {n!r}")
        paths = tree_paths(((e.u, e.v) for e in self.edges), self.nodes[0])
        if len(paths) != len(self.nodes):
            raise ValidationError("tree is not connected")
        return path_incidence(paths, nodes, len(self.edges))


def tree_path_lengths(tree: LearnedTree, nodes: tuple[str, ...]) -> np.ndarray:
    """Pairwise path-length matrix over `nodes`.

    The sums come from grid.path_lengths over the tree's anchor-path
    incidence (LearnedTree.path_incidence).
    """
    return path_lengths(tree.path_incidence(nodes), np.array([e.length for e in tree.edges]))


# ---------------------------------------------------------------------------
# Coarsest partition
# ---------------------------------------------------------------------------

def _greedy_partition(
    k: int,
    parent_cands: list[tuple],
    sibling_cands: list[tuple[float, int, int]],
    sib_ok: np.ndarray,
) -> list[dict]:
    """Deterministic block formation.

    Parent relations are accepted first (ascending pair distance, then
    residual), then sibling pairs grow blocks (ascending spread). A node
    joins a sibling block, and two parentless blocks merge, when at least
    half of the cross pairs are sibling pairs; on noiseless relations this
    is the same as requiring a full clique, while on noisy relations it
    stops one failed pair test from splitting a large sibling class into two
    stacked blocks. Ties break on node order. Conflicting relations are
    skipped, never fatal.
    """

    def _quorum(hits: int, total: int) -> bool:
        return 2 * hits >= total

    blocks: list[dict] = []
    assigned: dict[int, int] = {}

    for *_, p, c in sorted(parent_cands):
        if c in assigned:
            continue
        if p in assigned:
            blk = blocks[assigned[p]]
            if blk["parent"] != p:
                continue
            blk["members"].append(c)
            assigned[c] = assigned[p]
        else:
            blocks.append({"parent": p, "members": [p, c]})
            assigned[p] = assigned[c] = len(blocks) - 1

    for _, a, b in sorted(sibling_cands):
        a_in, b_in = a in assigned, b in assigned
        if a_in and b_in:
            ia, ib = assigned[a], assigned[b]
            if ia == ib:
                continue
            b1, b2 = blocks[ia], blocks[ib]
            if b1["parent"] is not None or b2["parent"] is not None:
                continue
            hits = sum(sib_ok[x, y] for x in b1["members"] for y in b2["members"])
            if _quorum(hits, len(b1["members"]) * len(b2["members"])):
                for y in b2["members"]:
                    assigned[y] = ia
                b1["members"].extend(b2["members"])
                b2["members"] = []
        elif a_in or b_in:
            placed, other = (a, b) if a_in else (b, a)
            blk = blocks[assigned[placed]]
            if blk["parent"] is not None:
                continue
            hits = sum(sib_ok[other, x] for x in blk["members"])
            if _quorum(hits, len(blk["members"])):
                blk["members"].append(other)
                assigned[other] = assigned[placed]
        else:
            blocks.append({"parent": None, "members": [a, b]})
            assigned[a] = assigned[b] = len(blocks) - 1

    blocks = [b for b in blocks if b["members"]]
    for n in range(k):
        if n not in assigned:
            blocks.append({"parent": None, "members": [n]})
    return blocks


# ---------------------------------------------------------------------------
# The grouping engine
# ---------------------------------------------------------------------------

def _pair_stats(D: np.ndarray, cap: int | None):
    """Witness statistics of each unordered pair i < j, in np.triu_indices order.

    A pair's witnesses are all other nodes; with cap set, only the cap
    closest by max(d(i, c), d(j, c)), plus any tied with the cap-th. As
    Phi(j, i; c) = -Phi(i, j; c), the pair (j, i) is never computed. Returns
    i, j, d(i, j) and, per pair over its witnesses, the mean, spread and
    largest |Phi|, and the largest |Phi - d(i, j)| and |Phi + d(i, j)|.
    """
    k = D.shape[0]
    i, j = np.triu_indices(k, 1)
    phi_hi, phi_lo, phi_mean = np.empty(len(i)), np.empty(len(i)), np.empty(len(i))
    # Each pair's row is reduced on its own, so the block size cannot
    # change a bit of the result.
    for s in range(0, len(i), PAIR_BLOCK):
        blk = slice(s, s + PAIR_BLOCK)
        bi, bj = i[blk], j[blk]
        Phi = D[bi]
        M = np.maximum(Phi, D[bj])
        Phi -= D[bj]
        r = np.arange(len(bi))
        M[r, bi] = M[r, bj] = np.inf
        W = M < np.inf
        if cap is not None and k - 2 > cap:
            kth = np.partition(M, cap - 1, axis=1)[:, [cap - 1]]
            W &= M <= kth
        phi_hi[blk] = np.where(W, Phi, -np.inf).max(axis=1)
        phi_lo[blk] = np.where(W, Phi, np.inf).min(axis=1)
        phi_mean[blk] = np.where(W, Phi, 0.0).sum(axis=1) / np.maximum(W.sum(axis=1), 1)
    d = D[i, j]
    # |Phi -/+ d| peaks over the witnesses at phi_hi or phi_lo. Rounding is
    # monotone, so this matches the per-witness maximum bit for bit.
    dev_ba = np.maximum(np.abs(phi_hi - d), np.abs(phi_lo - d))
    dev_ab = np.maximum(np.abs(phi_hi + d), np.abs(phi_lo + d))
    spread = phi_hi - phi_lo
    absmax = np.maximum(np.abs(phi_hi), np.abs(phi_lo))
    return i, j, d, phi_mean, spread, absmax, dev_ba, dev_ab


def _relations_from_stats(k, eps, i, j, d, phi_mean, spread, absmax, dev_ba, dev_ab):
    """Classify every pair i < j from its _pair_stats vectors at tolerance eps.

    A pair whose Phi stays within eps of +d(i, j) at every witness is a
    parent relation with j the parent; within eps of -d(i, j), i is the
    parent. When both pass, the smaller residual between d(i, j) and the
    mean Phi picks the direction. Otherwise the pair are siblings when the
    witness spread of Phi is at most eps and no |Phi| exceeds d(i, j) + eps.
    Parent tests take precedence; a pair that passes neither test is
    unrelated. Returns the parent candidates (d, residual, deviation,
    parent, child), the sibling candidates (spread, i, j) and the symmetric
    k x k sibling mask that _greedy_partition takes.
    """
    pass_ba = dev_ba <= eps
    pass_ab = dev_ab <= eps
    is_parent = pass_ba | pass_ab
    is_sib = (spread <= eps) & (absmax <= d + eps) & ~is_parent
    # Parent claims are ranked by pair distance before residual: when both a
    # node's parent and a farther ancestor pass the tolerance test, the true
    # parent is the closer one.
    p = np.flatnonzero(is_parent)
    res_ba = np.abs(d[p] - phi_mean[p])
    res_ab = np.abs(d[p] + phi_mean[p])
    i_up = np.where(pass_ba[p] & pass_ab[p], res_ab <= res_ba, pass_ab[p])
    parent_cands = list(zip(
        d[p].tolist(), np.where(i_up, res_ab, res_ba).tolist(),
        np.where(i_up, dev_ab[p], dev_ba[p]).tolist(),
        np.where(i_up, i[p], j[p]).tolist(), np.where(i_up, j[p], i[p]).tolist(),
    ))
    s = np.flatnonzero(is_sib)
    sibling_cands = list(zip(spread[s].tolist(), i[s].tolist(), j[s].tolist()))
    sib_ok = np.zeros((k, k), dtype=bool)
    sib_ok[i[s], j[s]] = sib_ok[j[s], i[s]] = True
    return parent_cands, sibling_cands, sib_ok


def _rg_core(
    names: list[str],
    Draw: np.ndarray,
    cfg: RGConfig,
    witness_cap: int | None,
) -> LearnedTree:
    eps0 = cfg.eps0
    max_rounds = 4 * len(names)
    diag = RGDiagnostics()
    all_names = list(names)
    hidden: list[str] = []
    edges: list[TreeEdge] = []
    taken = set(names)
    hidden_counter = 1

    def fresh_hidden() -> str:
        nonlocal hidden_counter
        while (name := f"{HIDDEN_PREFIX}{hidden_counter}") in taken:
            hidden_counter += 1
        taken.add(name)
        hidden_counter += 1
        return name

    def emit(u: str, v: str, length: float) -> None:
        if length < 0:
            diag.clamped_lengths += 1
            length = 0.0
        edges.append(TreeEdge(u, v, float(length)))

    def partial_tree() -> LearnedTree:
        return LearnedTree(tuple(all_names), tuple(edges), frozenset(hidden), diag)

    # Bookkeeping for every active node: a 0/1 row over the input nodes that
    # marks the ones below it in the part of the tree built so far, and the
    # summed length of the built paths down to them. Each round re-derives
    # the distances between active nodes from the input matrix: the mean
    # input distance between the two nodes' leaf sets, less both mean path
    # lengths. Estimation noise therefore does not compound across rounds.
    below = dict(zip(names, np.eye(len(names))))
    path_sum = dict.fromkeys(names, 0.0)

    def adopt(parent: str, child: str, length: float) -> None:
        emit(parent, child, length)
        below[parent] = below[parent] + below[child]
        path_sum[parent] += path_sum[child] + below[child].sum() * max(float(length), 0.0)

    def refresh() -> np.ndarray:
        S = np.array([below[nm] for nm in active])
        n = S.sum(axis=1)
        mu = np.array([path_sum[nm] for nm in active]) / n
        M = np.triu(S @ Draw @ S.T / np.outer(n, n) - mu[:, None] - mu[None, :], 1)
        return M + M.T

    active = list(names)
    while len(active) > 2:
        if diag.rounds >= max_rounds:
            raise GroupingStalledError(
                f"grouping exceeded its budget of {max_rounds} rounds "
                f"with {len(active)} nodes left",
                partial=partial_tree(),
            )
        diag.rounds += 1
        k = len(active)
        D = refresh()

        stats = _pair_stats(D, witness_cap)
        i, j, _, pair_mean = stats[:4]
        phi_mean = np.zeros((k, k))  # junction lengths read it by ordered pair
        phi_mean[i, j], phi_mean[j, i] = pair_mean, -pair_mean

        # Classify; escalate eps until some block of size >= 2 forms.
        eps = eps0
        while True:
            cands = _relations_from_stats(k, eps, *stats)
            blocks = _greedy_partition(k, *cands)
            if any(len(b["members"]) > 1 for b in blocks):
                break
            if not cfg.dynamic_eps:
                raise GroupingStalledError(
                    f"no pair classified at eps={eps:g} and eps is fixed",
                    partial=partial_tree(),
                )
            eps *= EPS_GROWTH
            diag.eps_escalations += 1

        # Apply blocks: parents keep their node, sibling blocks get a new
        # hidden junction; edge lengths and the shrunk distance matrix come
        # from witness-averaged updates.
        keep: list[int] = []
        hidden_children: list[list[int]] = []
        parent_blocks: list[tuple[int, list[int]]] = []
        for blk in blocks:
            members = sorted(blk["members"])
            if len(members) == 1:
                keep.append(members[0])
            elif blk["parent"] is not None:
                p = blk["parent"]
                keep.append(p)
                parent_blocks.append((p, [c for c in members if c != p]))
            else:
                hidden_children.append(members)

        # A freshly inferred junction that lands within merge_tol of an already
        # known junction is the same junction seen twice (a sibling class that
        # partially grouped earlier, or a parent relation that the tolerance
        # test missed). Glue it back instead of stacking a near-zero edge.
        merge_tol = 0.75 * eps0
        hidden_set = set(hidden)
        fresh: list[tuple[list[int], np.ndarray]] = []
        for children in hidden_children:
            # Distances from every active node to the block's new junction.
            col = np.zeros(k)
            for a in children:
                others = [b for b in children if b != a]
                col[a] = float(
                    (D[a, others] + phi_mean[a, others]).sum() / (2.0 * len(others))
                )
            outside = np.ones(k, dtype=bool)
            outside[children] = False
            if outside.any():
                col[outside] = (
                    D[outside][:, children] - col[children][None, :]
                ).mean(axis=1)
            cands: list[tuple[float, int, str, int]] = []
            for a in children:
                if active[a] in hidden_set and col[a] < merge_tol:
                    cands.append((float(col[a]), 0, "child", a))
            for y in keep:
                if active[y] in hidden_set and col[y] < merge_tol:
                    cands.append((float(col[y]), 1, "kept", y))
            if not cands:
                fresh.append((children, col))
                continue
            diag.merged_junctions += 1
            _, _, kind, tgt = min(cands)
            if kind == "child":
                # The new junction coincides with one of its own hidden
                # children: that child is the true parent of the block.
                keep.append(tgt)
                parent_blocks.append((tgt, [c for c in children if c != tgt]))
            else:
                # Coincides with a junction kept from an earlier round: the
                # block members are that junction's missing children.
                for a in children:
                    adopt(active[tgt], active[a], D[tgt, a])

        keep.sort()
        for p, children in parent_blocks:
            for c in children:
                adopt(active[p], active[c], D[p, c])

        hidden_names = []
        for children, col in fresh:
            h = fresh_hidden()
            hidden_names.append(h)
            all_names.append(h)
            hidden.append(h)
            below[h] = np.zeros(len(names))
            path_sum[h] = 0.0
            for a in children:
                adopt(h, active[a], col[a])

        active = [active[i] for i in keep] + hidden_names

    if len(active) == 2:
        diag.rounds += 1
        D = refresh()
        emit(active[0], active[1], D[0, 1])

    tree = LearnedTree(tuple(all_names), tuple(edges), frozenset(hidden), diag)
    if len(tree.edges) != len(tree.nodes) - 1:
        raise GroupingStalledError("internal error: grouping output is not a tree", partial=tree)
    return tree


def _grouping_input(O: tuple[str, ...] | list[str], d: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    O = tuple(O)
    if len(set(O)) != len(O):
        raise ValidationError("node list contains duplicates")
    if len(O) == 0:
        raise ValidationError("node list is empty")
    D = np.array(_canonical(d, "distance matrix"))
    if D.shape[0] != len(O):
        raise ValidationError(f"distance matrix is {D.shape[0]}x{D.shape[0]} for {len(O)} nodes")
    return O, D


def rg_sampled(
    O: tuple[str, ...] | list[str],
    d: np.ndarray,
    cfg: RGConfig | None = None,
) -> LearnedTree:
    """Grouping under noise: tolerance eps with the configured schedule.

    d holds the distances between the nodes O, in O's order. Each pair
    keeps its WITNESS_CAP closest witnesses, and a round that had to
    escalate eps commits every block that formed. Warns with
    NegativeLengthWarning when negative edge lengths were clamped to zero.
    Raises GroupingStalledError (carrying the partial tree) when the round
    budget of 4 rounds per input node runs out or a fixed eps makes no
    progress.
    """
    O, D = _grouping_input(O, d)
    tree = _rg_core(list(O), D, cfg or RGConfig(), WITNESS_CAP)
    clamped = tree.diagnostics.clamped_lengths
    if clamped:
        warnings.warn(
            f"{clamped} negative length estimate(s) clamped to zero",
            NegativeLengthWarning,
            stacklevel=2,
        )
    return tree


def rg_exact(O: tuple[str, ...] | list[str], d: np.ndarray) -> LearnedTree:
    """Grouping for exact additive metrics; tolerance covers rounding only.

    Every witness is decisive on exact inputs, so none is trimmed: each pair
    is tested against all other nodes, at the fixed tolerance EXACT_TOL,
    within the same budget of 4 rounds per input node. The output tree is
    verified to reproduce the input distances; a stalled round or any
    violation beyond EXACT_TOL means the input was not an additive tree
    metric and raises NotAdditiveError.
    """
    O, D = _grouping_input(O, d)
    cfg = RGConfig(eps0=EXACT_TOL, dynamic_eps=False)
    try:
        tree = _rg_core(list(O), D, cfg, witness_cap=None)
    except GroupingStalledError as exc:
        raise NotAdditiveError(
            f"input distances are not an additive tree metric ({exc})"
        ) from exc
    rebuilt = tree_path_lengths(tree, O)
    violation = float(np.abs(rebuilt - D).max())
    allow = EXACT_TOL * max(1.0, float(np.abs(D).max()))
    if violation > allow:
        raise NotAdditiveError(
            f"input distances are not an additive tree metric "
            f"(max path-sum violation {violation:.3e})",
            max_violation=violation,
        )
    return tree
