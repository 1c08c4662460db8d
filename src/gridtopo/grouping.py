"""Recursive grouping: rebuild a latent tree from additive leaf distances.

The engine is the witness statistic phi(a, b; c) = d(a, c) - d(b, c). On an
additive tree metric it is constant in the witness c exactly when a and b are
adjacent-or-siblings at the same junction:

* phi = +d(a, b) for every witness  <=>  b sits on every path out of a
  (a is a leaf and b its parent); the mirrored sign swaps the roles;
* phi constant otherwise  <=>  a and b hang off a common junction.

The tests read only phi's extremes over the witnesses (none bounds |phi|, as
|phi| <= d(a, b) on any metric), so a round forms phi at each pair's witnesses
alone and reduces it to them once per unordered active pair, as
phi(b, a; c) = -phi(a, b; c). The same pass takes phi's witness mean, which
breaks parent ties and sets junction lengths.
It classifies the pairs and forms the coarsest consistent blocks once, swaps
each sibling block for a new hidden junction and re-derives the active
distances from the input entries, until two or fewer nodes remain. The
sampled variant tests each pair's WITNESS_CAP nearest witnesses at a
tolerance eps, raised until some pair passes (every test is x <= eps, so
that is the first step at or above the smallest deviation or spread), and
commits every block formed at that eps. A sibling block's new junction that
lands on one of the block's own hidden members is merged into that member.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .distances import _canonical, _refuse_overflow
from .exceptions import GroupingStalledError, NotAdditiveError, ValidationError
from .grid import path_incidence, path_lengths, tree_paths

EXACT_TOL = 1e-9  # rg_exact tests and verifies at this fraction of the largest distance
HIDDEN_NAME = "h#{}"  # junctions are h#1, h#2, ..., skipping the input names
# Each pair's witness set keeps only this many closest witnesses (by the
# larger of the two distances). The spread test is a range statistic, so a
# single far, noisy witness pins it high; trimming to the nearest witnesses
# keeps the straddling ones that carry the signal while dropping the tail
# that carries mostly estimation noise.
WITNESS_CAP = 15
# A round that classifies no pair retries at this many times the tolerance.
EPS_GROWTH = 1.5
# _pair_stats works on this many pairs at a time, so grouping's arrays are
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
    and a run over k nodes takes at most k - 1 rounds.
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
    merged_junctions: int = 0  # sibling blocks merged into one of their own members


@dataclass(frozen=True)
class LearnedTree:
    """Unrooted weighted tree over the input nodes plus synthesized junctions."""

    nodes: tuple[str, ...]
    edges: tuple[TreeEdge, ...]
    hidden: frozenset[str]
    diagnostics: RGDiagnostics | None = field(default=None, compare=False, repr=False)

    def path_incidence(self, nodes: tuple[str, ...]) -> np.ndarray:
        """grid.path_incidence of `nodes`, anchored at nodes[0] of the tree;
        ValidationError for a node not in the tree or a disconnected tree."""
        known = set(self.nodes)
        for n in nodes:
            if n not in known:
                raise ValidationError(f"tree has no node {n!r}")
        paths = tree_paths(((e.u, e.v) for e in self.edges), self.nodes[0])
        if len(paths) != len(self.nodes):
            raise ValidationError("tree is not connected")
        return path_incidence(paths, nodes, len(self.edges))


def tree_path_lengths(tree: LearnedTree, nodes: tuple[str, ...]) -> np.ndarray:
    """Pairwise path lengths over `nodes`: grid.path_lengths on LearnedTree.path_incidence."""
    return path_lengths(tree.path_incidence(nodes), np.array([e.length for e in tree.edges]))


# ---------------------------------------------------------------------------
# Coarsest partition
# ---------------------------------------------------------------------------

def _greedy_partition(
    parent_cands: list[tuple],
    sibling_cands: list[tuple[float, int, int]],
) -> tuple[dict[int, list[int]], list[list[int]]]:
    """Deterministic blocks from _relations_from_stats' parent and sibling candidates.

    Parent relations are accepted first (ascending pair distance, then
    residual). Sibling pairs then merge blocks (ascending spread), an
    unplaced node being a block of one: two blocks merge when at least half
    of their cross pairs are sibling pairs. On noiseless relations this is
    a full clique; on noisy ones it stops one failed pair test from
    splitting a large sibling class into two stacked blocks. The block that
    existed absorbs the other (the first node's when both did) and keeps
    its place; a new block takes its place when it forms. Ties break on
    node order. Conflicting relations are skipped, never fatal. Returns
    each parent's sorted children, in the order its block formed, and each
    sibling block's sorted members; a node in neither is left unplaced.
    """

    parents: dict[int, list[int]] = {}
    placed: set[int] = set()  # every node of a parent block
    for *_, p, c in sorted(parent_cands):
        if c in placed or (p in placed and p not in parents):
            continue
        parents.setdefault(p, []).append(c)
        placed.update((p, c))

    ok = {frozenset((a, b)) for _, a, b in sibling_cands}  # a sibling pair, in either order
    blocks: list[list[int]] = []  # in the order they formed; an absorbed block is left empty
    for _, a, b in sorted(sibling_cands):
        if a in placed or b in placed:
            continue
        A, B = (next((blk for blk in blocks if x in blk), [x]) for x in (a, b))
        if A is not B and 2 * sum(frozenset((x, y)) in ok for x in A for y in B) >= len(A) * len(B):
            if len(A) == 1:  # a block that exists absorbs a new one
                A, B = B, A
            if len(A) == 1:  # two new ones form a block
                blocks.append(A)
            A += B
            B.clear()

    return {p: sorted(cs) for p, cs in parents.items()}, [sorted(b) for b in blocks if b]


# ---------------------------------------------------------------------------
# The grouping engine
# ---------------------------------------------------------------------------

def _pair_stats(D: np.ndarray, i: np.ndarray, j: np.ndarray, cap: int | None):
    """Witness statistics of each pair (i, j), i < j; the pair (j, i) only flips Phi's sign.

    The witnesses are all other nodes; with cap set, only the cap closest by
    max(d(i, c), d(j, c)), plus any tied with the cap-th. Returns i, j, d(i, j)
    and, per pair over its witnesses, the mean Phi, the spread and the largest
    |Phi - d(i, j)| and |Phi + d(i, j)|. Each row is built on its own, so the
    block size cannot change a bit of the result. Every pair needs a witness
    (k >= 3), as reduceat misreads an empty row.
    """
    phi_mean, phi_hi, phi_lo = np.empty(len(i)), np.empty(len(i)), np.empty(len(i))
    for s in range(0, len(i), PAIR_BLOCK):
        blk = slice(s, s + PAIR_BLOCK)
        bi, bj = i[blk], j[blk]
        Di, Dj = D[bi], D[bj]
        rank = np.maximum(Di, Dj)
        r = np.arange(len(bi))
        rank[r, bi] = rank[r, bj] = np.inf
        if cap is not None and len(D) - 2 > cap:
            W = rank <= np.sort(rank, axis=1)[:, cap - 1:cap]
        else:
            W = rank < np.inf
        at = np.flatnonzero(W)  # Phi at the witnesses alone, row by row
        starts = np.searchsorted(at, r * len(D))
        Phi = Di.ravel()[at] - Dj.ravel()[at]
        phi_mean[blk] = np.add.reduceat(Phi, starts) / W.sum(axis=1)
        phi_hi[blk] = np.maximum.reduceat(Phi, starts)
        phi_lo[blk] = np.minimum.reduceat(Phi, starts)
    d = D[i, j]
    # |Phi -/+ d| peaks over the witnesses at phi_hi or phi_lo. Rounding is
    # monotone, so this matches the per-witness maximum bit for bit.
    dev_ba = np.maximum(np.abs(phi_hi - d), np.abs(phi_lo - d))
    dev_ab = np.maximum(np.abs(phi_hi + d), np.abs(phi_lo + d))
    return i, j, d, phi_mean, phi_hi - phi_lo, dev_ba, dev_ab


def _passes(eps, spread, dev_ba, dev_ab):
    """Masks of the pairs i < j that pass each test at tolerance eps, each of
    the form x <= eps: j is i's parent when Phi stays within eps of +d(i, j)
    at every witness, i is j's parent within eps of -d(i, j), and the pair are
    siblings when they pass neither and Phi's witness spread is at most eps."""
    pass_ba, pass_ab = dev_ba <= eps, dev_ab <= eps
    return pass_ba, pass_ab, (spread <= eps) & ~(pass_ba | pass_ab)


def _relations_from_stats(stats, passes):
    """Classify all pairs i < j of k nodes, in any order, from _pair_stats and _passes.

    Returns the parent candidates (d, residual, deviation, parent, child),
    built in one loop over the few parent-test pairs, and the sibling
    candidates (spread, i, j). A pair passing both parent tests takes the
    direction of the smaller residual between d(i, j) and its mean Phi.
    _greedy_partition sorts both lists, so pair order is not seen.
    """
    i, j, d, phi_mean, spread, dev_ba, dev_ab = stats
    pass_ba, pass_ab, is_sib = passes
    # Parent claims are ranked by pair distance before residual: when both a
    # node's parent and a farther ancestor pass the tolerance test, the true
    # parent is the closer one.
    p = np.flatnonzero(pass_ba | pass_ab)
    parent_cands = []
    for a, b, dp, m, ba, ab, dba, dab in zip(
        *(x[p].tolist() for x in (i, j, d, phi_mean, pass_ba, pass_ab, dev_ba, dev_ab))
    ):
        res_ba, res_ab = abs(dp - m), abs(dp + m)
        a_up = res_ab <= res_ba if ba and ab else ab
        parent_cands.append((dp, res_ab, dab, a, b) if a_up else (dp, res_ba, dba, b, a))
    s = np.flatnonzero(is_sib)
    return parent_cands, list(zip(spread[s].tolist(), i[s].tolist(), j[s].tolist()))


def _search_eps(cfg: RGConfig, stats):
    """eps0, raised by EPS_GROWTH until some pair passes, which is when it reaches
    min(spread, dev_ba, dev_ab), as every test is x <= eps; returns eps, the raise
    count and the _passes masks at eps, found once. A fixed eps below that raises."""
    floor = min(x.min() for x in stats[4:])
    eps, steps = cfg.eps0, 0
    while eps < floor:
        if not cfg.dynamic_eps:
            raise GroupingStalledError(f"no pair classified at eps={eps:g} and eps is fixed")
        eps *= EPS_GROWTH
        steps += 1
    return eps, steps, _passes(eps, *stats[4:])


def _rg_core(
    names: list[str],
    Draw: np.ndarray,
    cfg: RGConfig,
    witness_cap: int | None,
) -> LearnedTree:
    diag = RGDiagnostics()
    hidden: list[str] = []
    edges: list[TreeEdge] = []
    observed = set(names)
    junction_names = (h for h in map(HIDDEN_NAME.format, itertools.count(1)) if h not in observed)

    # Round state, one entry per active node in `active`'s order: the input
    # nodes below the node in the tree built so far, and ps, the sum of the
    # built path lengths down to them. refresh() re-derives the active
    # distances from the input matrix (the mean input distance between two
    # leaf sets, less both mean path lengths), so noise does not compound.
    active = list(names)
    leaves, ps = [[a] for a in range(len(names))], [0.0] * len(names)
    # Pairs i < j ordered by j, so the pairs among the first k rows are a prefix.
    J, I = np.tril_indices(len(names), -1)

    def attach(lines) -> None:
        """Add (parent row, child row, length) lines in order, folding child rows into parents."""
        for p, c, length in lines:
            if length < 0:
                diag.clamped_lengths += 1
                length = 0.0
            edges.append(TreeEdge(active[p], active[c], float(length)))
            ps[p] += ps[c] + len(leaves[c]) * length
            leaves[p] += leaves[c]

    def refresh() -> np.ndarray:
        """The active distance matrix: X's upper triangle, mirrored."""
        S = np.zeros((len(active), len(names)))  # S[r, a] = 1 for input node a below row r
        S[[r for r, ls in enumerate(leaves) for _ in ls], [a for ls in leaves for a in ls]] = 1.0
        n = np.array([len(ls) for ls in leaves], dtype=float)
        mu = np.array(ps) / n
        X = S @ Draw @ S.T / (n[:, None] * n) - mu[:, None] - mu
        U = np.triu(X, 1) + 0.0  # + 0.0 turns -0.0 into 0.0
        return U + U.T

    while len(active) > 2:
        diag.rounds += 1
        k = len(active)
        i, j = I[:k * (k - 1) // 2], J[:k * (k - 1) // 2]
        D = refresh()
        stats = _pair_stats(D, i, j, witness_cap)
        eps, steps, passes = _search_eps(cfg, stats)
        diag.eps_escalations += steps
        parents, siblings = _greedy_partition(*_relations_from_stats(stats, passes))

        # Junction lengths read D(a, b) + mean Phi(a, b) over a's block mates b.
        d, phi_mean = stats[2:4]
        L = np.zeros((k, k))
        L[i, j], L[j, i] = d + phi_mean, d - phi_mean

        # Decide the round's lines: parents keep their node, sibling blocks get
        # a new hidden junction, lengths come from witness-averaged distances.
        keep = sorted(set(range(k)).difference(*parents.values(), *siblings))

        # A sibling block's new junction that lands within merge_tol of one of
        # its own hidden members is that member seen twice: the member is the
        # block's parent, which the parent test missed. Glue it back instead
        # of stacking a near-zero edge.
        merge_tol = 0.75 * cfg.eps0
        fresh: list[tuple[list[int], list[float]]] = []
        for children in siblings:
            # Each member's distance to the new junction, from L.
            mates = np.array([[b for b in children if b != a] for a in children])
            near = (np.add.reduce(L[np.array(children)[:, None], mates], axis=1) / (2.0 * len(mates[0]))).tolist()
            cands = [(x, a) for x, a in zip(near, children) if active[a] not in observed and x < merge_tol]
            if not cands:
                fresh.append((children, near))
                continue
            diag.merged_junctions += 1
            tgt = min(cands)[1]
            keep.append(tgt)
            parents[tgt] = [c for c in children if c != tgt]

        # Commit: new junctions take rows k, k + 1, ... in block order. Attach
        # order is edge order, which sets the reactance fit's column order:
        # parent blocks as they formed (own-child merges last), then the new
        # junctions' children.
        new = [next(junction_names) for _ in fresh]
        hidden += new
        active += new
        leaves += [[] for _ in new]
        ps += [0.0] * len(new)
        attach((p, c, D[p, c]) for p, cs in parents.items() for c in cs)
        attach((k + b, a, x) for b, (children, near) in enumerate(fresh) for a, x in zip(children, near))
        rows = sorted(keep) + list(range(k, len(active)))
        leaves, ps, active = ([x[r] for r in rows] for x in (leaves, ps, active))
        # Some pair passed, so a block formed, and every block attaches a line.
        if len(active) >= k:
            raise GroupingStalledError("internal error: a grouping round attached no line")

    if len(active) == 2:
        diag.rounds += 1
        attach([(0, 1, refresh()[0, 1])])

    tree = LearnedTree((*names, *hidden), tuple(edges), frozenset(hidden), diag)
    if len(tree.edges) != len(tree.nodes) - 1:
        raise GroupingStalledError("internal error: grouping output is not a tree")
    return tree


def _group(O, d, cfg: RGConfig | None, witness_cap: int | None) -> tuple[tuple[str, ...], np.ndarray, LearnedTree]:
    """O and d checked, then _rg_core on them; cfg None is rg_exact's fixed tolerance
    EXACT_TOL * max|d| (EXACT_TOL on an all-zero d). Overflow, NaN or a tolerance
    below the smallest normal float64 raises ValidationError."""
    O = tuple(O)
    if len(set(O)) != len(O):
        raise ValidationError("node list contains duplicates")
    if len(O) == 0:
        raise ValidationError("node list is empty")
    D = _canonical(d, "distance matrix")
    if D.shape[0] != len(O):
        raise ValidationError(f"distance matrix is {D.shape[0]}x{D.shape[0]} for {len(O)} nodes")
    scale = float(np.abs(D).max()) or 1.0
    if cfg is None and EXACT_TOL * scale < np.finfo(float).tiny:
        raise ValidationError(f"distances too small: EXACT_TOL * max|d| underflows float64 at max|d| = {scale:.3e}")
    cfg = cfg or RGConfig(eps0=EXACT_TOL * scale, dynamic_eps=False)
    with np.errstate(over="call", invalid="call", call=_refuse_overflow):
        return O, D, _rg_core(list(O), D, cfg, witness_cap)


def rg_sampled(
    O: tuple[str, ...] | list[str],
    d: np.ndarray,
    cfg: RGConfig | None = None,
) -> LearnedTree:
    """Grouping under noise: tolerance eps with the configured schedule.

    d holds the distances between the nodes O, in O's order. Each pair
    keeps its WITNESS_CAP closest witnesses, and a round that had to
    escalate eps commits every block that formed. Negative edge lengths
    are clamped to zero and counted in the diagnostics' clamped_lengths.
    A run takes at most k - 1 rounds over k nodes. Raises
    GroupingStalledError when a fixed eps makes no progress, and
    ValidationError when the distances overflow float64 arithmetic.
    """
    return _group(O, d, cfg or RGConfig(), WITNESS_CAP)[2]


def rg_exact(O: tuple[str, ...] | list[str], d: np.ndarray) -> LearnedTree:
    """Grouping for exact additive metrics; tolerance covers rounding only.

    Every witness is decisive on exact inputs, so none is trimmed: each pair
    is tested against all other nodes, at the fixed tolerance EXACT_TOL
    times max|d| (so d's units do not matter), in at most k - 1 rounds over
    k nodes. The output tree is verified to reproduce the input distances;
    a stalled round or any violation beyond that tolerance means the input
    was not an additive tree metric and raises NotAdditiveError.
    """
    try:
        O, D, tree = _group(O, d, None, witness_cap=None)
    except GroupingStalledError as exc:
        raise NotAdditiveError(
            f"input distances are not an additive tree metric ({exc})"
        ) from exc
    violation = float(np.abs(tree_path_lengths(tree, O) - D).max())
    if violation > EXACT_TOL * np.abs(D).max():
        raise NotAdditiveError(
            f"input distances are not an additive tree metric "
            f"(max path-sum violation {violation:.3e})"
        )
    return tree
