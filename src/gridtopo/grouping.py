"""Recursive grouping: rebuild a latent tree from additive leaf distances.

The engine is the witness statistic phi(a, b; c) = d(a, c) - d(b, c). On an
additive tree metric it is constant in the witness c exactly when a and b are
adjacent-or-siblings at the same junction:

* phi = +d(a, b) for every witness  <=>  b sits on every path out of a
  (a is a leaf and b its parent); the mirrored sign swaps the roles;
* phi constant with |phi| < d(a, b)  <=>  a and b hang off a common junction.

Both tests read only phi's extremes over the witnesses, so a round reduces
phi to them once per unordered active pair, as phi(b, a; c) = -phi(a, b; c).
It classifies the pairs and forms the coarsest consistent blocks once, swaps
each sibling block for a new hidden junction and re-derives the active
distances from the input entries, until two or fewer nodes remain. The
witness mean of phi, which breaks parent ties and sets junction lengths, is
taken for those pairs alone. The sampled variant tests each pair's
WITNESS_CAP nearest witnesses at a tolerance eps, raised until some pair
passes, and commits every block formed at that eps. A new junction that
lands on an earlier round's junction is merged into it.
"""
from __future__ import annotations

import itertools
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
HIDDEN_NAME = "h#{}"  # junctions are h#1, h#2, ..., skipping the input names
# Each pair's witness set keeps only this many closest witnesses (by the
# larger of the two distances). The spread test is a range statistic, so a
# single far, noisy witness pins it high; trimming to the nearest witnesses
# keeps the straddling ones that carry the signal while dropping the tail
# that carries mostly estimation noise.
WITNESS_CAP = 15
# A round that classifies no pair retries at this many times the tolerance.
EPS_GROWTH = 1.5
# _witness_rows works on this many pairs at a time, so grouping's arrays are
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
    merged_junctions: int = 0


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
    sib_ok: np.ndarray,
) -> tuple[dict[int, list[int]], list[list[int]]]:
    """Deterministic block formation.

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

    blocks: list[list[int]] = []  # in the order they formed; an absorbed block is left empty
    for _, a, b in sorted(sibling_cands):
        if a in placed or b in placed:
            continue
        A, B = (next((blk for blk in blocks if x in blk), [x]) for x in (a, b))
        if A is not B and 2 * sum(sib_ok[x, y] for x in A for y in B) >= len(A) * len(B):
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

def _witness_rows(D: np.ndarray, i: np.ndarray, j: np.ndarray, cap: int | None):
    """Yield (slice, Phi, pen) per PAIR_BLOCK pairs (i, j), with Phi(i, j; c) over every c.

    pen is 0 at the pair's witnesses and inf elsewhere. The witnesses are
    all other nodes; with cap set, only the cap closest by max(d(i, c),
    d(j, c)), plus any tied with the cap-th. Each row is built on its own,
    so the block size cannot change a bit of the result.
    """
    for s in range(0, len(i), PAIR_BLOCK):
        blk = slice(s, s + PAIR_BLOCK)
        bi, bj = i[blk], j[blk]
        # pen starts as the witness ranking max(d(i, c), d(j, c)), in D[bj]'s buffer.
        Phi, pen = D[bi], D[bj]
        Phi, pen = Phi - pen, np.maximum(Phi, pen, out=pen)
        r = np.arange(len(bi))
        pen[r, bi] = pen[r, bj] = np.inf
        if cap is not None and len(D) - 2 > cap:
            pen = np.where(pen <= np.partition(pen, cap - 1, axis=1)[:, [cap - 1]], 0.0, np.inf)
        else:
            pen = np.where(pen < np.inf, 0.0, np.inf)
        yield blk, Phi, pen


def _pair_stats(D: np.ndarray, i: np.ndarray, j: np.ndarray, cap: int | None):
    """Witness extremes of each pair (i, j), i < j; the pair (j, i) only flips Phi's sign.

    Returns i, j, d(i, j) and, per pair over its witnesses, the spread, the largest
    |Phi| and the largest |Phi - d(i, j)| and |Phi + d(i, j)|. The mean is _witness_means.
    """
    phi_hi, phi_lo = np.empty(len(i)), np.empty(len(i))
    for blk, Phi, pen in _witness_rows(D, i, j, cap):
        phi_hi[blk] = (Phi - pen).max(axis=1)
        phi_lo[blk] = (Phi + pen).min(axis=1)
    d = D[i, j]
    # |Phi -/+ d| peaks over the witnesses at phi_hi or phi_lo. Rounding is
    # monotone, so this matches the per-witness maximum bit for bit.
    dev_ba = np.maximum(np.abs(phi_hi - d), np.abs(phi_lo - d))
    dev_ab = np.maximum(np.abs(phi_hi + d), np.abs(phi_lo + d))
    spread = phi_hi - phi_lo
    absmax = np.maximum(np.abs(phi_hi), np.abs(phi_lo))
    return i, j, d, spread, absmax, dev_ba, dev_ab


def _witness_means(D: np.ndarray, i: np.ndarray, j: np.ndarray, cap: int | None):
    """Mean witness Phi of each pair (i, j), summed over the whole row with
    non-witnesses as zeros, so its bits do not depend on the other pairs."""
    out = np.empty(len(i))
    for blk, Phi, pen in _witness_rows(D, i, j, cap):
        W = pen == 0.0
        out[blk] = np.where(W, Phi, 0.0).sum(axis=1) / np.maximum(W.sum(axis=1), 1)
    return out


def _passes(eps, d, spread, absmax, dev_ba, dev_ab):
    """Masks of the pairs i < j that pass each test at tolerance eps: j is
    i's parent when Phi stays within eps of +d(i, j) at every witness, i is
    j's parent within eps of -d(i, j), and the pair are siblings when they
    pass neither, Phi's witness spread is at most eps and no |Phi| exceeds
    d(i, j) + eps."""
    pass_ba, pass_ab = dev_ba <= eps, dev_ab <= eps
    return pass_ba, pass_ab, (spread <= eps) & (absmax <= d + eps) & ~(pass_ba | pass_ab)


def _relations_from_stats(D, cap, stats, passes):
    """Classify every pair i < j from its _pair_stats vectors and _passes masks.

    When a pair passes both parent tests, the smaller residual between
    d(i, j) and the mean Phi (_witness_means of the parent pairs) picks the
    direction. Returns the parent candidates (d, residual, deviation,
    parent, child), the sibling candidates (spread, i, j) and the k x k
    sibling mask for _greedy_partition.
    """
    i, j, d, spread, _, dev_ba, dev_ab = stats
    pass_ba, pass_ab, is_sib = passes
    # Parent claims are ranked by pair distance before residual: when both a
    # node's parent and a farther ancestor pass the tolerance test, the true
    # parent is the closer one.
    p = np.flatnonzero(pass_ba | pass_ab)
    phi_mean = _witness_means(D, i[p], j[p], cap)
    res_ba, res_ab = np.abs(d[p] - phi_mean), np.abs(d[p] + phi_mean)
    i_up = np.where(pass_ba[p] & pass_ab[p], res_ab <= res_ba, pass_ab[p])
    parent_cands = list(zip(
        d[p].tolist(), np.where(i_up, res_ab, res_ba).tolist(),
        np.where(i_up, dev_ab[p], dev_ba[p]).tolist(),
        np.where(i_up, i[p], j[p]).tolist(), np.where(i_up, j[p], i[p]).tolist(),
    ))
    s = np.flatnonzero(is_sib)
    sibling_cands = list(zip(spread[s].tolist(), i[s].tolist(), j[s].tolist()))
    sib_ok = np.zeros(D.shape, dtype=bool)
    sib_ok[i[s], j[s]] = sib_ok[j[s], i[s]] = True
    return parent_cands, sibling_cands, sib_ok


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

    # Round state, one row per active node in `active`'s order: S marks (0/1)
    # the input nodes below the node in the tree built so far, and ps sums the
    # built path lengths down to them. refresh() re-derives the active
    # distances from the input matrix (the mean input distance between two
    # leaf sets, less both mean path lengths), so noise does not compound.
    active = list(names)
    S, ps = np.eye(len(names)), np.zeros(len(names))
    I, J = np.triu_indices(len(names), 1)

    def attach(lines) -> None:
        """Add (parent row, child row, length) lines in order, folding child rows into parents."""
        for p, c, length in lines:
            if length < 0:
                diag.clamped_lengths += 1
                length = 0.0
            edges.append(TreeEdge(active[p], active[c], float(length)))
            S[p] += S[c]
            ps[p] += ps[c] + S[c].sum() * length

    def refresh() -> np.ndarray:
        n = S.sum(axis=1)
        mu = ps / n
        M = np.triu(S @ Draw @ S.T / np.outer(n, n) - mu[:, None] - mu[None, :], 1)
        return M + M.T

    while len(active) > 2:
        diag.rounds += 1
        k = len(active)
        D = refresh()

        sel = J < k  # the active pairs, in np.triu_indices(k, 1) order
        stats = _pair_stats(D, I[sel], J[sel], witness_cap)

        # Raise eps until some pair passes a test (its block always forms); classify once.
        eps = cfg.eps0
        while not np.any(passes := _passes(eps, *stats[2:])):
            if not cfg.dynamic_eps:
                raise GroupingStalledError(f"no pair classified at eps={eps:g} and eps is fixed")
            eps *= EPS_GROWTH
            diag.eps_escalations += 1
        parents, siblings = _greedy_partition(*_relations_from_stats(D, witness_cap, stats, passes))

        phi_mean = np.zeros((k, k))  # junction lengths read it inside sibling blocks
        if siblings:
            si, sj = np.array([ab for blk in siblings for ab in itertools.combinations(blk, 2)]).T
            phi_mean[si, sj] = _witness_means(D, si, sj, witness_cap)
            phi_mean[sj, si] = -phi_mean[si, sj]

        # Decide the round's lines: parents keep their node, sibling blocks get
        # a new hidden junction, lengths come from witness-averaged distances.
        keep = sorted(set(range(k)).difference(*parents.values(), *siblings))

        # A freshly inferred junction that lands within merge_tol of an already
        # known junction is the same junction seen twice (a sibling class that
        # partially grouped earlier, or a parent relation that the tolerance
        # test missed). Glue it back instead of stacking a near-zero edge.
        merge_tol = 0.75 * cfg.eps0
        merges: list[tuple[int, int, float]] = []
        fresh: list[tuple[list[int], np.ndarray]] = []
        for children in siblings:
            # Distances from every active node to the block's new junction.
            col = np.zeros(k)
            for a in children:
                others = [b for b in children if b != a]
                col[a] = (D[a, others] + phi_mean[a, others]).sum() / (2.0 * len(others))
            outside = np.ones(k, dtype=bool)
            outside[children] = False
            col[outside] = (D[outside][:, children] - col[children][None, :]).mean(axis=1)
            cands = [a for a in children + keep if active[a] not in observed and col[a] < merge_tol]
            if not cands:
                fresh.append((children, col))
                continue
            diag.merged_junctions += 1
            tgt = min(cands, key=lambda a: (col[a], a not in children, a))
            if tgt in children:
                # The new junction coincides with one of its own hidden
                # children: that child is the true parent of the block.
                keep.append(tgt)
                parents[tgt] = [c for c in children if c != tgt]
            else:
                # Coincides with a junction kept from an earlier round: the
                # block members are that junction's missing children.
                merges += [(tgt, a, D[tgt, a]) for a in children]

        # Commit: new junctions take rows k, k + 1, ... in block order. Attach
        # order is edge order, which sets the reactance fit's column order:
        # kept-junction merges in block order, parent blocks as they formed
        # (own-child merges last), then the new junctions' children.
        new = [next(junction_names) for _ in fresh]
        hidden += new
        active += new
        S = np.concatenate((S, np.zeros((len(new), len(names)))))
        ps = np.concatenate((ps, np.zeros(len(new))))
        attach(merges)
        attach((p, c, D[p, c]) for p, cs in parents.items() for c in cs)
        attach((k + b, a, col[a]) for b, (children, col) in enumerate(fresh) for a in children)
        rows = sorted(keep) + list(range(k, len(active)))
        S, ps, active = S[rows], ps[rows], [active[r] for r in rows]
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
    A run takes at most k - 1 rounds over k nodes. Raises
    GroupingStalledError when a fixed eps makes no progress.
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
    in at most k - 1 rounds over k nodes. The output tree is
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
            f"(max path-sum violation {violation:.3e})"
        )
    return tree
