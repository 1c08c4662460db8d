"""End-to-end learner: terminal-node moments -> wired grid with impedances.

The pipeline is fixed: estimate the pairwise resistance and reactance
distances from second moments, run recursive grouping on their mean
(d_r + d_x) / 2 to pin down the topology, then fit every line's r and every
line's x by least squares on the matching distances over the learned
topology, through normal equations built from each terminal's path to one
anchor node (grid.path_incidence) rather than from one row per terminal
pair. Both metrics are additive on the same tree; their mean has fewer
lines shorter than the grouping tolerance than r alone and averages two
nearly independent estimates, so grouping on it misses fewer splits.
Negative fitted values are clamped to zero, as grouping clamps negative
lengths; provenance `clamped_lengths` counts both, and is the only report.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distances import DistanceMatrix, _refuse_overflow
from .exceptions import FormatError, ValidationError
from .grid import Edge, nodes_and_edges_to_dict, parse_nodes_and_edges, read_json, write_json
from .grouping import LearnedTree, RGConfig, rg_sampled
from .lcpf import MeasurementSet
from .moments import MomentSet, accumulate, estimate_distances


@dataclass(frozen=True)
class LearnedGrid:
    """Reconstructed unrooted grid: topology plus per-line (r, x).

    `observed` marks the input terminals; the remaining nodes are synthesized
    junctions. `provenance` carries run metadata (sample count, tolerances,
    rounds) and never participates in equality.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    observed: frozenset[str]
    provenance: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "observed", frozenset(self.observed))
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValidationError("learned grid has duplicate node ids")
        for e in self.edges:
            if e.u not in known or e.v not in known:
                raise ValidationError(f"edge ({e.u!r}, {e.v!r}) references an unknown node")

    @property
    def hidden(self) -> frozenset[str]:
        return frozenset(self.nodes) - self.observed


def assign_reactances(tree: LearnedTree, d: DistanceMatrix) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Least-squares resistance and reactance per tree edge from pair distances.

    Each pair of d's nodes (all must be tree nodes) gives one equation per
    metric: the edge values along its tree path must add up to the pair's
    d_r (resistance) or d_x (reactance) estimate. The pair rows are never
    built: with B the anchor-path incidence of the k observed nodes and
    C = B^T B, n = diag(C), the normal matrix is
    k C + n n^T - 2 C o (n_e + n_f) + 2 C o C (o elementwise; exact
    integers) and the right-hand side is the column sum of B o (U (1 - B)),
    U the upper triangle of the pair distances, mirrored. B and the normal
    matrix serve both metrics; one lstsq on this E x E system, one right-hand
    column per metric, keeps the pair rows' rank and minimum-norm solution.
    Returns r and x per edge (clamped at zero) and their clamp counts;
    distances too large for float64 sums raise ValidationError.
    """
    if len(d.nodes) < 2:
        raise ValidationError("impedance fit needs at least two observed nodes")
    B = tree.path_incidence(d.nodes)
    C = B.T @ B
    n = np.diag(C)
    gram = len(d.nodes) * C + np.outer(n, n) - 2.0 * C * (n[:, None] + n[None, :]) + 2.0 * C * C
    with np.errstate(over="call", invalid="call", call=_refuse_overflow):
        U = [np.triu(dm, 1) for dm in (d.d_r, d.d_x)]
        rhs = np.column_stack([(B * ((u + u.T) @ (1.0 - B))).sum(axis=0) for u in U])
        sol, _, rank, _ = np.linalg.lstsq(gram, rhs, rcond=None)
    r, x = sol.T
    if rank < len(tree.edges):
        warnings.warn(
            f"impedance fit is rank-deficient ({rank} < {len(tree.edges)}); "
            "some line r and x values are not identified",
            stacklevel=2,
        )
    return np.maximum(r, 0.0), np.maximum(x, 0.0), int((r < 0).sum()), int((x < 0).sum())


def learn_from_moments(m: MomentSet, cfg: RGConfig | None = None) -> LearnedGrid:
    """Reconstruct topology and impedances from terminal-node second moments.

    Learning uses every terminal of the moment set, and every terminal must
    pass estimate_distances' conditioning check. Sample moments must average
    at least 2 samples: one sample's injection determinants are rounding
    noise. Grouping runs on the mean metric (d_r + d_x) / 2, so cfg's eps0
    is in ohms of that mean. Both line values then come from the
    least-squares path-sum fit over the learned tree. Provenance
    `clamped_lengths` counts every negative estimate clamped to zero:
    grouping's lengths plus the fitted r and x. That count is the only
    report of a clamp; nothing is warned.
    """
    if len(m.nodes) < 2:
        raise ValidationError("learning needs at least two observed terminals")
    if m.count is not None and m.count < 2:
        raise ValidationError(f"need at least 2 samples to form moments, got {m.count}")
    cfg = cfg or RGConfig()
    d = estimate_distances(m)
    tree = rg_sampled(m.nodes, (d.d_r + d.d_x) / 2.0, cfg)
    rs, xs, r_clamped, x_clamped = assign_reactances(tree, d)
    edges = tuple(Edge(e.u, e.v, r, x) for e, r, x in zip(tree.edges, rs.tolist(), xs.tolist()))
    diag = tree.diagnostics
    provenance = {
        "samples": m.count,
        "eps0": cfg.eps0,
        "dynamic_eps": cfg.dynamic_eps,
        "rounds": diag.rounds,
        "eps_escalations": diag.eps_escalations,
        "clamped_lengths": diag.clamped_lengths + r_clamped + x_clamped,
    }
    return LearnedGrid(tree.nodes, edges, frozenset(m.nodes), provenance)


def learn_from_samples(
    meas: MeasurementSet,
    cfg: RGConfig | None = None,
) -> LearnedGrid:
    """Reconstruct a grid straight from raw (v, p, q) samples."""
    return learn_from_moments(accumulate(meas), cfg=cfg)


# ---------------------------------------------------------------------------
# Serialization (same node/edge schema as Grid files, plus provenance)
# ---------------------------------------------------------------------------

def learned_to_dict(g: LearnedGrid) -> dict:
    return {**nodes_and_edges_to_dict(g.nodes, g.edges, frozenset(), g.observed),
            "provenance": dict(g.provenance)}


def learned_from_dict(data: dict, source: str = "<learned>") -> LearnedGrid:
    nodes, _roots, observed, edges = parse_nodes_and_edges(data, source)
    prov = data.get("provenance", {})
    if not isinstance(prov, dict):
        raise FormatError(f"{source}: field 'provenance' must be an object")
    try:
        return LearnedGrid(nodes, edges, observed, prov)
    except ValidationError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def save_learned(g: LearnedGrid, path: str | Path) -> None:
    write_json(learned_to_dict(g), path)


def load_learned(path: str | Path) -> LearnedGrid:
    path = Path(path)
    return learned_from_dict(read_json(path), source=str(path))
