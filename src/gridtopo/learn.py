"""End-to-end learner: terminal-node moments -> wired grid with impedances.

The pipeline is fixed: estimate the pairwise resistance and reactance
distances from second moments, run recursive grouping on their mean
(d_r + d_x) / 2 to pin down the topology, then fit every line's r and every
line's x by least squares on the matching distances over the learned
topology. Both metrics are additive on the same tree; their mean has fewer
lines shorter than the grouping tolerance than r alone and averages two
nearly independent estimates, so grouping on it misses fewer splits.
Negative fitted values are clamped to zero with a warning, mirroring the
length clamp inside grouping.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distances import DistanceMatrix
from .exceptions import FormatError, NegativeLengthWarning, ValidationError
from .grid import Edge, parse_nodes_and_edges, path_between, read_json, tree_paths
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
        for e in self.edges:
            if e.u not in known or e.v not in known:
                raise ValidationError(f"edge ({e.u!r}, {e.v!r}) references an unknown node")

    @property
    def hidden(self) -> frozenset[str]:
        return frozenset(self.nodes) - self.observed


def _pair_path_matrix(tree: LearnedTree, nodes: tuple[str, ...]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """0/1 incidence of observed-pair paths over tree edges."""
    up = tree_paths(((e.u, e.v) for e in tree.edges), tree.nodes[0])
    if len(up) != len(tree.nodes):
        raise ValidationError("learned tree is not connected")
    pairs = [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
    A = np.zeros((len(pairs), len(tree.edges)))
    for row, (i, j) in enumerate(pairs):
        for e in path_between(up[nodes[i]], up[nodes[j]]):
            A[row, e] = 1.0
    return A, pairs


def assign_reactances(tree: LearnedTree, d: DistanceMatrix, mode: str = "x") -> tuple[np.ndarray, int]:
    """Least-squares impedance per tree edge from observed pair distances.

    Every observed pair contributes one equation: the edge values along its
    tree path must add up to the pair's distance estimate in `mode` ("x" for
    reactance, "r" for resistance). Returns the per-edge values (clamped at
    zero) and the clamp count.
    """
    dm = d.mode(mode)
    in_tree = set(tree.nodes)
    nodes = tuple(n for n in d.nodes if n in in_tree)
    if len(nodes) < 2:
        raise ValidationError("impedance fit needs at least two observed nodes")
    A, pairs = _pair_path_matrix(tree, nodes)
    rhs = np.array([dm[d.index[nodes[i]], d.index[nodes[j]]] for i, j in pairs])
    sol, _, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
    if rank < len(tree.edges):
        warnings.warn(
            f"{mode} fit is rank-deficient ({rank} < {len(tree.edges)}); "
            f"some line {mode} values are not identified",
            stacklevel=2,
        )
    clamped = int((sol < 0).sum())
    return np.maximum(sol, 0.0), clamped


def learn_from_moments(
    m: MomentSet,
    cfg: RGConfig | None = None,
    nodes: tuple[str, ...] | None = None,
    lam: float | None = None,
) -> LearnedGrid:
    """Reconstruct topology and impedances from terminal-node second moments.

    Grouping runs on the mean metric (d_r + d_x) / 2, so cfg's eps0 is in
    ohms of that mean. Both line values then come from the
    least-squares path-sum fit over the learned tree. `nodes` restricts
    learning to a subset of the moment set's terminals (default: all of
    them). Provenance `clamped_lengths` counts every negative estimate
    clamped to zero: grouping's mean-metric lengths plus the fitted r and x.
    """
    if nodes is None:
        nodes = m.nodes
    if len(nodes) < 2:
        raise ValidationError("learning needs at least two observed terminals")
    cfg = cfg or RGConfig()
    d = estimate_distances(m, nodes=tuple(nodes), lam=lam)
    tree = rg_sampled(tuple(nodes), (d.d_r + d.d_x) / 2.0, cfg)
    rs, r_clamped = assign_reactances(tree, d, mode="r")
    xs, x_clamped = assign_reactances(tree, d, mode="x")
    if r_clamped or x_clamped:
        warnings.warn(
            f"negative line estimates clamped to zero: {r_clamped} resistance, "
            f"{x_clamped} reactance",
            NegativeLengthWarning,
            stacklevel=2,
        )
    edges = tuple(
        Edge(e.u, e.v, float(r), float(x)) for e, r, x in zip(tree.edges, rs, xs)
    )
    diag = tree.diagnostics
    provenance = {
        "samples": m.count,
        "eps0": cfg.eps0,
        "eps_growth": cfg.eps_growth,
        "dynamic_eps": cfg.dynamic_eps,
        "rounds": diag.rounds if diag else None,
        "eps_escalations": diag.eps_escalations if diag else None,
        "clamped_lengths": (diag.clamped_lengths if diag else 0) + r_clamped + x_clamped,
    }
    return LearnedGrid(tree.nodes, edges, frozenset(nodes), provenance)


def learn_from_samples(
    meas: MeasurementSet,
    cfg: RGConfig | None = None,
    lam: float | None = None,
) -> LearnedGrid:
    """Reconstruct a grid straight from raw (v, p, q) samples."""
    if meas.T < 2:
        raise ValidationError(f"need at least 2 samples to form moments, got {meas.T}")
    return learn_from_moments(accumulate(meas), cfg=cfg, lam=lam)


# ---------------------------------------------------------------------------
# Serialization (same node/edge schema as Grid files, plus provenance)
# ---------------------------------------------------------------------------

def learned_to_dict(g: LearnedGrid) -> dict:
    return {
        "nodes": [
            {"id": n, "root": False, "observed": n in g.observed}
            for n in g.nodes
        ],
        "edges": [{"u": e.u, "v": e.v, "r": e.r, "x": e.x} for e in g.edges],
        "provenance": dict(g.provenance),
    }


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
    Path(path).write_text(json.dumps(learned_to_dict(g), indent=2) + "\n")


def load_learned(path: str | Path) -> LearnedGrid:
    path = Path(path)
    return learned_from_dict(read_json(path), source=str(path))
