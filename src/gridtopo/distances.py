"""Pairwise additive distances between nodes, in resistance and reactance."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import ValidationError
from .grid import Grid, path_incidence, path_lengths

_SYM_TOL = 1e-9


def _canonical(d: np.ndarray, label: str) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValidationError(f"{label}: expected a square matrix, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValidationError(f"{label}: matrix has non-finite entries")
    if np.abs(d - d.T).max(initial=0.0) > _SYM_TOL:
        raise ValidationError(f"{label}: matrix is not symmetric")
    if np.abs(np.diagonal(d)).max(initial=0.0) > _SYM_TOL:
        raise ValidationError(f"{label}: diagonal is not zero")
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    d.setflags(write=False)
    return d


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric zero-diagonal distances d_r and d_x over a node list.

    Entries may be noisy (sampled estimates are not clamped), but the matrix
    is canonicalized to exact symmetry and an exactly zero diagonal.
    """

    nodes: tuple[str, ...]
    d_r: np.ndarray
    d_x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("distance matrix: duplicate node ids")
        object.__setattr__(self, "d_r", _canonical(self.d_r, "d_r"))
        object.__setattr__(self, "d_x", _canonical(self.d_x, "d_x"))
        for label, d in (("d_r", self.d_r), ("d_x", self.d_x)):
            if d.shape[0] != len(self.nodes):
                raise ValidationError(
                    f"{label}: {d.shape[0]} rows for {len(self.nodes)} nodes"
                )

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    def sub(self, nodes: list[str] | tuple[str, ...]) -> "DistanceMatrix":
        """Restrict to a subset of nodes, in the given order."""
        missing = [n for n in nodes if n not in self.index]
        if missing:
            raise ValidationError(f"distance matrix: unknown nodes {missing}")
        ix = np.array([self.index[n] for n in nodes])
        return DistanceMatrix(tuple(nodes), self.d_r[np.ix_(ix, ix)], self.d_x[np.ix_(ix, ix)])

    @classmethod
    def from_grid(cls, g: Grid, nodes: tuple[str, ...] | None = None) -> "DistanceMatrix":
        """Ground-truth path-sum distances between the given nodes (default: observed)."""
        if nodes is None:
            nodes = g.observed_nodes
        for n in nodes:
            if n in g.roots:
                raise ValidationError(f"node {n!r} is the root; distances undefined")
            g._require_reachable(n)
        B = path_incidence(g._root_paths, nodes, len(g.edges))
        d_r = path_lengths(B, np.array([e.r for e in g.edges]))
        d_x = path_lengths(B, np.array([e.x for e in g.edges]))
        return cls(tuple(nodes), d_r, d_x)
