"""Second-moment estimation from leaf measurements, and the distance estimator.

The model links measured voltage deviations to injections linearly, so every
quantity the learner needs is a raw second moment: E[v_a p_b], E[v_a q_b] for
node pairs and E[p_b^2], E[q_b^2], E[p_b q_b] per node. Means are not
re-centered; the model is zero-mean by construction.

For each ordered pair (a, b), the two unknown inverse-Laplacian entries solve

    [E[p_b^2]   E[p_b q_b]] [h_r]   [E[v_a p_b]]
    [E[p_b q_b] E[q_b^2]  ] [h_x] = [E[v_a q_b]]

and the additive distances follow as d(a,b) = h(a,a) + h(b,b) - 2 h(a,b).
analytic_moments gives the same blocks exactly, from a known grid.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .distances import DistanceMatrix
from .exceptions import ConditioningError, FormatError, ValidationError
from .grid import Grid, read_json
from .lcpf import SIM_CHUNK, InjectionSpec, MeasurementSet, _forward_model

# The moment blocks, in field and file order, with their number of node
# axes. Each name is the pair of series whose product the block averages:
# vp[a, b] = E[v_a p_b], and pp[b] = E[p_b p_b] for each node alone.
BLOCKS = {"vp": 2, "vq": 2, "pp": 1, "qq": 1, "pq": 1}


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Raw second moments over an ordered node list.

    count is the number of samples averaged, or None for analytic
    (infinite-sample) moments. vp[a, b] holds E[v_a p_b]; vq likewise;
    pp, qq, pq are the per-node injection moments.
    """

    nodes: tuple[str, ...]
    count: int | None
    vp: np.ndarray
    vq: np.ndarray
    pp: np.ndarray
    qq: np.ndarray
    pq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        m = len(self.nodes)
        for name, axes in BLOCKS.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            shape = (m,) * axes
            if arr.shape != shape:
                raise ValidationError(f"moment block {name!r}: expected shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"moment block {name!r} has non-finite entries")
            object.__setattr__(self, name, arr)
        if self.count is not None and self.count < 0:
            raise ValidationError(f"sample count must be >= 0, got {self.count}")


class MomentAccumulator:
    """Streaming accumulator for the five moment blocks.

    Data is folded in blocks; each block contributes its own mean, merged
    with a count-weighted update.
    """

    def __init__(self, nodes: tuple[str, ...]):
        self.nodes = tuple(nodes)
        m = len(self.nodes)
        self.count = 0
        self._means = {name: np.zeros((m,) * axes) for name, axes in BLOCKS.items()}

    def update(self, v: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
        """Fold in a block of rows (shape (t, m) each)."""
        v, p, q = (np.asarray(a, dtype=float) for a in (v, p, q))
        t = v.shape[0]
        if t == 0:
            return
        if v.shape != p.shape or v.shape != q.shape or v.shape[1] != len(self.nodes):
            raise ValidationError("measurement block shapes do not match the node list")
        w = t / (self.count + t)
        series = {"v": v, "p": p, "q": q}
        with np.errstate(over="ignore", invalid="ignore"):  # result() rejects non-finite moments
            for name, mean in self._means.items():
                a, b = series[name[0]], series[name[1]]
                mean += w * ((a.T @ b / t if BLOCKS[name] == 2 else (a * b).mean(axis=0)) - mean)
        self.count += t

    def result(self) -> MomentSet:
        return MomentSet(self.nodes, self.count, **{name: mean.copy() for name, mean in self._means.items()})


def accumulate(source: MeasurementSet | Iterable[MeasurementSet]) -> MomentSet:
    """Second moments of a measurement set, or of its consecutive row blocks.

    Blocks (simulate_blocks, read_measurement_blocks) are folded as they
    arrive and dropped, each in SIM_CHUNK-row pieces; blocks of SIM_CHUNK
    rows give the same bits as the set they were cut from.
    """
    acc = None
    for ms in [source] if isinstance(source, MeasurementSet) else source:
        if acc is None:
            acc = MomentAccumulator(ms.nodes)
        elif ms.nodes != acc.nodes:
            raise ValidationError("measurement blocks cover different node lists")
        for start in range(0, ms.T, SIM_CHUNK):
            stop = min(start + SIM_CHUNK, ms.T)
            acc.update(ms.v[start:stop], ms.p[start:stop], ms.q[start:stop])
        del ms  # not alive while the next block is read
    if acc is None or acc.count == 0:
        raise ValidationError("cannot accumulate an empty measurement set")
    return acc.result()


def analytic_moments(g: Grid, spec: InjectionSpec = InjectionSpec()) -> MomentSet:
    """Exact model moments over the observed nodes (count=None).

    E[v_a p_b] = H_r^-1(a,b) E[p_b^2] + H_x^-1(a,b) E[p_b q_b], and
    E[v_a q_b] = H_r^-1(a,b) E[p_b q_b] + H_x^-1(a,b) E[q_b^2]; injections are
    independent across nodes, so only node b's own moments survive.
    """
    h_r, h_x, cols = _forward_model(g)
    spp, sqq, spq = spec.sigma_pp, spec.sigma_qq, spec.sigma_pq
    h_r_oo = h_r[np.ix_(cols, cols)]
    h_x_oo = h_x[np.ix_(cols, cols)]
    vp = h_r_oo * spp + h_x_oo * spq
    vq = h_r_oo * spq + h_x_oo * sqq
    return MomentSet(g.observed_nodes, None, vp, vq, *(np.full(len(cols), s) for s in (spp, sqq, spq)))


# ---------------------------------------------------------------------------
# Conditioning and the pairwise solve
# ---------------------------------------------------------------------------

def estimate_distances(m: MomentSet) -> DistanceMatrix:
    """Pairwise d_r and d_x estimates over every node of the moment set.

    Runs the pairwise 2x2 solves for every ordered pair, symmetrizes the two
    inverse-Laplacian estimates by averaging, and converts to distances. The
    diagonal is exactly zero by construction. Conditioning check: each
    node's injection moment determinant pp qq - pq^2 must be > 0 and reach
    0.1 x the median |determinant| over the nodes, or ConditioningError
    names the nodes that fall short. Valid injection moments always have a
    positive determinant; when every node's is 0, so is the threshold.
    """
    det = m.pp * m.qq - m.pq * m.pq
    lam = 0.1 * float(np.median(np.abs(det))) if det.size else 0.0
    bad = [n for n, dt in zip(m.nodes, det) if not dt > 0 or dt < lam]
    if bad:
        raise ConditioningError(
            f"nodes {bad} fail the conditioning check (threshold {lam:.3e})",
            nodes=tuple(bad),
        )

    h_r = (m.qq * m.vp - m.pq * m.vq) / det
    h_x = (m.pp * m.vq - m.pq * m.vp) / det
    h_r = (h_r + h_r.T) / 2.0
    h_x = (h_x + h_x.T) / 2.0

    out = []
    for h in (h_r, h_x):
        diag = np.diagonal(h)
        d = diag[:, None] + diag[None, :] - 2.0 * h
        np.fill_diagonal(d, 0.0)
        out.append(d)
    return DistanceMatrix(m.nodes, out[0], out[1])


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def moments_to_dict(m: MomentSet) -> dict:
    return {"nodes": list(m.nodes), "count": m.count, **{name: getattr(m, name).tolist() for name in BLOCKS}}


def moments_from_dict(data: dict, source: str = "<moments>") -> MomentSet:
    if not isinstance(data, dict):
        raise FormatError(f"{source}: expected a JSON object")
    for key in ("nodes", "count", *BLOCKS):
        if key not in data:
            raise FormatError(f"{source}: missing field {key!r}")
    nodes, count = data["nodes"], data["count"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise FormatError(f"{source}: field 'nodes' must be a list of strings")
    if count is not None and type(count) is not int:  # a bool is not a count
        raise FormatError(f"{source}: field 'count' must be an integer or null")
    try:
        return MomentSet(tuple(nodes), count,
                         **{name: np.asarray(data[name], dtype=float) for name in BLOCKS})
    except (ValidationError, ValueError, TypeError) as exc:  # TypeError: a block of non-numbers
        raise FormatError(f"{source}: {exc}") from None


def save_moments(m: MomentSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(moments_to_dict(m), indent=2) + "\n")


def load_moments(path: str | Path) -> MomentSet:
    path = Path(path)
    return moments_from_dict(read_json(path), source=str(path))
