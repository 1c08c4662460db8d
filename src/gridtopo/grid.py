"""Radial grid model: a tree of lines with per-line impedance (r, x).

One node is the substation (the root, voltage reference); leaf nodes with
meters are "observed"; interior junctions are "hidden". All electrical
quantities downstream are defined on the reduced tree, i.e. the grid with the
root removed: the reduced weighted Laplacian, its inverse, and the additive
line-resistance / line-reactance distances between nodes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .exceptions import FormatError, ValidationError

RESISTANCE = "r"
REACTANCE = "x"
_MODES = (RESISTANCE, REACTANCE)


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValidationError(f"unknown impedance mode {mode!r}; expected 'r' or 'x'")
    return mode


@dataclass(frozen=True)
class Edge:
    """A line between nodes u and v with resistance r and reactance x (ohms)."""

    u: str
    v: str
    r: float
    x: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "x", float(self.x))

    def weight(self, mode: str) -> float:
        return self.r if mode == RESISTANCE else self.x

    @property
    def key(self) -> frozenset[str]:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class Grid:
    """Immutable grid: node ids, edges, root flags and observed flags.

    Construction does not validate; run validate_grid() for the full report.
    Operations that need a well-formed grid raise ValidationError otherwise,
    and check it through ensure_valid(), which validates each grid once.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    roots: frozenset[str]
    observed: frozenset[str]

    @classmethod
    def create(cls, nodes: dict[str, str], edges: list[tuple[str, str, float, float]]) -> "Grid":
        """Build from {id: "root"|"hidden"|"observed"} and (u, v, r, x) tuples."""
        for nid, kind in nodes.items():
            if kind not in ("root", "hidden", "observed"):
                raise ValidationError(f"node {nid!r}: unknown kind {kind!r}")
        return cls(
            nodes=tuple(nodes),
            edges=tuple(Edge(u, v, float(r), float(x)) for u, v, r, x in edges),
            roots=frozenset(n for n, k in nodes.items() if k == "root"),
            observed=frozenset(n for n, k in nodes.items() if k == "observed"),
        )

    @cached_property
    def index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def adjacency(self) -> dict[str, dict[str, Edge]]:
        adj: dict[str, dict[str, Edge]] = {n: {} for n in self.nodes}
        for e in self.edges:
            if e.u in adj and e.v in adj:
                adj[e.u][e.v] = e
                adj[e.v][e.u] = e
        return adj

    @cached_property
    def _validation(self) -> "ValidationReport":
        """validate_grid(self), computed on first use and kept: the grid is immutable."""
        return validate_grid(self)

    @property
    def root(self) -> str:
        if len(self.roots) != 1:
            raise ValidationError(f"grid must have exactly one root, found {len(self.roots)}")
        return next(iter(self.roots))

    @cached_property
    def reduced_nodes(self) -> tuple[str, ...]:
        """Non-root nodes in declaration order (the reduced-tree node order)."""
        root = self.root
        return tuple(n for n in self.nodes if n != root)

    @cached_property
    def observed_nodes(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if n in self.observed)

    @cached_property
    def hidden_nodes(self) -> tuple[str, ...]:
        root = self.roots
        return tuple(n for n in self.nodes if n not in self.observed and n not in root)

    def degree(self, node: str) -> int:
        return len(self.adjacency[node])

    @cached_property
    def _root_paths(self) -> dict[str, list[int]]:
        """Edge-index path from the root to every node it reaches."""
        return tree_paths(((e.u, e.v) for e in self.edges), self.root)

    @property
    def depth(self) -> int:
        """Maximum number of edges from the root to any node."""
        return max(map(len, self._root_paths.values()), default=0)

    def _require_reachable(self, node: str) -> None:
        if node not in self.index:
            raise ValidationError(f"unknown node {node!r}")
        if node not in self._root_paths:
            raise ValidationError(f"node {node!r} is not connected to the root")


def tree_paths(edges: Iterable[tuple[str, str]], anchor: str) -> dict[str, list[int]]:
    """Edge-index path from `anchor` to every node it reaches.

    edges yields the (u, v) ends of line i in order; a path lists the indices
    of its lines from the anchor outward. Nodes the anchor cannot reach are
    absent, so a graph is connected exactly when every node has a path. On a
    tree each path is the unique one.
    """
    adj: dict[str, list[tuple[str, int]]] = {}
    for i, (u, v) in enumerate(edges):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    paths = {anchor: []}
    order = [anchor]
    for u in order:
        for w, i in adj.get(u, ()):
            if w not in paths:
                paths[w] = paths[u] + [i]
                order.append(w)
    return paths


def path_incidence(paths: dict[str, list[int]], nodes: Sequence[str], lines: int) -> np.ndarray:
    """0/1 incidence B of anchor paths over lines.

    paths is a tree_paths() result over `lines` lines; B[i, e] is 1 when line
    e lies on the path from the anchor to nodes[i]. A line lies on the path
    between two nodes exactly when it lies on one of their two anchor paths,
    so every pair quantity follows from B without listing the pairs.
    """
    B = np.zeros((len(nodes), lines))
    for i, n in enumerate(nodes):
        B[i, paths[n]] = 1.0
    return B


def path_lengths(B: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Pairwise path sums from an anchor-path incidence B and line lengths.

    The path between i and j is both anchor paths less twice their shared
    part: s_i + s_j - 2 (B diag(l) B^T)_ij, where s = B l.
    """
    s = B @ lengths
    out = np.triu(s[:, None] + s[None, :] - 2.0 * ((B * lengths) @ B.T), 1)
    return out + out.T


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "valid grid" if self.ok else "; ".join(self.violations)


def validate_grid(g: Grid) -> ValidationReport:
    """Check every structural invariant and report each violation found.

    Checked: node/edge referential integrity, single root, tree-ness
    (connected, |E| = |V| - 1, no loops or parallel lines), root has exactly
    one line, observed nodes are non-root leaves, hidden nodes keep degree
    >= 3 after the root is removed, and impedances are positive and finite.
    """
    v: list[str] = []
    known = set(g.nodes)
    if len(known) != len(g.nodes):
        v.append("duplicate node ids")
    for e in g.edges:
        if e.u not in known or e.v not in known:
            v.append(f"edge ({e.u},{e.v}) references an unknown node")
    if len(g.roots) != 1:
        v.append(f"expected exactly one root, found {len(g.roots)}")

    seen_pairs = set()
    for e in g.edges:
        if e.u == e.v:
            v.append(f"self-loop at {e.u}")
        if e.key in seen_pairs:
            v.append(f"parallel edge ({e.u},{e.v})")
        seen_pairs.add(e.key)
        for name, val in (("r", e.r), ("x", e.x)):
            if not np.isfinite(val):
                v.append(f"edge ({e.u},{e.v}) has non-finite {name}={val}")
            elif val <= 0:
                v.append(f"edge ({e.u},{e.v}) has non-positive {name}={val}")

    structurally_sound = not v
    if structurally_sound:
        # Sound structure means exactly one root, so reaching every node from
        # it is connectivity.
        if len(g._root_paths) != len(g.nodes):
            v.append("graph is not connected")
        if len(g.edges) != max(len(g.nodes) - 1, 0):
            v.append(f"not a tree: {len(g.nodes)} nodes but {len(g.edges)} edges")

    if not v and len(g.nodes) > 1:
        root = next(iter(g.roots))
        if g.degree(root) != 1:
            v.append(
                f"root {root!r} has {g.degree(root)} lines; exactly one is required "
                "so the grid minus the root stays a single tree"
            )
        for n in g.observed:
            if n in g.roots:
                v.append(f"root {n!r} must not be observed")
            elif g.degree(n) != 1:
                v.append(f"observed node {n!r} is not a leaf (degree {g.degree(n)})")
        for n in g.nodes:
            if n in g.observed or n in g.roots:
                continue
            reduced_deg = g.degree(n) - (1 if root in g.adjacency[n] else 0)
            if reduced_deg < 3:
                v.append(
                    f"hidden node {n!r} has degree {reduced_deg} in the reduced tree; "
                    "3 or more is required for reconstructability"
                )
    return ValidationReport(tuple(v))


def ensure_valid(g: Grid) -> Grid:
    report = g._validation
    if not report.ok:
        raise ValidationError(f"invalid grid: {report}")
    return g


# ---------------------------------------------------------------------------
# Reduced Laplacian and path identities
# ---------------------------------------------------------------------------

def reduced_laplacian(g: Grid, mode: str = RESISTANCE) -> np.ndarray:
    """Weighted Laplacian with the root row and column removed.

    Rows follow g.reduced_nodes; edge weights are 1/r (mode 'r') or 1/x
    (mode 'x'). Grounding through the root edge keeps it positive definite.
    """
    _check_mode(mode)
    ensure_valid(g)
    idx = {n: i for i, n in enumerate(g.reduced_nodes)}
    L = np.zeros((len(idx), len(idx)))
    root = g.root
    for e in g.edges:
        w = 1.0 / e.weight(mode)
        if e.u == root or e.v == root:
            child = e.v if e.u == root else e.u
            L[idx[child], idx[child]] += w
        else:
            i, j = idx[e.u], idx[e.v]
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
    return L


def _split_root_paths(g: Grid, a: str, b: str, what: str) -> tuple[list[int], list[int], list[int]]:
    """Root paths of a and b as (shared part, a's rest, b's rest), root outward."""
    for n in (a, b):
        if n in g.roots:
            raise ValidationError(f"node {n!r} is the root; {what} undefined")
    g._require_reachable(a)
    g._require_reachable(b)
    pa, pb = g._root_paths[a], g._root_paths[b]
    k = 0
    while k < min(len(pa), len(pb)) and pa[k] == pb[k]:
        k += 1
    return pa[:k], pa[k:], pb[k:]


def h_inverse_entry(g: Grid, a: str, b: str, mode: str = RESISTANCE) -> float:
    """Entry (a, b) of the inverse reduced Laplacian, by the path identity.

    For a tree, the (a, b) entry equals the sum of edge impedances shared by
    the root paths of a and b (the segment from their common junction up to
    the root, including the root's own line). Dense inversion of
    reduced_laplacian() gives the same value and serves as the test oracle.
    """
    _check_mode(mode)
    shared, _, _ = _split_root_paths(g, a, b, "entry")
    return float(sum(g.edges[i].weight(mode) for i in shared))


def true_distance(g: Grid, a: str, b: str, mode: str = RESISTANCE) -> float:
    """Sum of edge r (or x) along the unique tree path between a and b."""
    _check_mode(mode)
    _, up, down = _split_root_paths(g, a, b, "distance")
    return float(sum(g.edges[i].weight(mode) for i in up[::-1] + down))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def grid_to_dict(g: Grid) -> dict:
    return nodes_and_edges_to_dict(g.nodes, g.edges, g.roots, g.observed)


def nodes_and_edges_to_dict(nodes: Sequence[str], edges: Sequence[Edge],
                            roots: frozenset[str], observed: frozenset[str]) -> dict:
    """Write the node/edge schema that parse_nodes_and_edges reads; a learned grid has no roots."""
    return {
        "nodes": [{"id": n, "root": n in roots, "observed": n in observed} for n in nodes],
        "edges": [{"u": e.u, "v": e.v, "r": e.r, "x": e.x} for e in edges],
    }


def parse_nodes_and_edges(
    data: object, source: str
) -> tuple[tuple[str, ...], frozenset[str], frozenset[str], tuple[Edge, ...]]:
    """Read the node/edge schema that grid and learned-grid files share.

    Returns (node ids, root ids, observed ids, edges). A malformed field
    raises FormatError naming the source and the offending entry.
    """
    def fail(msg: str) -> FormatError:
        return FormatError(f"{source}: {msg}")

    if not isinstance(data, dict):
        raise fail("expected a JSON object")
    for key in ("nodes", "edges"):
        if key not in data:
            raise fail(f"missing field {key!r}")
        if not isinstance(data[key], list):
            raise fail(f"field {key!r} must be a list")
    nodes, roots, observed = [], set(), set()
    for i, nd in enumerate(data["nodes"]):
        if not isinstance(nd, dict) or "id" not in nd:
            raise fail(f"nodes[{i}]: missing field 'id'")
        nid = nd["id"]
        if not isinstance(nid, str):
            raise fail(f"nodes[{i}]: 'id' must be a string")
        nodes.append(nid)
        for flag, flagged in (("root", roots), ("observed", observed)):
            if not isinstance(nd.get(flag, False), bool):
                raise fail(f"nodes[{i}]: {flag!r} must be true or false")
            if nd.get(flag, False):
                flagged.add(nid)
    edges = []
    for i, ed in enumerate(data["edges"]):
        if not isinstance(ed, dict):
            raise fail(f"edges[{i}]: expected an object")
        for key in ("u", "v", "r", "x"):
            if key not in ed:
                raise fail(f"edges[{i}]: missing field {key!r}")
        try:
            r, x = float(ed["r"]), float(ed["x"])
        except (TypeError, ValueError):
            raise fail(f"edges[{i}]: 'r' and 'x' must be numbers") from None
        edges.append(Edge(str(ed["u"]), str(ed["v"]), r, x))
    return tuple(nodes), frozenset(roots), frozenset(observed), tuple(edges)


def grid_from_dict(data: dict, source: str = "<grid>") -> Grid:
    nodes, roots, observed, edges = parse_nodes_and_edges(data, source)
    return Grid(nodes, edges, roots, observed)


def save_grid(g: Grid, path: str | Path) -> None:
    Path(path).write_text(json.dumps(grid_to_dict(g), indent=2) + "\n")


def read_json(path: str | Path) -> object:
    """Parse a JSON file; a missing file or bad JSON raises FormatError naming it."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise FormatError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno})") from None


def load_grid(path: str | Path) -> Grid:
    path = Path(path)
    return grid_from_dict(read_json(path), source=str(path))
