"""Correctness gate: checks on the program's outputs. Each returns problems."""
from __future__ import annotations

import hashlib
import json
import math
import re

# A key or column whose name says it holds a timing.
TIMING_NAME = re.compile(r"time|elapsed|second|duration|wall", re.IGNORECASE)


def learned_tree_problems(learned, terminals) -> list[str]:
    """A learned grid must be a tree whose observed nodes are the terminals."""
    problems = []
    nodes = list(learned.nodes)
    if len(set(nodes)) != len(nodes):
        problems.append("duplicate node ids")
    if set(learned.observed) != set(terminals):
        problems.append(
            f"observed nodes {sorted(learned.observed)} are not the terminals {sorted(terminals)}"
        )
    missing = set(terminals) - set(nodes)
    if missing:
        problems.append(f"terminals {sorted(missing)} are not in the tree")
    if len(learned.edges) != len(nodes) - 1:
        problems.append(f"{len(learned.edges)} lines for {len(nodes)} nodes")
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for e in learned.edges:
        if e.u == e.v:
            problems.append(f"self loop at {e.u!r}")
        if not (math.isfinite(e.r) and math.isfinite(e.x) and e.r >= 0 and e.x >= 0):
            problems.append(f"line ({e.u}, {e.v}) has impedance ({e.r}, {e.x})")
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    if nodes:
        seen = {nodes[0]}
        todo = [nodes[0]]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != len(adj):
            problems.append("tree is not connected")
    return problems


def fingerprint(learned) -> str:
    """Digest of a learned grid's topology and impedances, bit for bit."""
    edges = sorted((e.u, e.v, float(e.r).hex(), float(e.x).hex()) for e in learned.edges)
    blob = json.dumps([sorted(learned.nodes), sorted(learned.observed), edges])
    return hashlib.sha256(blob.encode()).hexdigest()


def roundtrip_problems(written, loaded) -> list[str]:
    """`load_measurements(save_measurements(ms))` must give back ms exactly."""
    problems = []
    if written.nodes != loaded.nodes:
        problems.append("node order changed")
    if written.seed != loaded.seed:
        problems.append(f"seed {written.seed} read back as {loaded.seed}")
    for name in ("v", "p", "q"):
        a, b = getattr(written, name), getattr(loaded, name)
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            problems.append(f"block {name!r} is not bit-exact after the CSV round trip")
    return problems


def _keys(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


def artifact_problems(artifacts: list[tuple[bytes, bytes]]) -> list[str]:
    """Sweep artifacts (results.csv, summary.json) repeat byte for byte, untimed."""
    problems = []
    if len(artifacts) < 2:
        problems.append("need two sweep repeats to compare artifacts")
    for i, pair in enumerate(artifacts[1:], start=1):
        if pair != artifacts[0]:
            problems.append(f"sweep repeat {i} wrote different artifacts than repeat 0")
    for csv_bytes, json_bytes in artifacts[:1]:
        header = csv_bytes.decode().splitlines()[0].split(",")
        timed = [c for c in header if TIMING_NAME.search(c)]
        timed += [k for k in _keys(json.loads(json_bytes)) if TIMING_NAME.search(k)]
        if timed:
            problems.append(f"artifacts carry timings: {sorted(set(timed))}")
    return problems
