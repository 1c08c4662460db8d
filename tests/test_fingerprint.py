"""Learned outputs pinned over a fixed panel of random grids.

The panel is n = 12/30/60/100 with generator seeds 0-11 plus n = 200 with
seeds 0-3. Each grid is learned by learn_from_moments at T = 1k, at
T = 10k (simulate seed = generator seed, T = 1k being the first rows) and
on analytic moments, and grouped by rg_exact on its exact resistance
distances and by rg_sampled on a perturbed copy (noise 0.02).

Each entry pins its topology (the edge_splits keys, as a SHA-256), its
provenance or RGDiagnostics counts, or its error's type and message,
exactly; and the sums of r, of x or of the grouping lengths to a relative
1e-9, since BLAS rounding may differ between machines. The test also prints
one bit-exact SHA-256 over every output's perfbench gate fingerprint
(pytest -s shows it). That SHA can differ between machines with the same
numpy, as the BLAS may pick its kernels by CPU, and between BLAS thread
counts on one machine, so no value is recorded: a change shows
byte-identical outputs by the SHA printed at the parent commit and at the
change in one session on one machine, both run with OPENBLAS_NUM_THREADS=1
as CI and perfbench pin it.

A change that moves outputs on purpose rewrites the expected file:

    PYTHONPATH=src python tests/test_fingerprint.py
"""
import hashlib
import importlib.util
import json
import math
from dataclasses import asdict
from pathlib import Path

from gridtopo import (
    DistanceMatrix,
    Edge,
    Error,
    InjectionSpec,
    LearnedGrid,
    LearnedTree,
    accumulate,
    analytic_moments,
    edge_splits,
    learn_from_moments,
    random_radial_grid,
    rg_exact,
    rg_sampled,
    simulate,
)
from _trees import perturbed

PANEL = [(n, s) for n in (12, 30, 60, 100) for s in range(12)] + [(200, s) for s in range(4)]
SAMPLES = (1_000, 10_000)
NOISE = 0.02
REL_TOL = 1e-9
EXPECTED = Path(__file__).with_name("fingerprint_panel.json")
GATE = Path(__file__).resolve().parents[1] / "perfbench" / "gate.py"


def _gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _as_grid(tree: LearnedTree) -> LearnedGrid:
    """A grouping tree as a learned grid with r = x = length, for the gate's fingerprint."""
    edges = tuple(Edge(e.u, e.v, e.length, e.length) for e in tree.edges)
    return LearnedGrid(tree.nodes, edges, frozenset(tree.nodes) - tree.hidden)


def _outputs(n: int, s: int):
    """(label, thunk) per output of grid (n, s)."""
    g = random_radial_grid(n, s)
    meas = simulate(g, InjectionSpec(), max(SAMPLES), s)
    exact = DistanceMatrix.from_grid(g)
    noisy = perturbed(exact, noise=NOISE, seed=s)
    for t in SAMPLES:
        yield f"learn T={t}", lambda t=t: learn_from_moments(accumulate(meas.head(t)))
    yield "learn analytic", lambda: learn_from_moments(analytic_moments(g))
    yield "rg_exact", lambda: rg_exact(exact.nodes, exact.d_r)
    yield "rg_sampled", lambda: rg_sampled(noisy.nodes, noisy.d_r)


def _record(out) -> tuple[dict, LearnedGrid | None]:
    """The pinned values of one output, and the learned grid the gate fingerprints."""
    if isinstance(out, Error):
        return {"error": f"{type(out).__name__}: {out}"}, None
    keys = sorted(sorted(key) for key, _r, _x in edge_splits(out))
    entry = {"topology": hashlib.sha256(json.dumps(keys).encode()).hexdigest()}
    if isinstance(out, LearnedTree):
        entry["diagnostics"] = asdict(out.diagnostics)
        entry["sum_length"] = math.fsum(e.length for e in out.edges)
        return entry, _as_grid(out)
    entry["provenance"] = out.provenance
    entry["sum_r"] = math.fsum(e.r for e in out.edges)
    entry["sum_x"] = math.fsum(e.x for e in out.edges)
    return entry, out


def panel() -> tuple[dict, str]:
    """Every entry of the panel by label, and the SHA-256 over their gate fingerprints."""
    fingerprint = _gate().fingerprint
    entries, prints = {}, []
    for n, s in PANEL:
        for label, learn in _outputs(n, s):
            try:
                out = learn()
            except Error as exc:
                out = exc
            entry, grid = _record(out)
            entries[f"n={n} seed={s} {label}"] = entry
            prints.append(entry["error"] if grid is None else fingerprint(grid))
    return entries, hashlib.sha256("\n".join(prints).encode()).hexdigest()


def _mismatches(got: dict, want: dict) -> list[str]:
    out = [f"entries differ: {sorted(got.keys() ^ want.keys())}"] if got.keys() != want.keys() else []
    for label in sorted(got.keys() & want.keys()):
        g, w = got[label], want[label]
        for field in sorted(g.keys() | w.keys()):
            a, b = g.get(field), w.get(field)
            close = field.startswith("sum_") and None not in (a, b) and math.isclose(a, b, rel_tol=REL_TOL)
            if a != b and not close:
                out.append(f"{label}: {field} is {a!r}, expected {b!r}")
    return out


def test_fingerprint_panel():
    want = json.loads(EXPECTED.read_text())
    got, digest = panel()
    print(f"fingerprint panel sha256 {digest}")
    problems = _mismatches(got, want["entries"])
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    entries, digest = panel()
    EXPECTED.write_text(json.dumps({"entries": entries}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {EXPECTED}; sha256 {digest}")
