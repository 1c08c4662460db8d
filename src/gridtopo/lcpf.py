"""Linear power-flow simulator over the reduced tree.

Voltage-magnitude deviations respond linearly to the power injections: with
H_r, H_x the reduced Laplacians weighted by 1/r and 1/x,

    v = H_r^-1 p + H_x^-1 q

All variables are zero-mean deviations from the operating point. Injections
are drawn independently per node and per sample; hidden junctions inject too,
but only observed leaves appear in the exported measurements.

Every simulation runs in SIM_CHUNK-row windows, with H_r^-1 and H_x^-1
formed once per run: simulate_blocks yields the windows, and simulate writes
them in place into its (T, k) outputs, so its memory is the output plus about
one full-width window. save_measurements writes windows as they come, and
read_measurement_blocks parses a CSV in SIM_CHUNK-row blocks. Draws
and solves run on _ROW_BLOCK-row sub-blocks aligned to multiples of
_ROW_BLOCK, so the bits do not depend on the window a row falls in.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .exceptions import FormatError, ValidationError
from .grid import Grid, ensure_valid, reduced_laplacian

SIM_CHUNK = 4096  # frozen: part of the reproducibility contract
_ROW_BLOCK = 512  # rows per draw and per solve; divides SIM_CHUNK
_WRITE_CHUNK = 256  # measurement rows per save_measurements batch
assert SIM_CHUNK % _ROW_BLOCK == 0

FAMILIES = ("gaussian", "uniform")


@dataclass(frozen=True)
class InjectionSpec:
    """Injection second moments, the same at every node, and the sampling family.

    sigma_pp, sigma_qq are the active/reactive power variances, sigma_pq the
    covariance; all three must be finite and the 2x2 matrix they form
    positive definite. The "uniform" family draws from a uniform
    distribution with the same matched second moments (a
    distribution-robustness option).
    """

    sigma_pp: float = 1.0
    sigma_qq: float = 1.0
    sigma_pq: float = 0.0
    family: str = "gaussian"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown injection family {self.family!r}")
        spp, sqq, spq = self.sigma_pp, self.sigma_qq, self.sigma_pq
        if not all(map(math.isfinite, (spp, sqq, spq))):
            raise ValidationError(f"injection moments ({spp}, {sqq}, {spq}) must be finite")
        if spp <= 0 or sqq <= 0 or spp * sqq - spq * spq <= 0:
            raise ValidationError(f"injection moments ({spp}, {sqq}, {spq}) are not positive definite")


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """T samples of (v, p, q) per node, as (T, m) arrays over `nodes`."""

    nodes: tuple[str, ...]
    v: np.ndarray
    p: np.ndarray
    q: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        for name in ("v", "p", "q"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2 or arr.shape[1] != len(self.nodes):
                raise ValidationError(
                    f"measurement block {name!r}: expected shape (T, {len(self.nodes)})"
                )
            object.__setattr__(self, name, arr)
        if self.v.shape != self.p.shape or self.v.shape != self.q.shape:
            raise ValidationError("measurement blocks have mismatched shapes")

    @property
    def T(self) -> int:
        return self.v.shape[0]

    def head(self, t: int) -> "MeasurementSet":
        """First t samples: p and q as a fresh run of length t (same seed), v to rounding."""
        if not 0 < t <= self.T:
            raise ValidationError(f"cannot take {t} of {self.T} samples")
        return MeasurementSet(self.nodes, self.v[:t], self.p[:t], self.q[:t], seed=self.seed)


def _cholesky_coeffs(spec: InjectionSpec) -> tuple[float, float, float]:
    """(a, b, c) with p = a z1, q = b z1 + c z2 matching the moments."""
    a = math.sqrt(spec.sigma_pp)
    b = spec.sigma_pq / a
    # Near-singular moments that pass the positive-definite check can still
    # round sigma_qq - b^2 a hair below zero.
    return a, b, math.sqrt(max(spec.sigma_qq - b * b, 0.0))


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's seed sequences take non-negative integers only
        raise ValidationError(f"seed must be >= 0, got {seed}")


def sample_injections(
    g: Grid, spec: InjectionSpec, T: int, seed: int, start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw rows start..T-1 of (p, q) over the reduced nodes, hidden included.

    Sampling is chunked with a fixed chunk size and one child RNG stream per
    chunk, so the output is identical whether chunks run serially or in
    parallel, a shorter run is an exact prefix of a longer one, and a row
    window (start a multiple of SIM_CHUNK) is the matching slice of the full
    draw.
    """
    ensure_valid(g)
    if T < 1:
        raise ValidationError(f"sample count must be >= 1, got {T}")
    _check_seed(seed)
    if start % SIM_CHUNK or not 0 <= start < T:
        raise ValidationError(
            f"row window start must be a multiple of {SIM_CHUNK} below {T}, got {start}"
        )
    a, b, c = _cholesky_coeffs(spec)
    m = len(g.reduced_nodes)
    p = np.empty((T - start, m))
    q = np.empty((T - start, m))
    half_width = math.sqrt(3.0)
    for chunk in range(start, T, SIM_CHUNK):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(chunk // SIM_CHUNK,)))
        # Both draws fill z in C order from the chunk's own stream, so drawing
        # it in sub-blocks, and only the rows used, gives the same numbers.
        for row in range(chunk, min(chunk + SIM_CHUNK, T), _ROW_BLOCK):
            rows = min(_ROW_BLOCK, T - row)
            if spec.family == "gaussian":
                z = rng.standard_normal((rows, m, 2))
            else:
                z = rng.uniform(-half_width, half_width, size=(rows, m, 2))
            # In place, with the rounding of p = z1 a and q = z1 b + z2 c.
            p_out, q_out = p[row - start:row - start + rows], q[row - start:row - start + rows]
            np.multiply(z[:, :, 0], a, out=p_out)
            np.multiply(z[:, :, 0], b, out=q_out)
            q_out += z[:, :, 1] * c
    return p, q


def _forward_model(g: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H_r^-1 and H_x^-1 over g.reduced_nodes, by dense inversion, and the
    positions of g.observed_nodes among the reduced nodes."""
    h_r, h_x = np.linalg.inv(reduced_laplacian(g, "r")), np.linalg.inv(reduced_laplacian(g, "x"))
    cols = np.array([g.reduced_nodes.index(n) for n in g.observed_nodes], dtype=np.intp)
    return h_r, h_x, cols


def solve_lcpf(h_r: np.ndarray, h_x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Voltage deviations for injection rows (or one row) over the reduced nodes.

    h_r and h_x are H_r^-1 and H_x^-1 over the reduced nodes; a simulation
    forms them once per run and passes them to every window. Both are
    symmetric, so v = p H_r^-1 + q H_x^-1 row by row. Rows are multiplied
    _ROW_BLOCK at a time: a matrix product's rounding can depend on its row
    count, and fixed blocks keep each row's bits the same in any window.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError("p and q must have the same shape")
    if p.shape[-1:] != (len(h_r),):
        raise ValidationError(
            f"expected {len(h_r)} injection columns (reduced nodes), got shape {p.shape}"
        )
    if p.ndim < 2:
        return p @ h_r + q @ h_x
    v = np.empty(p.shape)
    for row in range(0, len(p), _ROW_BLOCK):
        rows = slice(row, row + _ROW_BLOCK)
        np.matmul(p[rows], h_r, out=v[rows])  # with the += below, the rounding of p H_r^-1 + q H_x^-1
        v[rows] += q[rows] @ h_x
    return v


def simulate(g: Grid, spec: InjectionSpec, T: int, seed: int) -> MeasurementSet:
    """End-to-end draw: injections everywhere, measurements at observed leaves.

    The windows of simulate_blocks() are written in place into (T, k) arrays
    in Fortran order, like each window's: memory is the output plus about one
    full-width window, and H_r^-1, H_x^-1 are formed once.
    """
    model = _run_model(g, T, seed)
    v, p, q = (np.empty((T, len(g.observed_nodes)), order="F") for _ in "vpq")
    for start in range(0, T, SIM_CHUNK):
        rows = slice(start, min(start + SIM_CHUNK, T))
        _fill_window(g, spec, seed, rows, model, v[rows], p[rows], q[rows])
    return MeasurementSet(g.observed_nodes, v, p, q, seed=seed)


def simulate_blocks(g: Grid, spec: InjectionSpec, T: int, seed: int) -> Iterator[MeasurementSet]:
    """simulate() as SIM_CHUNK-row windows, drawn and solved one at a time.

    Each window holds the same bits as the same rows of simulate(), and only
    the window being consumed is alive. The grid and T are checked (the spec
    checks itself when built), and H_r^-1, H_x^-1 formed, here, before any
    window is drawn.
    """
    model = _run_model(g, T, seed)
    return (_window(g, spec, seed, slice(start, min(start + SIM_CHUNK, T)), model)
            for start in range(0, T, SIM_CHUNK))


def _run_model(g: Grid, T: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check a simulation's grid, T and seed; form its forward model once."""
    ensure_valid(g)
    if not g.observed_nodes:
        raise ValidationError("grid has no observed nodes to measure")
    if T < 1:
        raise ValidationError(f"sample count must be >= 1, got {T}")
    _check_seed(seed)
    return _forward_model(g)


def _window(g: Grid, spec: InjectionSpec, seed: int, rows: slice,
            model: tuple[np.ndarray, np.ndarray, np.ndarray]) -> MeasurementSet:
    """One window of the simulation as its own measurement set."""
    v, p, q = (np.empty((rows.stop - rows.start, len(g.observed_nodes)), order="F") for _ in "vpq")
    _fill_window(g, spec, seed, rows, model, v, p, q)
    return MeasurementSet(g.observed_nodes, v, p, q, seed=seed)


def _fill_window(g: Grid, spec: InjectionSpec, seed: int, rows: slice,
                 model: tuple[np.ndarray, np.ndarray, np.ndarray],
                 v: np.ndarray, p: np.ndarray, q: np.ndarray) -> None:
    """Draw and solve rows of the simulation; write their observed columns into v, p, q."""
    h_r, h_x, cols = model
    p_full, q_full = sample_injections(g, spec, rows.stop, seed, rows.start)
    v_full = solve_lcpf(h_r, h_x, p_full, q_full)
    for out, full in ((v, v_full), (p, p_full), (q, q_full)):
        for j, col in enumerate(cols):  # column by column: each is contiguous in out
            out[:, j] = full[:, col]


# ---------------------------------------------------------------------------
# Measurement CSV round trip
# ---------------------------------------------------------------------------

def save_measurements(ms: MeasurementSet | Iterable[MeasurementSet], path: str | Path) -> None:
    """Write `t` plus a (v, p, q) column triplet per node; seed in a comment.

    ms is one set, or consecutive row blocks of one set (simulate_blocks),
    written as they arrive and then dropped. Each value is its shortest
    round-trip repr, so a reload is bit-exact. The header goes through
    csv.writer, which quotes node ids that need it; the numeric rows are
    joined directly, _WRITE_CHUNK rows at a time, each ending in csv's
    default "\\r\\n".
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        t0, nodes = 0, None
        for block in [ms] if isinstance(ms, MeasurementSet) else ms:
            if nodes is None:
                nodes = block.nodes
                if block.seed is not None:
                    fh.write(f"# seed={block.seed}\n")
                csv.writer(fh).writerow(["t"] + [f"{kind}:{n}" for n in nodes for kind in "vpq"])
            elif block.nodes != nodes:
                raise ValidationError("measurement blocks cover different node lists")
            for start in range(0, block.T, _WRITE_CHUNK):  # one chunk as Python floats at a time
                stop = start + _WRITE_CHUNK
                vpq = np.stack((block.v[start:stop], block.p[start:stop], block.q[start:stop]), axis=2)
                fh.writelines(",".join((str(t), *map(repr, row))) + "\r\n"
                              for t, row in enumerate(vpq.reshape(len(vpq), -1).tolist(), t0 + start))
            t0 += block.T
            del block  # not alive while the next one is drawn


def load_measurements(path: str | Path) -> MeasurementSet:
    """Read a measurements CSV as written by save_measurements, whole."""
    blocks = list(read_measurement_blocks(path))
    v, p, q = (np.concatenate([getattr(b, kind) for b in blocks]) for kind in "vpq")
    return MeasurementSet(blocks[0].nodes, v, p, q, seed=blocks[0].seed)


def read_measurement_blocks(path: str | Path) -> Iterator[MeasurementSet]:
    """Yield a measurements CSV as consecutive SIM_CHUNK-row sets.

    Leading '#' lines are comments; a 'seed=<n>' token in one sets the seed.
    The header is 't' and a v, p and q column per node. Each later line holds
    one number per header column; empty lines are skipped, as numpy.loadtxt
    skips them. Every fault raises FormatError naming the file, and a bad
    row its 1-based line in the file. Only one block is parsed at a time, and
    its columns have the layout of simulate()'s, so accumulate() over the
    blocks gives the same bits as over the set that was written.
    """
    path = Path(path)
    try:
        fh = path.open(newline="")
    except FileNotFoundError:
        raise FormatError(f"{path}: file not found") from None
    with fh:
        seed = None
        line = fh.readline()
        header_line = 1
        while line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("seed="):
                    try:
                        seed = int(token[5:])
                    except ValueError:
                        pass
            line = fh.readline()
            header_line += 1
        if not line:
            raise FormatError(f"{path}: empty file")
        header = next(csv.reader([line]))
        if not header or header[0] != "t":
            raise FormatError(f"{path}: first header column must be 't'")
        col_of: dict[str, int] = {}
        nodes: list[str] = []
        for i, name in enumerate(header[1:], start=1):
            if ":" not in name:
                raise FormatError(f"{path}: header column {name!r} is not of the form kind:node")
            kind, node = name.split(":", 1)
            if kind not in ("v", "p", "q"):
                raise FormatError(f"{path}: header column {name!r} has unknown kind {kind!r}")
            if name in col_of:
                raise FormatError(f"{path}: duplicate column {name!r}")
            col_of[name] = i
            if node not in nodes:
                nodes.append(node)
        for node in nodes:
            for kind in ("v", "p", "q"):
                if f"{kind}:{node}" not in col_of:
                    raise FormatError(f"{path}: missing column '{kind}:{node}'")
        cols = [[col_of[f"{kind}:{n}"] for n in nodes] for kind in "vpq"]
        rows = (row for row in fh if row.strip("\r\n"))
        # loadtxt warns on a body without data, so each block's first row is read here.
        first = next(rows, None)
        if first is None:
            raise FormatError(f"{path}: no measurement rows")
        while first is not None:
            lines = itertools.chain([first], itertools.islice(rows, SIM_CHUNK - 1))
            yield _parse_block(path, header_line, header, lines, tuple(nodes), cols, seed)
            first = next(rows, None)


def _parse_block(path: Path, header_line: int, header: list[str], lines: Iterable[str],
                 nodes: tuple[str, ...], cols: list[list[int]], seed: int | None) -> MeasurementSet:
    try:
        data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: {_bad_row(path, header_line, len(header)) or exc}") from None
    if data.shape[1] != len(header):
        raise FormatError(f"{path}: {_bad_row(path, header_line, len(header))}")
    return MeasurementSet(nodes, *(data[:, c] for c in cols), seed=seed)


def _bad_row(path: Path, header_line: int, width: int) -> str | None:
    """Name the first line after the header that is not `width` numbers."""
    with path.open(newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno > header_line and line.strip("\r\n"):
                if line.count(",") + 1 != width:
                    return f"line {lineno} has {line.count(',') + 1} fields, expected {width}"
                try:
                    np.loadtxt([line], delimiter=",", comments=None)
                except ValueError as exc:
                    return f"line {lineno}: {str(exc).replace('at row 0, ', 'at ')}"
    return None
