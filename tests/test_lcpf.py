"""Linearized power-flow simulation and the analytic moment formulas."""
import csv
import re
import tracemalloc

import numpy as np
import pytest

from gridtopo import (
    FormatError,
    Grid,
    InjectionSpec,
    MeasurementSet,
    ValidationError,
    accumulate,
    analytic_moments,
    h_inverse_entry,
    load_measurements,
    random_radial_grid,
    read_measurement_blocks,
    reduced_laplacian,
    sample_injections,
    save_measurements,
    simulate,
    simulate_blocks,
    solve_lcpf,
)
from gridtopo import grid as grid_module
from gridtopo import lcpf
from gridtopo.lcpf import _ROW_BLOCK, SIM_CHUNK


def _inverses(g):
    """H_r^-1 and H_x^-1 over g.reduced_nodes, as solve_lcpf takes them."""
    return tuple(np.linalg.inv(reduced_laplacian(g, mode)) for mode in ("r", "x"))


def test_solve_lcpf_unit_injection_reads_h_column(star_grid):
    nodes = star_grid.reduced_nodes
    unit = np.zeros(len(nodes))
    unit[nodes.index("a")] = 1.0
    # A unit p at a reads the resistance-Laplacian inverse column of a; a
    # unit q reads the reactance analogue.
    h = _inverses(star_grid)
    v_p = solve_lcpf(*h, unit, np.zeros_like(unit))
    v_q = solve_lcpf(*h, np.zeros_like(unit), unit)
    for i, n in enumerate(nodes):
        assert v_p[i] == pytest.approx(h_inverse_entry(star_grid, n, "a", "r"))
        assert v_q[i] == pytest.approx(h_inverse_entry(star_grid, n, "a", "x"))


def test_solve_lcpf_matches_path_identity():
    # Oracle: H^-1 built entry by entry from shared root-path sums, with no
    # matrix inverse.
    rng = np.random.default_rng(5)
    for n in (7, 20, 45):
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)))
        nodes = g.reduced_nodes
        h_r, h_x = (
            np.array([[h_inverse_entry(g, a, b, mode) for b in nodes] for a in nodes])
            for mode in ("r", "x")
        )
        p, q = rng.normal(size=(2, 6, len(nodes)))
        want = p @ h_r + q @ h_x
        h = _inverses(g)
        for got, ref in ((solve_lcpf(*h, p, q), want), (solve_lcpf(*h, p[2], q[2]), want[2])):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_solve_lcpf_superposition(star_grid):
    rng = np.random.default_rng(3)
    m = len(star_grid.reduced_nodes)
    p1, q1 = rng.normal(size=m), rng.normal(size=m)
    p2, q2 = rng.normal(size=m), rng.normal(size=m)
    h = _inverses(star_grid)
    v1 = solve_lcpf(*h, p1, q1)
    v2 = solve_lcpf(*h, p2, q2)
    assert np.allclose(solve_lcpf(*h, p1 + p2, q1 + q2), v1 + v2)


def test_solve_lcpf_shape_checks(star_grid):
    h = _inverses(star_grid)
    with pytest.raises(ValidationError):
        solve_lcpf(*h, np.zeros(3), np.zeros(3))
    with pytest.raises(ValidationError):
        solve_lcpf(*h, np.zeros(4), np.zeros(5))


def test_simulate_exposes_only_observed_terminals(star_grid):
    ms = simulate(star_grid, InjectionSpec(), T=64, seed=1)
    assert ms.nodes == star_grid.observed_nodes
    assert ms.v.shape == (64, 3)
    assert ms.T == 64


def test_simulate_is_deterministic(cherry_grid):
    a = simulate(cherry_grid, InjectionSpec(), T=128, seed=9)
    b = simulate(cherry_grid, InjectionSpec(), T=128, seed=9)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.q, b.q)
    c = simulate(cherry_grid, InjectionSpec(), T=128, seed=10)
    assert not np.array_equal(a.v, c.v)


def test_measurement_head_is_a_prefix(star_grid):
    ms = simulate(star_grid, InjectionSpec(), T=100, seed=4)
    head = ms.head(40)
    assert head.T == 40
    assert np.array_equal(head.v, ms.v[:40])


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
@pytest.mark.parametrize("n", [30, 200])
def test_measurement_head_matches_a_shorter_simulation(n, family):
    # p and q of a shorter run are exact prefixes; v agrees to rounding only,
    # since the run's last _ROW_BLOCK product has fewer rows.
    g = random_radial_grid(n, 1)
    spec = InjectionSpec(sigma_pq=0.3, family=family)
    full = simulate(g, spec, T=10_000, seed=3)
    for t in (1, 7, 513, 1000, 4097, 5000):
        head, fresh = full.head(t), simulate(g, spec, T=t, seed=3)
        assert np.array_equal(fresh.p, head.p) and np.array_equal(fresh.q, head.q)
        np.testing.assert_allclose(fresh.v, head.v, rtol=0, atol=1e-13 * np.abs(head.v).max())


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_injections_are_a_prefix_across_chunks(star_grid, family):
    spec = InjectionSpec(sigma_pq=0.3, family=family)
    p, q = sample_injections(star_grid, spec, 3 * SIM_CHUNK, seed=8)
    for T in (SIM_CHUNK + 1, 2 * SIM_CHUNK + 5):
        p_t, q_t = sample_injections(star_grid, spec, T, seed=8)
        assert p_t.tobytes() == p[:T].tobytes()
        assert q_t.tobytes() == q[:T].tobytes()


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
def test_injection_row_windows_are_slices_of_the_full_draw(star_grid, family):
    spec = InjectionSpec(sigma_pq=0.3, family=family)
    T = 2 * SIM_CHUNK + 5
    p, q = sample_injections(star_grid, spec, T, seed=8)
    for start in (0, SIM_CHUNK, 2 * SIM_CHUNK):
        for stop in (start + 1, min(start + SIM_CHUNK, T), T):
            p_w, q_w = sample_injections(star_grid, spec, stop, seed=8, start=start)
            assert p_w.tobytes() == p[start:stop].tobytes(), (start, stop)
            assert q_w.tobytes() == q[start:stop].tobytes(), (start, stop)
    for start in (-SIM_CHUNK, 1, SIM_CHUNK - 1, SIM_CHUNK + 512, 2 * SIM_CHUNK + 1, 3 * SIM_CHUNK):
        with pytest.raises(ValidationError, match="row window start"):
            sample_injections(star_grid, spec, T, seed=8, start=start)
    with pytest.raises(ValidationError, match="row window start"):
        sample_injections(star_grid, spec, SIM_CHUNK, seed=8, start=SIM_CHUNK)


def _whole_run(g, spec, T, seed):
    """The simulation as one whole-T array: one draw, one solve, then the columns."""
    p, q = sample_injections(g, spec, T, seed)
    v = solve_lcpf(*_inverses(g), p, q)
    cols = [g.reduced_nodes.index(n) for n in g.observed_nodes]
    return MeasurementSet(g.observed_nodes, v[:, cols], p[:, cols], q[:, cols], seed=seed)


@pytest.mark.parametrize("n", [30, 200])
def test_simulate_blocks_are_windows_of_simulate(n):
    # simulate() and its windows must equal one whole-T draw and solve bit
    # for bit, in the Fortran order of its column slices: accumulate's
    # pp/qq/pq rounding depends on it. At n = 200 a matrix product's rounding
    # depends on its row count, so this holds only because every path
    # solves the same fixed row blocks.
    g = random_radial_grid(n, 1)
    moments = ("vp", "vq", "pp", "qq", "pq")
    for family in ("gaussian", "uniform"):
        spec = InjectionSpec(sigma_pq=0.3, family=family)
        for T in (1, 511, SIM_CHUNK - 1, SIM_CHUNK, SIM_CHUNK + 1, 2 * SIM_CHUNK + 5):
            ref = _whole_run(g, spec, T, seed=6)
            whole = simulate(g, spec, T, seed=6)
            blocks = list(simulate_blocks(g, spec, T, seed=6))
            assert [b.T for b in blocks] == [min(SIM_CHUNK, T - s) for s in range(0, T, SIM_CHUNK)]
            assert all(b.nodes == whole.nodes and b.seed == 6 for b in blocks)
            for name in ("v", "p", "q"):
                want = getattr(ref, name)
                parts = [getattr(whole, name)] + [getattr(b, name) for b in blocks]
                assert want.flags.f_contiguous and all(a.flags.f_contiguous for a in parts)
                assert parts[0].tobytes() == want.tobytes(), (family, T, name)
                assert np.concatenate(parts[1:]).tobytes() == want.tobytes(), (family, T, name)
            for t in sorted({1, T // 2 or 1, T}):
                got, want = accumulate(whole.head(t)), accumulate(ref.head(t))
                for name in moments:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (T, t, name)
            got, want = accumulate(blocks), accumulate(ref)
            for name in moments:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (T, name)
    with pytest.raises(ValidationError):
        simulate_blocks(g, InjectionSpec(), 0, seed=6)  # before any window is drawn


def _traced_peak(run):
    """run()'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_is_flat_in_the_sample_count():
    # Above its three (T, k) outputs, simulate holds one window's full-width
    # p and q draw plus one strip of the solve, whatever T is, and so does
    # one window of simulate_blocks above its own three outputs: at most two
    # windows and six strips of m full-width columns.
    for n in (100, 200):
        g = random_radial_grid(n, 1)
        k, m = len(g.observed_nodes), len(g.reduced_nodes)
        extra = []
        for T in (SIM_CHUNK, 4 * SIM_CHUNK):
            ms, peak = _traced_peak(lambda: simulate(g, InjectionSpec(), T, seed=3))
            assert ms.T == T
            extra.append(peak - 3 * T * k * 8)
            del ms
        assert extra[1] <= 1.25 * extra[0], (n, extra)
        window, peak = _traced_peak(lambda: next(simulate_blocks(g, InjectionSpec(), 2 * SIM_CHUNK, seed=3)))
        assert window.T == SIM_CHUNK
        extra.append(peak - 3 * SIM_CHUNK * k * 8)
        assert max(extra) <= (2 * SIM_CHUNK + 6 * _ROW_BLOCK) * m * 8, (n, m, extra)


def test_simulation_forms_the_model_once_and_draws_once_per_window(monkeypatch, cherry_grid):
    calls = {"_forward_model": 0, "sample_injections": 0, "solve_lcpf": 0}
    for name in calls:
        def counted(*args, _fn=getattr(lcpf, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(lcpf, name, counted)
    T = 2 * SIM_CHUNK + 5
    for run in (lambda: simulate(cherry_grid, InjectionSpec(), T, seed=2),
                lambda: list(simulate_blocks(cherry_grid, InjectionSpec(), T, seed=2))):
        calls.update(dict.fromkeys(calls, 0))
        run()
        # One solve per _ROW_BLOCK-row strip: 8 + 8 + 1.
        assert calls == {"_forward_model": 1, "sample_injections": 3, "solve_lcpf": 17}


def test_simulate_validates_the_grid_once(monkeypatch):
    made = random_radial_grid(30, 2)
    g = Grid(made.nodes, made.edges, made.roots, made.observed)  # nothing cached yet
    calls = []
    validate = grid_module.validate_grid
    monkeypatch.setattr(grid_module, "validate_grid", lambda g: calls.append(g) or validate(g))
    simulate(g, InjectionSpec(), 2 * SIM_CHUNK + 5, seed=1)
    assert len(calls) == 1 and calls[0] is g
    simulate(g, InjectionSpec(), 10, seed=1)
    analytic_moments(g)
    assert len(calls) == 1


def test_negative_seeds_are_refused_before_any_draw(cherry_grid):
    spec = InjectionSpec()
    for run in (simulate, simulate_blocks, sample_injections):
        with pytest.raises(ValidationError, match="seed must be >= 0, got -3"):
            run(cherry_grid, spec, 100, -3)  # simulate_blocks refuses at the call, not on iteration
    with pytest.raises(ValidationError, match="^sample count must be >= 1, got 0$"):
        sample_injections(cherry_grid, spec, 0, 1)
    with pytest.raises(ValidationError, match="^grid has no observed nodes to measure$"):
        simulate(Grid.create({"t": "root"}, []), spec, 100, 1)


def test_sample_injection_moments_match_spec(star_grid):
    spec = InjectionSpec(sigma_pp=2.0, sigma_qq=0.5, sigma_pq=0.3)
    p, q = sample_injections(star_grid, spec, T=200_000, seed=11)
    assert p.shape == (200_000, len(star_grid.reduced_nodes))
    assert np.mean(p * p, axis=0) == pytest.approx(2.0, rel=0.05)
    assert np.mean(q * q, axis=0) == pytest.approx(0.5, rel=0.05)
    assert np.mean(p * q, axis=0) == pytest.approx(0.3, rel=0.08)
    # Independent across nodes: cross-node covariance stays near zero.
    cross = (p[:, 0] * p[:, 1]).mean()
    assert abs(cross) < 0.05


def test_uniform_family_matches_same_moments(star_grid):
    spec = InjectionSpec(sigma_pp=1.5, sigma_qq=0.8, sigma_pq=-0.2, family="uniform")
    p, q = sample_injections(star_grid, spec, T=200_000, seed=12)
    assert np.mean(p * p, axis=0) == pytest.approx(1.5, rel=0.05)
    assert np.mean(q * q, axis=0) == pytest.approx(0.8, rel=0.05)
    assert np.mean(p * q, axis=0) == pytest.approx(-0.2, rel=0.1)
    assert p.max() < np.sqrt(3 * 1.5) * 1.001  # bounded support


def test_injection_spec_validation():
    with pytest.raises(ValidationError):
        InjectionSpec(family="cauchy")
    with pytest.raises(ValidationError, match="not positive definite"):
        InjectionSpec(sigma_pp=1.0, sigma_qq=1.0, sigma_pq=1.0)  # singular
    with pytest.raises(ValidationError, match="not positive definite"):
        InjectionSpec(sigma_pp=-1.0)
    # An infinite variance would fill the measurements with nan and inf.
    for bad in ({"sigma_qq": np.inf}, {"sigma_pp": np.nan}, {"sigma_pq": -np.inf}):
        with pytest.raises(ValidationError, match="must be finite"):
            InjectionSpec(**bad)
    # Positive definite, but sigma_qq - (sigma_pq / sqrt(sigma_pp))^2 rounds to -4.4e-16.
    spec = InjectionSpec(sigma_pp=5.6377159503513825, sigma_qq=2.4509751110807376, sigma_pq=3.717243801212684)
    assert np.isfinite(sample_injections(random_radial_grid(10, seed=0), spec, T=50, seed=1)).all()


def test_analytic_moments_star_hand_values(star_grid):
    m = analytic_moments(star_grid, InjectionSpec())
    assert m.count is None
    assert m.nodes == ("a", "b", "c")
    ia, ib = m.nodes.index("a"), m.nodes.index("b")
    # E[v_a p_b] = h_r(a, b) * sigma_pp with independent unit injections.
    assert m.vp[ia, ib] == pytest.approx(0.5)
    assert m.vp[ia, ia] == pytest.approx(1.5)
    assert m.vq[ia, ib] == pytest.approx(0.5)  # x == r on the star
    assert np.all(m.pp == 1.0) and np.all(m.qq == 1.0) and np.all(m.pq == 0.0)


def test_analytic_moments_with_correlated_injections(star_grid):
    spec = InjectionSpec(sigma_pp=2.0, sigma_qq=1.0, sigma_pq=0.5)
    m = analytic_moments(star_grid, spec)
    ia, ib = m.nodes.index("a"), m.nodes.index("b")
    h_r = h_inverse_entry(star_grid, "a", "b", "r")
    h_x = h_inverse_entry(star_grid, "a", "b", "x")
    assert m.vp[ia, ib] == pytest.approx(h_r * 2.0 + h_x * 0.5)
    assert m.vq[ia, ib] == pytest.approx(h_r * 0.5 + h_x * 1.0)


def test_empirical_moments_approach_analytic(star_grid):
    ms = simulate(star_grid, InjectionSpec(), T=400_000, seed=21)
    emp_vp = ms.v.T @ ms.p / ms.T
    ana = analytic_moments(star_grid, InjectionSpec())
    assert np.max(np.abs(emp_vp - ana.vp)) < 0.02


def test_measurements_csv_round_trip(tmp_path, star_grid):
    ms = simulate(star_grid, InjectionSpec(), T=32, seed=5)
    # Values whose text form is easy to get wrong: negative zero, the
    # smallest subnormal, the smallest normal, the largest float, and 1/3.
    edge = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3]
    ms.v[: len(edge), 0] = edge
    ms.q[-1, : len(ms.nodes)] = edge[: len(ms.nodes)]
    path = tmp_path / "meas.csv"
    save_measurements(ms, path)
    back = load_measurements(path)
    assert back.nodes == ms.nodes
    assert back.seed == ms.seed
    for name in ("v", "p", "q"):
        sent, got = getattr(ms, name), getattr(back, name)
        assert got.tobytes() == sent.tobytes(), name
    # Empty lines among the rows are skipped, as numpy.loadtxt skips them.
    comment, header, *rows = path.read_text().splitlines(keepends=True)
    path.write_text("".join([comment, header] + ["\n" + row for row in rows] + ["\n"]))
    spaced = load_measurements(path)
    assert spaced.v.tobytes() == ms.v.tobytes()
    assert spaced.q.tobytes() == ms.q.tobytes()
    # A seed token that is no integer leaves the seed unknown.
    path.write_text("".join(["# seed=abc\n", header] + rows))
    assert load_measurements(path).seed is None


def test_measurements_csv_bytes_are_pinned(tmp_path, star_grid):
    ms = MeasurementSet(("a", "b"), [[0.1, -2.0], [1e-05, 3.0]], [[1.5, 0.0], [-0.0, 2.5e300]],
                        [[1 / 3, 7.0], [-1.25, 5e-324]], seed=4)
    path = tmp_path / "meas.csv"
    save_measurements(ms, path)
    assert path.read_bytes() == (
        b"# seed=4\n"
        b"t,v:a,p:a,q:a,v:b,p:b,q:b\r\n"
        b"0,0.1,1.5,0.3333333333333333,-2.0,0.0,7.0\r\n"
        b"1,1e-05,-0.0,-1.25,3.0,2.5e+300,5e-324\r\n"
    )
    # Rows are written in chunks; the text must not depend on where a chunk ends.
    long = simulate(star_grid, InjectionSpec(), T=600, seed=2)
    save_measurements(long, path)
    rows = path.read_text().splitlines()[2:]
    assert len(rows) == 600
    for t in (0, 255, 256, 511, 512, 599):
        fields = [repr(float(x)) for triple in zip(long.v[t], long.p[t], long.q[t]) for x in triple]
        assert rows[t] == ",".join([str(t)] + fields)


def _reference_csv(ms: MeasurementSet, path) -> None:
    """save_measurements as a per-field csv.writer loop, one row at a time."""
    with path.open("w", newline="") as fh:
        if ms.seed is not None:
            fh.write(f"# seed={ms.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"{kind}:{n}" for n in ms.nodes for kind in "vpq"])
        for t in range(ms.T):
            triples = zip(ms.v[t].tolist(), ms.p[t].tolist(), ms.q[t].tolist())
            writer.writerow([str(t)] + [repr(x) for vpq in triples for x in vpq])


def test_measurements_csv_matches_reference_writer(tmp_path):
    # 600 rows span three write chunks, the last one partial. A node id
    # with a comma and a quote makes csv quote its header columns.
    rng = np.random.default_rng(3)
    nodes = ("a", 'odd,"id"', "c")
    v, p, q = (rng.standard_normal((600, 3)) * 10.0 ** rng.integers(-300, 300, (600, 3))
               for _ in range(3))
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    for block, shift in ((v, 0), (p, 1), (q, 2)):
        for r, x in enumerate(special):
            block[(255 + 128 * r + shift) % 600, (r + shift) % 3] = x
    ms = MeasurementSet(nodes, v, p, q, seed=9)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    save_measurements(ms, got)
    _reference_csv(ms, want)
    assert got.read_bytes() == want.read_bytes()
    back = load_measurements(got)
    assert back.nodes == nodes
    for name in ("v", "p", "q"):
        assert getattr(back, name).tobytes() == getattr(ms, name).tobytes(), name
    # A set without nodes writes the sample index alone on each row.
    empty = MeasurementSet((), np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((3, 0)))
    save_measurements(empty, got)
    _reference_csv(empty, want)
    assert got.read_bytes() == want.read_bytes() == b"t\r\n0\r\n1\r\n2\r\n"


def test_measurements_csv_rejects_bad_files(tmp_path):
    path = tmp_path / "bad.csv"
    # Each body follows a comment (line 1) and the header (line 2); the
    # message names the faulty line counted from the top of the file.
    bodies = [
        ("0,1.0,not-a-number,3.0\n", "line 3: .*'not-a-number'"),       # a non-numeric value
        ("0,1.0,2.0,3.0\n1,1.0,2.0\n", "line 4 has 3 fields, expected 4"),  # a ragged row
        ("0,1.0,2.0\n1,1.0,2.0\n", "line 3 has 3 fields, expected 4"),  # every row one field short
        ("", "no measurement rows"),                                    # header only
        ("\n\n", "no measurement rows"),                                # header and empty lines only
        ("0,1.0,2.0,3.0\n1,1.0#,2.0,3.0\n", "line 4: .*'1.0#'"),        # '#' inside a data row
        ("0,1.0,2.0,3.0\n\n\n1,1.0,x,3.0\n", "line 6: .*'x'"),         # empty lines count too
    ]
    for body, detail in bodies:
        path.write_text("# seed=3\nt,v:a,p:a,q:a\n" + body)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {detail}"):
            load_measurements(path)
    # A missing or faulty header is refused before any row is read.
    heads = [
        ("", "empty file"),
        ("# seed=3\n", "empty file"),
        ("x,v:a,p:a,q:a\n", "first header column must be 't'"),
        ("t,va,p:a,q:a\n", "header column 'va' is not of the form kind:node"),
        ("t,w:a,p:a,q:a\n", "header column 'w:a' has unknown kind 'w'"),
        ("t,v:a,v:a,p:a,q:a\n", "duplicate column 'v:a'"),
        ("t,v:a,p:a\n", "missing column 'q:a'"),
    ]
    for head, message in heads:
        path.write_text(head)
        with pytest.raises(FormatError) as err:
            load_measurements(path)
        assert str(err.value) == f"{path}: {message}"
    missing = tmp_path / "absent.csv"
    with pytest.raises(FormatError, match=f"^{re.escape(str(missing))}: file not found"):
        load_measurements(missing)


def test_measurements_csv_streams_in_accumulator_blocks(tmp_path, star_grid):
    ms = simulate(star_grid, InjectionSpec(), T=2 * SIM_CHUNK + 3, seed=5)
    path = tmp_path / "meas.csv"
    save_measurements(ms, path)
    # Empty lines do not count towards a block's rows.
    comment, header, *rows = path.read_text().splitlines(keepends=True)
    rows[10:10] = ["\n", "\r\n"]
    path.write_text("".join([comment, header] + rows))
    blocks = list(read_measurement_blocks(path))
    assert [b.T for b in blocks] == [SIM_CHUNK, SIM_CHUNK, 3]
    assert all(b.nodes == ms.nodes and b.seed == 5 for b in blocks)
    # Same values and the same column layout: the moments match bit for bit.
    want = accumulate(ms)
    for got in (accumulate(iter(blocks)), accumulate(load_measurements(path))):
        for name in ("vp", "vq", "pp", "qq", "pq"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_measurements_csv_reports_bad_rows_in_later_blocks(tmp_path):
    path = tmp_path / "bad.csv"
    good = [f"{t},1.0,2.0,3.0\n" for t in range(SIM_CHUNK + 10)]
    bad_at = SIM_CHUNK + 3  # a row of the second block
    line = bad_at + 3  # after the comment and the header, counted from 1
    cases = [
        ({bad_at: f"{bad_at},1.0,oops,3.0\n"}, f"line {line}: .*'oops'"),
        ({bad_at: f"{bad_at},1.0,2.0\n"}, f"line {line} has 3 fields, expected 4"),
        ({t: f"{t},1.0,2.0\n" for t in range(SIM_CHUNK, len(good))},
         f"line {SIM_CHUNK + 3} has 3 fields, expected 4"),
    ]
    for changed, detail in cases:
        body = [changed.get(t, row) for t, row in enumerate(good)]
        path.write_text("# seed=3\nt,v:a,p:a,q:a\n" + "".join(body))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {detail}"):
            load_measurements(path)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {detail}"):
            accumulate(read_measurement_blocks(path))


def test_measurement_set_shape_validation():
    with pytest.raises(ValidationError):
        MeasurementSet(("a", "b"), np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((3, 2)))
    with pytest.raises(ValidationError, match=r"^measurement block 'v': expected shape \(T, 2\)$"):
        MeasurementSet(("a", "b"), np.zeros(4), np.zeros((4, 2)), np.zeros((4, 2)))
    ms = MeasurementSet(("a", "b"), *(np.zeros((4, 2)) for _ in "vpq"))
    for t in (0, 5):
        with pytest.raises(ValidationError, match=f"^cannot take {t} of 4 samples$"):
            ms.head(t)
