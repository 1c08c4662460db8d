"""Command-line interface: exit codes, artifacts, and reproducibility."""
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from gridtopo import (
    InjectionSpec,
    MomentSet,
    accumulate,
    load_grid,
    load_moments,
    random_radial_grid,
    read_measurement_blocks,
    save_grid,
    save_measurements,
    save_moments,
    simulate,
    validate_grid,
)
from gridtopo.cli import main
from gridtopo.lcpf import SIM_CHUNK

# At n = 200 each injection family writes about 300 MB of CSV here, so that
# case runs with GRIDTOPO_FULL=1; test_lcpf.py checks its windows bit for bit.
FULL = os.environ.get("GRIDTOPO_FULL") == "1"


def test_generate_grid_writes_valid_file(tmp_path, capsys):
    out = tmp_path / "grid.json"
    rc = main(["generate-grid", "--nodes", "15", "--seed", "3", "-o", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    g = load_grid(out)
    assert len(g.nodes) == 15
    assert validate_grid(g) == ()


def test_generate_grid_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate-grid", "--nodes", "20", "--seed", "7", "-o", str(a)]) == 0
    assert main(["generate-grid", "--nodes", "20", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_writes_deterministic_csv(tmp_path):
    grid = tmp_path / "grid.json"
    main(["generate-grid", "--nodes", "10", "--seed", "1", "-o", str(grid)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["simulate", "--grid", str(grid), "--samples", "64",
                   "--seed", "5", "-o", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_full_pipeline_via_files(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    meas = tmp_path / "meas.csv"
    moments = tmp_path / "moments.json"
    learned = tmp_path / "learned.json"
    report = tmp_path / "report.json"

    main(["generate-grid", "--nodes", "12", "--seed", "2", "-o", str(grid)])
    rc = main(["simulate", "--grid", str(grid), "--samples", "30000", "--seed", "4",
               "-o", str(meas), "--moments", str(moments)])
    assert rc == 0
    rc = main(["estimate", "--measurements", str(meas), "-o", str(learned)])
    assert rc == 0
    rc = main(["evaluate", "--true", str(grid), "--learned", str(learned),
               "-o", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact_recovery=yes" in out
    payload = json.loads(report.read_text())
    assert payload["exact_recovery"] is True
    assert payload["edge_difference"] == 0
    assert payload["avg_impedance_error"] < 0.2

    # The moments written alongside the CSV are those of the CSV read back,
    # bit for bit, so estimating from either file learns the same grid.
    written, read = load_moments(moments), accumulate(read_measurement_blocks(meas))
    assert written.nodes == read.nodes and written.count == read.count == 30000
    for name in ("vp", "vq", "pp", "qq", "pq"):
        assert getattr(written, name).tobytes() == getattr(read, name).tobytes(), name
    alone = tmp_path / "alone.json"  # --moments without -o accumulates the same windows
    assert main(["simulate", "--grid", str(grid), "--samples", "30000", "--seed", "4",
                 "--moments", str(alone)]) == 0
    assert alone.read_bytes() == moments.read_bytes()
    learned2 = tmp_path / "learned2.json"
    rc = main(["estimate", "--moments", str(moments), "-o", str(learned2)])
    assert rc == 0
    assert learned2.read_bytes() == learned.read_bytes()


@pytest.mark.parametrize("family", ["gaussian", "uniform"])
@pytest.mark.parametrize("n", [30, 200] if FULL else [30])
def test_simulate_file_matches_the_whole_simulation(tmp_path, n, family):
    # simulate -o draws, solves and writes one SIM_CHUNK-row window at a time.
    g = random_radial_grid(n, 1)
    grid, streamed, whole = tmp_path / "grid.json", tmp_path / "streamed.csv", tmp_path / "whole.csv"
    save_grid(g, grid)
    spec = InjectionSpec(sigma_pq=0.3, family=family)
    for T in (1, SIM_CHUNK - 1, SIM_CHUNK, SIM_CHUNK + 1, 2 * SIM_CHUNK + 5):
        assert main(["simulate", "--grid", str(grid), "--samples", str(T), "--seed", "6",
                     "--sigma-pq", "0.3", "--family", family, "-o", str(streamed)]) == 0
        save_measurements(simulate(g, spec, T, seed=6), whole)
        assert streamed.read_bytes() == whole.read_bytes(), T


def test_file_path_memory_does_not_grow_with_samples(tmp_path):
    grid, meas, learned = tmp_path / "grid.json", tmp_path / "meas.csv", tmp_path / "learned.json"
    save_grid(random_radial_grid(12, 2), grid)
    peaks = {}
    for T in (SIM_CHUNK, 4 * SIM_CHUNK):
        for argv in (["simulate", "--grid", str(grid), "--samples", str(T), "-o", str(meas)],
                     ["estimate", "--measurements", str(meas), "-o", str(learned)]):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[argv[0], T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for command in ("simulate", "estimate"):
        assert peaks[command, 4 * SIM_CHUNK] <= 1.25 * peaks[command, SIM_CHUNK], (command, peaks)


def test_pipeline_command_single_shot(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    main(["generate-grid", "--nodes", "12", "--seed", "2", "-o", str(grid)])
    report = tmp_path / "report.json"
    rc = main(["pipeline", "--grid", str(grid), "--samples", "30000", "--seed", "4",
               "--report", str(report)])
    assert rc == 0
    assert "exact_recovery=yes" in capsys.readouterr().out
    assert json.loads(report.read_text())["exact_recovery"] is True


def test_pipeline_learned_out_matches_estimate_from_moments(tmp_path):
    # pipeline learns from the moments that simulate --moments writes at the
    # same seed and sample count, so both learned files match byte for byte.
    grid, moments, estimated, piped = (
        tmp_path / f for f in ("grid.json", "m.json", "estimated.json", "piped.json"))
    main(["generate-grid", "--nodes", "14", "--seed", "3", "-o", str(grid)])
    sampling = ["--samples", "6000", "--seed", "8", "--sigma-pq", "0.2"]
    assert main(["simulate", "--grid", str(grid), *sampling, "--moments", str(moments)]) == 0
    assert main(["estimate", "--moments", str(moments), "-o", str(estimated)]) == 0
    assert main(["pipeline", "--grid", str(grid), *sampling, "--learned-out", str(piped)]) == 0
    assert piped.read_bytes() == estimated.read_bytes()


def test_sweep_outputs_are_thread_invariant(tmp_path):
    # The config's threads key is the one way to set the thread count.
    out1, out4 = tmp_path / "run1", tmp_path / "run4"
    for threads, out in ((1, out1), (4, out4)):
        cfg_path = tmp_path / f"exp{threads}.cfg"
        cfg_path.write_text("name = tiny\nn = 9\ntrials = 2\nsamples = 400, 1500\neps0 = 0.1\n"
                            f"seed = 11\nthreads = {threads}\n")
        assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out4 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out4 / "summary.json").read_bytes()


def test_missing_input_file_exits_one(tmp_path, capsys):
    rc = main(["simulate", "--grid", str(tmp_path / "ghost.json"),
               "--samples", "10", "-o", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# One p value per case: nan and inf spoil E[v p] first; 1e308 overflows p * p.
@pytest.mark.parametrize("value, block", [("nan", "vp"), ("inf", "vp"), ("1e308", "pp")])
def test_non_finite_moments_from_a_csv_exit_one(tmp_path, capsys, value, block):
    # The CSV holds any float, bit for bit, so the moment check must stop
    # these: a NaN distance passes no eps test, and grouping would not end.
    grid, csv = tmp_path / "grid.json", tmp_path / "meas.csv"
    main(["generate-grid", "--nodes", "12", "-o", str(grid)])
    main(["simulate", "--grid", str(grid), "--samples", "20", "-o", str(csv)])
    lines = csv.read_text().splitlines(keepends=True)
    fields = lines[5].split(",")  # line 6 of the file
    fields[2] = value
    lines[5] = ",".join(fields)
    csv.write_text("".join(lines))
    capsys.readouterr()
    assert main(["estimate", "--measurements", str(csv), "-o", str(tmp_path / "l.json")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {csv}: moment block {block!r} has non-finite entries\n"


def test_estimate_counts_clamps_on_stdout(tmp_path, capsys):
    # Unit injections and h(a, b) = 1 - d(a, b) / 2: these resistance
    # distances force one line negative, the reactance ones are a clean star.
    # The summary line counts the clamp, and nothing is warned on stderr.
    d_r = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 1.5], [0.2, 1.5, 0.0]])
    d_x = np.array([[0.0, 3.0, 4.0], [3.0, 0.0, 5.0], [4.0, 5.0, 0.0]])
    moments = tmp_path / "m.json"
    save_moments(MomentSet(("a", "b", "c"), 100, 1.0 - d_r / 2.0, 1.0 - d_x / 2.0,
                           np.ones(3), np.ones(3), np.zeros(3)), moments)
    assert main(["estimate", "--moments", str(moments), "-o", str(tmp_path / "l.json")]) == 0
    out, err = capsys.readouterr()
    assert out.endswith(", 1 negative estimates clamped to zero\n")
    assert err == ""


def test_singular_injection_moments_exit_one(tmp_path, capsys):
    # Every determinant, and with them the threshold, is 0: the check must
    # still refuse, not divide by zero and report non-finite distances.
    grid, moments = tmp_path / "grid.json", tmp_path / "m.json"
    main(["generate-grid", "--nodes", "12", "-o", str(grid)])
    main(["simulate", "--grid", str(grid), "--samples", "200", "--moments", str(moments)])
    data = json.loads(moments.read_text())
    data.update({block: [1.0] * len(data["nodes"]) for block in ("pp", "qq", "pq")})
    moments.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["estimate", "--moments", str(moments), "-o", str(tmp_path / "l.json")]) == 1
    terminals = load_grid(grid).observed_nodes
    assert capsys.readouterr().err == (
        f"error: nodes {list(terminals)} fail the conditioning check (threshold 0.000e+00)\n")


@pytest.mark.parametrize("probe", ["det", "solve"])
def test_overflowing_moments_exit_one(tmp_path, capsys, probe):
    # Finite moments whose products overflow float64 are refused in one
    # line, with no RuntimeWarning on the way.
    grid, moments = tmp_path / "grid.json", tmp_path / "m.json"
    main(["generate-grid", "--nodes", "12", "--seed", "2", "-o", str(grid)])
    main(["simulate", "--grid", str(grid), "--samples", "5000", "--moments", str(moments)])
    data = json.loads(moments.read_text())
    k = len(data["nodes"])
    if probe == "det":  # pp = qq = 1e200 at every terminal
        data.update(pp=[1e200] * k, qq=[1e200] * k)
        expected = f"nodes {data['nodes']}: injection moments overflow the determinant pp qq - pq^2"
    else:  # vp scaled by 1e300, qq = 1e10
        data.update(vp=[[1e300 * x for x in row] for row in data["vp"]], qq=[1e10] * k)
        expected = "moments overflow the pairwise solve: vp and vq are too large for pp, qq and pq"
    moments.write_text(json.dumps(data))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["estimate", "--moments", str(moments), "-o", str(tmp_path / "l.json")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_underflowing_moments_exit_one(tmp_path, capsys):
    # Injection moments scaled by 1e-170 underflow pp qq at every terminal:
    # refused in one line that names the scale, with no RuntimeWarning.
    grid, moments = tmp_path / "grid.json", tmp_path / "m.json"
    main(["generate-grid", "--nodes", "12", "--seed", "2", "-o", str(grid)])
    main(["simulate", "--grid", str(grid), "--samples", "5000", "--moments", str(moments)])
    data = json.loads(moments.read_text())
    data.update({b: [1e-170 * x for x in data[b]] for b in ("pp", "qq", "pq")})
    moments.write_text(json.dumps(data))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["estimate", "--moments", str(moments), "-o", str(tmp_path / "l.json")]) == 1
    expected = f"nodes {data['nodes']}: injection moments underflow the determinant pp qq - pq^2"
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_negative_injection_variances_exit_one(tmp_path, capsys):
    # pp and qq negated together keep every determinant positive; a mean
    # of squares cannot be negative, so the file is refused.
    grid, moments = tmp_path / "grid.json", tmp_path / "m.json"
    main(["generate-grid", "--nodes", "12", "-o", str(grid)])
    main(["simulate", "--grid", str(grid), "--samples", "5000", "--moments", str(moments)])
    data = json.loads(moments.read_text())
    data.update({b: [-x for x in data[b]] for b in ("pp", "qq")})
    moments.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["estimate", "--moments", str(moments), "-o", str(tmp_path / "l.json")]) == 1
    assert capsys.readouterr().err == f"error: {moments}: moment block 'pp' has negative entries\n"


@pytest.mark.parametrize("kind", ["learned", "moments"])
def test_repeated_node_ids_exit_one(tmp_path, capsys, kind):
    # A learned grid that lists a node twice was once scored as recovered,
    # and a moments file with a repeated node was refused without its name.
    grid, moments, learned = tmp_path / "grid.json", tmp_path / "m.json", tmp_path / "l.json"
    main(["generate-grid", "--nodes", "12", "-o", str(grid)])
    main(["simulate", "--grid", str(grid), "--samples", "5000", "--moments", str(moments)])
    main(["estimate", "--moments", str(moments), "-o", str(learned)])
    if kind == "learned":
        path, argv = learned, ["evaluate", "--true", str(grid), "--learned", str(learned)]
        data = json.loads(path.read_text())
        data["nodes"].append(data["nodes"][-1])
    else:
        path, argv = moments, ["estimate", "--moments", str(moments), "-o", str(tmp_path / "out.json")]
        data = json.loads(path.read_text())
        data["nodes"][1] = data["nodes"][0]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(argv) == 1
    noun = "learned grid" if kind == "learned" else "moment set"
    assert capsys.readouterr().err == f"error: {path}: {noun} has duplicate node ids\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--moments", "{m}", "-o", "{out}"],
    ["estimate", "--measurements", "{csv}", "-o", "{out}"],
    ["pipeline", "--grid", "{grid}", "--samples", "1", "--learned-out", "{out}"],
], ids=["moments", "measurements", "pipeline"])
def test_one_sample_exits_one(tmp_path, capsys, argv):
    paths = {k: str(tmp_path / f) for k, f in (
        ("grid", "grid.json"), ("m", "m.json"), ("csv", "meas.csv"), ("out", "out"))}
    main(["generate-grid", "--nodes", "12", "-o", paths["grid"]])
    main(["simulate", "--grid", paths["grid"], "--samples", "1", "-o", paths["csv"], "--moments", paths["m"]])
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err == "error: need at least 2 samples to form moments, got 1\n"
    assert not (tmp_path / "out").exists()


def test_invalid_generator_arguments_exit_one(tmp_path, capsys):
    rc = main(["generate-grid", "--nodes", "4", "-o", str(tmp_path / "g.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # No 6-node grid fits the default degree cap of 4.
    rc = main(["generate-grid", "--nodes", "6", "-o", str(tmp_path / "g6.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n=6" in err
    assert not (tmp_path / "g6.json").exists()


# Each of these once hung (a NaN tolerance classifies no pair), exited 0 with
# a junction-free tree or a CSV of nan and inf, or exited 2 on a raw numpy
# error (numpy's generators take no negative seed).
@pytest.mark.parametrize("argv, message", [
    (["estimate", "--moments", "{m}", "--eps", "nan", "-o", "{out}"], "eps0 must be finite and > 0, got nan"),
    (["estimate", "--moments", "{m}", "--eps", "inf", "-o", "{out}"], "eps0 must be finite and > 0, got inf"),
    (["pipeline", "--grid", "{grid}", "--samples", "100", "--eps", "nan"], "eps0 must be finite and > 0, got nan"),
    (["simulate", "--grid", "{grid}", "--samples", "100", "--sigma-qq", "inf", "-o", "{out}"],
     "injection moments (1.0, inf, 0.0) must be finite"),
    (["generate-grid", "--nodes", "20", "--r-range", "0.1,inf", "-o", "{out}"],
     "impedance range (0.1, inf) must be finite with 0 < lo <= hi"),
    (["sweep", "--config", "{cfg}", "--out-dir", "{out}"], "{cfg}: eps0 must be finite and > 0, got nan"),
    (["generate-grid", "--nodes", "10", "--seed", "-1", "-o", "{out}"], "seed must be >= 0, got -1"),
    (["simulate", "--grid", "{grid}", "--samples", "100", "--seed", "-3", "-o", "{out}"],
     "seed must be >= 0, got -3"),
    (["pipeline", "--grid", "{grid}", "--samples", "100", "--seed", "-3"], "seed must be >= 0, got -3"),
    (["sweep", "--config", "{neg}", "--out-dir", "{out}"], "{neg}: seed must be >= 0, got -1"),
], ids=["estimate-eps-nan", "estimate-eps-inf", "pipeline-eps-nan", "simulate-sigma-qq-inf",
        "generate-grid-r-range-inf", "sweep-eps0-nan", "generate-grid-seed-negative",
        "simulate-seed-negative", "pipeline-seed-negative", "sweep-seed-negative"])
def test_non_finite_arguments_exit_one(tmp_path, capsys, argv, message):
    paths = {k: str(tmp_path / f) for k, f in (
        ("grid", "grid.json"), ("m", "m.json"), ("cfg", "bad.cfg"), ("neg", "neg.cfg"), ("out", "out"))}
    main(["generate-grid", "--nodes", "12", "-o", paths["grid"]])
    main(["simulate", "--grid", paths["grid"], "--samples", "200", "--moments", paths["m"]])
    (tmp_path / "bad.cfg").write_text("n = 12\ntrials = 2\nsamples = 100\neps0 = nan\n")
    (tmp_path / "neg.cfg").write_text("n = 12\ntrials = 2\nsamples = 100\nseed = -1\n")
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not (tmp_path / "out").exists()


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate-grid", "-o", str(tmp_path / "g.json")])  # missing --nodes
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # simulate with nowhere to write would draw nothing and say nothing.
    grid = tmp_path / "g.json"
    main(["generate-grid", "--nodes", "12", "-o", str(grid)])
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--grid", str(grid), "--samples", "100"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "-o/--out" in err and "--moments" in err
    # Neither the witness radius, the eps growth factor nor the conditioning
    # threshold is a knob.
    for flag, value in (("--tau", "0.5"), ("--eps-growth", "2"), ("--lam", "0.1")):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--moments", "m.json", flag, value, "-o", str(tmp_path / "l.json")])
        assert exc.value.code == 2
    # The thread count is set in the sweep config only.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", "c.cfg", "--out-dir", str(tmp_path / "s"), "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["generate-grid", "--nodes", "20", "--r-range", "1", "-o", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "argument --r-range: expected 'lo,hi', got '1'" in capsys.readouterr().err


def test_range_bounds_must_be_numbers(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate-grid", "--nodes", "20", "--r-range", "1,x", "-o", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert "argument --r-range: expected two numbers, got '1,x'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_estimate_rejects_ambiguous_sources(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--measurements", "a.csv", "--moments", "b.json",
              "-o", str(tmp_path / "out.json")])
    assert exc.value.code == 2
