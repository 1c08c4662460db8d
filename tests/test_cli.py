"""Command-line interface: exit codes, artifacts, and reproducibility."""
import json

import pytest

from gridtopo import ExperimentConfig, load_grid, load_learned, save_experiment_config, validate_grid
from gridtopo.cli import main


def test_generate_grid_writes_valid_file(tmp_path, capsys):
    out = tmp_path / "grid.json"
    rc = main(["generate-grid", "--nodes", "15", "--seed", "3", "-o", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    g = load_grid(out)
    assert len(g.nodes) == 15
    assert validate_grid(g).ok


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

    # Estimating from the moments file gives the same grid (same lines; the
    # impedances may differ in the last float bits because the two paths
    # accumulate moments from differently laid-out arrays).
    learned2 = tmp_path / "learned2.json"
    rc = main(["estimate", "--moments", str(moments), "-o", str(learned2)])
    assert rc == 0
    a, b = load_learned(learned), load_learned(learned2)
    assert [(e.u, e.v) for e in a.edges] == [(e.u, e.v) for e in b.edges]
    for ea, eb in zip(a.edges, b.edges):
        assert ea.r == pytest.approx(eb.r, rel=1e-9)
        assert ea.x == pytest.approx(eb.x, rel=1e-9)


def test_pipeline_command_single_shot(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    main(["generate-grid", "--nodes", "12", "--seed", "2", "-o", str(grid)])
    report = tmp_path / "report.json"
    rc = main(["pipeline", "--grid", str(grid), "--samples", "30000", "--seed", "4",
               "--report", str(report)])
    assert rc == 0
    assert "exact_recovery=yes" in capsys.readouterr().out
    assert json.loads(report.read_text())["exact_recovery"] is True


def test_sweep_outputs_are_thread_invariant(tmp_path):
    cfg = ExperimentConfig(name="tiny", n=9, trials=2, samples=(400, 1500),
                           eps0=(0.1,), seed=11)
    cfg_path = tmp_path / "exp.cfg"
    save_experiment_config(cfg, cfg_path)

    out1, out4 = tmp_path / "run1", tmp_path / "run4"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out1),
                 "--threads", "1"]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(out4),
                 "--threads", "4"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out4 / "results.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out4 / "summary.json").read_bytes()


def test_missing_input_file_exits_one(tmp_path, capsys):
    rc = main(["simulate", "--grid", str(tmp_path / "ghost.json"),
               "--samples", "10", "-o", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate-grid", "-o", str(tmp_path / "g.json")])  # missing --nodes
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # Neither the witness radius, the eps growth factor nor the conditioning
    # threshold is a knob.
    for flag, value in (("--tau", "0.5"), ("--eps-growth", "2"), ("--lam", "0.1")):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--moments", "m.json", flag, value, "-o", str(tmp_path / "l.json")])
        assert exc.value.code == 2


def test_estimate_rejects_ambiguous_sources(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--measurements", "a.csv", "--moments", "b.json",
              "-o", str(tmp_path / "out.json")])
    assert exc.value.code == 2
