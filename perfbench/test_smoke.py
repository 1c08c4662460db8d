"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import gridtopo as gt  # noqa: E402
import refclock  # noqa: E402
from run import REPORT_ONLY_UNITS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    units.update(REPORT_ONLY_UNITS["per_layer" if trace else "end_to_end"])
    printed = {line.split()[0]: line.split()[2] for line in report if not line.startswith("#")}
    assert {k: printed.get(k) for k in units} == units


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "sweep-n30", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def learned():
    g = gt.random_radial_grid(15, 2)
    return g.observed_nodes, gt.learn_from_samples(gt.simulate(g, gt.InjectionSpec(), 4000, 8))


def test_gate_accepts_a_learned_grid(learned):
    terminals, lg = learned
    assert gate.learned_tree_problems(lg, terminals) == []


def test_gate_rejects_corrupted_learned_grids(learned):
    terminals, lg = learned
    first, last = lg.edges[0], lg.edges[-1]
    corrupted = {
        "dropped line": replace(lg, edges=lg.edges[1:]),
        "cycle": replace(lg, edges=lg.edges[:-1] + (replace(first, r=first.r + 1.0),)),
        "negative reactance": replace(lg, edges=lg.edges[:-1] + (replace(last, x=-0.1),)),
        "lost terminal": replace(lg, observed=lg.observed - {terminals[0]}),
    }
    for what, bad in corrupted.items():
        assert gate.learned_tree_problems(bad, terminals), what
        assert gate.fingerprint(bad) != gate.fingerprint(lg), what


def test_gate_rejects_inexact_round_trip_and_timed_artifacts():
    ms = gt.simulate(gt.random_radial_grid(12, 1), gt.InjectionSpec(), 50, 4)
    assert gate.roundtrip_problems(ms, ms) == []
    v = ms.v.copy()
    v[3, 2] = np.nextafter(v[3, 2], np.inf)
    assert gate.roundtrip_problems(ms, replace(ms, v=v))

    csv_blob, json_blob = b"samples,trial\n1,0\n", b'{"cells": [{"trials": 1}]}'
    assert gate.artifact_problems([(csv_blob, json_blob)] * 2) == []
    assert gate.artifact_problems([(csv_blob, json_blob)])
    assert gate.artifact_problems([(csv_blob, json_blob), (csv_blob + b"2,0\n", json_blob)])
    assert gate.artifact_problems([(b"samples,runtime\n1,0.5\n", json_blob)] * 2)
    assert gate.artifact_problems([(csv_blob, b'{"cells": [{"elapsed": 0.5}]}')] * 2)


def test_reference_clock_leaves_slices_out_and_defers_held_ones():
    clock = refclock.RefClock()
    start, wall = clock.now(), time.perf_counter()
    clock.run_slice()
    assert (time.perf_counter() - wall) - (clock.now() - start) == pytest.approx(clock.spent, abs=1e-4)

    clock.hold()
    clock._on_alarm(None, None)
    assert len(clock.slices) == 1
    clock.release()
    assert len(clock.slices) == 2

    # Too few slices in the window: it widens to every slice there is.
    mean = clock.spent / len(clock.slices)
    assert clock.scale(0.0, 0.0) == pytest.approx(refclock.NOMINAL_SLICE_S / mean)
