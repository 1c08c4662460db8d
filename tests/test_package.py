"""Package surface: the exported names and the shared JSON file reader."""
import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import gridtopo
import gridtopo.cli
from gridtopo import (
    FormatError,
    GroupingStalledError,
    InjectionSpec,
    NotAdditiveError,
    RGConfig,
    RGDiagnostics,
    accumulate,
    assign_reactances,
    estimate_distances,
    learn_from_moments,
    load_grid,
    load_learned,
    load_moments,
    rg_exact,
    rg_sampled,
)

# Names this package no longer provides.
REMOVED = {
    gridtopo: (
        "Block", "NoWitnessError", "PairRelation", "classify_pair_exact",
        "classify_pair_sampled", "coarsest_partition", "neighborhood", "phi",
        "conditioning_check", "estimate_h_pair", "ReducedLaplacian", "path_between",
        "merge", "perturbed", "match_hidden_and_diff", "save_experiment_config",
        "node_determinants", "default_conditioning_threshold",
        "RESISTANCE", "REACTANCE", "ValidationReport", "NegativeLengthWarning",
    ),
    gridtopo.grid: ("ReducedLaplacian", "path_between", "RESISTANCE", "REACTANCE", "ValidationReport"),
    gridtopo.lcpf: ("analytic_moments",),
    gridtopo.Grid: ("path_edges", "root_path_edges", "index"),
    gridtopo.EvalReport: ("runtime",),
    gridtopo.grouping: ("_classify_scalar", "_witness_mask", "anchor_path_incidence"),
    gridtopo.LearnedTree: ("adjacency", "degree", "leaves"),
    gridtopo.distances: ("from_grid", "perturbed"),
    gridtopo.moments: (
        "conditioning_check", "estimate_h_pair", "merge", "node_determinants",
        "default_conditioning_threshold", "ACCUMULATOR_CHUNK",
    ),
    gridtopo.MomentSet: ("empty", "index"),
    gridtopo.MomentAccumulator: ("update",),
    gridtopo.InjectionSpec: ("moments_for", "per_node"),
    gridtopo.DistanceMatrix: ("mode", "value"),
    gridtopo.bench: ("match_hidden_and_diff", "save_experiment_config", "config_to_dict", "HUB_NAME"),
    gridtopo.MeasurementSet: ("grid_name",),
    gridtopo.RGDiagnostics: ("eps0",),
    gridtopo.cli: ("_folded", "_write_report_json"),
    gridtopo.exceptions: ("NegativeLengthWarning",),
}
# Names REMOVED from one module that the package still exports from another.
MOVED = {"analytic_moments": gridtopo.moments}


def test_public_names_resolve():
    namespace: dict = {}
    exec("from gridtopo import *", namespace)
    assert set(gridtopo.__all__) <= namespace.keys()
    assert len(set(gridtopo.__all__)) == len(gridtopo.__all__)
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), name
            if name in MOVED:
                assert getattr(gridtopo, name) is getattr(MOVED[name], name)
            else:
                assert name not in gridtopo.__all__
    assert not hasattr(gridtopo.cli, "run")
    assert not hasattr(gridtopo.MomentAccumulator, "merge")
    assert set(RGConfig.__dataclass_fields__) == {"eps0", "dynamic_eps"}
    # The block size, impedance mode and exact tolerance are constants or the
    # caller's choice of matrix, not parameters.
    assert list(inspect.signature(accumulate).parameters) == ["source"]
    assert list(inspect.signature(rg_exact).parameters) == ["O", "d"]
    assert list(inspect.signature(rg_sampled).parameters) == ["O", "d", "cfg"]
    # The learner takes a whole moment set, one injection triple holds for
    # every node, and one call fits both r and x.
    assert list(inspect.signature(learn_from_moments).parameters) == ["m", "cfg"]
    assert list(inspect.signature(estimate_distances).parameters) == ["m"]
    assert list(inspect.signature(assign_reactances).parameters) == ["tree", "d"]
    assert set(InjectionSpec.__dataclass_fields__) == {"sigma_pp", "sigma_qq", "sigma_pq", "family"}
    # perfbench reads these counters by name.
    counters = {"rounds", "eps_escalations", "tau_escalations", "merged_junctions", "clamped_lengths"}
    assert counters <= set(RGDiagnostics.__dataclass_fields__)


def test_grouping_errors_carry_only_their_message():
    # Four corners of a unit square are no additive tree metric.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    with pytest.raises(NotAdditiveError) as err:
        rg_exact(("a", "b", "c", "d"), d)
    assert not hasattr(err.value, "max_violation")
    # On generic distances no pair passes a test at a fixed tiny eps.
    d = np.triu(np.random.default_rng(0).uniform(1.0, 2.0, size=(6, 6)), 1)
    with pytest.raises(GroupingStalledError) as err:
        rg_sampled(tuple("abcdef"), d + d.T, RGConfig(eps0=1e-6, dynamic_eps=False))
    assert not hasattr(err.value, "partial")


def test_benchmark_hook_points_resolve():
    # The benchmark wraps these (module, attribute) sites by name; a rename
    # would otherwise surface only when the benchmark runs.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    sites = next(
        ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SITES"]
    )
    assert sites
    for module, attr, _span in sites:
        assert callable(getattr(importlib.import_module(f"gridtopo.{module}"), attr)), (module, attr)


def test_write_json_is_the_one_json_writer():
    src = Path(gridtopo.__file__).parent
    writers = {p.name: p.read_text().count("json.dumps") for p in src.glob("*.py")}
    assert {name: n for name, n in writers.items() if n} == {"grid.py": 1}


@pytest.mark.parametrize("load", [load_grid, load_moments, load_learned], ids=lambda f: f.__name__)
def test_loaders_name_the_file_on_read_errors(tmp_path, load):
    missing = tmp_path / "absent.json"
    with pytest.raises(FormatError) as err:
        load(missing)
    assert str(err.value) == f"{missing}: file not found"

    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"nodes": [\n  {Not json')
    with pytest.raises(FormatError) as err:
        load(mangled)
    assert str(err.value) == (
        f"{mangled}: not valid JSON "
        "(Expecting property name enclosed in double quotes at line 2)"
    )
