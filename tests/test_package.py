"""Package surface: the exported names and the shared JSON file reader."""
import pytest

import gridtopo
import gridtopo.cli
from gridtopo import FormatError, RGConfig, RGDiagnostics, load_grid, load_learned, load_moments

# Names this package no longer provides.
REMOVED = {
    gridtopo: (
        "Block", "NoWitnessError", "PairRelation", "classify_pair_exact",
        "classify_pair_sampled", "coarsest_partition", "neighborhood", "phi",
    ),
    gridtopo.grouping: ("_classify_scalar",),
    gridtopo.distances: ("from_grid",),
}


def test_public_names_resolve():
    namespace: dict = {}
    exec("from gridtopo import *", namespace)
    assert set(gridtopo.__all__) <= namespace.keys()
    assert len(set(gridtopo.__all__)) == len(gridtopo.__all__)
    for module, names in REMOVED.items():
        for name in names:
            assert not hasattr(module, name), name
            assert name not in gridtopo.__all__
    assert not hasattr(gridtopo.cli, "run")
    assert set(RGConfig.__dataclass_fields__) == {"eps0", "eps_growth", "dynamic_eps"}
    # perfbench reads these counters by name.
    counters = {"rounds", "eps_escalations", "tau_escalations", "merged_junctions", "clamped_lengths"}
    assert counters <= set(RGDiagnostics.__dataclass_fields__)


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
