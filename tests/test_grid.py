"""Grid structure, validation, path algebra, and the Laplacian identities."""
import json

import numpy as np
import pytest

from gridtopo import (
    Edge,
    FormatError,
    Grid,
    ValidationError,
    ensure_valid,
    grid_from_dict,
    grid_to_dict,
    h_inverse_entry,
    load_grid,
    random_radial_grid,
    reduced_laplacian,
    save_grid,
    true_distance,
    validate_grid,
)


def test_star_structure(star_grid):
    assert star_grid.root == "t"
    assert star_grid.observed_nodes == ("a", "b", "c")
    assert star_grid.hidden_nodes == ("h",)
    assert set(star_grid.reduced_nodes) == {"h", "a", "b", "c"}
    assert star_grid.degree("h") == 4
    assert star_grid.depth == 2


def test_star_paths_and_distances(star_grid):
    assert [e.key for e in star_grid.path_edges("a", "b")] == [
        frozenset({"h", "a"}), frozenset({"h", "b"}),
    ]
    assert true_distance(star_grid, "a", "b") == pytest.approx(3.0)
    assert true_distance(star_grid, "a", "c") == pytest.approx(4.0)
    assert true_distance(star_grid, "b", "c") == pytest.approx(5.0)
    assert true_distance(star_grid, "a", "a") == 0.0
    # x == r on this grid, so the reactance metric matches.
    assert true_distance(star_grid, "b", "c", "x") == pytest.approx(5.0)


def test_validation_passes_on_fixtures(star_grid, cherry_grid):
    for g in (star_grid, cherry_grid):
        report = validate_grid(g)
        assert report.ok, report.violations
        assert ensure_valid(g) is g


def test_validation_catches_structural_faults():
    # Hidden node of reduced degree 2 (a pass-through junction).
    g = Grid.create(
        {"t": "root", "h": "hidden", "a": "observed", "b": "observed"},
        [("t", "h", 0.1, 0.1), ("h", "a", 0.2, 0.2), ("h", "b", 0.3, 0.3)],
    )
    report = validate_grid(g)
    assert not report.ok
    assert any("degree" in msg for msg in report.violations)
    with pytest.raises(ValidationError):
        ensure_valid(g)


def test_validation_catches_bad_impedance_and_cycles():
    bad_r = Grid.create(
        {"t": "root", "h": "hidden", "a": "observed", "b": "observed", "c": "observed"},
        [("t", "h", 0.1, 0.1), ("h", "a", -1.0, 0.2), ("h", "b", 0.3, 0.3), ("h", "c", 0.3, 0.3)],
    )
    assert any("non-positive" in m for m in validate_grid(bad_r).violations)

    cyclic = Grid.create(
        {"t": "root", "h": "hidden", "a": "observed", "b": "observed", "c": "observed"},
        [
            ("t", "h", 0.1, 0.1), ("h", "a", 0.2, 0.2), ("h", "b", 0.3, 0.3),
            ("h", "c", 0.3, 0.3), ("a", "b", 0.1, 0.1),
        ],
    )
    assert not validate_grid(cyclic).ok


def test_disconnected_grid_is_reported(split_grid):
    assert "graph is not connected" in validate_grid(split_grid).violations
    assert split_grid.root_path_edges("a")
    for node in ("d", "e"):
        with pytest.raises(ValidationError, match="not connected to the root"):
            split_grid.root_path_edges(node)
    with pytest.raises(ValidationError):
        true_distance(split_grid, "a", "d")
    with pytest.raises(ValidationError):
        true_distance(split_grid, "d", "d")


def test_reduced_laplacian_star(star_grid):
    lap = reduced_laplacian(star_grid, "r")
    assert set(lap.nodes) == {"h", "a", "b", "c"}
    ih = lap.nodes.index("h")
    ia = lap.nodes.index("a")
    # Diagonal of h: 1/0.5 (root line) + 1/1 + 1/2 + 1/3.
    assert lap.matrix[ih, ih] == pytest.approx(2.0 + 1.0 + 0.5 + 1.0 / 3.0)
    assert lap.matrix[ia, ia] == pytest.approx(1.0)
    assert lap.matrix[ih, ia] == pytest.approx(-1.0)
    assert np.allclose(lap.matrix, lap.matrix.T)


def test_h_inverse_entry_is_shared_root_path(star_grid):
    # Inverse reduced-Laplacian entries are shared path sums to the root.
    assert h_inverse_entry(star_grid, "a", "b") == pytest.approx(0.5)
    assert h_inverse_entry(star_grid, "a", "a") == pytest.approx(1.5)
    assert h_inverse_entry(star_grid, "c", "c") == pytest.approx(3.5)
    assert h_inverse_entry(star_grid, "a", "h") == pytest.approx(0.5)
    assert h_inverse_entry(star_grid, "b", "c", "x") == pytest.approx(0.5)


def test_h_inverse_entry_matches_dense_inverse():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)))
        for mode in ("r", "x"):
            lap = reduced_laplacian(g, mode)
            dense = np.linalg.inv(lap.matrix)
            nodes = lap.nodes
            for i, u in enumerate(nodes):
                for j, v in enumerate(nodes):
                    assert h_inverse_entry(g, u, v, mode) == pytest.approx(
                        dense[i, j], rel=1e-9, abs=1e-12
                    )


def test_distance_from_h_entries(star_grid):
    # d(a,b) = h(a,a) + h(b,b) - 2 h(a,b): the additive-metric identity.
    for u, v in (("a", "b"), ("a", "c"), ("b", "c")):
        d = (
            h_inverse_entry(star_grid, u, u)
            + h_inverse_entry(star_grid, v, v)
            - 2.0 * h_inverse_entry(star_grid, u, v)
        )
        assert d == pytest.approx(true_distance(star_grid, u, v))


def test_grid_json_round_trip(tmp_path, cherry_grid):
    path = tmp_path / "grid.json"
    save_grid(cherry_grid, path)
    loaded = load_grid(path)
    assert grid_to_dict(loaded) == grid_to_dict(cherry_grid)


def test_grid_file_errors(tmp_path):
    bad_field = tmp_path / "bad.json"
    bad_field.write_text(json.dumps({"nodes": {"t": "root"}, "lines": []}))
    with pytest.raises(FormatError):
        load_grid(bad_field)


def test_grid_from_dict_field_checks():
    with pytest.raises(FormatError):
        grid_from_dict({"nodes": [{"root": True}], "edges": []})
    with pytest.raises(FormatError):
        grid_from_dict({"nodes": [{"id": "t", "root": True}],
                        "edges": [{"u": "t", "v": "a", "r": "fast", "x": 0.1}]})


def test_create_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        Grid.create({"t": "root", "a": "meter"}, [("t", "a", 0.1, 0.1)])


def test_validation_catches_self_loop():
    g = Grid(
        nodes=("t", "h", "a", "b", "c"),
        edges=(
            Edge("t", "h", 0.1, 0.1), Edge("h", "a", 0.2, 0.2),
            Edge("h", "b", 0.2, 0.2), Edge("h", "c", 0.2, 0.2),
            Edge("a", "a", 0.1, 0.1),
        ),
        roots=frozenset({"t"}),
        observed=frozenset({"a", "b", "c"}),
    )
    assert any("self-loop" in m for m in validate_grid(g).violations)
