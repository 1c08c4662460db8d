"""Grid structure, validation, path algebra, and the Laplacian identities."""
import json
from dataclasses import replace

import numpy as np
import pytest

from gridtopo import (
    DistanceMatrix,
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
from gridtopo.learn import learned_from_dict, load_learned


def test_star_structure(star_grid):
    assert star_grid.root == "t"
    assert star_grid.observed_nodes == ("a", "b", "c")
    assert star_grid.hidden_nodes == ("h",)
    assert set(star_grid.reduced_nodes) == {"h", "a", "b", "c"}
    assert star_grid.degree("h") == 4
    assert star_grid.depth == 2


def test_star_paths_and_distances(star_grid, cherry_grid):
    # The a - c path climbs a - j1 - j0 and descends j0 - j2 - c.
    assert true_distance(cherry_grid, "a", "c") == pytest.approx(0.10 + 0.20 + 0.40 + 0.50)
    assert true_distance(cherry_grid, "a", "c", "x") == pytest.approx(0.20 + 0.15 + 0.30 + 0.40)
    assert true_distance(star_grid, "a", "b") == pytest.approx(3.0)
    assert true_distance(star_grid, "a", "c") == pytest.approx(4.0)
    assert true_distance(star_grid, "b", "c") == pytest.approx(5.0)
    assert true_distance(star_grid, "a", "a") == 0.0
    # x == r on this grid, so the reactance metric matches.
    assert true_distance(star_grid, "b", "c", "x") == pytest.approx(5.0)


def test_validation_passes_on_fixtures(star_grid, cherry_grid):
    for g in (star_grid, cherry_grid):
        report = validate_grid(g)
        assert report == (), report
        assert ensure_valid(g) is g


def test_validation_catches_structural_faults(star_grid):
    # Hidden node of reduced degree 2 (a pass-through junction).
    g = Grid.create(
        {"t": "root", "h": "hidden", "a": "observed", "b": "observed"},
        [("t", "h", 0.1, 0.1), ("h", "a", 0.2, 0.2), ("h", "b", 0.3, 0.3)],
    )
    report = validate_grid(g)
    assert report
    assert any("degree" in msg for msg in report)
    with pytest.raises(ValidationError):
        ensure_valid(g)
    # One fault at a time, each in the valid star t - h - {a, b, c}.
    star, lines = star_grid, star_grid.edges
    root_with_two_lines = Grid.create(
        {"t": "root", "h": "hidden", "a": "observed", "b": "observed", "c": "observed", "d": "observed"},
        [("t", "a", 0.1, 0.1), ("t", "h", 0.1, 0.1), ("h", "b", 0.2, 0.2), ("h", "c", 0.3, 0.3),
         ("h", "d", 0.4, 0.4)],
    )
    faults = [
        (replace(star, nodes=star.nodes + ("a",)), "duplicate node ids"),
        (replace(star, edges=lines + (Edge("h", "z", 0.1, 0.1),)), "edge (h,z) references an unknown node"),
        (replace(star, roots=frozenset()), "expected exactly one root, found 0"),
        (replace(star, roots=frozenset({"t", "h"})), "expected exactly one root, found 2"),
        (replace(star, edges=lines + (Edge("a", "h", 0.1, 0.1),)), "parallel edge (a,h)"),
        (root_with_two_lines, "root 't' has 2 lines; exactly one is required "
                              "so the grid minus the root stays a single tree"),
        (replace(star, observed=star.observed | {"t"}), "root 't' must not be observed"),
        (replace(star, observed=star.observed | {"h"}), "observed node 'h' is not a leaf (degree 4)"),
    ]
    for bad, message in faults:
        assert validate_grid(bad) == (message,)
    with pytest.raises(ValidationError, match="^grid must have exactly one root, found 2$"):
        replace(star, roots=frozenset({"t", "h"})).root


def test_validation_catches_bad_impedance_and_cycles():
    bad_r = Grid.create(
        {"t": "root", "h": "hidden", "a": "observed", "b": "observed", "c": "observed"},
        [("t", "h", 0.1, 0.1), ("h", "a", -1.0, 0.2), ("h", "b", 0.3, 0.3), ("h", "c", 0.3, 0.3)],
    )
    assert any("non-positive" in m for m in validate_grid(bad_r))
    for bad in (np.inf, np.nan):
        odd_x = Grid.create(
            {"t": "root", "h": "hidden", "a": "observed", "b": "observed", "c": "observed"},
            [("t", "h", 0.1, 0.1), ("h", "a", 0.2, bad), ("h", "b", 0.3, 0.3), ("h", "c", 0.3, 0.3)],
        )
        assert validate_grid(odd_x) == (f"edge (h,a) has non-finite x={bad}",)

    cyclic = Grid.create(
        {"t": "root", "h": "hidden", "a": "observed", "b": "observed", "c": "observed"},
        [
            ("t", "h", 0.1, 0.1), ("h", "a", 0.2, 0.2), ("h", "b", 0.3, 0.3),
            ("h", "c", 0.3, 0.3), ("a", "b", 0.1, 0.1),
        ],
    )
    assert validate_grid(cyclic)


def test_disconnected_grid_is_reported(split_grid):
    assert "graph is not connected" in validate_grid(split_grid)
    assert h_inverse_entry(split_grid, "a", "a") == pytest.approx(1.5)
    for node in ("d", "e"):
        with pytest.raises(ValidationError, match="not connected to the root"):
            h_inverse_entry(split_grid, node, "a")
        with pytest.raises(ValidationError, match="not connected to the root"):
            true_distance(split_grid, "a", node)
        with pytest.raises(ValidationError, match="not connected to the root"):
            true_distance(split_grid, node, node)
    with pytest.raises(ValidationError, match="unknown node 'z'"):
        true_distance(split_grid, "a", "z")


def test_reduced_laplacian_star(star_grid):
    lap = reduced_laplacian(star_grid, "r")
    nodes = star_grid.reduced_nodes
    assert lap.shape == (4, 4) and set(nodes) == {"h", "a", "b", "c"}
    ih = nodes.index("h")
    ia = nodes.index("a")
    # Diagonal of h: 1/0.5 (root line) + 1/1 + 1/2 + 1/3.
    assert lap[ih, ih] == pytest.approx(2.0 + 1.0 + 0.5 + 1.0 / 3.0)
    assert lap[ia, ia] == pytest.approx(1.0)
    assert lap[ih, ia] == pytest.approx(-1.0)
    assert np.allclose(lap, lap.T)
    with pytest.raises(ValidationError, match="^unknown impedance mode 'z'; expected 'r' or 'x'$"):
        reduced_laplacian(star_grid, "z")


def test_h_inverse_entry_is_shared_root_path(star_grid):
    # Inverse reduced-Laplacian entries are shared path sums to the root.
    assert h_inverse_entry(star_grid, "a", "b") == pytest.approx(0.5)
    assert h_inverse_entry(star_grid, "a", "a") == pytest.approx(1.5)
    assert h_inverse_entry(star_grid, "c", "c") == pytest.approx(3.5)
    assert h_inverse_entry(star_grid, "a", "h") == pytest.approx(0.5)
    assert h_inverse_entry(star_grid, "b", "c", "x") == pytest.approx(0.5)
    with pytest.raises(ValidationError, match="^node 't' is the root; entry undefined$"):
        h_inverse_entry(star_grid, "a", "t")


def test_h_inverse_entry_matches_dense_inverse():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(6, 30))
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)))
        for mode in ("r", "x"):
            dense = np.linalg.inv(reduced_laplacian(g, mode))
            nodes = g.reduced_nodes
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


def test_from_grid_matches_pairwise_true_distance(split_grid):
    # Reference: one true_distance call per pair, the path walked edge by edge.
    rng = np.random.default_rng(11)
    for n in [7, 200] + [int(k) for k in rng.integers(7, 201, size=18)]:
        g = random_radial_grid(n, seed=int(rng.integers(1 << 31)))
        assert DistanceMatrix.from_grid(g).nodes == g.observed_nodes
        perm = rng.permutation(len(g.reduced_nodes))
        nodes = tuple(g.reduced_nodes[i] for i in perm[: max(2, len(perm) // 2)])
        d = DistanceMatrix.from_grid(g, nodes)
        assert d.nodes == nodes
        for mode in ("r", "x"):
            ref = np.zeros((len(nodes), len(nodes)))
            for i, u in enumerate(nodes):
                for j in range(i + 1, len(nodes)):
                    ref[i, j] = ref[j, i] = true_distance(g, u, nodes[j], mode)
            np.testing.assert_allclose(getattr(d, f"d_{mode}"), ref, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValidationError, match="'t' is the root"):
        DistanceMatrix.from_grid(split_grid, ("a", "t"))
    with pytest.raises(ValidationError, match="unknown node 'z'"):
        DistanceMatrix.from_grid(split_grid, ("a", "z"))
    with pytest.raises(ValidationError, match="'d' is not connected to the root"):
        DistanceMatrix.from_grid(split_grid, ("a", "d"))


# Each guard of DistanceMatrix and its sub, on the 3-node matrix below.
D3 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])


@pytest.mark.parametrize("build, message", [
    (lambda: DistanceMatrix(("a", "b"), np.zeros((2, 3)), np.zeros((2, 3))),
     r"d_r: expected a square matrix, got shape \(2, 3\)"),
    (lambda: DistanceMatrix("abc", D3 + np.triu(D3), D3), "d_r: matrix is not symmetric"),
    (lambda: DistanceMatrix("abc", D3, D3 + np.eye(3)), "d_x: diagonal is not zero"),
    # Finite, but (d + d^T) / 2 overflows at the 1.7e308 entry.
    (lambda: DistanceMatrix("abc", D3, D3 * (1.7e308 / 3.0)),
     "d_x: matrix has non-finite entries or overflows float64"),
    (lambda: DistanceMatrix(("a", "b"), D3, D3), "d_r: 3 rows for 2 nodes"),
    (lambda: DistanceMatrix(("a", "b", "a"), D3, D3), "distance matrix: duplicate node ids"),
    (lambda: DistanceMatrix("abc", D3, D3).sub(["a", "z"]), r"distance matrix: unknown nodes \['z'\]"),
], ids=["non-square", "asymmetric", "diagonal", "overflow", "row-count", "duplicate-ids", "sub-unknown"])
def test_distance_matrix_guards(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


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
    root = [{"id": "t", "root": True}]
    line = {"u": "t", "v": "a", "r": 0.1}
    cases = [
        ([], "expected a JSON object"),
        ({"edges": []}, "missing field 'nodes'"),
        ({"nodes": {}, "edges": []}, "field 'nodes' must be a list"),
        ({"nodes": [{"root": True}], "edges": []}, "nodes[0]: missing field 'id'"),
        ({"nodes": [{"id": 7}], "edges": []}, "nodes[0]: 'id' must be a string"),
        ({"nodes": [{"id": "t", "root": "no"}], "edges": []}, "nodes[0]: 'root' must be true or false"),
        ({"nodes": [*root, {"id": "a", "observed": 1}], "edges": []},
         "nodes[1]: 'observed' must be true or false"),
        ({"nodes": root, "edges": ["t-a"]}, "edges[0]: expected an object"),
        ({"nodes": root, "edges": [line]}, "edges[0]: missing field 'x'"),
        ({"nodes": root, "edges": [{**line, "x": "fast"}]},
         "edges[0]: 'r' and 'x' must be numbers"),
    ]
    # Grid and learned-grid files share one schema and one set of messages.
    for data, message in cases:
        for parse in (grid_from_dict, learned_from_dict):
            with pytest.raises(FormatError) as err:
                parse(data, source="f.json")
            assert str(err.value) == f"f.json: {message}", parse.__name__


@pytest.mark.parametrize("key, value, message", [
    ("r", True, "'r' and 'x' must be numbers"),
    ("x", "0.2", "'r' and 'x' must be numbers"),
    ("u", None, "'u' and 'v' must be strings"),
    ("v", 3, "'u' and 'v' must be strings"),
], ids=["r-true", "x-string", "u-null", "v-number"])
def test_grid_and_learned_files_hold_json_numbers_and_strings(tmp_path, star_grid, key, value, message):
    # float() would read true as 1.0 and "0.2" as 0.2, and str() null as a node "None".
    learned = {**grid_to_dict(star_grid), "provenance": {}}
    for data, load in ((grid_to_dict(star_grid), load_grid), (learned, load_learned)):
        data["edges"][1][key] = value
        path = tmp_path / f"{load.__name__}.json"
        path.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: edges[1]: {message}"


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
    assert any("self-loop" in m for m in validate_grid(g))
