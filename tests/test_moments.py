"""Streaming moment accumulation and the pairwise distance estimator."""
import dataclasses
import json
import re

import numpy as np
import pytest

from gridtopo import (
    ConditioningError,
    FormatError,
    InjectionSpec,
    MeasurementSet,
    MomentAccumulator,
    accumulate,
    analytic_moments,
    estimate_distances,
    load_moments,
    random_radial_grid,
    save_moments,
    simulate,
    true_distance,
)
from gridtopo.moments import moments_to_dict


def _random_measurements(seed: int, T: int = 300):
    g = random_radial_grid(10, seed=seed)
    return simulate(g, InjectionSpec(), T=T, seed=seed + 1)


def test_accumulator_matches_direct_means():
    ms = _random_measurements(0)
    m = accumulate(ms)
    assert m.count == ms.T
    np.testing.assert_allclose(m.vp, ms.v.T @ ms.p / ms.T, atol=1e-12)
    np.testing.assert_allclose(m.vq, ms.v.T @ ms.q / ms.T, atol=1e-12)
    np.testing.assert_allclose(m.pp, np.mean(ms.p * ms.p, axis=0), atol=1e-12)
    np.testing.assert_allclose(m.qq, np.mean(ms.q * ms.q, axis=0), atol=1e-12)
    np.testing.assert_allclose(m.pq, np.mean(ms.p * ms.q, axis=0), atol=1e-12)


def test_accumulator_chunking_is_invisible():
    ms = _random_measurements(1)
    blocks = (
        MeasurementSet(ms.nodes, ms.v[s : s + 7], ms.p[s : s + 7], ms.q[s : s + 7])
        for s in range(0, ms.T, 7)
    )
    np.testing.assert_allclose(accumulate(blocks).vp, accumulate(ms).vp, atol=1e-12)


def test_streaming_updates_match_batch():
    ms = _random_measurements(2)
    acc = MomentAccumulator(ms.nodes)
    for t in range(ms.T):
        acc.update(ms.v[t : t + 1], ms.p[t : t + 1], ms.q[t : t + 1])
    np.testing.assert_allclose(acc.result().vp, accumulate(ms).vp, atol=1e-10)
    assert acc.result().count == ms.T


def test_estimate_distances_with_correlated_injections(star_grid):
    m = analytic_moments(star_grid, InjectionSpec(sigma_pp=2.0, sigma_qq=0.5, sigma_pq=0.3))
    d = estimate_distances(m)
    for mode in ("r", "x"):
        for u, v in (("a", "b"), ("a", "c"), ("b", "c")):
            assert getattr(d, f"d_{mode}")[d.index[u], d.index[v]] == pytest.approx(
                true_distance(star_grid, u, v, mode), abs=1e-12
            )


def test_estimate_distances_exact_on_analytic_moments(cherry_grid):
    m = analytic_moments(cherry_grid, InjectionSpec())
    d = estimate_distances(m)
    assert d.nodes == cherry_grid.observed_nodes
    for mode in ("r", "x"):
        mat = getattr(d, f"d_{mode}")
        assert np.allclose(mat, mat.T)
        assert np.all(np.diagonal(mat) == 0.0)
        for i, u in enumerate(d.nodes):
            for j, v in enumerate(d.nodes):
                if i < j:
                    assert mat[i, j] == pytest.approx(
                        true_distance(cherry_grid, u, v, mode), abs=1e-12
                    )


def test_estimate_distances_random_grids_match_truth():
    rng = np.random.default_rng(14)
    for _ in range(8):
        g = random_radial_grid(int(rng.integers(6, 25)), seed=int(rng.integers(1 << 31)))
        d = estimate_distances(analytic_moments(g))
        for mode in ("r", "x"):
            mat = getattr(d, f"d_{mode}")
            for i, u in enumerate(d.nodes):
                for j, v in enumerate(d.nodes):
                    if i < j:
                        assert mat[i, j] == pytest.approx(
                            true_distance(g, u, v, mode), abs=1e-9
                        )


def test_conditioning_guard_trips_on_near_singular_injections(star_grid):
    # pp * qq - pq^2 ~ 0 at node b makes its 2x2 solve singular: its
    # determinant is far below 0.1 x the median, while a and c keep 1.0.
    m = analytic_moments(star_grid)
    m = dataclasses.replace(m, pq=np.array([0.0, 1.0 - 1e-13, 0.0]))
    with pytest.raises(ConditioningError) as err:
        estimate_distances(m)
    assert err.value.nodes == ("b",)
    # The threshold is 0.1 x the median |determinant|, here 0.1.
    with pytest.raises(ConditioningError):
        estimate_distances(dataclasses.replace(m, pq=np.array([0.0, np.sqrt(0.92), 0.0])))
    estimate_distances(dataclasses.replace(m, pq=np.array([0.0, np.sqrt(0.88), 0.0])))


def test_conditioning_check_refuses_non_positive_determinants(star_grid):
    # pp = qq = pq = 1 everywhere: every determinant is 0, and so is 0.1 x
    # their median, so the threshold alone would pass every node.
    m = analytic_moments(star_grid)
    ones = np.ones(3)
    with pytest.raises(ConditioningError) as err:
        estimate_distances(dataclasses.replace(m, pp=ones, qq=ones, pq=ones))
    assert err.value.nodes == ("a", "b", "c")
    assert str(err.value) == "nodes ['a', 'b', 'c'] fail the conditioning check (threshold 0.000e+00)"
    # A negative determinant fails even where its size clears the threshold:
    # b's is -3, the threshold 0.1.
    with pytest.raises(ConditioningError) as err:
        estimate_distances(dataclasses.replace(m, pq=np.array([0.0, 2.0, 0.0])))
    assert err.value.nodes == ("b",)


def test_conditioning_check_passes_healthy_moments(star_grid):
    m = analytic_moments(star_grid)
    np.testing.assert_allclose(m.pp * m.qq - m.pq * m.pq, 1.0)
    estimate_distances(m)


def test_moments_json_round_trip(tmp_path, cherry_grid):
    m = accumulate(simulate(cherry_grid, InjectionSpec(), T=50, seed=8))
    path = tmp_path / "moments.json"
    save_moments(m, path)
    back = load_moments(path)
    assert back.nodes == m.nodes
    assert back.count == m.count
    np.testing.assert_allclose(back.vp, m.vp, atol=0)
    np.testing.assert_allclose(back.pq, m.pq, atol=0)


def test_moments_file_errors(tmp_path, star_grid):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": ["a"]}')
    with pytest.raises(FormatError):
        load_moments(bad)
    # Python's json reads NaN and Infinity; a NaN distance would stall grouping.
    for block, value in (("vp", "NaN"), ("pp", "NaN"), ("pp", "Infinity")):
        data = moments_to_dict(analytic_moments(star_grid))
        data[block][0] = [float(value)] * 3 if block == "vp" else float(value)
        bad.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            load_moments(bad)
        assert str(err.value) == f"{bad}: moment block {block!r} has non-finite entries"
    good = moments_to_dict(analytic_moments(star_grid))
    faults = [
        ([good], "expected a JSON object"),
        ({**good, "count": 1.5}, "field 'count' must be an integer or null"),
        ({**good, "count": True}, "field 'count' must be an integer or null"),
        ({**good, "nodes": 3}, "field 'nodes' must be a list of strings"),
        ({**good, "nodes": ["a", 2, "c"]}, "field 'nodes' must be a list of strings"),
    ]
    for data, message in faults:
        bad.write_text(json.dumps(data))
        with pytest.raises(FormatError) as err:
            load_moments(bad)
        assert str(err.value) == f"{bad}: {message}"
    # A block of non-numbers is numpy's error, named after the file.
    bad.write_text(json.dumps({**good, "pp": {}}))
    with pytest.raises(FormatError, match="^" + re.escape(f"{bad}: float() argument")):
        load_moments(bad)
