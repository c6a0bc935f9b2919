"""Unit tests for the graph generators."""

import numpy as np
import pytest

from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle,
    disjoint_edges,
    double_star,
    gnm,
    gnp,
    gnp_average_degree,
    grid_2d,
    planted_cover,
    power_law,
    random_tree,
    star,
)

from tests.oracles import validate_graph


class TestGnm:
    def test_exact_edge_count(self):
        g = gnm(50, 100, seed=0)
        assert g.n == 50 and g.m == 100
        validate_graph(g)

    def test_deterministic(self):
        a, b = gnm(40, 60, seed=5), gnm(40, 60, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        assert gnm(40, 60, seed=5) != gnm(40, 60, seed=6)

    def test_dense_regime(self):
        g = gnm(10, 40, seed=1)  # max is 45, uses dense path
        assert g.m == 40
        validate_graph(g)

    def test_complete(self):
        g = gnm(8, 28, seed=2)
        assert g.m == 28
        assert g.max_degree == 7

    def test_zero_edges(self):
        assert gnm(5, 0, seed=0).m == 0

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError, match="m must lie"):
            gnm(4, 7, seed=0)

    def test_no_duplicates_or_loops(self):
        g = gnm(30, 200, seed=3)
        validate_graph(g)
        assert g.m == 200


class TestGnp:
    def test_expected_density(self):
        g = gnp(400, 0.05, seed=1)
        expected = 0.05 * 400 * 399 / 2
        assert abs(g.m - expected) < 5 * np.sqrt(expected)

    def test_p_zero_and_one(self):
        assert gnp(20, 0.0, seed=0).m == 0
        assert gnp(10, 1.0, seed=0).m == 45

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            gnp(10, 1.5, seed=0)

    def test_deterministic(self):
        assert gnp(100, 0.1, seed=9) == gnp(100, 0.1, seed=9)


class TestGnpAverageDegree:
    def test_hits_target(self):
        g = gnp_average_degree(2000, 20.0, seed=4)
        assert abs(g.average_degree - 20.0) < 2.0

    def test_trivial_sizes(self):
        assert gnp_average_degree(1, 0.0, seed=0).n == 1
        assert gnp_average_degree(0, 0.0, seed=0).n == 0

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            gnp_average_degree(10, 100.0, seed=0)


class TestPowerLaw:
    def test_valid_and_heavy_tailed(self):
        g = power_law(2000, exponent=2.2, seed=7)
        validate_graph(g)
        assert g.max_degree > 4 * g.average_degree  # heavy tail signature

    def test_deterministic(self):
        assert power_law(200, seed=3) == power_law(200, seed=3)

    def test_min_degree_respected_approximately(self):
        g = power_law(500, min_degree=3, seed=1)
        # erased configuration model loses a few stubs; median holds
        assert np.median(g.degrees) >= 2

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            power_law(100, exponent=0.5, seed=0)

    def test_invalid_degree_bounds(self):
        with pytest.raises(ValueError):
            power_law(100, min_degree=10, max_degree=5, seed=0)

    def test_tiny_n(self):
        assert power_law(1, seed=0).n == 1


class TestStructured:
    def test_star(self):
        g = star(6)
        validate_graph(g)
        assert g.degrees[0] == 5
        assert g.m == 5

    def test_star_minimum(self):
        assert star(1).m == 0
        with pytest.raises(ValueError):
            star(0)

    def test_double_star(self):
        g = double_star(4)
        validate_graph(g)
        assert g.n == 10 and g.m == 9
        assert g.degrees[0] == 5 and g.degrees[1] == 5

    def test_complete_graph(self):
        g = complete_graph(6)
        validate_graph(g)
        assert g.m == 15
        assert (g.degrees == 5).all()

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        validate_graph(g)
        assert g.n == 7 and g.m == 12
        assert g.degrees[:3].tolist() == [4, 4, 4]
        assert g.degrees[3:].tolist() == [3, 3, 3, 3]

    def test_grid(self):
        g = grid_2d(3, 4)
        validate_graph(g)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_grid_single(self):
        assert grid_2d(1, 1).m == 0

    def test_cycle(self):
        g = cycle(7)
        validate_graph(g)
        assert g.m == 7
        assert (g.degrees == 2).all()

    def test_cycle_minimum(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_random_tree(self):
        g = random_tree(50, seed=2)
        validate_graph(g)
        assert g.m == 49  # tree edge count

    def test_disjoint_edges(self):
        g = disjoint_edges(5)
        validate_graph(g)
        assert g.n == 10 and g.m == 5
        assert (g.degrees == 1).all()


class TestPlantedCover:
    def test_planted_set_is_cover(self):
        g = planted_cover(200, 20, 8.0, seed=6)
        validate_graph(g)
        mask = np.zeros(200, dtype=bool)
        mask[:20] = True
        assert g.is_vertex_cover(mask)

    def test_invalid_cover_size(self):
        with pytest.raises(ValueError):
            planted_cover(10, 0, 2.0, seed=0)

    def test_deterministic(self):
        assert planted_cover(100, 10, 4.0, seed=1) == planted_cover(100, 10, 4.0, seed=1)
