"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graphs.generators import (
    complete_bipartite,
    complete_graph,
    cycle,
    disjoint_edges,
    double_star,
    gnp_average_degree,
    grid_2d,
    power_law,
    random_tree,
    star,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights

#: Opt-in deep campaign (``--hypothesis-profile=deep``): the properties
#: sized by ``tests.properties.strategies.profile_examples`` run this many
#: examples instead of their plain-run counts.
settings.register_profile("deep", max_examples=1500, deadline=None)


@pytest.fixture
def triangle() -> WeightedGraph:
    """K_3 with unit weights; OPT = 2 (any two vertices)."""
    return WeightedGraph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def weighted_star() -> WeightedGraph:
    """Star with heavy hub (w=10) and 5 light leaves (w=1 each); OPT = 5
    (all leaves beat the hub)."""
    g = star(6)
    return g.with_weights(np.array([10.0, 1.0, 1.0, 1.0, 1.0, 1.0]))


@pytest.fixture
def cheap_hub_star() -> WeightedGraph:
    """Star with light hub (w=1) and 5 heavy leaves (w=10 each); OPT = 1."""
    g = star(6)
    return g.with_weights(np.array([1.0, 10.0, 10.0, 10.0, 10.0, 10.0]))


@pytest.fixture
def path4() -> WeightedGraph:
    """Path 0-1-2-3 with unit weights; OPT = 2 ({1, 2})."""
    return WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def small_random() -> WeightedGraph:
    """Seeded 60-vertex random graph with uniform random weights."""
    g = gnp_average_degree(60, 6.0, seed=42)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=43))


@pytest.fixture
def medium_random() -> WeightedGraph:
    """Seeded 800-vertex random graph with uniform random weights."""
    g = gnp_average_degree(800, 20.0, seed=7)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=8))


@pytest.fixture(
    params=["triangle", "star8", "bipartite", "grid", "cycle9", "matching", "tree", "double_star", "powerlaw"]
)
def named_graph(request) -> WeightedGraph:
    """A zoo of structured graphs for parametrized validity tests."""
    name = request.param
    if name == "triangle":
        return complete_graph(3)
    if name == "star8":
        return star(8)
    if name == "bipartite":
        return complete_bipartite(3, 5)
    if name == "grid":
        return grid_2d(4, 5)
    if name == "cycle9":
        return cycle(9)
    if name == "matching":
        return disjoint_edges(6)
    if name == "tree":
        return random_tree(30, seed=5)
    if name == "double_star":
        return double_star(6)
    if name == "powerlaw":
        return power_law(80, seed=11)
    raise AssertionError(name)
