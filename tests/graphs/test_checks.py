"""Tests for the independent invariant validator."""

import numpy as np
import pytest

from repro.graphs.generators import gnp_average_degree, power_law
from repro.graphs.graph import WeightedGraph

from tests.oracles import GraphInvariantError, validate_graph


class TestValidateGraph:
    def test_valid_graphs_pass(self, named_graph):
        validate_graph(named_graph)

    def test_random_graphs_pass(self):
        validate_graph(gnp_average_degree(300, 10.0, seed=1))
        validate_graph(power_law(300, seed=2))

    def test_empty_passes(self):
        validate_graph(WeightedGraph.empty(0))
        validate_graph(WeightedGraph.empty(7))

    def test_tampered_weights_detected(self, triangle):
        # Bypass immutability through the private attribute, as a bug would.
        w = np.array([1.0, -1.0, 1.0])
        object.__setattr__
        tampered = WeightedGraph.from_edge_list(3, [(0, 1)])
        tampered._weights = w  # type: ignore[attr-defined]
        with pytest.raises(GraphInvariantError, match="I5"):
            validate_graph(tampered)

    def test_tampered_degrees_detected(self, triangle):
        bad = np.array([9, 9, 9], dtype=np.int64)
        triangle._degrees = bad  # type: ignore[attr-defined]
        with pytest.raises(GraphInvariantError, match="I6"):
            validate_graph(triangle)

    def test_tampered_edges_detected(self, path4):
        eu = path4.edges_u.copy()
        eu.setflags(write=True)
        eu[0] = 3  # breaks u < v
        path4._edges_u = eu  # type: ignore[attr-defined]
        with pytest.raises(GraphInvariantError):
            validate_graph(path4)
