"""Property-based cross-engine equivalence on arbitrary graphs.

The deterministic coupling between the vectorized and cluster engines must
hold for *any* input, not just the benchmark families; hypothesis hunts for
structural corner cases (dangling vertices, near-cliques, duplicate-heavy
edge draws) that break the message protocol.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpc_mwvc import minimum_weight_vertex_cover

from tests.properties.strategies import weighted_graphs


class TestEngineEquivalenceProperties:
    @given(weighted_graphs(min_n=2, max_n=40, max_edge_factor=6), st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_engines_agree_on_arbitrary_graphs(self, g, seed):
        rv = minimum_weight_vertex_cover(g, eps=0.1, seed=seed, engine="vectorized")
        rc = minimum_weight_vertex_cover(g, eps=0.1, seed=seed, engine="cluster")
        assert np.array_equal(rv.in_cover, rc.in_cover)
        assert np.array_equal(rv.x, rc.x)
        assert rv.mpc_rounds == rc.mpc_rounds
        assert rv.verify(g) and rc.verify(g)
