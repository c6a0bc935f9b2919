"""Property-based cross-engine equivalence on arbitrary graphs.

The deterministic coupling between the vectorized and cluster engines must
hold for *any* input, not just the benchmark families; hypothesis hunts for
structural corner cases (dangling vertices, near-cliques, duplicate-heavy
edge draws) that break the message protocol.  Each property runs on float
weights and on tie-prone ones (``[ties]``: unit and dyadic weights, most of
them repeated), where a load that equals its weight exactly is common; the
circulant graphs are exactly regular, so with tied weights every vertex and
edge starts alike.

Plain runs use the counts below; ``--hypothesis-profile=deep`` runs the
deep profile's count (see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mpc_mwvc import minimum_weight_vertex_cover

from tests.properties.strategies import circulant_graphs, profile_examples, weighted_graphs

TIES = pytest.mark.parametrize("ties", [False, True], ids=["floats", "ties"])


def _assert_engines_agree(g, seed):
    rv = minimum_weight_vertex_cover(g, eps=0.1, seed=seed, engine="vectorized")
    rc = minimum_weight_vertex_cover(g, eps=0.1, seed=seed, engine="cluster")
    assert np.array_equal(rv.in_cover, rc.in_cover)
    assert np.array_equal(rv.x, rc.x)
    assert rv.mpc_rounds == rc.mpc_rounds
    assert rv.num_phases == rc.num_phases
    assert rv.phases == rc.phases
    assert rv.verify(g) and rc.verify(g)


class TestEngineEquivalenceProperties:
    @TIES
    @settings(max_examples=profile_examples(15), deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_engines_agree_on_arbitrary_graphs(self, data, seed, ties):
        g = data.draw(weighted_graphs(min_n=2, max_n=40, max_edge_factor=6, ties=ties))
        _assert_engines_agree(g, seed)

    @TIES
    @settings(max_examples=profile_examples(15), deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    def test_engines_agree_on_circulant_graphs(self, data, seed, ties):
        g = data.draw(circulant_graphs(min_n=16, max_n=160, ties=ties))
        assert g.m == 0 or g.degrees.min() == g.degrees.max()
        _assert_engines_agree(g, seed)
