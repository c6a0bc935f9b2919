"""Property-based tests for redundancy pruning."""

from hypothesis import given, settings

from repro.baselines.pricing import pricing_vertex_cover
from repro.core.postprocess import prune_redundant_vertices

from tests.oracles import is_minimal_cover
from tests.properties.strategies import seeds, weighted_graphs


class TestPruningProperties:
    @given(weighted_graphs(), seeds)
    @settings(max_examples=40)
    def test_pruning_preserves_cover_and_weight(self, g, seed):
        base = pricing_vertex_cover(g).in_cover
        pruned = prune_redundant_vertices(g, base)
        assert g.is_vertex_cover(pruned)
        assert g.cover_weight(pruned) <= g.cover_weight(base) + 1e-12
        assert (pruned <= base).all()  # subset

    @given(weighted_graphs(), seeds)
    @settings(max_examples=40)
    def test_pruned_is_minimal(self, g, seed):
        base = pricing_vertex_cover(g).in_cover
        pruned = prune_redundant_vertices(g, base)
        assert is_minimal_cover(g, pruned)
