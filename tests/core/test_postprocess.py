"""Tests for cover pruning."""

import numpy as np
import pytest

from repro.baselines.exact import exact_mwvc
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.postprocess import (
    _csr_gather,
    greedy_prune_pass,
    prune_redundant_vertices,
)
from repro.graphs.generators import complete_graph, gnp_average_degree, star
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights

from tests.oracles import is_minimal_cover


class TestPruneRedundant:
    def test_full_cover_shrinks(self, triangle):
        pruned = prune_redundant_vertices(triangle, np.ones(3, dtype=bool))
        assert triangle.is_vertex_cover(pruned)
        assert pruned.sum() == 2  # triangle needs exactly 2

    def test_star_all_vertices(self):
        g = star(6)
        pruned = prune_redundant_vertices(g, np.ones(6, dtype=bool))
        assert g.is_vertex_cover(pruned)
        assert pruned.sum() == 1 and pruned[0]  # hub survives

    def test_drops_least_effective_first(self):
        g = complete_graph(3).with_weights(np.array([1.0, 2.0, 100.0]))
        pruned = prune_redundant_vertices(g, np.ones(3, dtype=bool))
        assert not pruned[2]  # worst weight-per-edge goes first

    def test_isolated_cover_vertices_dropped(self):
        g = WeightedGraph.from_edge_list(4, [(0, 1)])
        mask = np.array([True, False, True, True])
        pruned = prune_redundant_vertices(g, mask)
        assert pruned.tolist() == [True, False, False, False]

    def test_never_heavier(self, medium_random):
        res = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=1)
        pruned = prune_redundant_vertices(medium_random, res.in_cover)
        assert medium_random.is_vertex_cover(pruned)
        assert (
            medium_random.cover_weight(pruned)
            <= medium_random.cover_weight(res.in_cover) + 1e-12
        )

    def test_result_minimal(self, medium_random):
        res = minimum_weight_vertex_cover(medium_random, eps=0.1, seed=2)
        pruned = prune_redundant_vertices(medium_random, res.in_cover)
        assert is_minimal_cover(medium_random, pruned)

    def test_non_cover_rejected(self, triangle):
        with pytest.raises(ValueError, match="not a vertex cover"):
            prune_redundant_vertices(triangle, np.zeros(3, dtype=bool))

    def test_input_unchanged(self, triangle):
        mask = np.ones(3, dtype=bool)
        prune_redundant_vertices(triangle, mask)
        assert mask.all()

    def test_improves_mpc_covers_measurably(self):
        """On random graphs the primal–dual cover carries real slack."""
        g = gnp_average_degree(800, 20.0, seed=3)
        g = g.with_weights(uniform_weights(g.n, seed=4))
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=5)
        pruned = prune_redundant_vertices(g, res.in_cover)
        assert g.cover_weight(pruned) < res.cover_weight

    def test_preserves_optimality(self):
        """Pruning an optimal cover keeps it optimal (never below OPT)."""
        for seed in range(3):
            g = gnp_average_degree(24, 4.0, seed=seed)
            g = g.with_weights(uniform_weights(g.n, 1.0, 5.0, seed=seed + 7))
            opt = exact_mwvc(g)
            pruned = prune_redundant_vertices(g, opt.in_cover)
            assert g.cover_weight(pruned) == pytest.approx(opt.opt_weight)


class TestIsMinimal:
    def test_non_cover_not_minimal(self, triangle):
        assert not is_minimal_cover(triangle, np.zeros(3, dtype=bool))

    def test_full_triangle_not_minimal(self, triangle):
        assert not is_minimal_cover(triangle, np.ones(3, dtype=bool))

    def test_two_of_three_minimal(self, triangle):
        assert is_minimal_cover(triangle, np.array([True, True, False]))


class TestWeightedTies:
    """Tie-breaking is by vertex id, so pruning is fully deterministic."""

    def test_equal_weight_tie_drops_lowest_id(self):
        # Triangle, all weights equal: every vertex is droppable first;
        # the id tie-break must pick vertex 0.
        g = complete_graph(3).with_weights(np.array([2.0, 2.0, 2.0]))
        pruned = prune_redundant_vertices(g, np.ones(3, dtype=bool))
        assert pruned.tolist() == [False, True, True]

    def test_tied_effectiveness_different_degrees(self):
        # Path 0-1-2-3 (+ extra edge 1-3): w/deg ties between several
        # vertices; result must still be a minimal cover and deterministic.
        g = WeightedGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (1, 3)],
                                         np.array([1.0, 2.0, 2.0, 2.0]))
        pruned = prune_redundant_vertices(g, np.ones(4, dtype=bool))
        repeat = prune_redundant_vertices(g, np.ones(4, dtype=bool))
        assert (pruned == repeat).all()
        assert is_minimal_cover(g, pruned)

    def test_weighted_tie_prefers_heavier_per_edge(self):
        # Star with hub weight 3 (deg 3 → 1.0 each) and leaves weight 1
        # (deg 1 → 1.0 each): all tie at w/deg = 1; id order drops the hub
        # first, then the leaves are locked in.
        g = star(4).with_weights(np.array([3.0, 1.0, 1.0, 1.0]))
        pruned = prune_redundant_vertices(g, np.ones(4, dtype=bool))
        assert pruned.tolist() == [False, True, True, True]


class TestIsolatedVertices:
    def test_only_isolated_vertices(self):
        g = WeightedGraph.empty(5)
        pruned = prune_redundant_vertices(g, np.ones(5, dtype=bool))
        assert not pruned.any()

    def test_isolated_lead_regardless_of_weight(self):
        # An isolated vertex with tiny weight still goes before any
        # connected vertex (it covers nothing at all).
        g = WeightedGraph.from_edge_list(3, [(0, 1)],
                                         np.array([5.0, 5.0, 0.001]))
        pruned = prune_redundant_vertices(g, np.ones(3, dtype=bool))
        assert not pruned[2]
        assert is_minimal_cover(g, pruned)

    def test_isolated_outside_cover_untouched(self):
        g = WeightedGraph.from_edge_list(3, [(0, 1)])
        mask = np.array([True, True, False])
        pruned = prune_redundant_vertices(g, mask)
        assert not pruned[2]


def _restricted_sweep(graph, cover, candidates):
    """:func:`greedy_prune_pass` over ``graph``'s CSR, as the
    maintainer's restricted sweep runs it over a batch's touched set."""
    return greedy_prune_pass(
        np.asarray(candidates, dtype=np.int64),
        weights=graph.weights,
        cover=cover,
        degrees_of=lambda ids: graph.degrees[ids],
        gather=_csr_gather(graph),
    )


class TestGreedyPrunePass:
    """The restricted sweep of the incremental hot path."""

    def test_non_candidates_keep_state(self):
        g = complete_graph(3)
        cover = np.ones(3, dtype=bool)
        # Only vertex 2 may be dropped; 0 and 1 stay even though a full
        # sweep would drop one of them too.
        assert _restricted_sweep(g, cover, [2]) == [2]
        assert cover.tolist() == [True, True, False]

    def test_full_candidates_match_unrestricted(self):
        g = gnp_average_degree(200, 8.0, seed=6)
        g = g.with_weights(uniform_weights(g.n, seed=7))
        res = minimum_weight_vertex_cover(g, eps=0.1, seed=8)
        full = prune_redundant_vertices(g, res.in_cover)
        cover = res.in_cover.copy()
        pruned = _restricted_sweep(g, cover, np.arange(g.n))
        assert (cover == full).all()
        assert sorted(pruned) == np.flatnonzero(res.in_cover & ~full).tolist()

    def test_empty_candidates_is_identity(self, triangle):
        cover = np.ones(3, dtype=bool)
        assert _restricted_sweep(triangle, cover, []) == []
        assert cover.all()

    def test_uncovered_candidates_are_skipped(self):
        g = star(6)
        cover = np.array([True, False, False, True, False, False])
        # Vertex 1 is outside the cover; leaf 3 is redundant beside the hub.
        assert _restricted_sweep(g, cover, [1, 3]) == [3]
        assert cover.tolist() == [True, False, False, False, False, False]

    def test_a_drop_locks_its_neighbors(self):
        g = star(6)
        cover = np.ones(6, dtype=bool)
        # Leaves (w/deg = 1) go before the hub (1/5); dropping leaf 1
        # locks the hub, which now alone covers edge (0, 1).
        assert _restricted_sweep(g, cover, np.arange(6)) == [1, 2, 3, 4, 5]
        assert g.is_vertex_cover(cover) and cover.tolist() == [True] + [False] * 5
