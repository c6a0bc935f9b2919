"""Cluster-engine runs on adversarial structures.

The cluster engine's message paths (routing, gathers, finalization) are the
most intricate code in the repository; these tests push graph shapes that
stress unusual branches: hub-dominated stars, disconnected graphs, graphs
with isolated vertices, and dense-but-tiny cliques — always checking
agreement with the vectorized engine.
"""

import numpy as np
import pytest

import repro.core.engine_cluster as engine_cluster
from repro.core import accounting
from repro.core.engine_cluster import ClusterEngine
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.params import MPCParameters
from repro.core.phase_kernel import GlobalState, apply_outcome, plan_phase
from repro.graphs.generators import (
    complete_graph,
    disjoint_edges,
    gnp_average_degree,
    power_law,
    star,
)
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import adversarial_spread_weights, uniform_weights
from repro.mpc.exceptions import MPCError


def _agree(graph, seed=0, eps=0.1):
    rv = minimum_weight_vertex_cover(graph, eps=eps, seed=seed, engine="vectorized")
    rc = minimum_weight_vertex_cover(graph, eps=eps, seed=seed, engine="cluster")
    assert rv.verify(graph) and rc.verify(graph)
    assert np.array_equal(rv.in_cover, rc.in_cover)
    assert rv.mpc_rounds == rc.mpc_rounds
    return rv


class TestClusterEdgeCases:
    def test_dense_star(self):
        """A 600-leaf star: the hub's degree dwarfs d̄, V^high is tiny."""
        _agree(star(601), seed=1)

    def test_small_clique(self):
        _agree(complete_graph(30), seed=2)

    def test_disconnected_matching(self):
        """Hundreds of disjoint edges: avg degree 1, straight to the final
        phase even through the cluster protocol."""
        res = _agree(disjoint_edges(300), seed=3)
        assert res.num_phases == 0

    def test_isolated_vertices(self):
        g = gnp_average_degree(200, 12.0, seed=4)
        padded = WeightedGraph(
            g.n + 40,
            g.edges_u,
            g.edges_v,
            np.concatenate([g.weights, np.ones(40)]),
        )
        res = _agree(padded, seed=5)
        assert not res.in_cover[g.n :].any()

    def test_wild_weights(self):
        g = gnp_average_degree(250, 16.0, seed=6)
        g = g.with_weights(adversarial_spread_weights(g.n, 9.0, seed=7))
        _agree(g, seed=8)

    def test_two_dense_blobs(self):
        """Two disconnected dense communities (tests routing when the
        partition spreads two unrelated subgraphs over the same machines)."""
        a = complete_graph(40)
        us = np.concatenate([a.edges_u, a.edges_u + 40])
        vs = np.concatenate([a.edges_v, a.edges_v + 40])
        g = WeightedGraph(80, us, vs)
        _agree(g, seed=9)

    @pytest.mark.parametrize("eps", [0.05, 0.2])
    def test_eps_extremes(self, eps):
        g = gnp_average_degree(220, 14.0, seed=10)
        _agree(g, seed=11, eps=eps)

    def test_capacity_squeeze_raises_mpc_error(self):
        """An unreasonably small memory factor must produce a model
        violation, not a wrong answer."""
        g = gnp_average_degree(300, 20.0, seed=70)
        g = g.with_weights(uniform_weights(g.n, seed=71))
        params = MPCParameters(eps=0.1, memory_factor=0.05)
        with pytest.raises(MPCError):
            minimum_weight_vertex_cover(g, params=params, seed=74, engine="cluster")


def _after_one_phase(g, seed=0):
    """A cluster engine and the orchestrator's state after phase 0, with
    the engine's step-G state not yet audited."""
    params = MPCParameters(eps=0.1)
    capacity = params.machine_capacity_words(g.n)
    workers = accounting.cluster_width(
        n=g.n, m_edges=g.m, initial_machines=params.num_machines(g.average_degree),
        capacity=capacity,
    )
    eng = ClusterEngine(g, g.weights, params, workers, capacity)
    state = GlobalState.initial(g, g.weights)
    plan = plan_phase(
        g, state, params, phase_index=0, partition_seed=seed, threshold_seed=seed + 1,
        max_machines=workers,
    )
    eng.sync_state(state.wprime, state.resid_degree, state.frozen)
    apply_outcome(g, g.weights, state, plan, eng.run_phase(plan))
    return eng, state


@pytest.fixture
def multi_phase_graph():
    g = power_law(2000, 2.1, min_degree=6, seed=3)
    return g.with_weights(uniform_weights(g.n, seed=4))


class TestStepGAudit:
    """The coordinator's step-G state is checked against the orchestrator's
    before the next phase (and after the last one) installs the latter."""

    def test_a_step_g_partial_that_drops_one_edge_is_caught(self, multi_phase_graph, monkeypatch):
        """Step G's only count (``x is None``) is the live-edge count; the
        first worker's partial leaves out its first live edge."""
        exact = engine_cluster.endpoint_sums
        dropped = []

        def drop_one(pu, pv, x, size):
            if x is None and not dropped:
                dropped.append((int(pu[0]), int(pv[0])))
                return exact(pu[1:], pv[1:], None, size)
            return exact(pu, pv, x, size)

        monkeypatch.setattr(engine_cluster, "endpoint_sums", drop_one)
        with pytest.raises(AssertionError, match="phase 0 step-G residual degrees"):
            minimum_weight_vertex_cover(multi_phase_graph, seed=5, engine="cluster")
        assert dropped

    def test_a_wrong_residual_weight_is_caught(self, multi_phase_graph):
        eng, state = _after_one_phase(multi_phase_graph)
        v = int(np.flatnonzero(~state.frozen)[0])
        eng.cluster.machine(0).load("phase_state")["wprime"][v] *= 1.0 + 1e-6
        with pytest.raises(AssertionError, match="phase 0 step-G residual weights"):
            eng.sync_state(state.wprime, state.resid_degree, state.frozen)

    def test_the_audit_passes_and_runs_once(self, multi_phase_graph):
        eng, state = _after_one_phase(multi_phase_graph)
        eng.sync_state(state.wprime, state.resid_degree, state.frozen)
        # The orchestrator's state is installed: a second sync has nothing
        # left to audit, even against a different state.
        eng.sync_state(state.wprime, state.resid_degree + 1, state.frozen)

    @pytest.mark.parametrize("depleted", [True, False])
    def test_only_depleted_vertices_may_freeze_after_step_g(self, multi_phase_graph, depleted):
        """The orchestrator's depleted-weight guard runs after step G: a
        vertex it froze must be depleted by step G's own w'."""
        g = multi_phase_graph
        eng, state = _after_one_phase(g)
        v = int(g.edges_u[state.live_edges[0]])
        state.frozen[v] = True
        state.resid_degree = g.incident_counts(state.nonfrozen_edge_mask(g))
        if depleted:
            eng.cluster.machine(0).load("phase_state")["wprime"][v] = 0.0
            eng.sync_state(state.wprime, state.resid_degree, state.frozen)
        else:
            with pytest.raises(AssertionError, match="phase 0 step-G nonfrozen masks"):
                eng.sync_state(state.wprime, state.resid_degree, state.frozen)
