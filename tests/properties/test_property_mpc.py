"""Property-based tests of the MPC substrate and phase kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import MPCParameters
from repro.core.phase_kernel import (
    GlobalState,
    apply_outcome,
    plan_phase,
    simulate_phase_vectorized,
)
from repro.mpc.message import payload_words
from repro.mpc.partition import random_assignment

from tests.properties.strategies import profile_examples, seeds, weighted_graphs


class TestPartitionProperties:
    @given(seeds, st.integers(0, 500), st.integers(1, 20))
    def test_assignment_is_partition(self, seed, items, machines):
        a = random_assignment(np.random.default_rng(seed), items, machines)
        counts = np.bincount(a, minlength=machines)
        assert counts.sum() == items
        assert (counts >= 0).all()


class TestPayloadWordsProperties:
    @given(st.integers(0, 200))
    def test_array_size(self, k):
        assert payload_words(np.zeros(k)) == k

    @given(st.lists(st.integers(-5, 5), max_size=20))
    def test_list_additive(self, xs):
        assert payload_words(xs) == len(xs)


class TestPhaseKernelProperties:
    @given(weighted_graphs(min_n=2, max_n=30), seeds)
    @settings(max_examples=30, deadline=None)
    def test_phase_preserves_invariants(self, g, seed):
        """One phase on an arbitrary graph keeps all GlobalState invariants
        (validated inside apply_outcome) and never un-freezes a vertex."""
        params = MPCParameters(eps=0.1)
        state = GlobalState.initial(g, g.weights)
        plan = plan_phase(
            g, state, params, phase_index=0, partition_seed=seed, threshold_seed=seed + 1
        )
        outcome = simulate_phase_vectorized(plan, params)
        apply_outcome(g, g.weights, state, plan, outcome)
        assert (state.wprime >= 0).all()
        live = state.nonfrozen_edge_mask(g)
        assert np.array_equal(state.resid_degree, g.incident_counts(live))

    @given(weighted_graphs(min_n=2, max_n=30), seeds)
    @settings(max_examples=30, deadline=None)
    def test_freeze_iters_bounded(self, g, seed):
        params = MPCParameters(eps=0.1)
        state = GlobalState.initial(g, g.weights)
        plan = plan_phase(
            g, state, params, phase_index=0, partition_seed=seed, threshold_seed=seed + 1
        )
        outcome = simulate_phase_vectorized(plan, params)
        assert (outcome.freeze_iter >= 0).all()
        assert (outcome.freeze_iter <= plan.iterations).all()
        assert (outcome.x_high >= 0).all()

    @given(weighted_graphs(min_n=2, max_n=30), seeds)
    @settings(max_examples=30, deadline=None)
    def test_x_high_growth_bounded(self, g, seed):
        """Line (2h) duals never exceed x0 / (1-ε)^I."""
        params = MPCParameters(eps=0.1)
        state = GlobalState.initial(g, g.weights)
        plan = plan_phase(
            g, state, params, phase_index=0, partition_seed=seed, threshold_seed=seed + 1
        )
        outcome = simulate_phase_vectorized(plan, params)
        cap = plan.x0 / (1 - params.eps) ** plan.iterations
        assert (outcome.x_high <= cap * (1 + 1e-12)).all()
        assert (outcome.x_high >= plan.x0 * (1 - 1e-12)).all()


class TestPhaseInvariantProperties:
    @pytest.mark.parametrize("ties", [False, True], ids=["floats", "ties"])
    @settings(max_examples=profile_examples(30), deadline=None)
    @given(data=st.data(), seed=seeds)
    def test_live_index_matches_the_state_after_every_phase(self, data, seed, ties):
        """The live-edge index and its endpoints equal what the frozen flags
        give, and the residual degrees and weights equal their whole-graph
        definitions bit for bit, after each of several phases."""
        g = data.draw(weighted_graphs(min_n=2, max_n=30, ties=ties))
        params = MPCParameters(eps=0.1)
        state = GlobalState.initial(g, g.weights)
        for phase in range(4):
            plan = plan_phase(
                g, state, params, phase_index=phase,
                partition_seed=seed + 2 * phase, threshold_seed=seed + 2 * phase + 1,
            )
            apply_outcome(g, g.weights, state, plan, simulate_phase_vectorized(plan, params))
            live_mask = state.nonfrozen_edge_mask(g)
            live = np.flatnonzero(live_mask)
            assert np.array_equal(state.live_edges, live)
            assert np.array_equal(state.live_u, g.edges_u[live])
            assert np.array_equal(state.live_v, g.edges_v[live])
            assert state.nonfrozen_edge_count(g) == live.size
            assert np.array_equal(state.resid_degree, g.incident_counts(live_mask))
            nonfrozen = ~state.frozen
            expected = np.maximum(g.weights - g.incident_sums(state.x_final), 0.0)
            assert np.array_equal(state.wprime[nonfrozen], expected[nonfrozen])
            if not live.size:
                break
