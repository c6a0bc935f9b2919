"""Tests for the phase kernel: planning, simulation, state folding."""

import math

import numpy as np
import pytest

from repro.core.params import MPCParameters
from repro.core.phase_kernel import (
    GlobalState,
    apply_outcome,
    final_duals,
    local_iterations,
    plan_phase,
    safety_check,
    simulate_phase_vectorized,
    split_high,
)
from repro.core.thresholds import ThresholdSampler
from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import uniform_weights


@pytest.fixture
def setup():
    g = gnp_average_degree(400, 24.0, seed=3)
    g = g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=4))
    params = MPCParameters(eps=0.1)
    state = GlobalState.initial(g, g.weights)
    plan = plan_phase(
        g, state, params, phase_index=0, partition_seed=11, threshold_seed=22
    )
    return g, params, state, plan


class TestGlobalState:
    def test_initial(self, setup):
        g, _, state, _ = setup
        assert not state.frozen.any()
        assert np.array_equal(state.resid_degree, g.degrees)
        assert state.nonfrozen_edge_count(g) == g.m
        assert state.average_residual_degree(g) == pytest.approx(g.average_degree)

    def test_average_degree_denominator_is_n(self, setup):
        """Paper footnote 4: d̄ divides by n even after freezing."""
        g, _, state, _ = setup
        state.frozen[:200] = True
        fu, fv = g.endpoint_values(state.frozen)
        live = ~(fu | fv)
        state.resid_degree = g.incident_counts(live)
        expected = state.resid_degree[~state.frozen].sum() / g.n
        assert state.average_residual_degree(g) == pytest.approx(expected)


class TestPlanPhase:
    def test_high_low_split(self, setup):
        g, params, state, plan = setup
        cutoff = params.high_degree_cutoff(g.average_degree)
        assert plan.cutoff == pytest.approx(cutoff)
        expected_high = np.nonzero(g.degrees >= cutoff)[0]
        assert np.array_equal(plan.high_ids, expected_high)
        assert plan.num_inactive == g.n - expected_high.size

    def test_machines_and_iterations(self, setup):
        g, params, _, plan = setup
        assert plan.num_machines == params.num_machines(g.average_degree)
        assert plan.iterations == params.iterations_per_phase(
            g.average_degree, plan.num_machines
        )

    def test_max_machines_clamp(self, setup):
        g, params, state, _ = setup
        plan = plan_phase(
            g, state, params, phase_index=0, partition_seed=1, threshold_seed=2,
            max_machines=2,
        )
        assert plan.num_machines == 2
        assert plan.assignment.max() < 2

    def test_edges_high_both_endpoints_high(self, setup):
        g, _, _, plan = setup
        is_high = np.zeros(g.n, dtype=bool)
        is_high[plan.high_ids] = True
        eu = g.edges_u[plan.edges_high]
        ev = g.edges_v[plan.edges_high]
        assert is_high[eu].all() and is_high[ev].all()

    def test_local_positions_align(self, setup):
        g, _, _, plan = setup
        assert np.array_equal(plan.high_ids[plan.hu], g.edges_u[plan.edges_high])
        assert np.array_equal(plan.high_ids[plan.hv], g.edges_v[plan.edges_high])

    def test_x0_formula(self, setup):
        """Line (2c): x0 = min(w'(u)/d(u), w'(v)/d(v)) with residual values."""
        g, _, state, plan = setup
        ratio = state.wprime / np.maximum(state.resid_degree, 1)
        expected = np.minimum(
            ratio[g.edges_u[plan.edges_high]], ratio[g.edges_v[plan.edges_high]]
        )
        assert np.array_equal(plan.x0, expected)

    def test_x0_valid_within_phase(self, setup):
        """Σ_{e∈E_high ∋ v} x0 ≤ w'(v) (validity inside the phase)."""
        g, _, state, plan = setup
        loads = np.bincount(plan.hu, weights=plan.x0, minlength=plan.num_high)
        loads += np.bincount(plan.hv, weights=plan.x0, minlength=plan.num_high)
        assert (loads <= plan.wprime_high * (1 + 1e-12)).all()

    def test_deterministic_given_seeds(self, setup):
        g, params, state, plan = setup
        plan2 = plan_phase(
            g, state, params, phase_index=0, partition_seed=11, threshold_seed=22
        )
        assert np.array_equal(plan.assignment, plan2.assignment)
        assert np.array_equal(plan.x0, plan2.x0)


class TestSimulate:
    def test_freeze_iter_range(self, setup):
        _, params, _, plan = setup
        out = simulate_phase_vectorized(plan, params)
        assert out.freeze_iter.min() >= 0
        assert out.freeze_iter.max() <= plan.iterations

    def test_x_high_formula(self, setup):
        """Line (2h): x = x0/(1-ε)^t' with t' = min endpoint freeze."""
        _, params, _, plan = setup
        out = simulate_phase_vectorized(plan, params)
        tprime = np.minimum(out.freeze_iter[plan.hu], out.freeze_iter[plan.hv])
        expected = plan.x0 * (1 / (1 - params.eps)) ** tprime
        assert np.allclose(out.x_high, expected)

    def test_y_mpc_is_incident_sum(self, setup):
        _, params, _, plan = setup
        out = simulate_phase_vectorized(plan, params)
        y = np.bincount(plan.hu, weights=out.x_high, minlength=plan.num_high)
        y += np.bincount(plan.hv, weights=out.x_high, minlength=plan.num_high)
        assert np.allclose(out.y_mpc, y)

    def test_safety_freeze_condition(self, setup):
        """Line (2i): exactly the active vertices with y ≥ w' freeze."""
        _, params, _, plan = setup
        out = simulate_phase_vectorized(plan, params)
        active = out.freeze_iter == plan.iterations
        expected = active & (out.y_mpc >= plan.wprime_high)
        assert np.array_equal(out.safety_frozen, expected)

    def test_machine_edge_counts(self, setup):
        _, params, _, plan = setup
        out = simulate_phase_vectorized(plan, params)
        au = plan.assignment[plan.hu]
        av = plan.assignment[plan.hv]
        local = au == av
        assert out.machine_edge_counts.sum() == local.sum()
        assert out.machine_edge_counts.shape == (plan.num_machines,)

    def test_trace_collected(self, setup):
        _, params, _, plan = setup
        out = simulate_phase_vectorized(plan, params, trace=True)
        assert len(out.trace_ytilde) == plan.iterations
        assert out.trace_ytilde[0].shape == (plan.num_high,)
        assert out.trace_active[0].all()  # everyone active at t=0

    def test_deterministic(self, setup):
        _, params, _, plan = setup
        a = simulate_phase_vectorized(plan, params)
        b = simulate_phase_vectorized(plan, params)
        assert np.array_equal(a.freeze_iter, b.freeze_iter)
        assert np.array_equal(a.x_high, b.x_high)


class TestSplitHigh:
    def test_frozen_and_low_vertices_excluded(self):
        """Lines (2a)–(2b): V^high is the nonfrozen vertices at or above the
        cutoff; ``pos`` indexes the ascending ids, ``-1`` elsewhere."""
        nonfrozen = np.array([True, False, True, True, True])
        resid = np.array([5, 9, 0, 2, 3])
        wprime = np.array([10.0, 4.0, 3.0, 8.0, 6.0])
        is_high, high_ids, pos, ratio = split_high(nonfrozen, resid, wprime, 3.0)
        assert np.array_equal(is_high, [True, False, False, False, True])
        assert np.array_equal(high_ids, [0, 4])
        assert np.array_equal(pos, [0, -1, -1, -1, 1])
        assert np.array_equal(ratio, [2.0, 4.0 / 9.0, np.inf, 4.0, 2.0])


class TestFinalDuals:
    def test_growth_by_earlier_endpoint_freeze(self):
        """Line (2h): an edge grows until its first endpoint freezes; an
        edge whose endpoints never froze grows every iteration."""
        growth = 1 / (1 - 0.1)
        freeze_iter = np.array([0, 2, 5, 5])  # 5 == iterations: never froze
        pu = np.array([0, 1, 2, 1])
        pv = np.array([1, 2, 3, 3])
        x0 = np.array([1.0, 2.0, 0.5, 4.0])
        x = final_duals(x0, freeze_iter, pu, pv, growth)
        assert np.array_equal(x, x0 * growth ** np.array([0.0, 2.0, 5.0, 2.0]))
        assert x[0] == x0[0]


class TestSafetyCheck:
    def test_is_what_simulate_reports(self, setup):
        _, params, _, plan = setup
        out = simulate_phase_vectorized(plan, params)
        x_high, y_mpc, safety = safety_check(plan, out.freeze_iter, params.growth_factor())
        assert np.array_equal(x_high, out.x_high)
        assert np.array_equal(y_mpc, out.y_mpc)
        assert np.array_equal(safety, out.safety_frozen)

    def test_tie_is_decided_on_the_edge_order_sum(self):
        """Line (2i) on K_11 with unit weights: vertex 0 alone survives and
        its ten edges keep x0 = 0.1.  Their sum in edge order rounds to just
        below 1 (the correctly rounded sum is 1), so it is not frozen."""
        k = 11
        u, v = np.triu_indices(k, 1)
        g = WeightedGraph(k, u, v)
        params = MPCParameters(eps=0.1)
        plan = plan_phase(
            g, GlobalState.initial(g, g.weights), params,
            phase_index=0, partition_seed=1, threshold_seed=2,
        )
        assert plan.num_high == k and np.all(plan.x0 == 0.1)
        freeze_iter = np.zeros(k, dtype=np.int64)
        freeze_iter[0] = plan.iterations
        _, y_mpc, safety = safety_check(plan, freeze_iter, params.growth_factor())
        assert y_mpc[0] == sum([0.1] * 10) < 1.0 == math.fsum([0.1] * 10)
        assert not safety.any()


class TestLocalIterations:
    def test_machines_one_at_a_time_equal_all_at_once(self, setup):
        """The union over machines is disjoint: each machine's run on its
        own local edges and vertices reproduces the all-machine run."""
        _, params, _, plan = setup
        owner = plan.assignment[plan.hu]
        local = owner == plan.assignment[plan.hv]
        sampler = ThresholdSampler(plan.threshold_seed, plan.num_high, params.eps)
        args = (sampler, params, plan.num_machines, plan.iterations)
        x0 = plan.x0[local]
        every = np.ones(plan.num_high, dtype=bool)
        whole, ys, actives = local_iterations(
            plan.hu[local], plan.hv[local], x0, every, plan.wprime_high, *args, trace=True
        )
        assert plan.iterations > 1 and (whole < plan.iterations).any()
        for s in range(plan.num_machines):
            mine = plan.assignment == s
            on_s = owner[local] == s
            part, ys_s, actives_s = local_iterations(
                plan.hu[local][on_s], plan.hv[local][on_s], x0[on_s], mine,
                plan.wprime_high, *args, trace=True,
            )
            assert np.array_equal(part[mine], whole[mine])
            assert (part[~mine] == plan.iterations).all()
            for y, y_s, a, a_s in zip(ys, ys_s, actives, actives_s):
                assert np.array_equal(y_s[mine], y[mine])
                assert np.array_equal(a_s, a & mine)
        # The inputs are not modified.
        assert np.array_equal(x0, plan.x0[local]) and every.all()


class TestApplyOutcome:
    def test_frozen_vertices_recorded(self, setup):
        g, params, state, plan = setup
        out = simulate_phase_vectorized(plan, params)
        newly = apply_outcome(g, g.weights, state, plan, out)
        frozen_local = out.frozen_mask(plan.iterations)
        assert newly >= int(frozen_local.sum())
        assert state.frozen[plan.high_ids[frozen_local]].all()

    def test_nonfrozen_duals_zero(self, setup):
        g, params, state, plan = setup
        out = simulate_phase_vectorized(plan, params)
        apply_outcome(g, g.weights, state, plan, out)
        live = state.nonfrozen_edge_mask(g)
        assert (state.x_final[live] == 0).all()

    def test_residual_degrees_recomputed(self, setup):
        g, params, state, plan = setup
        out = simulate_phase_vectorized(plan, params)
        apply_outcome(g, g.weights, state, plan, out)
        live = state.nonfrozen_edge_mask(g)
        assert np.array_equal(state.resid_degree, g.incident_counts(live))

    def test_residual_weights_nonnegative(self, setup):
        g, params, state, plan = setup
        out = simulate_phase_vectorized(plan, params)
        apply_outcome(g, g.weights, state, plan, out)
        assert (state.wprime >= 0).all()

    def test_nonfrozen_vertices_keep_positive_weight(self, setup):
        g, params, state, plan = setup
        out = simulate_phase_vectorized(plan, params)
        apply_outcome(g, g.weights, state, plan, out)
        assert (state.wprime[~state.frozen] > 0).all()

    def test_edge_count_decreases(self, setup):
        g, params, state, plan = setup
        before = state.nonfrozen_edge_count(g)
        out = simulate_phase_vectorized(plan, params)
        apply_outcome(g, g.weights, state, plan, out)
        assert state.nonfrozen_edge_count(g) < before

    def test_invariant_validation_catches_corruption(self, setup):
        g, params, state, plan = setup
        out = simulate_phase_vectorized(plan, params)
        apply_outcome(g, g.weights, state, plan, out)
        # Corrupt: give a nonfrozen edge a dual, then re-apply a no-op phase.
        live = np.nonzero(state.nonfrozen_edge_mask(g))[0]
        if live.size:
            state.x_final[live[0]] = 1.0
            plan2 = plan_phase(
                g, state, params, phase_index=1, partition_seed=1, threshold_seed=2
            )
            out2 = simulate_phase_vectorized(plan2, params)
            with pytest.raises(AssertionError, match="invariant"):
                apply_outcome(g, g.weights, state, plan2, out2)
