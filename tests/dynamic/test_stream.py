"""End-to-end stream tests, including the randomized 500-update run."""

import time

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import (
    DynamicGraph,
    IncrementalCoverMaintainer,
    ResolvePolicy,
    run_stream,
)
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import CHURN_MODELS, make_update_stream
from repro.graphs.weights import uniform_weights
from repro.service.batch import BatchSolver

from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns, events

EPS = 0.1


def _workload(n=250, seed=1):
    g = gnp_average_degree(n, 8.0, seed=seed)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=seed + 1))


def _mixed_updates(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r = rng.random()
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if r < 0.35 and u != v:
            out.append(EdgeInsert(u, v))
        elif r < 0.7 and u != v:
            out.append(EdgeDelete(u, v))
        elif r >= 0.7:
            out.append(WeightChange(u, float(rng.uniform(0.5, 15.0))))
    return columns(out)


class TestRandomizedStream:
    """The acceptance run: ≥500 mixed updates, validity at every step."""

    def test_validity_every_step_and_resolve_restores_ratio(self):
        graph = _workload()
        updates = _mixed_updates(graph.n, 500, seed=5)
        assert len(updates) >= 500
        kinds = {type(u) for u in events(updates)}
        assert kinds == {EdgeInsert, EdgeDelete, WeightChange}

        dyn = DynamicGraph(graph)
        maintainer = IncrementalCoverMaintainer(dyn)
        maintainer.adopt(minimum_weight_vertex_cover(graph, eps=EPS, seed=2))
        policy = ResolvePolicy(max_drift=0.15)
        resolves = 0
        for step in range(len(updates)):
            report = maintainer.apply_batch(updates[step : step + 1])
            # Validity after *every* update, checked exactly against the
            # materialized graph.
            assert maintainer.verify(), f"invalid cover after update {step}"
            decision = policy.should_resolve(
                certified_ratio=report.certificate.certified_ratio,
                base_ratio=maintainer.base_ratio,
                batches_since_resolve=1,
            )
            if decision:
                res = minimum_weight_vertex_cover(
                    dyn.compact(), eps=EPS, seed=2
                )
                cert = maintainer.adopt(res)
                resolves += 1
                # A triggered re-solve restores a (2+ε)-grade certificate.
                assert cert.certified_ratio <= 2.0 + EPS, (
                    f"re-solve at step {step} left ratio {cert.certified_ratio}"
                )
                assert maintainer.verify()
        # The churn above is drastic enough that at least one re-solve fires.
        assert resolves >= 1
        assert maintainer.certified_ratio() <= (2.0 + EPS) * (1.0 + policy.max_drift)

    def test_run_stream_drift_policy(self):
        graph = _workload(seed=3)
        updates = _mixed_updates(graph.n, 500, seed=7)
        summary = run_stream(
            graph,
            updates,
            batch_size=25,
            policy=ResolvePolicy(max_drift=0.15),
            eps=EPS,
            seed=4,
            verify_every=1,
        )
        assert summary.final_is_cover
        assert summary.num_batches == 20
        assert summary.num_updates == 500
        # Strictly fewer re-solves than the every-batch baseline would use.
        assert summary.num_resolves < summary.num_batches + 1
        for record in summary.records:
            if record.resolved:
                assert record.certified_ratio_after <= 2.0 + EPS
        # The exposed cover is never worse-certified than the policy bound
        # plus one batch of damage; after the final batch it is within it.
        assert summary.final_certified_ratio <= (2.0 + EPS) * 1.15 + 1e-9


class TestRunStream:
    def test_every_batch_policy_resolves_each_batch(self):
        graph = _workload(n=120, seed=9)
        updates = _mixed_updates(graph.n, 60, seed=11)
        summary = run_stream(
            graph,
            updates,
            batch_size=20,
            policy=ResolvePolicy(every_batch=True),
            eps=EPS,
            seed=5,
        )
        assert summary.num_batches == 3
        assert summary.num_resolves == 4  # initial + one per batch
        assert all(r.resolved for r in summary.records)

    def test_replay_hits_result_cache(self):
        graph = _workload(n=120, seed=9)
        updates = _mixed_updates(graph.n, 60, seed=11)
        with BatchSolver(use_processes=False, cache=64) as solver:
            first = run_stream(
                graph, updates, batch_size=20, solver=solver,
                policy=ResolvePolicy(every_batch=True), eps=EPS, seed=5,
            )
            second = run_stream(
                graph, updates, batch_size=20, solver=solver,
                policy=ResolvePolicy(every_batch=True), eps=EPS, seed=5,
            )
        assert first.num_resolve_cache_hits == 0
        # The replay revisits identical graph states with identical solve
        # parameters — every re-solve is answered from the cache.
        assert second.num_resolve_cache_hits == second.num_resolves
        assert second.final_cover_weight == pytest.approx(first.final_cover_weight)

    def test_one_certificate_per_maintained_state(self, monkeypatch):
        """One certificate per batch, one per adoption and one for the
        summary: a batch's report serves its drift, the policy and
        ``certified_ratio_after``, and a re-solve's adoption replaces it."""
        import repro.dynamic.maintainer as maintainer_mod

        calls = []
        certificate_from_state = maintainer_mod.certificate_from_state

        def counting(**kwargs):
            calls.append(1)
            return certificate_from_state(**kwargs)

        monkeypatch.setattr(maintainer_mod, "certificate_from_state", counting)
        graph = _workload(n=120, seed=9)
        updates = _mixed_updates(graph.n, 100, seed=11)
        summary = run_stream(
            graph, updates, batch_size=10, policy=ResolvePolicy(max_drift=0.05),
            eps=EPS, seed=5, verify_every=1,
        )
        resolved = [r.resolved for r in summary.records]
        assert summary.num_batches == 10 and any(resolved) and not all(resolved)
        # num_resolves counts the initial solve's adoption too.
        assert len(calls) == summary.num_batches + summary.num_resolves + 1
        for record in summary.records:
            if not record.resolved:
                assert record.certified_ratio_after == record.report.certificate.certified_ratio
        assert summary.records[-1].certified_ratio_after == summary.final_certified_ratio

    def test_record_summaries_are_json_friendly(self):
        import json

        graph = _workload(n=100, seed=13)
        updates = _mixed_updates(graph.n, 40, seed=13)
        summary = run_stream(graph, updates, batch_size=10, eps=EPS, seed=6)
        json.dumps(summary.summary())
        for record in summary.records:
            json.dumps(record.summary())

    def test_elapsed_s_is_the_run_wall_clock(self):
        graph = _workload(n=100, seed=13)
        updates = _mixed_updates(graph.n, 40, seed=13)
        t0 = time.perf_counter()
        summary = run_stream(graph, updates, batch_size=10, eps=EPS, seed=6)
        assert 0.0 < summary.elapsed_s <= time.perf_counter() - t0

    def test_edgeless_initial_graph(self):
        from repro.graphs.graph import WeightedGraph

        graph = WeightedGraph.empty(10)
        updates = columns([EdgeInsert(0, 1), EdgeInsert(2, 3), EdgeDelete(0, 1)])
        summary = run_stream(graph, updates, batch_size=2, eps=EPS, seed=7)
        assert summary.final_is_cover
        # No initial solve on an edgeless graph; repairs bootstrap covers.
        assert summary.num_resolves <= 1

    def test_bad_batch_size(self):
        graph = _workload(n=50, seed=15)
        with pytest.raises(ValueError, match="batch_size"):
            run_stream(graph, columns([]), batch_size=0)


class TestDriftPolicySavesResolves:
    """Incremental repair makes full re-solves rare without giving up
    final quality: for each churn model, a tight drift policy with a
    periodic refresh uses fewer re-solves than re-solving after every
    batch, and the final covers weigh the same within 1%."""

    N, DEGREE, NUM_UPDATES, BATCH_SIZE, SEED = 2000, 12.0, 1500, 50, 9
    DRIFT = ResolvePolicy(max_drift=0.02, max_batches_between=8)
    EVERY_BATCH = ResolvePolicy(every_batch=True)
    QUALITY_TOLERANCE = 0.01

    @pytest.fixture(scope="class")
    def graph(self):
        g = gnp_average_degree(self.N, self.DEGREE, seed=5)
        return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=6))

    @pytest.mark.parametrize("model", CHURN_MODELS)
    def test_fewer_resolves_at_equal_quality(self, graph, model):
        updates = make_update_stream(model, graph, self.NUM_UPDATES, seed=7)
        drift, every = (
            run_stream(
                graph, updates, batch_size=self.BATCH_SIZE, policy=policy,
                eps=EPS, seed=self.SEED,
            )
            for policy in (self.DRIFT, self.EVERY_BATCH)
        )
        assert drift.final_is_cover and every.final_is_cover
        assert drift.num_resolves < every.num_resolves, (
            f"{model}: drift policy used {drift.num_resolves} re-solves, "
            f"every-batch {every.num_resolves}"
        )
        delta = drift.final_cover_weight / every.final_cover_weight - 1.0
        assert abs(delta) <= self.QUALITY_TOLERANCE, (
            f"{model}: final cover weight differs by {delta:+.3%}"
        )
