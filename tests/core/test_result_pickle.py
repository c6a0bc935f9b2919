"""Result objects must survive process boundaries (pickle round-trips).

The batch service ships :class:`~repro.core.result.MWVCResult` (and the
graphs inside requests) through a ``ProcessPoolExecutor``; these tests pin
the transport contract, including the trace-carrying and cluster-engine
variants.
"""

import pickle

import numpy as np

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.graphs.generators import gnp_average_degree
from repro.graphs.weights import uniform_weights


def _workload():
    g = gnp_average_degree(120, 6.0, seed=11)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=12))


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def test_graph_pickle_round_trip_preserves_content_and_immutability():
    g = _workload()
    g.neighbors(0)  # force the lazy CSR so __getstate__ has to drop it
    h = _round_trip(g)
    assert h == g
    assert h.content_digest() == g.content_digest()
    assert not h.weights.flags.writeable
    assert not h.edges_u.flags.writeable
    # lazy CSR rebuilds on the far side
    assert np.array_equal(sorted(h.neighbors(0)), sorted(g.neighbors(0)))


def test_mwvc_result_pickle_round_trip():
    g = _workload()
    res = minimum_weight_vertex_cover(g, eps=0.1, seed=3)
    back = _round_trip(res)
    assert back.cover_weight == res.cover_weight
    assert np.array_equal(back.in_cover, res.in_cover)
    assert np.array_equal(back.x, res.x)
    assert back.certificate == res.certificate
    assert back.params == res.params
    assert [p.as_dict() for p in back.phases] == [p.as_dict() for p in res.phases]
    assert back.verify(g)


def test_mwvc_result_pickle_with_traces_and_cluster_engine():
    g = _workload()
    traced = minimum_weight_vertex_cover(g, eps=0.1, seed=3, collect_trace=True)
    back = _round_trip(traced)
    assert back.cover_weight == traced.cover_weight
    if traced.traces:
        plan, outcome = traced.traces[0]
        bplan, boutcome = back.traces[0]
        assert np.array_equal(bplan.high_ids, plan.high_ids)
        assert np.array_equal(boutcome.freeze_iter, outcome.freeze_iter)

    clustered = minimum_weight_vertex_cover(g, eps=0.1, seed=3, engine="cluster")
    cback = _round_trip(clustered)
    assert cback.cover_weight == clustered.cover_weight
    assert cback.cluster_metrics == clustered.cluster_metrics
