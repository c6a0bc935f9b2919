"""Shared machinery of the crash-recovery test harness.

Workload builders, a crash injector, and the *exact-state* comparator the
differential tests are built on: two maintainers are considered equivalent
only if their cover masks, duals, loads, and counters are bit-identical —
recovery that is merely "close" is a silent-corruption bug.
"""

from __future__ import annotations

import numpy as np

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream
from repro.graphs.updates import UpdateColumns
from repro.graphs.weights import uniform_weights

EPS = 0.1
SOLVE_SEED = 2


def make_workload(n=120, degree=6.0, seed=1):
    """A seeded random weighted graph."""
    g = gnp_average_degree(n, degree, seed=seed)
    return g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=seed + 1))


def make_batches(graph, churn, num_batches, batch_size, seed=3):
    """``num_batches`` coherent update batches from a named churn model."""
    stream = make_update_stream(churn, graph, num_batches * batch_size, seed=seed)
    return [
        stream[i * batch_size : (i + 1) * batch_size] for i in range(num_batches)
    ]


def concat(batches):
    """One :class:`UpdateColumns` stream of ``batches`` in order."""
    keys = ("op", "u", "v", "w")
    return UpdateColumns(*(np.concatenate([getattr(b, k) for b in batches]) for k in keys))


def seeded_maintainer(graph):
    """A maintainer with an adopted MPC solve (the streaming start state)."""
    dyn = DynamicGraph(graph)
    maintainer = IncrementalCoverMaintainer(dyn)
    if graph.m:
        maintainer.adopt(
            minimum_weight_vertex_cover(graph, eps=EPS, seed=SOLVE_SEED)
        )
    return maintainer


def assert_same_state(a: IncrementalCoverMaintainer, b: IncrementalCoverMaintainer):
    """Bit-exact equality of every piece of maintained state."""
    assert np.array_equal(a.cover, b.cover), "cover masks differ"
    assert a.cover_weight == b.cover_weight, "cover weights differ"
    assert a.edge_duals() == b.edge_duals(), "pair-keyed duals differ"
    assert a.dual_value == b.dual_value, "dual totals differ"
    assert (
        a.certificate().load_factor == b.certificate().load_factor
    ), "load factors differ"
    assert a.base_ratio == b.base_ratio, "drift baselines differ"
    assert a.batches_applied == b.batches_applied, "batch counters differ"
    assert a.dyn.content_digest() == b.dyn.content_digest(), "graphs differ"


class CrashAfter:
    """Injects a crash after N successful ``apply_batch`` calls.

    Used as a context manager around a checkpointed ``run_stream``: the
    raise fires *after* the batch's WAL record was committed but before
    its effects reach any snapshot — the worst-timed process death a
    batch boundary allows.
    """

    class Crash(Exception):
        pass

    def __init__(self, monkeypatch, batches: int):
        self.monkeypatch = monkeypatch
        self.remaining = batches

    def __enter__(self):
        original = IncrementalCoverMaintainer.apply_batch
        injector = self

        def crashing(self_, updates):
            if injector.remaining <= 0:
                raise CrashAfter.Crash()
            injector.remaining -= 1
            return original(self_, updates)

        self.monkeypatch.setattr(IncrementalCoverMaintainer, "apply_batch", crashing)
        return self

    def __exit__(self, *exc_info):
        self.monkeypatch.undo()
        return False
