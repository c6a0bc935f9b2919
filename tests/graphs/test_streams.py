"""Tests for the churn-stream generators."""

import hashlib

import numpy as np
import pytest

from repro.dynamic import DynamicGraph
from repro.graphs.generators import complete_graph, gnp_average_degree, star
from repro.graphs.streams import (
    CHURN_MODELS,
    hub_churn_stream,
    make_update_stream,
    sliding_window_stream,
    uniform_churn_stream,
)
from repro.graphs.updates import UpdateColumns, save_update_stream
from repro.graphs.weights import uniform_weights

from tests.events import EdgeDelete, EdgeInsert, WeightChange, events
from tests.kernel_oracle import apply_event


def _same_columns(a: UpdateColumns, b: UpdateColumns) -> bool:
    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("op", "u", "v", "w"))


#: SHA-256 of ``save_update_stream(make_update_stream(model, base, 500,
#: seed=3), "x.jsonl")`` for each churn model.
GOLDEN_SHA256 = {
    "uniform": "f824f57715ad6c577d9e5054869002416ddc09b3862f5b6e4e7e6dd9c8f67994",
    "hub": "93127a6ca51bceaf921514fd78631dbcfdb69f8d4d3af1974051e67c5f37365f",
    "sliding_window": "83dc2b3ef82f85af20959a85009dfa2d027b4755fc73a0291b1fe4e40e0f97ec",
}


@pytest.fixture
def base():
    g = gnp_average_degree(150, 6.0, seed=0)
    return g.with_weights(uniform_weights(g.n, 1.0, 5.0, seed=1))


class TestCoherence:
    """Every emitted event must be effective when replayed in order."""

    @pytest.mark.parametrize("model", CHURN_MODELS)
    def test_all_events_effective(self, base, model):
        updates = make_update_stream(model, base, 400, seed=3)
        assert len(updates) == 400
        dyn = DynamicGraph(base)
        for i, upd in enumerate(events(updates)):
            assert apply_event(dyn, upd), f"{model} event {i} was a no-op: {upd}"

    @pytest.mark.parametrize("model", CHURN_MODELS)
    def test_deterministic_under_seed(self, base, model):
        a = make_update_stream(model, base, 100, seed=5)
        b = make_update_stream(model, base, 100, seed=5)
        c = make_update_stream(model, base, 100, seed=6)
        assert isinstance(a, UpdateColumns)
        assert len(a) == len(b) == len(c) == 100
        assert _same_columns(a, b)
        assert not _same_columns(a, c)

    @pytest.mark.parametrize("model", CHURN_MODELS)
    def test_saved_bytes_are_pinned(self, base, model, tmp_path):
        """The JSON lines a generated stream saves to must not drift: they
        are the inputs of the stream benchmarks and of replayed
        ``updates.npz`` sources."""
        path = tmp_path / "x.jsonl"
        save_update_stream(make_update_stream(model, base, 500, seed=3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[model]

    def test_unknown_model(self, base):
        with pytest.raises(ValueError, match="unknown churn model"):
            make_update_stream("surprise", base, 10)


class TestUniformChurn:
    def test_mixes_all_kinds(self, base):
        updates = uniform_churn_stream(base, 600, seed=7)
        kinds = {type(u) for u in events(updates)}
        assert kinds == {EdgeInsert, EdgeDelete, WeightChange}

    def test_probabilities_must_sum_to_one(self, base):
        with pytest.raises(ValueError, match="sum to 1"):
            uniform_churn_stream(base, 10, p_insert=0.9, p_delete=0.9, p_reweight=0.9)

    def test_bad_weight_scale(self, base):
        with pytest.raises(ValueError, match="weight_scale"):
            uniform_churn_stream(base, 10, weight_scale=0.5)

    def test_reweights_stay_positive(self, base):
        updates = uniform_churn_stream(base, 500, seed=9, p_insert=0.1,
                                       p_delete=0.1, p_reweight=0.8)
        for upd in events(updates):
            if isinstance(upd, WeightChange):
                assert upd.weight > 0

    def test_delete_on_edgeless_degrades_to_insert(self):
        from repro.graphs.graph import WeightedGraph

        g = WeightedGraph.empty(10)
        updates = uniform_churn_stream(g, 20, seed=11, p_insert=0.0,
                                       p_delete=1.0, p_reweight=0.0)
        # The first event can't be a delete — there is nothing to delete.
        assert isinstance(events(updates)[0], EdgeInsert)

    def test_dense_graph_raises_cleanly(self):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="too dense"):
            uniform_churn_stream(g, 50, seed=13, p_insert=1.0,
                                 p_delete=0.0, p_reweight=0.0)


class TestHubChurn:
    def test_bias_toward_hubs(self):
        # A star: vertex 0 has degree n-1, leaves degree 1.  Hub-biased
        # endpoints should touch vertex 0 far more often than any leaf.
        g = star(200)
        updates = hub_churn_stream(g, 400, seed=15, p_insert=0.5,
                                   p_delete=0.5, p_reweight=0.0)
        touches = np.zeros(g.n, dtype=int)
        for upd in events(updates):
            touches[upd.u] += 1
            touches[upd.v] += 1
        assert touches[0] > 10 * touches[1:].mean()


class TestSlidingWindow:
    def test_window_bounds_live_insertions(self, base):
        window = 10
        updates = sliding_window_stream(base, 300, seed=17, window=window)
        live = 0
        peak = 0
        for upd in events(updates):
            if isinstance(upd, EdgeInsert):
                live += 1
            elif isinstance(upd, EdgeDelete):
                live -= 1
            peak = max(peak, live)
        assert peak <= window

    def test_expiry_is_fifo(self, base):
        updates = sliding_window_stream(base, 100, seed=19, window=5)
        inserted = [u for u in events(updates) if isinstance(u, EdgeInsert)]
        deleted = [u for u in events(updates) if isinstance(u, EdgeDelete)]
        for ins, del_ in zip(inserted, deleted):
            assert (ins.u, ins.v) == (del_.u, del_.v)

    def test_initial_edges_never_expire(self, base):
        updates = sliding_window_stream(base, 200, seed=21, window=8)
        initial = {
            (int(u), int(v)) for u, v in zip(base.edges_u, base.edges_v)
        }
        for upd in events(updates):
            if isinstance(upd, EdgeDelete):
                key = (upd.u, upd.v) if upd.u < upd.v else (upd.v, upd.u)
                assert key not in initial

    def test_reweight_interleaving(self, base):
        updates = sliding_window_stream(base, 200, seed=23, p_reweight=0.3)
        assert any(isinstance(u, WeightChange) for u in events(updates))

    def test_bad_window(self, base):
        with pytest.raises(ValueError, match="window"):
            sliding_window_stream(base, 10, window=0)


def test_graphs_package_does_not_import_dynamic_or_service():
    """Layering: no graph-substrate module references the top layers.

    (A runtime sys.modules check can't express this — importing any
    repro submodule executes the umbrella ``repro/__init__``, which
    legitimately exposes the whole public API — so the guarantee is
    enforced on the package's own sources.)
    """
    import pathlib
    import re

    import repro.graphs

    pkg = pathlib.Path(repro.graphs.__file__).parent
    pattern = re.compile(r"^\s*(from|import)\s+repro\.(dynamic|service)\b", re.M)
    offenders = [p.name for p in pkg.glob("*.py") if pattern.search(p.read_text())]
    assert not offenders, f"graphs modules importing upper layers: {offenders}"
