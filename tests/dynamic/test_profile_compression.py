"""Stream-level tests for the ``--profile`` breakdown and
``--snapshot-compression`` knob."""

import json
import os

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.dynamic import (
    KERNEL_PROFILE_KEYS,
    CheckpointConfig,
    DynamicGraph,
    IncrementalCoverMaintainer,
    load_snapshot,
    resume_stream,
    run_stream,
    save_snapshot,
)
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream
from repro.graphs.weights import uniform_weights


@pytest.fixture(scope="module")
def workload():
    g = gnp_average_degree(150, 6.0, seed=1)
    g = g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=2))
    updates = make_update_stream("uniform", g, 240, seed=3)
    return g, updates


class TestKernelProfile:
    def test_run_stream_profile_emits_breakdown(self, workload):
        graph, updates = workload
        summary = run_stream(graph, updates, batch_size=40, profile=True)
        assert summary.kernel_profile is not None
        assert set(summary.kernel_profile) == set(KERNEL_PROFILE_KEYS)
        assert all(v >= 0.0 for v in summary.kernel_profile.values())
        row = summary.summary()
        assert set(row["kernel_profile"]) == set(KERNEL_PROFILE_KEYS)
        for record in summary.records:
            assert record.kernel_profile is not None
            assert set(record.summary()["kernel_profile"]) == set(
                KERNEL_PROFILE_KEYS
            )
        # The cumulative split is the sum of the per-batch deltas.
        for key in KERNEL_PROFILE_KEYS:
            total = sum(r.kernel_profile[key] for r in summary.records)
            assert summary.kernel_profile[key] == pytest.approx(total)

    def test_profile_off_by_default(self, workload):
        graph, updates = workload
        summary = run_stream(graph, updates, batch_size=40)
        assert summary.kernel_profile is None
        assert "kernel_profile" not in summary.summary()
        assert all(r.kernel_profile is None for r in summary.records)

    def test_profile_does_not_change_results(self, workload):
        graph, updates = workload
        plain = run_stream(graph, updates, batch_size=40)
        profiled = run_stream(graph, updates, batch_size=40, profile=True)
        assert np.array_equal(plain.final_cover, profiled.final_cover)
        assert plain.final_cover_weight == profiled.final_cover_weight
        assert plain.final_dual_value == profiled.final_dual_value


class TestSnapshotCompression:
    def _maintainer(self, workload):
        graph, updates = workload
        dyn = DynamicGraph(graph)
        m = IncrementalCoverMaintainer(dyn)
        m.adopt(minimum_weight_vertex_cover(graph, eps=0.1, seed=2))
        m.apply_batch(updates[:60])
        return m

    def test_uncompressed_snapshot_round_trips(self, workload, tmp_path):
        m = self._maintainer(workload)
        plain = tmp_path / "plain.npz"
        packed = tmp_path / "packed.npz"
        save_snapshot(plain, m, compress_arrays=False)
        save_snapshot(packed, m, compress_arrays=True)
        assert os.path.getsize(plain) >= os.path.getsize(packed)
        a = load_snapshot(plain)
        b = load_snapshot(packed)
        assert np.array_equal(a.maintainer.cover, b.maintainer.cover)
        assert a.maintainer.edge_duals() == b.maintainer.edge_duals()
        # Integrity digests cover the array payloads in both modes.
        assert a.meta["content_digest"] == b.meta["content_digest"]

    def test_config_rejects_unknown_compression(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_compression"):
            CheckpointConfig(directory=tmp_path, snapshot_compression="lz4")

    def test_compression_choice_survives_resume(self, workload, tmp_path):
        graph, updates = workload
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt",
            snapshot_every=2,
            fsync=False,
            snapshot_compression="none",
        )
        reference = run_stream(graph, updates, batch_size=40)
        durable = run_stream(
            graph, updates, batch_size=40, checkpoint=checkpoint
        )
        config = json.load(open(checkpoint.config_path))
        assert config["snapshot_compression"] == "none"
        resumed = resume_stream(checkpoint.directory)
        assert np.array_equal(durable.final_cover, reference.final_cover)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_cover_weight == reference.final_cover_weight
