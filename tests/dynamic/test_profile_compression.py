"""Stream-level tests for the stopwatch timings, the ``--profile``
breakdown and snapshot member compression."""

import json
import zipfile

import numpy as np
import pytest

from repro.dynamic import (
    KERNEL_PROFILE_KEYS,
    CheckpointConfig,
    DynamicGraph,
    IncrementalCoverMaintainer,
    resume_stream,
    run_stream,
)
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream
from repro.graphs.weights import uniform_weights

from tests.recovery.harness import CrashAfter


@pytest.fixture(scope="module")
def workload():
    g = gnp_average_degree(150, 6.0, seed=1)
    g = g.with_weights(uniform_weights(g.n, 1.0, 10.0, seed=2))
    updates = make_update_stream("uniform", g, 240, seed=3)
    return g, updates


def _assert_timings_reconcile(summary):
    """The stopwatch's buckets against its total, and the kernel sections
    against the buckets and records that hold them."""
    assert min(summary.ingest_s, summary.repair_s, summary.resolve_s) >= 0.0
    assert summary.ingest_s + summary.repair_s + summary.resolve_s <= summary.elapsed_s
    assert sum(summary.kernel_profile.values()) <= summary.repair_s
    for record in summary.records:
        assert record.elapsed_s >= sum(record.kernel_profile.values())
    for key in KERNEL_PROFILE_KEYS:
        assert summary.kernel_profile[key] == sum(
            r.kernel_profile[key] for r in summary.records
        )


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
        assert summary.resolve_s > 0.0  # the initial solve
        _assert_timings_reconcile(summary)

    def test_profile_off_by_default(self, workload):
        graph, updates = workload
        summary = run_stream(graph, updates, batch_size=40)
        assert summary.kernel_profile is None
        assert "kernel_profile" not in summary.summary()
        assert all(r.kernel_profile is None for r in summary.records)
        buckets = summary.ingest_s + summary.repair_s + summary.resolve_s
        assert buckets <= summary.elapsed_s

    def test_profile_does_not_change_results(self, workload):
        graph, updates = workload
        plain = run_stream(graph, updates, batch_size=40)
        profiled = run_stream(graph, updates, batch_size=40, profile=True)
        assert np.array_equal(plain.final_cover, profiled.final_cover)
        assert plain.final_cover_weight == profiled.final_cover_weight
        assert plain.final_dual_value == profiled.final_dual_value

    def test_bare_maintainer_times_every_batch(self, workload):
        graph, updates = workload
        m = IncrementalCoverMaintainer(DynamicGraph(graph))
        assert m.last_batch_profile is None
        for start in range(0, 120, 40):
            m.apply_batch(updates[start : start + 40])
            profile = m.last_batch_profile
            assert tuple(profile) == KERNEL_PROFILE_KEYS
            assert all(v >= 0.0 for v in profile.values())

    def test_crashed_and_resumed_run_reconciles(self, workload, tmp_path, monkeypatch):
        graph, updates = workload
        directory = tmp_path / "ckpt"
        checkpoint = CheckpointConfig(directory, snapshot_every=2, fsync=False)
        with CrashAfter(monkeypatch, 3):
            with pytest.raises(CrashAfter.Crash):
                run_stream(graph, updates, batch_size=40, checkpoint=checkpoint)
        resumed = resume_stream(directory, profile=True)
        assert resumed.resumed_from_batch == 2
        assert resumed.num_batches == 4
        _assert_timings_reconcile(resumed)


class TestSnapshotCompression:
    def test_config_with_dropped_knobs_resumes(self, workload, tmp_path, monkeypatch):
        """A ``config.json`` from a build that still wrote
        ``snapshot_compression``/``compact_fraction`` resumes to the
        uninterrupted run, and its new snapshots deflate as always."""
        graph, updates = workload
        checkpoint = CheckpointConfig(
            directory=tmp_path / "ckpt", snapshot_every=2, fsync=False
        )
        reference = run_stream(graph, updates, batch_size=40)
        with CrashAfter(monkeypatch, 3):
            with pytest.raises(CrashAfter.Crash):
                run_stream(graph, updates, batch_size=40, checkpoint=checkpoint)
        with open(checkpoint.config_path) as fh:
            config = json.load(fh)
        config.update(snapshot_compression="none", compact_fraction=0.5)
        with open(checkpoint.config_path, "w") as fh:
            json.dump(config, fh)

        resumed = resume_stream(checkpoint.directory)
        assert resumed.resumed_from_batch == 2
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_cover_weight == reference.final_cover_weight
        assert resumed.final_dual_value == reference.final_dual_value
        assert resumed.final_certified_ratio == reference.final_certified_ratio

        (_, newest), *_ = checkpoint.list_snapshots()
        with zipfile.ZipFile(newest) as zf:
            methods = {i.filename: i.compress_type for i in zf.infolist()}
        stored = {"weights.npy", "loads.npy"}
        assert methods == {
            name: zipfile.ZIP_STORED if name in stored else zipfile.ZIP_DEFLATED
            for name in methods
        }
