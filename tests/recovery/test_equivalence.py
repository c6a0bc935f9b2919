"""Differential property tests: restored state ≡ uninterrupted state.

Two independent layers:

* **Maintainer level** — run two maintainers over identical batches; one
  is serialized + deserialized at every k-th batch boundary.  Every piece
  of state (cover mask, weight, duals, load factor) must stay bit-exact
  at every boundary, for every churn model.
* **Stream level** — a checkpointed :func:`run_stream` is crashed at a
  batch boundary (after the WAL commit — the worst allowed moment) and
  picked up by :func:`resume_stream`; the resumed run's final cover and
  certificate must equal the uninterrupted run's.

Plus soundness: a *restored* certificate still lower-bounds the true
optimum on instances small enough to solve exactly / via LP.
"""

import numpy as np
import pytest

from repro.baselines.exact import exact_mwvc
from repro.baselines.lp import lp_relaxation
from repro.dynamic import CheckpointConfig, ResolvePolicy, resume_stream, run_stream
from repro.dynamic.checkpoint import load_snapshot, save_snapshot
from repro.graphs.streams import CHURN_MODELS

from tests.recovery.harness import (
    CrashAfter,
    assert_same_state,
    concat,
    make_batches,
    make_workload,
    seeded_maintainer,
)

BATCHES = 12
BATCH_SIZE = 20


@pytest.mark.parametrize("churn", CHURN_MODELS)
@pytest.mark.parametrize("every_k", [1, 3, 5])
def test_snapshot_restore_at_every_kth_boundary_is_exact(
    churn, every_k, tmp_path
):
    graph = make_workload(n=120, seed=17)
    batches = make_batches(graph, churn, BATCHES, BATCH_SIZE, seed=23)
    live = seeded_maintainer(graph)
    cycled = seeded_maintainer(graph)
    path = tmp_path / "snap.npz"
    for i, batch in enumerate(batches):
        live.apply_batch(batch)
        cycled.apply_batch(batch)
        if (i + 1) % every_k == 0:
            save_snapshot(path, cycled)
            cycled = load_snapshot(path).maintainer
        assert_same_state(live, cycled)
        assert cycled.verify()


@pytest.mark.parametrize("churn", CHURN_MODELS)
def test_restored_certificate_lower_bounds_exact_opt(churn, tmp_path):
    graph = make_workload(n=24, degree=4.0, seed=31)
    maintainer = seeded_maintainer(graph)
    path = tmp_path / "snap.npz"
    for batch in make_batches(graph, churn, 6, 10, seed=37):
        maintainer.apply_batch(batch)
        save_snapshot(path, maintainer)
        maintainer = load_snapshot(path).maintainer
        cert = maintainer.certificate()
        current = maintainer.dyn.materialize()
        if not current.m:
            continue
        opt = exact_mwvc(current).opt_weight
        assert cert.opt_lower_bound <= opt + 1e-9, (
            f"restored certificate claims lower bound {cert.opt_lower_bound} "
            f"above OPT {opt}"
        )
        assert cert.cover_weight >= opt - 1e-9


def test_restored_certificate_lower_bounds_lp_value(tmp_path):
    graph = make_workload(n=80, degree=6.0, seed=41)
    maintainer = seeded_maintainer(graph)
    path = tmp_path / "snap.npz"
    for batch in make_batches(graph, "uniform", 5, 20, seed=43):
        maintainer.apply_batch(batch)
    save_snapshot(path, maintainer)
    restored = load_snapshot(path).maintainer
    cert = restored.certificate()
    current = restored.dyn.materialize()
    if current.m:
        lp = lp_relaxation(current)
        if lp.ok:
            # The LP optimum sits between the dual lower bound and OPT.
            assert cert.opt_lower_bound <= lp.lp_value + 1e-9


class TestCrashResumeEquivalence:
    """Kill a checkpointed run at randomized batch boundaries; resume must
    reproduce the uninterrupted run bit-for-bit."""

    EPS = 0.1
    SEED = 4

    def _reference(self, graph, updates, policy):
        return run_stream(
            graph,
            updates,
            batch_size=BATCH_SIZE,
            policy=policy,
            eps=self.EPS,
            seed=self.SEED,
        )

    @pytest.mark.parametrize("churn", CHURN_MODELS)
    def test_randomized_crash_points(self, churn, tmp_path, monkeypatch):
        graph = make_workload(n=150, seed=47)
        batches = make_batches(graph, churn, BATCHES, BATCH_SIZE, seed=53)
        updates = concat(batches)
        policy = ResolvePolicy(max_drift=0.15)
        reference = self._reference(graph, updates, policy)
        assert reference.final_is_cover

        rng = np.random.default_rng(59)
        crash_points = sorted(
            int(x) for x in rng.choice(np.arange(1, BATCHES), size=4, replace=False)
        )
        for crash_after in crash_points:
            directory = tmp_path / f"{churn}-{crash_after}"
            checkpoint = CheckpointConfig(
                directory=directory, snapshot_every=3, fsync=False
            )
            with CrashAfter(monkeypatch, crash_after):
                with pytest.raises(CrashAfter.Crash):
                    run_stream(
                        graph,
                        updates,
                        batch_size=BATCH_SIZE,
                        policy=policy,
                        eps=self.EPS,
                        seed=self.SEED,
                        checkpoint=checkpoint,
                    )
            resumed = resume_stream(directory)
            assert resumed.final_is_cover
            assert np.array_equal(resumed.final_cover, reference.final_cover), (
                f"{churn}: cover mismatch after crash at batch {crash_after}"
            )
            assert resumed.final_cover_weight == reference.final_cover_weight
            assert resumed.final_certified_ratio == pytest.approx(
                reference.final_certified_ratio, abs=1e-9
            )
            assert resumed.final_dual_value == pytest.approx(
                reference.final_dual_value, abs=1e-9
            )

    def test_crash_before_first_batch(self, tmp_path, monkeypatch):
        graph = make_workload(n=100, seed=61)
        batches = make_batches(graph, "uniform", 6, BATCH_SIZE, seed=67)
        updates = concat(batches)
        policy = ResolvePolicy(max_drift=0.15)
        reference = self._reference(graph, updates, policy)
        directory = tmp_path / "ckpt"
        with CrashAfter(monkeypatch, 0):
            with pytest.raises(CrashAfter.Crash):
                run_stream(
                    graph,
                    updates,
                    batch_size=BATCH_SIZE,
                    policy=policy,
                    eps=self.EPS,
                    seed=self.SEED,
                    checkpoint=CheckpointConfig(directory=directory, fsync=False),
                )
        resumed = resume_stream(directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.num_batches == 6

    def test_double_crash_then_resume(self, tmp_path, monkeypatch):
        # Crash the original run, then crash the *resume* too; the second
        # resume must still land on the uninterrupted result.
        graph = make_workload(n=120, seed=71)
        batches = make_batches(graph, "hub", 10, BATCH_SIZE, seed=73)
        updates = concat(batches)
        policy = ResolvePolicy(max_drift=0.15)
        reference = self._reference(graph, updates, policy)
        directory = tmp_path / "ckpt"
        with CrashAfter(monkeypatch, 3):
            with pytest.raises(CrashAfter.Crash):
                run_stream(
                    graph,
                    updates,
                    batch_size=BATCH_SIZE,
                    policy=policy,
                    eps=self.EPS,
                    seed=self.SEED,
                    checkpoint=CheckpointConfig(
                        directory=directory, snapshot_every=2, fsync=False
                    ),
                )
        with CrashAfter(monkeypatch, 4):
            with pytest.raises(CrashAfter.Crash):
                resume_stream(directory)
        resumed = resume_stream(directory)
        assert np.array_equal(resumed.final_cover, reference.final_cover)
        assert resumed.final_certified_ratio == pytest.approx(
            reference.final_certified_ratio, abs=1e-9
        )
