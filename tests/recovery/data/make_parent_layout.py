"""Regenerate ``parent_layout/``: a crashed checkpoint in the old layout.

The directory pins what a checkpoint written before WAL format 2 and
snapshot format 3 looks like — ``updates.jsonl``, version-1 WAL records
stamped with SHA-256 content digests, version-2 snapshots — so a later
build is tested on resuming it exactly.  It must be written by that older
build (git e1da437), never by the current one::

    git archive e1da437 | tar -x -C /tmp/old
    PYTHONPATH=/tmp/old/src python tests/recovery/data/make_parent_layout.py

The run: G(n=80, d=6) with uniform weights, 96 uniform-churn updates in
batches of 12, seed 1, eps 0.1, the default policy; snapshots every 2
batches, 2 kept, WAL compaction on.  It crashes after batch 5 is logged
and before it is applied, so the WAL holds batches 2-5 and the newest
snapshot is the one at batch 4.
"""

import os
import shutil

from repro.dynamic import CheckpointConfig, IncrementalCoverMaintainer, run_stream
from repro.graphs.generators import gnp_average_degree
from repro.graphs.streams import make_update_stream
from repro.graphs.weights import uniform_weights

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "parent_layout")

BATCH_SIZE = 12
SEED = 1
CRASH_AT_BATCH = 5


class _Crash(Exception):
    pass


def main():
    graph = gnp_average_degree(80, 6.0, seed=5)
    graph = graph.with_weights(uniform_weights(graph.n, 1.0, 10.0, seed=6))
    updates = make_update_stream("uniform", graph, 8 * BATCH_SIZE, seed=7)
    shutil.rmtree(OUT, ignore_errors=True)
    checkpoint = CheckpointConfig(
        directory=OUT, snapshot_every=2, keep_snapshots=2, compact_wal=True,
        fsync=False,
    )
    original = IncrementalCoverMaintainer.apply_batch
    calls = []

    def crashing(self, batch):
        if len(calls) == CRASH_AT_BATCH:
            raise _Crash()
        calls.append(1)
        return original(self, batch)

    IncrementalCoverMaintainer.apply_batch = crashing
    try:
        run_stream(
            graph, updates, batch_size=BATCH_SIZE, seed=SEED, checkpoint=checkpoint
        )
    except _Crash:
        pass
    finally:
        IncrementalCoverMaintainer.apply_batch = original
    print(sorted(os.listdir(OUT)))


if __name__ == "__main__":
    main()
