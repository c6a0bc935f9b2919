"""Regenerate the golden checkpoint fixtures (run from the repo root).

The fixtures pin the on-disk formats: if either file stops loading, or
loads to different state, a format change slipped in without a version
bump.  Regenerate *only* alongside an intentional, versioned format
change::

    PYTHONPATH=src:. python tests/recovery/data/make_golden.py
"""

import os

import numpy as np

from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer, WriteAheadLog
from repro.dynamic.checkpoint import save_snapshot
from repro.graphs.graph import WeightedGraph
from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns

HERE = os.path.dirname(os.path.abspath(__file__))

#: The fixture's weights and updates, batch by batch (also in the WAL).
WEIGHTS = [4.0, 1.0, 3.0, 1.0, 2.0]
BATCHES = [
    [EdgeInsert(0, 1), EdgeInsert(1, 2), EdgeInsert(2, 3), EdgeInsert(0, 4)],
    [EdgeInsert(2, 4), EdgeDelete(1, 2), WeightChange(3, 2.5)],
]


def build_maintainer():
    """A tiny, fully deterministic mid-stream maintainer (no solver).

    Starts from an edgeless graph — the documented bootstrap path where
    the pricing repairs build cover and duals from zero, so the fixture
    state depends only on the maintainer's own deterministic logic.
    """
    graph = WeightedGraph.empty(5, weights=WEIGHTS)
    maintainer = IncrementalCoverMaintainer(DynamicGraph(graph))
    for batch in BATCHES:
        maintainer.apply_batch(columns(batch))
    return maintainer


def main():
    maintainer = build_maintainer()
    digest = save_snapshot(
        os.path.join(HERE, "golden_snapshot.npz"),
        maintainer,
        extra={"next_batch_index": 2, "updates_applied": 7},
        fsync=False,
    )
    # Recompute pre-apply digests the way run_stream stamps them.
    pre_digests = {}
    m2 = IncrementalCoverMaintainer(
        DynamicGraph(WeightedGraph.empty(5, weights=WEIGHTS))
    )
    wal_path = os.path.join(HERE, "golden_wal.jsonl")
    if os.path.exists(wal_path):
        os.unlink(wal_path)
    with WriteAheadLog(wal_path, fsync=False) as wal:
        for i, batch in enumerate(BATCHES):
            pre_digests[i] = m2.dyn.state_stamp()
            wal.append(i, columns(batch), state_digest=pre_digests[i])
            m2.apply_batch(columns(batch))
    print("snapshot digest:", digest)
    print("cover:", np.nonzero(maintainer.cover)[0].tolist())
    print("dual_value:", maintainer.dual_value)
    print("cover_weight:", maintainer.cover_weight)


if __name__ == "__main__":
    main()
