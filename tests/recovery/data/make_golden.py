"""Write the golden checkpoint fixture's state in today's formats.

``golden_snapshot.npz`` and ``golden_wal.jsonl`` beside this script are
frozen version-1 fixtures (snapshot ``dual_keys``, one JSON object per
update in the WAL): ``test_golden.py`` pins them as an older build wrote
them, to test the migration every later reader must keep.  No current build can regenerate them, so this script never writes
here; it writes the same fixture state, in the current snapshot and WAL
formats, to the directory named on its command line (run from the repo
root)::

    PYTHONPATH=src:. python tests/recovery/data/make_golden.py OUT_DIR

A later format version can start its own pinned fixtures from that output.
"""

import os
import sys

import numpy as np

from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer, WriteAheadLog
from repro.dynamic.checkpoint import save_snapshot
from repro.graphs.graph import WeightedGraph
from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns

HERE = os.path.dirname(os.path.realpath(__file__))

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


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.exit("usage: make_golden.py OUT_DIR")
    out = os.path.realpath(args[0])
    if out == HERE:
        sys.exit(f"refusing to write into {HERE}: its fixtures are frozen version 1")
    os.makedirs(out, exist_ok=True)
    maintainer = build_maintainer()
    digest = save_snapshot(
        os.path.join(out, "golden_snapshot.npz"),
        maintainer,
        extra={"next_batch_index": 2, "updates_applied": 7},
        fsync=False,
    )
    # Recompute pre-apply digests the way run_stream stamps them.
    pre_digests = {}
    m2 = IncrementalCoverMaintainer(
        DynamicGraph(WeightedGraph.empty(5, weights=WEIGHTS))
    )
    wal_path = os.path.join(out, "golden_wal.jsonl")
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
