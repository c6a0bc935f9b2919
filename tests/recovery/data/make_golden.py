"""Write the golden checkpoint fixtures: snapshot format 3, WAL format 3.

``golden_snapshot.npz`` and ``golden_wal.jsonl`` beside this script pin a
tiny, fully deterministic mid-stream state in the formats this build
writes; ``test_golden.py`` loads them and checks that a fresh run of this
script reproduces them.  Regenerate them (from the repo root) only with a
deliberate format change, which also bumps the format version::

    PYTHONPATH=src:. python tests/recovery/data/make_golden.py [OUT_DIR]

``OUT_DIR`` defaults to this script's own directory.
"""

import os
import sys

import numpy as np

from repro.dynamic import DynamicGraph, IncrementalCoverMaintainer, WriteAheadLog
from repro.dynamic.checkpoint import save_snapshot
from repro.graphs.graph import WeightedGraph
from tests.events import EdgeDelete, EdgeInsert, WeightChange, columns

HERE = os.path.dirname(os.path.realpath(__file__))

#: The fixture's weights and updates, batch by batch (committed in the WAL).
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
    if len(args) > 1:
        sys.exit("usage: make_golden.py [OUT_DIR]")
    out = args[0] if args else HERE
    os.makedirs(out, exist_ok=True)
    maintainer = build_maintainer()
    digest = save_snapshot(
        os.path.join(out, "golden_snapshot.npz"),
        maintainer,
        extra={"next_batch_index": 2, "updates_applied": 7},
        fsync=False,
    )
    # Recompute pre-apply stamps the way run_stream stamps them.
    m2 = IncrementalCoverMaintainer(
        DynamicGraph(WeightedGraph.empty(5, weights=WEIGHTS))
    )
    wal_path = os.path.join(out, "golden_wal.jsonl")
    if os.path.exists(wal_path):
        os.unlink(wal_path)
    with WriteAheadLog(wal_path, fsync=False) as wal:
        for i, batch in enumerate(BATCHES):
            wal.append(i, columns(batch), state_digest=m2.dyn.state_stamp())
            m2.apply_batch(columns(batch))
    print("snapshot digest:", digest)
    print("cover:", np.nonzero(maintainer.cover)[0].tolist())
    print("dual_value:", maintainer.dual_value)
    print("cover_weight:", maintainer.cover_weight)


if __name__ == "__main__":
    main()
