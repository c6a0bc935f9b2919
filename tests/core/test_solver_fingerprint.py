"""Golden fingerprints of whole solver runs, one per engine.

The engine-equivalence tests compare the two engines with each other, so
a change that both make in lockstep (a different selection order, a
reordered float sum, a moved round) passes them.  These digests pin each
engine's output to recorded values instead: the cover and the duals
byte for byte, the round count, every :class:`~repro.core.result.PhaseRecord`
and, on the cluster engine, the measured communication summary.

The digests were recorded before the phases were restricted to the live
edges, so a refactor that is meant to leave the answers alone must leave
them alone.  A change that is meant to alter the answers updates them, and
says why.  They also depend on NumPy's random streams and float
arithmetic, so a NumPy release that changes either would fail them too.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.graphs.generators import gnp_average_degree, power_law
from repro.graphs.generators_extra import preferential_attachment
from repro.graphs.weights import make_weights

#: Three multi-phase graphs: the CI smoke graph (3 phases), G(n,p) (2)
#: and Barabási–Albert (5).
GRAPHS = {
    "power_law": lambda: power_law(4000, 2.1, min_degree=6, seed=3),
    "gnp": lambda: gnp_average_degree(3000, 24.0, seed=6),
    "ba": lambda: preferential_attachment(3000, 8, seed=7),
}

#: ``(graph, engine) -> (phases, sha256)``.
GOLDEN = {
    ("power_law", "vectorized"): (
        3, "fbac040d672287b8d2f8606472b2982523b73542d39f167ceaecc50c73bda1c3"
    ),
    ("power_law", "cluster"): (
        3, "5b74fd9b4ee9595a3aa8cb3a87cbf4dc11e1dea32543c29564be7412e91e997a"
    ),
    ("gnp", "vectorized"): (
        2, "75a124ccbbf5c31baff368b0c998c22880e79cda53bc47bfd7686867834594ca"
    ),
    ("gnp", "cluster"): (
        2, "2b5da365c05d682272457e78380f06d128132fdfb9518bae3d166382788b9933"
    ),
    ("ba", "vectorized"): (
        5, "31f31586b6ca3282e89896d8f762c010d6797896c4b0be6673108ed9e4d73c6a"
    ),
    ("ba", "cluster"): (
        5, "7cf2f447c039f0ee587c4e63b2495c39e04679e1f75233d8eb2d2512afba5cbf"
    ),
}


def _plain(value):
    """A JSON value that keeps every bit: ints as ints, floats as hex."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value).hex()


def fingerprint(res) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(res.in_cover, dtype=bool).tobytes())
    h.update(np.ascontiguousarray(res.x, dtype="<f8").tobytes())
    doc = {
        "mpc_rounds": int(res.mpc_rounds),
        "phases": [{k: _plain(v) for k, v in p.as_dict().items()} for p in res.phases],
        "cluster_metrics": res.cluster_metrics,
    }
    h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("graph_name, engine", sorted(GOLDEN))
def test_solver_output_matches_its_golden_fingerprint(graph_name, engine):
    g = GRAPHS[graph_name]()
    g = g.with_weights(make_weights("uniform", g, seed=4))
    res = minimum_weight_vertex_cover(g, eps=0.1, seed=5, engine=engine)
    phases, digest = GOLDEN[(graph_name, engine)]
    assert res.num_phases == phases
    assert (res.cluster_metrics is not None) == (engine == "cluster")
    assert fingerprint(res) == digest
