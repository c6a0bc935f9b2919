"""Cross-algorithm consistency matrix.

Every cover algorithm in the package runs on every graph family × weight
model combination; all covers must be valid, and the mutual weak-duality
web must hold: every dual-producing algorithm's (discounted) dual value
lower-bounds every algorithm's cover weight.
"""

import pytest

from repro.baselines.greedy import greedy_vertex_cover
from repro.baselines.pricing import pricing_vertex_cover
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.postprocess import prune_redundant_vertices
from repro.graphs.generators import gnp_average_degree, power_law, random_tree
from repro.graphs.generators_extra import preferential_attachment, random_geometric
from repro.graphs.weights import make_weights

from tests.oracles import local_ratio_vertex_cover

FAMILIES = {
    "gnp": lambda seed: gnp_average_degree(250, 10.0, seed=seed),
    "power_law": lambda seed: power_law(250, seed=seed),
    "tree": lambda seed: random_tree(250, seed=seed),
    "ba": lambda seed: preferential_attachment(250, 2, seed=seed),
    "geometric": lambda seed: random_geometric(250, 0.12, seed=seed),
}

SOLVERS = {
    "mpc": lambda g: minimum_weight_vertex_cover(g, eps=0.1, seed=5).in_cover,
    "mpc_pruned": lambda g: prune_redundant_vertices(
        g, minimum_weight_vertex_cover(g, eps=0.1, seed=5).in_cover
    ),
    "pricing": lambda g: pricing_vertex_cover(g).in_cover,
    "local_ratio": lambda g: local_ratio_vertex_cover(g).in_cover,
    "greedy": lambda g: greedy_vertex_cover(g).in_cover,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("model", ["uniform", "adversarial"])
def test_all_solvers_cover_all_families(family, model):
    g = FAMILIES[family](seed=3)
    g = g.with_weights(make_weights(model, g, seed=4))
    dual = pricing_vertex_cover(g).dual_value
    for name, solver in SOLVERS.items():
        cover = solver(g)
        assert g.is_vertex_cover(cover), f"{name} failed on {family}/{model}"
        assert dual <= g.cover_weight(cover) + 1e-9, (
            f"weak duality violated by {name} on {family}/{model}"
        )


def test_large_scale_smoke():
    """A million-edge instance completes in seconds and stays certified."""
    g = gnp_average_degree(50_000, 40.0, seed=8)
    g = g.with_weights(make_weights("exponential", g, seed=9))
    assert g.m > 900_000
    res = minimum_weight_vertex_cover(g, eps=0.1, seed=10)
    assert res.verify(g)
    assert res.certificate.certified_ratio < 3.0
    assert res.num_phases <= 4
