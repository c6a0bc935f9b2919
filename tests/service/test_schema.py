"""Request digests and manifest parsing."""

import io
import json

import numpy as np
import pytest

from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.service.manifest import graph_from_spec, load_manifest, request_from_spec
from repro.service.schema import SolveRequest, request_digest


# --------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------- #
def test_graph_digest_stable_across_edge_orderings():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    w = [1.0, 2.0, 3.0, 4.0]
    a = WeightedGraph.from_edge_list(4, edges, w)
    b = WeightedGraph.from_edge_list(4, list(reversed(edges)), w)
    c = WeightedGraph.from_edge_list(4, [(v, u) for u, v in edges], w)
    d = WeightedGraph.from_edge_list(4, edges + [(0, 1)], w)  # duplicate merged
    assert a.content_digest() == b.content_digest() == c.content_digest()
    assert a.content_digest() == d.content_digest()


def test_graph_digest_sensitive_to_content():
    base = WeightedGraph.from_edge_list(3, [(0, 1), (1, 2)])
    other_edges = WeightedGraph.from_edge_list(3, [(0, 1), (0, 2)])
    other_weights = base.with_weights(np.array([1.0, 2.0, 1.0]))
    other_n = WeightedGraph.from_edge_list(4, [(0, 1), (1, 2)])
    digests = {
        g.content_digest() for g in (base, other_edges, other_weights, other_n)
    }
    assert len(digests) == 4


def test_request_digest_covers_every_solve_parameter():
    g = gnp_average_degree(30, 4.0, seed=0)
    base = request_digest(g, eps=0.1, seed=0, engine="vectorized")
    assert request_digest(g, eps=0.1, seed=0, engine="vectorized") == base
    assert request_digest(g, eps=0.2, seed=0, engine="vectorized") != base
    assert request_digest(g, eps=0.1, seed=1, engine="vectorized") != base
    assert request_digest(g, eps=0.1, seed=0, engine="cluster") != base


def test_request_label_fallback():
    g = WeightedGraph.from_edge_list(2, [(0, 1)])
    req = SolveRequest(g)
    assert req.label().startswith("req-")
    assert SolveRequest(g, request_id="mine").label() == "mine"


# --------------------------------------------------------------------- #
# manifests
# --------------------------------------------------------------------- #
def test_manifest_family_and_inline_and_comments():
    lines = [
        "# comment",
        "",
        json.dumps({"id": "a", "family": "gnp", "n": 50, "degree": 4, "graph_seed": 1}),
        json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "weights": [1, 2, 1], "eps": 0.05}),
    ]
    reqs = load_manifest(lines)
    assert [r.request_id for r in reqs] == ["a", "line-4"]
    assert reqs[0].graph.n == 50
    assert reqs[1].graph.m == 2
    assert reqs[1].eps == 0.05


def test_manifest_from_stream_and_path(tmp_path):
    text = json.dumps({"family": "tree", "n": 20}) + "\n"
    assert load_manifest(io.StringIO(text))[0].graph.n == 20
    path = tmp_path / "m.jsonl"
    path.write_text(text)
    assert load_manifest(str(path))[0].graph.n == 20


def test_manifest_input_file_round_trip(tmp_path):
    from repro.graphs.io import save_npz

    g = gnp_average_degree(40, 4.0, seed=3)
    path = tmp_path / "g.npz"
    save_npz(g, path)
    req = request_from_spec({"input": str(path)})
    assert req.graph.content_digest() == g.content_digest()


def test_manifest_errors_name_the_line():
    with pytest.raises(ValueError, match="line 2"):
        load_manifest([json.dumps({"family": "tree", "n": 5}), "{not json"])
    with pytest.raises(ValueError, match="line 1"):
        load_manifest([json.dumps({"family": "tree", "n": 5, "bogus": 1})])


def test_manifest_rejects_unknown_engine_up_front():
    with pytest.raises(ValueError, match="unknown engine"):
        request_from_spec({"family": "tree", "n": 5, "engine": "vectorised"})


def test_spec_requires_exactly_one_graph_source():
    with pytest.raises(ValueError, match="exactly one"):
        graph_from_spec({"family": "tree", "n": 5, "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="exactly one"):
        graph_from_spec({"eps": 0.1})


# --------------------------------------------------------------------- #
# each distinct graph is built once per manifest
# --------------------------------------------------------------------- #
def _counting(monkeypatch, name):
    import repro.service.manifest as manifest_mod

    calls = []
    real = getattr(manifest_mod, name)

    def counted(path):
        calls.append(str(path))
        return real(path)

    monkeypatch.setattr(manifest_mod, name, counted)
    return calls


def test_manifest_loads_each_input_file_once(tmp_path, monkeypatch):
    from repro.graphs.io import save_edgelist, save_npz

    npz, txt = str(tmp_path / "g.npz"), str(tmp_path / "h.txt")
    save_npz(gnp_average_degree(40, 4.0, seed=3), npz)
    save_edgelist(gnp_average_degree(30, 3.0, seed=4), txt)
    npz_calls = _counting(monkeypatch, "load_npz")
    txt_calls = _counting(monkeypatch, "load_edgelist")
    lines = [
        {"input": npz, "seed": 0},
        {"input": txt},
        {"input": npz, "seed": 1},
        {"input": npz, "engine": "cluster"},
        {"input": txt, "eps": 0.2},
    ]
    reqs = load_manifest([json.dumps(line) for line in lines])
    assert npz_calls == [npz] and txt_calls == [txt]
    assert reqs[0].graph is reqs[2].graph is reqs[3].graph
    assert reqs[1].graph is reqs[4].graph
    assert reqs[0].graph is not reqs[1].graph
    assert [r.seed for r in reqs] == [0, 0, 1, 0, 0]
    assert reqs[3].engine == "cluster" and reqs[4].eps == 0.2


def test_manifest_shares_only_identical_family_graphs():
    base = {"family": "gnp", "n": 60, "degree": 4, "graph_seed": 1}
    lines = [
        base,
        {**base, "seed": 5},
        {**base, "graph_seed": 2},
        {**base, "weights": "uniform"},
    ]
    reqs = load_manifest([json.dumps(line) for line in lines])
    assert reqs[0].graph is reqs[1].graph
    assert len({id(r.graph) for r in reqs}) == 3
    assert len({r.graph.content_digest() for r in reqs}) == 3


def test_manifest_errors_after_shared_lines_name_their_line(tmp_path):
    shared = json.dumps({"family": "tree", "n": 5})
    with pytest.raises(ValueError, match="manifest line 3: "):
        load_manifest([shared, shared, json.dumps({"family": "tree", "n": 5, "bogus": 1})])
    missing = str(tmp_path / "nope.npz")
    with pytest.raises(ValueError, match="manifest line 3: ") as exc_info:
        load_manifest([shared, shared, json.dumps({"input": missing})])
    assert str(exc_info.value).count(missing) == 1
