"""JSON-lines manifests for ``repro batch``.

A manifest is one JSON object per line, each describing one solve request.
The graph comes from exactly one of three sources:

* ``{"input": "path.npz"}`` or ``{"input": "path.txt"}`` — a file written
  by ``repro generate`` (NPZ or edge-list format);
* ``{"family": "gnp", "n": 1000, "degree": 16, "weights": "uniform",
  "graph_seed": 0}`` — a generated workload (same families/weight models
  as ``repro solve``);
* ``{"n": 3, "edges": [[0, 1], [1, 2]], "weights": [1.0, 2.0, 1.0]}`` — an
  inline edge list (weights optional).

Solve parameters ride alongside: ``eps`` (default 0.1), ``seed`` (default
0), ``engine`` (default ``"vectorized"``), ``id`` (optional label).  Blank
lines and ``#`` comment lines are skipped.

The same spec dicts power the programmatic API
(:func:`request_from_spec`), so tests and services can build batches
without touching the filesystem.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable, List, Union

import numpy as np

from repro.graphs import generators as _gen
from repro.graphs import generators_extra as _genx
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import load_edgelist, load_npz
from repro.graphs.weights import make_weights
from repro.service.schema import ENGINES, SolveRequest

__all__ = ["GRAPH_FAMILIES", "graph_from_spec", "request_from_spec", "load_manifest"]

GRAPH_FAMILIES = ("gnp", "power_law", "grid", "tree", "sbm", "geometric", "ba")

_SOLVE_KEYS = {"id", "eps", "seed", "engine"}
_GRAPH_KEYS = {"input", "family", "n", "degree", "weights", "graph_seed", "edges"}


def generate_graph(
    family: str, *, n: int, degree: float = 16.0, seed: int = 0
) -> WeightedGraph:
    """Generate an unweighted workload graph from a named family.

    The single entry point behind both ``repro solve --family ...`` and
    manifest ``family`` specs, so the two surfaces can never drift.
    """
    if family == "gnp":
        return _gen.gnp_average_degree(n, degree, seed=seed)
    if family == "power_law":
        return _gen.power_law(
            n, exponent=2.5, min_degree=max(1, int(degree / 4)), seed=seed
        )
    if family == "grid":
        side = int(math.isqrt(n))
        return _gen.grid_2d(side, side)
    if family == "tree":
        return _gen.random_tree(n, seed=seed)
    if family == "sbm":
        blocks = [n // 4] * 4
        return _genx.stochastic_block_model(
            blocks,
            p_in=min(1.0, degree / max(n // 4, 1)),
            p_out=0.25 / max(n, 1),
            seed=seed,
        )
    if family == "geometric":
        radius = math.sqrt(degree / (math.pi * max(n - 1, 1)))
        return _genx.random_geometric(n, radius, seed=seed)
    if family == "ba":
        return _genx.preferential_attachment(n, max(1, int(degree / 2)), seed=seed)
    raise ValueError(f"unknown graph family {family!r}; known: {GRAPH_FAMILIES}")


def graph_from_spec(spec: dict) -> WeightedGraph:
    """Build the graph described by one manifest record."""
    sources = [k for k in ("input", "family", "edges") if k in spec]
    if len(sources) != 1:
        raise ValueError(
            f"spec must have exactly one of 'input'/'family'/'edges', got {sources}"
        )
    # Generator-only keys must not silently no-op with other sources — a
    # user sweeping graph_seed over an 'input' file would get N copies of
    # one instance (all deduplicated) instead of N instances.
    ignored = {"input": {"n", "degree", "graph_seed", "weights"},
               "edges": {"degree", "graph_seed"}}.get(sources[0], set()) & set(spec)
    if ignored:
        raise ValueError(
            f"keys {sorted(ignored)} have no effect with {sources[0]!r} graphs"
        )
    if "input" in spec:
        path = str(spec["input"])
        return load_npz(path) if path.endswith(".npz") else load_edgelist(path)
    if "edges" in spec:
        n = int(spec["n"])
        weights = spec.get("weights")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
        return WeightedGraph.from_edge_list(n, [tuple(e) for e in spec["edges"]], weights)
    family = str(spec["family"])
    n = int(spec.get("n", 1000))
    degree = float(spec.get("degree", 16.0))
    graph_seed = int(spec.get("graph_seed", 0))
    graph = generate_graph(family, n=n, degree=degree, seed=graph_seed)
    weights = spec.get("weights", "unit")
    if weights != "unit":
        graph = graph.with_weights(make_weights(weights, graph, seed=graph_seed + 1))
    return graph


def request_from_spec(spec: dict) -> SolveRequest:
    """Build a :class:`SolveRequest` from one manifest record."""
    if not isinstance(spec, dict):
        raise ValueError(f"manifest record must be a JSON object, got {type(spec).__name__}")
    unknown = set(spec) - _SOLVE_KEYS - _GRAPH_KEYS
    if unknown:
        raise ValueError(f"unknown manifest keys {sorted(unknown)}")
    engine = str(spec.get("engine", "vectorized"))
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    return SolveRequest(
        graph=graph_from_spec(spec),
        eps=float(spec.get("eps", 0.1)),
        seed=int(spec.get("seed", 0)),
        engine=engine,
        request_id=str(spec.get("id", "")),
    )


def load_manifest(source: Union[str, IO[str], Iterable[str]]) -> List[SolveRequest]:
    """Parse a JSON-lines manifest into solve requests.

    ``source`` is a path, an open text stream, or any iterable of lines.
    A malformed line raises ``ValueError`` naming its line number — a
    manifest is configuration, so it fails loudly up front rather than
    per-request at solve time.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_manifest(list(fh))
    requests: List[SolveRequest] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            spec = json.loads(line)
            req = request_from_spec(spec)
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ValueError(f"manifest line {lineno}: {detail}") from exc
        if not req.request_id:
            req.request_id = f"line-{lineno}"
        requests.append(req)
    return requests
