"""Dual-variable initializations (Algorithm 1 Line 2 / Algorithm 2 Line 2c).

Three schemes, all producing a *valid* fractional matching
(``Σ_{e∋v} x_{e,0} ≤ w(v)`` for every vertex — Observation 3.1's base case):

* :func:`degree_scaled_init` — the paper's
  ``x_(u,v),0 = min(w(u)/d(u), w(v)/d(v))`` (Proposition 3.4).  The dual
  starts within a factor ``Δ`` of tight everywhere, so the centralized
  algorithm terminates in ``O(log Δ)`` iterations *independently of the
  weight magnitudes*.
* :func:`uniform_init` — the classic ``x_e = min_v w(v) / n``.  Valid, but
  the iteration count grows with the weight spread: ``O(log(W n))`` where
  ``W = max w / min w`` (the paper's argument for rejecting it).
* :func:`max_degree_scaled_init` — ``min(w(u), w(v)) / Δ``, the variant the
  paper discusses and rejects in §3.2: same LOCAL bound as degree-scaled,
  but it only supports ``O(log log Δ)`` (max-degree) rather than
  ``O(log log d̄)`` (average-degree) MPC round complexity, because the
  progress argument loses the per-vertex out-degree control.

Experiments E5 and E9 measure these differences.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.graph import WeightedGraph

__all__ = [
    "degree_scaled_init",
    "uniform_init",
    "max_degree_scaled_init",
    "INIT_SCHEMES",
]


def _resolve(
    graph: WeightedGraph, weights: Optional[np.ndarray], degrees: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    w = graph.weights if weights is None else np.asarray(weights, dtype=np.float64)
    d = graph.degrees if degrees is None else np.asarray(degrees, dtype=np.int64)
    if w.shape != (graph.n,):
        raise ValueError(f"weights must have shape ({graph.n},)")
    if d.shape != (graph.n,):
        raise ValueError(f"degrees must have shape ({graph.n},)")
    return w, d


def degree_scaled_init(
    graph: WeightedGraph,
    *,
    weights: Optional[np.ndarray] = None,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Paper initialization ``x_(u,v) = min(w(u)/d(u), w(v)/d(v))``.

    ``weights`` / ``degrees`` default to the graph's own; Algorithm 2 passes
    *residual* weights and *residual* degrees (Remark 4.2: ``d(v)`` counts
    nonfrozen neighbors in ``V^high ∪ V^inactive``, not neighbors in
    ``V^high``), so both are injectable.

    Validity: ``Σ_{e∋v} x_e ≤ d(v) · w(v)/d(v) = w(v)``.  This holds as well
    with injected degrees as long as ``degrees[v]`` upper-bounds the number
    of edges incident to ``v`` in the edge set being initialized.
    """
    w, d = _resolve(graph, weights, degrees)
    with np.errstate(divide="ignore"):
        ratio = np.where(d > 0, w / np.maximum(d, 1), np.inf)
    ru, rv = graph.endpoint_values(ratio)
    return np.minimum(ru, rv)


def uniform_init(
    graph: WeightedGraph,
    *,
    weights: Optional[np.ndarray] = None,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Classic initialization ``x_e = min_v w(v) / n`` (constant).

    The paper's ``1/n`` assumes weights rescaled to ``w(v) ≥ 1``; dividing
    by ``n`` after scaling by ``min w`` is the weight-scale-free equivalent.
    Validity: ``Σ_{e∋v} x_e ≤ d(v)·min(w)/n < min(w) ≤ w(v)``.
    """
    w, _ = _resolve(graph, weights, degrees)
    if graph.m == 0:
        return np.empty(0, dtype=np.float64)
    base = float(w.min()) / max(graph.n, 1)
    return np.full(graph.m, base, dtype=np.float64)


def max_degree_scaled_init(
    graph: WeightedGraph,
    *,
    weights: Optional[np.ndarray] = None,
    degrees: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rejected variant ``x_(u,v) = min(w(u), w(v)) / Δ`` (§3.2 discussion).

    Validity: ``Σ_{e∋v} x_e ≤ d(v)·w(v)/Δ ≤ w(v)``.
    """
    w, d = _resolve(graph, weights, degrees)
    if graph.m == 0:
        return np.empty(0, dtype=np.float64)
    delta = int(d.max())
    if delta == 0:
        return np.empty(0, dtype=np.float64)
    wu, wv = graph.endpoint_values(w)
    return np.minimum(wu, wv) / float(delta)


INIT_SCHEMES = {
    "degree_scaled": degree_scaled_init,
    "uniform": uniform_init,
    "max_degree_scaled": max_degree_scaled_init,
}
