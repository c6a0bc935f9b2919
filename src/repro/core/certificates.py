"""Verification and approximation certificates via weak LP duality.

The primal–dual structure of the algorithm yields a *checkable certificate*
with every solution:

* the returned vertex set must cover all edges (checked exactly);
* the final duals ``{x_e}`` form a near-feasible fractional matching: for
  every vertex, ``Σ_{e∋v} x_e ≤ load_factor · w(v)`` where the measured
  ``load_factor`` is ``1 + O(ε)`` (Theorem 4.7 shows ``≤ 1 + 6ε`` w.h.p.);
* by weak duality (Lemma 3.2), ``Σ_e x_e / load_factor ≤ OPT``, so

      certified_ratio = w(C) · load_factor / Σ_e x_e  ≥  w(C) / OPT

  is a *sound upper bound* on the true approximation ratio, computable at
  any scale without knowing OPT.

Experiment E2 reports certified ratios next to exact ratios (small
instances) and LP-relaxation ratios (medium instances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import WeightedGraph

__all__ = ["CoverCertificate", "certify_cover", "fractional_matching_violation"]


@dataclass(frozen=True)
class CoverCertificate:
    """Certificate accompanying a vertex-cover solution.

    Attributes
    ----------
    is_cover:
        Whether every edge has a chosen endpoint (hard requirement).
    cover_weight:
        ``w(C)``.
    dual_value:
        ``Σ_e x_e``.
    load_factor:
        ``max(1, max_v Σ_{e∋v} x_e / w(v))`` — 1 means the duals are an
        exactly feasible fractional matching.
    opt_lower_bound:
        ``dual_value / load_factor ≤ OPT``.
    certified_ratio:
        ``cover_weight / opt_lower_bound`` — a sound upper bound on the
        solution's true approximation ratio (``inf`` when the dual value is
        zero, e.g. on edgeless graphs, where ``cover_weight`` is 0 too and
        the solution is trivially optimal).
    """

    is_cover: bool
    cover_weight: float
    dual_value: float
    load_factor: float
    opt_lower_bound: float
    certified_ratio: float

    def to_dict(self) -> dict:
        """Exact JSON-friendly form (nested in ``repro stream`` records)."""
        return {
            "is_cover": bool(self.is_cover),
            "cover_weight": float(self.cover_weight),
            "dual_value": float(self.dual_value),
            "load_factor": float(self.load_factor),
            "opt_lower_bound": float(self.opt_lower_bound),
            "certified_ratio": float(self.certified_ratio),
        }

    def summary(self) -> dict:
        return self.to_dict()


def fractional_matching_violation(
    graph: WeightedGraph, x: np.ndarray, *, weights: np.ndarray | None = None
) -> float:
    """Worst relative dual-constraint violation of ``x``.

    Returns ``max_v (Σ_{e∋v} x_e) / w(v)``; values ``≤ 1`` mean ``x`` is a
    feasible fractional matching (Observation 3.1).  Returns 0.0 for graphs
    with no vertices.
    """
    w = graph.weights if weights is None else np.asarray(weights, dtype=np.float64)
    if graph.n == 0:
        return 0.0
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (graph.m,):
        raise ValueError(f"x must have shape ({graph.m},), got {x.shape}")
    if x.size and float(x.min()) < 0:
        raise ValueError("duals must be nonnegative")
    loads = graph.incident_sums(x)
    return float((loads / w).max())


def certify_cover(
    graph: WeightedGraph,
    in_cover: np.ndarray,
    x: np.ndarray,
    *,
    weights: np.ndarray | None = None,
) -> CoverCertificate:
    """Build the duality certificate for a solution ``(in_cover, x)``."""
    w = graph.weights if weights is None else np.asarray(weights, dtype=np.float64)
    is_cover = graph.is_vertex_cover(in_cover)
    cover_weight = float(w[np.asarray(in_cover, dtype=bool)].sum())
    dual_value = float(np.asarray(x, dtype=np.float64).sum())
    load = fractional_matching_violation(graph, x, weights=w)
    load_factor = max(1.0, load)
    if dual_value > 0:
        lower = dual_value / load_factor
        ratio = cover_weight / lower
    else:
        lower = 0.0
        ratio = 1.0 if cover_weight == 0.0 else float("inf")
    return CoverCertificate(
        is_cover=is_cover,
        cover_weight=cover_weight,
        dual_value=dual_value,
        load_factor=load_factor,
        opt_lower_bound=lower,
        certified_ratio=ratio,
    )
