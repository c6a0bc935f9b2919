"""Algorithm 1: the generic centralized primal–dual MWVC algorithm.

This is the LOCAL-model algorithm that Algorithm 2 round-compresses, and it
doubles as (a) the final phase of the MPC algorithm (Line 3), (b) the
O(log n)-round baseline of experiment E7 (one LOCAL iteration per MPC round),
and (c) the reference run of the coupling experiment E6.

Semantics (paper lines):

2. initialize a valid fractional matching ``{x_{e,0}}``;
3. thresholds ``T_{v,t} ∈ [1-4ε, 1-2ε]``;
4. while an active edge exists, iterate ``t``:
   (a) freeze every active vertex with ``y_{v,t} = Σ_{e∋v} x_{e,t} ≥ T_{v,t}·w(v)``
       (frozen vertices enter the cover; their incident edges freeze);
   (b) multiply every active edge's dual by ``1/(1-ε)``;
   (c) frozen edges keep their dual;
5. return the frozen vertices.

The loop is fully vectorized: one ``incident_sums`` (two bincounts) plus a
few masked array ops per iteration.

Termination: an edge active for ``k`` iterations has
``x_e ≥ x_{e,0}/(1-ε)^k``; once that exceeds ``w(u)`` the endpoint must have
frozen — contradiction.  So the loop ends within
``log_{1/(1-ε)}(max_v w(v) / min_e x_{e,0}) + 2`` iterations; the
implementation computes this bound and raises if it is ever exceeded (which
would indicate a bug, not an input problem).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.core.initialization import INIT_SCHEMES
from repro.core.thresholds import ThresholdSampler
from repro.graphs.graph import WeightedGraph
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fraction

__all__ = ["CentralizedResult", "run_centralized", "termination_bound"]


@dataclass
class CentralizedResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    in_cover:
        Boolean mask of frozen vertices — the returned vertex cover.
    x:
        Final dual variables (a valid fractional matching), shape ``(m,)``.
    iterations:
        Number of while-loop iterations executed.
    freeze_iteration:
        Per-vertex iteration at which it froze; ``-1`` if never frozen.
    dual_value:
        ``Σ_e x_e`` — a lower bound on OPT by weak duality (Lemma 3.2).
    trace_y:
        When tracing: list of per-iteration dual-load vectors ``y_{·,t}``
        (the value *checked* at iteration ``t``, before freezing).
    trace_active:
        When tracing: list of per-iteration active-vertex masks (state at
        the *start* of iteration ``t``).
    """

    in_cover: np.ndarray
    x: np.ndarray
    iterations: int
    freeze_iteration: np.ndarray
    dual_value: float
    trace_y: List[np.ndarray] = field(default_factory=list)
    trace_active: List[np.ndarray] = field(default_factory=list)

    def cover_weight(self, graph: WeightedGraph) -> float:
        """Total weight of the returned cover."""
        return graph.cover_weight(self.in_cover)


def termination_bound(x0: np.ndarray, weights: np.ndarray, eps: float) -> int:
    """Upper bound on Algorithm 1 iterations for initialization ``x0``.

    ``log_{1/(1-ε)}(max w / min x0) + 2``; for the degree-scaled
    initialization this is the ``O(log Δ)`` of Proposition 3.4, for the
    uniform initialization it is ``O(log(W n))``.
    """
    if x0.size == 0:
        return 0
    ratio = float(weights.max()) / float(x0.min())
    return int(math.ceil(math.log(max(ratio, 1.0)) / math.log(1.0 / (1.0 - eps)))) + 2


def run_centralized(
    graph: WeightedGraph,
    *,
    eps: float = 0.1,
    weights: Optional[np.ndarray] = None,
    init: Union[str, np.ndarray] = "degree_scaled",
    thresholds: Optional[ThresholdSampler] = None,
    seed: SeedLike = None,
    max_iterations: Optional[int] = None,
    trace: bool = False,
) -> CentralizedResult:
    """Run Algorithm 1 on ``graph``.

    Parameters
    ----------
    graph:
        Input graph; ``weights`` overrides its vertex weights (Algorithm 2
        passes residual weights here).
    eps:
        Accuracy parameter ε ∈ (0, 1/4).
    init:
        Either a scheme name (see
        :data:`repro.core.initialization.INIT_SCHEMES`) or an explicit valid
        initial dual vector of shape ``(m,)``.
    thresholds:
        Threshold sampler; default: a fresh sampler from ``seed``.  Passing
        the sampler explicitly is how the coupling experiment forces the
        centralized and MPC runs to see identical draws.
    max_iterations:
        Early stop after this many iterations (used by the coupled phase
        comparison, which only runs ``I`` iterations).  Default: run to
        termination.
    trace:
        Record ``y`` and active-mask per iteration (memory ``O(iters · n)``).

    Returns
    -------
    CentralizedResult
    """
    check_fraction("eps", eps, low=0.0, high=0.25)
    n, m = graph.n, graph.m
    w = graph.weights if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights must have shape ({n},)")
    if n and not (w > 0).all():
        raise ValueError("weights must be strictly positive")

    if isinstance(init, str):
        if init not in INIT_SCHEMES:
            raise ValueError(f"unknown init scheme {init!r}")
        x0 = INIT_SCHEMES[init](graph, weights=w)
    else:
        x0 = np.asarray(init, dtype=np.float64)
        if x0.shape != (m,):
            raise ValueError(f"init vector must have shape ({m},)")
        if m and not (x0 > 0).all():
            raise ValueError("initial duals must be strictly positive (paper Line 2)")

    sampler = thresholds if thresholds is not None else ThresholdSampler(seed, n, eps)
    if sampler.num_vertices != n:
        raise ValueError(
            f"threshold sampler covers {sampler.num_vertices} vertices, graph has {n}"
        )

    guard = termination_bound(x0, w, eps)
    limit = guard if max_iterations is None else min(max_iterations, guard)

    x = x0.copy()
    active_v = np.ones(n, dtype=bool)
    freeze_iteration = np.full(n, -1, dtype=np.int64)
    eu, ev = graph.edges_u, graph.edges_v
    active_e = np.ones(m, dtype=bool)
    growth = 1.0 / (1.0 - eps)

    result = CentralizedResult(
        in_cover=np.zeros(n, dtype=bool),
        x=x,
        iterations=0,
        freeze_iteration=freeze_iteration,
        dual_value=0.0,
    )

    t = 0
    while active_e.any():
        if t >= limit:
            if max_iterations is not None and t >= max_iterations:
                break
            raise RuntimeError(
                f"Algorithm 1 exceeded its termination bound of {guard} iterations; "
                "this indicates an invalid initialization or an internal bug"
            )
        y = graph.incident_sums(x)
        if trace:
            result.trace_y.append(y)
            result.trace_active.append(active_v.copy())
        T = sampler.column(t)
        newly = active_v & (y >= T * w)
        freeze_iteration[newly] = t
        active_v &= ~newly
        active_e &= active_v[eu] & active_v[ev]
        x[np.flatnonzero(active_e)] *= growth
        t += 1

    result.in_cover = freeze_iteration >= 0
    result.x = x
    result.iterations = t
    result.freeze_iteration = freeze_iteration
    result.dual_value = float(x.sum())
    return result
