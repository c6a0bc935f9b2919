"""LP relaxation of MWVC: the exact fractional optimum.

The LP relaxation (Figure 1 of the paper)::

    min  Σ_v w(v) · z_v
    s.t. z_u + z_v ≥ 1   for every edge (u, v)
         z_v ≥ 0

has an optimum that lower-bounds OPT.

The LP value is the tightest tractable lower bound for medium instances in
experiment E2 (exact search handles the small ones, the algorithm's own dual
certificate handles the large ones — and ``dual ≤ LP`` always, so the three
bounds are mutually consistent, which the integration tests check).

Solved with ``scipy.optimize.linprog`` (HiGHS) on a sparse constraint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import WeightedGraph

__all__ = ["LPResult", "lp_relaxation"]


@dataclass(frozen=True)
class LPResult:
    """Fractional optimum of the vertex-cover LP."""

    z: np.ndarray
    lp_value: float
    status: int

    @property
    def ok(self) -> bool:
        return self.status == 0


def lp_relaxation(graph: WeightedGraph) -> LPResult:
    """Solve the vertex-cover LP relaxation exactly.

    Returns the optimal fractional solution and its value (a lower bound on
    the weight of every vertex cover).  Edgeless graphs yield ``z = 0``.
    """
    import scipy.sparse as sp  # SciPy loads only when an LP is solved
    from scipy.optimize import linprog

    n, m = graph.n, graph.m
    if m == 0:
        return LPResult(z=np.zeros(n), lp_value=0.0, status=0)
    rows = np.repeat(np.arange(m, dtype=np.int64), 2)
    cols = np.empty(2 * m, dtype=np.int64)
    cols[0::2] = graph.edges_u
    cols[1::2] = graph.edges_v
    data = np.ones(2 * m, dtype=np.float64)
    # linprog wants A_ub @ z <= b_ub; encode z_u + z_v >= 1 as -(z_u+z_v) <= -1.
    a_ub = sp.csr_matrix((-data, (rows, cols)), shape=(m, n))
    res = linprog(
        c=graph.weights,
        A_ub=a_ub,
        b_ub=-np.ones(m),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if res.status != 0:
        return LPResult(z=np.zeros(n), lp_value=float("nan"), status=int(res.status))
    return LPResult(z=np.asarray(res.x), lp_value=float(res.fun), status=0)
