"""Comparators: sequential 2-approximations, the LP bound, exact search,
and the pre-paper O(log n)-round MPC baseline."""

from repro.baselines.exact import ExactResult, exact_mwvc
from repro.baselines.ggk_unweighted import (
    UnweightedBaselineResult,
    unweighted_mpc_vertex_cover,
)
from repro.baselines.greedy import GreedyResult, greedy_vertex_cover
from repro.baselines.local_baseline import LocalBaselineResult, local_round_by_round
from repro.baselines.lp import LPResult, lp_relaxation
from repro.baselines.pricing import PricingResult, pricing_vertex_cover

__all__ = [
    "pricing_vertex_cover",
    "PricingResult",
    "greedy_vertex_cover",
    "GreedyResult",
    "lp_relaxation",
    "LPResult",
    "exact_mwvc",
    "ExactResult",
    "local_round_by_round",
    "LocalBaselineResult",
    "unweighted_mpc_vertex_cover",
    "UnweightedBaselineResult",
]
