"""repro — reproduction of "A Massively Parallel Algorithm for Minimum Weight
Vertex Cover" (Ghaffari, Jin, Nilis; SPAA 2020, arXiv:2005.10566).

Public API highlights
---------------------
:func:`repro.minimum_weight_vertex_cover`
    The paper's algorithm: (2+O(ε))-approximate MWVC in O(log log d̄) MPC
    phases, with a duality certificate attached to every result.
:mod:`repro.graphs`
    Weighted-graph substrate: CSR graphs, generators, weight models, IO.
:mod:`repro.mpc`
    MPC cluster simulator with memory/communication enforcement.
:mod:`repro.congested`
    The BDH18 adapter: MPC rounds translated to the congested clique.
:mod:`repro.baselines`
    Sequential 2-approximations, LP bounds, exact solver, and the
    O(log n)-round LOCAL baseline the paper improves on.
:mod:`repro.dynamic`
    Incremental cover maintenance over update streams: local repair with a
    live duality certificate, drift-bounded re-solves through the batch
    service.

Quickstart
----------
>>> import repro
>>> g = repro.graphs.gnp_average_degree(1000, 16.0, seed=0)
>>> res = repro.minimum_weight_vertex_cover(g, eps=0.1, seed=1)
>>> bool(res.verify(g))
True
"""

from repro import baselines, congested, core, dynamic, graphs, mpc, utils  # noqa: F401
from repro.core.centralized import run_centralized
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.params import MPCParameters
from repro.core.result import MWVCResult
from repro.graphs.graph import WeightedGraph

__version__ = "1.0.0"

__all__ = [
    "minimum_weight_vertex_cover",
    "run_centralized",
    "MPCParameters",
    "MWVCResult",
    "WeightedGraph",
    "graphs",
    "mpc",
    "core",
    "baselines",
    "congested",
    "dynamic",
    "utils",
    "__version__",
]
