"""Random vertex partitioning (Algorithm 2, Line (2f)).

Every phase of the MPC algorithm assigns each simulated vertex to one of
``m`` machines independently and uniformly at random.  Both execution
engines (vectorized and cluster) must consume *identical* assignments for a
given seed, so the assignment is produced here, once, as a plain array, and
handed to whichever engine runs the phase.
"""

from __future__ import annotations

import numpy as np

__all__ = ["random_assignment"]


def random_assignment(
    rng: np.random.Generator, num_items: int, num_machines: int
) -> np.ndarray:
    """I.i.d. uniform machine assignment for ``num_items`` items.

    Returns an ``int64`` array ``a`` with ``a[i] ∈ [0, num_machines)``.
    """
    if num_machines < 1:
        raise ValueError(f"num_machines must be >= 1, got {num_machines}")
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    return rng.integers(0, num_machines, size=num_items, dtype=np.int64)
