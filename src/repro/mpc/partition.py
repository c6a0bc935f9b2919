"""Random vertex partitioning (Algorithm 2, Line (2f)).

Every phase of the MPC algorithm assigns each simulated vertex to one of
``m`` machines independently and uniformly at random.  Both execution
engines (vectorized and cluster) must consume *identical* assignments for a
given seed, so the assignment is produced here, once, as a plain array, and
handed to whichever engine runs the phase.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["assignment_counts", "local_edge_mask", "random_assignment"]


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


def assignment_counts(assignment: np.ndarray, num_machines: int) -> np.ndarray:
    """Number of items per machine."""
    return np.bincount(assignment, minlength=num_machines).astype(np.int64)


def local_edge_mask(
    assignment_u: np.ndarray, assignment_v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Identify machine-local edges under a vertex assignment.

    Parameters
    ----------
    assignment_u, assignment_v:
        Machine ids of the two endpoints of every edge (``-1`` for endpoints
        that are not being simulated this phase).

    Returns
    -------
    (is_local, owner):
        ``is_local[e]`` is True when both endpoints are simulated and landed
        on the same machine; ``owner[e]`` is that machine id for local edges
        and ``-1`` otherwise.
    """
    a = np.asarray(assignment_u)
    b = np.asarray(assignment_v)
    if a.shape != b.shape:
        raise ValueError("assignment arrays must have equal shape")
    is_local = (a == b) & (a >= 0)
    owner = np.where(is_local, a, -1)
    return is_local, owner
