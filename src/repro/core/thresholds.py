"""Random freezing thresholds ``T_{v,t}`` (Algorithm 1 Line 3 / Algorithm 2 Line 2d).

The thresholds are independent uniform draws from ``[1-4ε, 1-2ε]``, one per
(vertex, iteration) pair.  Their role (from [GGK+18]): a *fixed* threshold
would let an adversarial estimate error flip a freeze decision with
probability 1; a random threshold makes a vertex "bad" only when the
threshold happens to land inside the (small) error window, which occurs with
probability ``error / (2ε·w'(v))`` (Lemma 4.8).

:class:`ThresholdSampler` materializes columns lazily and deterministically:
``column(t)`` depends only on ``(seed, t)``, so the centralized run and both
MPC engines see identical draws.  In the model, every simulation machine
regenerates the thresholds from the shared seed instead of receiving them
(the paper notes thresholds need not be stored); since a column depends on
nothing else, one sampler per phase stands for every machine's
regeneration.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_seed_sequence, spawn_rng
from repro.utils.validation import check_fraction

__all__ = ["ThresholdSampler"]


class ThresholdSampler:
    """Deterministic lazy matrix of thresholds ``T[v, t] ~ U[1-4ε, 1-2ε]``.

    Parameters
    ----------
    seed:
        Stream root; equal seeds yield equal threshold matrices.
    num_vertices:
        Number of rows (vertices being simulated).
    eps:
        Accuracy parameter; determines the support ``[1-4ε, 1-2ε]``.
    """

    def __init__(self, seed: SeedLike, num_vertices: int, eps: float):
        check_fraction("eps", eps, low=0.0, high=0.25)
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        self._seed = as_seed_sequence(seed)
        self.num_vertices = int(num_vertices)
        self.eps = float(eps)
        self.low = 1.0 - 4.0 * self.eps
        self.high = 1.0 - 2.0 * self.eps
        self._cache: dict[int, np.ndarray] = {}

    def column(self, t: int) -> np.ndarray:
        """Thresholds for iteration ``t`` (shape ``(num_vertices,)``).

        Columns are cached; repeated calls return the same array object.
        """
        t = int(t)
        if t < 0:
            raise ValueError("iteration index must be >= 0")
        if t not in self._cache:
            rng = spawn_rng(self._seed, t)
            col = rng.uniform(self.low, self.high, size=self.num_vertices)
            col.setflags(write=False)
            self._cache[t] = col
        return self._cache[t]
