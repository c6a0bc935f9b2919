"""Deterministic random-stream management.

Every stochastic component of the reproduction (graph generation, vertex
partitioning, threshold sampling) draws from a generator derived from a
:class:`numpy.random.SeedSequence`.  Distinct *purposes* receive distinct
child streams identified by small integer keys, so that two executions that
need the *same* draws (e.g. the coupled centralized/MPC runs of experiment
E6, or the vectorized/cluster engine equivalence test) can reconstruct them
independently.

Purpose keys used across the code base
--------------------------------------
======  ==============================================
key     purpose
======  ==============================================
0       graph topology generation
1       vertex weight generation
2       per-phase vertex partitioning
3       per-phase threshold sampling
4       baseline-internal randomness
======  ==============================================

Phase-scoped streams append the phase index after the purpose key, i.e. the
spawn path is ``root -> (purpose, phase)``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, None]

#: Named purpose keys (documented in the module docstring).
PURPOSE_TOPOLOGY = 0
PURPOSE_WEIGHTS = 1
PURPOSE_PARTITION = 2
PURPOSE_THRESHOLDS = 3
PURPOSE_BASELINE = 4


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Coerce ``seed`` into a :class:`numpy.random.SeedSequence`.

    ``None`` produces a fresh, OS-entropy-backed sequence; an ``int`` produces
    the deterministic sequence for that seed; an existing sequence is returned
    unchanged (not copied — SeedSequence is immutable).
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        return np.random.SeedSequence()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"cannot interpret {type(seed).__name__} as a seed")


def spawn_rng(seed: SeedLike, *path: int) -> np.random.Generator:
    """Return a generator for the child stream at ``path`` under ``seed``.

    The path is folded into the seed sequence via ``spawn_key`` extension,
    which guarantees independence between distinct paths and reproducibility
    for equal paths.
    """
    base = as_seed_sequence(seed)
    if path:
        child = np.random.SeedSequence(
            entropy=base.entropy,
            spawn_key=tuple(base.spawn_key) + tuple(int(p) for p in path),
        )
    else:
        child = base
    return np.random.default_rng(child)


class RngFactory:
    """Factory of reproducible, purpose-scoped random generators.

    Parameters
    ----------
    seed:
        Root seed (``int``, :class:`~numpy.random.SeedSequence`, or ``None``
        for fresh entropy).

    Examples
    --------
    >>> f = RngFactory(7)
    >>> a = f.for_purpose(PURPOSE_PARTITION, phase=0).integers(0, 10, 4)
    >>> b = RngFactory(7).for_purpose(PURPOSE_PARTITION, phase=0).integers(0, 10, 4)
    >>> bool((a == b).all())
    True
    """

    def __init__(self, seed: SeedLike = None):
        self._root = as_seed_sequence(seed)

    @property
    def root(self) -> np.random.SeedSequence:
        """The root seed sequence (immutable)."""
        return self._root

    def for_purpose(self, purpose: int, phase: int = 0) -> np.random.Generator:
        """Generator for ``(purpose, phase)``; identical inputs => identical stream."""
        return spawn_rng(self._root, int(purpose), int(phase))

    def child(self, *path: int) -> "RngFactory":
        """A factory rooted at a child path (used to give sub-algorithms
        their own namespaces without risking stream collisions)."""
        base = self._root
        seq = np.random.SeedSequence(
            entropy=base.entropy,
            spawn_key=tuple(base.spawn_key) + tuple(int(p) for p in path),
        )
        return RngFactory(seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngFactory(entropy={self._root.entropy}, spawn_key={self._root.spawn_key})"
