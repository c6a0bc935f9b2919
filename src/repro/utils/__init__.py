"""Shared utilities: seeded RNG streams, validation helpers, a lap timer.

The algorithms in :mod:`repro` are randomized; reproducibility is achieved by
deriving every random draw from a :class:`numpy.random.SeedSequence` spawned
along a documented path (run -> phase -> purpose).  See :mod:`repro.utils.rng`.
:class:`~repro.utils.timing.Stopwatch` is the stream path's one timer.
"""

from repro.utils.rng import RngFactory, as_seed_sequence, spawn_rng
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_positive,
    ensure_int_array,
    ensure_float_array,
)

__all__ = [
    "RngFactory",
    "as_seed_sequence",
    "spawn_rng",
    "Stopwatch",
    "check_fraction",
    "check_positive",
    "ensure_int_array",
    "ensure_float_array",
]
