"""Congested-clique model and the BDH18 MWVC adapter (experiment E10)."""

from repro.congested.clique import CliqueMessage, CongestedClique, LinkCapacityExceeded
from repro.congested.mwvc import (
    LENZEN_ROUNDS,
    CongestedCliqueMWVCResult,
    congested_clique_mwvc,
)

__all__ = [
    "CongestedClique",
    "CliqueMessage",
    "LinkCapacityExceeded",
    "congested_clique_mwvc",
    "CongestedCliqueMWVCResult",
    "LENZEN_ROUNDS",
]
