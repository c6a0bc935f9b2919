"""The BDH18 MWVC adapter to the congested clique (experiment E10).

The clique simulator the test oracle runs Algorithm 1 on lives in
``tests/clique_model.py``.
"""

from repro.congested.mwvc import (
    LENZEN_ROUNDS,
    CongestedCliqueMWVCResult,
    congested_clique_mwvc,
)

__all__ = [
    "congested_clique_mwvc",
    "CongestedCliqueMWVCResult",
    "LENZEN_ROUNDS",
]
