"""When to stop repairing and re-solve: the drift-bounded policy.

Incremental repair keeps the cover *valid* forever, but its *certificate*
decays: deletions retire dual mass the cover weight was charged against,
weight drops bend the load factor, and pricing repairs are only locally
optimal.  Following the local-search playbook (cheap repair + occasional
global restart), :class:`ResolvePolicy` bounds the decay — the exposed
cover is always certified within ``base_ratio · (1 + max_drift)``, where
``base_ratio ≤ 2 + O(ε)`` is the certificate of the last full MPC solve.

The policy is a pure decision function over maintainer observables; it
performs no solving itself.  :func:`repro.dynamic.stream.run_stream`
executes triggered re-solves through the batch service (so repeated graph
states — e.g. sliding-window churn — hit the result cache instead of the
solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ResolvePolicy", "ResolveDecision"]


@dataclass(frozen=True)
class ResolveDecision:
    """Outcome of one policy evaluation."""

    resolve: bool
    reason: str

    def __bool__(self) -> bool:
        return self.resolve


@dataclass(frozen=True)
class ResolvePolicy:
    """Decides after each batch whether to trigger a full re-solve.

    An unbounded certificate (``ratio = inf``, i.e. positive cover weight
    with zero dual mass) always triggers a re-solve, regardless of the
    cooldown.

    Attributes
    ----------
    max_drift:
        Tolerated relative certificate degradation: re-solve once
        ``certified_ratio > base_ratio · (1 + max_drift)``.
    ratio_ceiling:
        Optional absolute bound on the certified ratio, applied on top of
        the drift rule (whichever trips first).
    min_batches_between:
        Cooldown: at least this many batches between consecutive re-solves
        (the drift rule is suppressed during the cooldown; an unbounded
        certificate still fires).
    max_batches_between:
        Forced refresh: re-solve after this many batches even if the
        certificate looks healthy.  Low-dual-churn streams (e.g. a
        sliding window cycling through similar states) can degrade true
        quality faster than the certificate degrades; a periodic refresh
        bounds that gap.  ``None`` disables the rule.
    every_batch:
        Degenerate policy that re-solves after every batch — the
        no-maintenance baseline the drift policy is tested against
        (``tests/dynamic/test_stream.py::TestDriftPolicySavesResolves``).
    """

    max_drift: float = 0.25
    ratio_ceiling: Optional[float] = None
    min_batches_between: int = 1
    max_batches_between: Optional[int] = None
    every_batch: bool = False

    def __post_init__(self):
        if self.max_drift < 0:
            raise ValueError(f"max_drift must be >= 0, got {self.max_drift}")
        if self.ratio_ceiling is not None and self.ratio_ceiling <= 1:
            raise ValueError(f"ratio_ceiling must be > 1, got {self.ratio_ceiling}")
        if self.min_batches_between < 0:
            raise ValueError(
                f"min_batches_between must be >= 0, got {self.min_batches_between}"
            )
        if self.max_batches_between is not None and (
            self.max_batches_between < 1
            or self.max_batches_between < self.min_batches_between
        ):
            raise ValueError(
                f"max_batches_between must be >= max(1, min_batches_between), "
                f"got {self.max_batches_between}"
            )

    def should_resolve(
        self,
        *,
        certified_ratio: float,
        base_ratio: Optional[float],
        batches_since_resolve: int,
    ) -> ResolveDecision:
        """Evaluate the policy against the maintainer's observables.

        Parameters
        ----------
        certified_ratio:
            The maintainer's current certified ratio (may be ``inf``).
        base_ratio:
            Certified ratio right after the last adopted solve, or ``None``
            if no solution was ever adopted (always triggers).
        batches_since_resolve:
            Batches applied since the last adopted solve.
        """
        if base_ratio is None:
            return ResolveDecision(True, "no adopted solution yet")
        if self.every_batch:
            return ResolveDecision(True, "every-batch policy")
        if math.isinf(certified_ratio):
            return ResolveDecision(True, "certificate unbounded (zero dual mass)")
        if batches_since_resolve < self.min_batches_between:
            return ResolveDecision(
                False, f"cooldown ({batches_since_resolve}/{self.min_batches_between})"
            )
        if (
            self.max_batches_between is not None
            and batches_since_resolve >= self.max_batches_between
        ):
            return ResolveDecision(
                True, f"periodic refresh ({self.max_batches_between} batches)"
            )
        if self.ratio_ceiling is not None and certified_ratio > self.ratio_ceiling:
            return ResolveDecision(
                True,
                f"ratio {certified_ratio:.3f} above ceiling {self.ratio_ceiling:.3f}",
            )
        if math.isfinite(base_ratio) and base_ratio > 0:
            bound = base_ratio * (1.0 + self.max_drift)
            if certified_ratio > bound:
                return ResolveDecision(
                    True,
                    f"drift bound exceeded: ratio {certified_ratio:.3f} > "
                    f"{base_ratio:.3f}·(1+{self.max_drift}) = {bound:.3f}",
                )
        return ResolveDecision(False, "within drift budget")
