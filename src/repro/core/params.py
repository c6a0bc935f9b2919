"""Algorithm parameters for the MPC MWVC algorithm (Algorithm 2).

The paper fixes several constants for the purpose of its asymptotic, w.h.p.
analysis: machines ``m = √d̄``, iterations per phase
``I = log m / (10·log 15)``, switch-over at average degree ``log^30 n``, and
estimator bias ``2 · 15^t · m^{-0.2}``.  At any graph size a laptop can hold,
those constants degenerate: ``log^30 n`` exceeds every feasible degree (so
the phase loop would never run), ``I < 1`` (so no iterations would be
simulated), and the bias exceeds the freezing threshold (so every vertex
would freeze at t = 0).

:class:`MPCParameters` therefore exposes each constant as a parameter:

* the defaults keep the paper's *structure* with constants usable at
  experimental scale, chosen to preserve the paper's own targets (see
  DESIGN.md §4): per-phase degree decay ``(1-ε)^I = d^{-1/20}``, stop when
  the remaining edges fit in a single machine's ``Θ(n)`` memory;
* :meth:`MPCParameters.paper` — the verbatim formulas (kept so unit tests can
  pin them, and so the degeneracy itself is documented by executable code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.utils.validation import check_fraction, check_positive

__all__ = ["MPCParameters"]

_LOG15 = math.log(15.0)


@dataclass(frozen=True)
class MPCParameters:
    """Tunable constants of Algorithm 2.

    Attributes
    ----------
    eps:
        Accuracy parameter ε ∈ (0, 1/4).  Thresholds are drawn from
        ``[1-4ε, 1-2ε]``; active duals grow by ``1/(1-ε)`` per iteration;
        the approximation guarantee is ``2 + O(ε)``.  (The paper states
        ε < 1/2 for the round analysis, but the approximation proof —
        Proposition 3.3's ``2/(1-4ε)`` factor — and a positive threshold
        interval both require ε < 1/4, so that is enforced here.)
    high_degree_exponent:
        The ``V^high`` cutoff is ``d̄ ^ high_degree_exponent`` (paper: 0.95).
    min_machines:
        Lower bound on the number of machines per phase, which is
        ``m = max(min_machines, ⌈√d̄⌉)`` (paper: ``√d̄``; the floor makes
        sampling actually happen, where the paper's regime has ``m`` huge).
    iteration_rule:
        ``"paper"``: ``I = ⌊log m / (10·log 15)⌋`` (degenerates to 0 at
        laptop scale); ``"practical"``: ``I = max(1, ⌈log d̄ /
        (20·log(1/(1-ε)))⌉)``, which preserves the paper's per-phase decay
        target ``(1-ε)^I = d̄^{-1/20}``.
    iterations_override:
        Fixed per-phase iteration count; overrides ``iteration_rule``.
    stop_rule:
        ``"paper"``: run phases while ``d̄ > log^30 n``; ``"practical"``: run
        phases while the number of nonfrozen edges exceeds the single-machine
        capacity ``S``.
    memory_factor:
        Machine memory is ``S = memory_factor · n`` words (the Θ̃(n) of the
        near-linear regime).
    bias_coeff, bias_growth, bias_machine_exponent:
        Estimator bias ``bias(t) = bias_coeff · bias_growth^t ·
        m^{bias_machine_exponent} · w'(v)`` (paper: ``2 · 15^t · m^{-0.2}``,
        made dimensionally consistent with Corollary 4.12 by the ``w'(v)``
        factor — see DESIGN.md §2).  The practical default is unbiased
        (coeff 0), the GGK+18 style estimator.
    max_phases:
        Hard cap on compressed phases (safety net; the practical stop rule
        terminates long before this on all tested inputs).
    stall_phases:
        Fall through to the final centralized phase after this many
        consecutive phases without reducing the nonfrozen edge count
        (robustness guard for adversarially tiny inputs).
    """

    eps: float = 0.1
    high_degree_exponent: float = 0.95
    min_machines: int = 2
    iteration_rule: str = "practical"
    iterations_override: int | None = None
    stop_rule: str = "practical"
    memory_factor: float = 16.0
    bias_coeff: float = 0.0
    bias_growth: float = 1.0
    bias_machine_exponent: float = -0.2
    max_phases: int = 64
    stall_phases: int = 3

    def __post_init__(self):
        check_fraction("eps", self.eps, low=0.0, high=0.25)
        check_fraction("high_degree_exponent", self.high_degree_exponent, low=0.0, high=1.0)
        check_positive("memory_factor", self.memory_factor)
        if self.iteration_rule not in ("paper", "practical"):
            raise ValueError(f"unknown iteration_rule {self.iteration_rule!r}")
        if self.stop_rule not in ("paper", "practical"):
            raise ValueError(f"unknown stop_rule {self.stop_rule!r}")
        if self.min_machines < 1:
            raise ValueError("min_machines must be >= 1")
        if self.iterations_override is not None and self.iterations_override < 0:
            raise ValueError("iterations_override must be >= 0")
        if self.max_phases < 1:
            raise ValueError("max_phases must be >= 1")
        if self.stall_phases < 1:
            raise ValueError("stall_phases must be >= 1")
        if self.bias_coeff < 0:
            raise ValueError("bias_coeff must be >= 0")
        if self.bias_growth <= 0:
            raise ValueError("bias_growth must be > 0")

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls, eps: float = 0.1) -> "MPCParameters":
        """The paper's verbatim constants (degenerate at laptop scale)."""
        return cls(
            eps=eps,
            iteration_rule="paper",
            stop_rule="paper",
            bias_coeff=2.0,
            bias_growth=15.0,
            bias_machine_exponent=-0.2,
            min_machines=1,
        )

    def with_(self, **overrides) -> "MPCParameters":
        """Copy with selected fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # derived quantities (shared by both execution engines)
    # ------------------------------------------------------------------ #
    def num_machines(self, avg_degree: float) -> int:
        """Machines for a phase: ``m = max(min_machines, ⌈√d̄⌉)``."""
        if avg_degree < 0:
            raise ValueError("avg_degree must be >= 0")
        return max(self.min_machines, int(math.ceil(math.sqrt(max(avg_degree, 1.0)))))

    def iterations_per_phase(self, avg_degree: float, num_machines: int) -> int:
        """Compressed LOCAL iterations ``I`` for a phase."""
        if self.iterations_override is not None:
            return int(self.iterations_override)
        if self.iteration_rule == "paper":
            # I = log m / (10 log 15); floors to 0 for any feasible m.
            return max(0, int(math.log(max(num_machines, 2)) / (10.0 * _LOG15)))
        # practical: (1-eps)^I = d^{-1/20}, i.e. the paper's per-phase decay
        # target with the union-bound safety factor removed.
        d = max(avg_degree, 2.0)
        denom = 20.0 * math.log(1.0 / (1.0 - self.eps))
        return max(1, int(math.ceil(math.log(d) / denom)))

    def high_degree_cutoff(self, avg_degree: float) -> float:
        """Degree threshold for ``V^high``: ``d̄ ^ high_degree_exponent``."""
        return max(avg_degree, 0.0) ** self.high_degree_exponent

    def machine_capacity_words(self, n: int) -> int:
        """Per-machine memory ``S = memory_factor · n`` words."""
        return max(1, int(self.memory_factor * n))

    def final_phase_edge_capacity(self, n: int) -> int:
        """Largest residual edge count the final centralized phase accepts.

        The final phase gathers every nonfrozen edge to one machine (3 words
        per edge in flight, plus the solver's own per-edge state), so the
        practical switch-over happens at ``S / 8`` edges — guaranteeing the
        gather and the solve both fit within the ``S``-word limits.
        """
        return max(1, self.machine_capacity_words(n) // 8)

    def should_continue(self, *, n: int, nonfrozen_edges: int, avg_degree: float) -> bool:
        """Whether the phase loop continues (Line 2 condition)."""
        if self.stop_rule == "paper":
            return avg_degree > math.log(max(n, 3)) ** 30
        return nonfrozen_edges > self.final_phase_edge_capacity(n)

    def bias(self, t: int, num_machines: int) -> float:
        """Estimator bias multiplier on ``w'(v)`` at local iteration ``t``."""
        if self.bias_coeff == 0.0:
            return 0.0
        return (
            self.bias_coeff
            * self.bias_growth ** int(t)
            * float(num_machines) ** self.bias_machine_exponent
        )

    def growth_factor(self) -> float:
        """Per-iteration dual growth ``1/(1-ε)``."""
        return 1.0 / (1.0 - self.eps)
