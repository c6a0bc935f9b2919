"""Cross-reference: paper statements → code locations.

:data:`PAPER_MAP` maps every algorithm line, theorem, lemma, proposition
and named technique of Ghaffari–Jin–Nilis (SPAA 2020) to the symbol(s)
implementing or validating it.  The map is executable documentation: the
test suite imports every referenced symbol, so a refactor that breaks the
correspondence fails CI.

Use :func:`where` for interactive lookup::

    >>> where("Algorithm 2 Line (2i) (safety freeze y \u2265 w')")[0]
    'repro.core.phase_kernel.simulate_phase_vectorized'
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["PAPER_MAP", "where"]

#: Statement -> list of fully qualified symbols.
PAPER_MAP: Dict[str, List[str]] = {
    # ----- Section 1: model ------------------------------------------------
    "MPC model (Section 1.1)": [
        "repro.mpc.cluster.Cluster",
        "repro.mpc.machine.Machine",
        "repro.mpc.message.payload_words",
    ],
    "near-linear memory regime S = Θ̃(n)": [
        "repro.core.params.MPCParameters.machine_capacity_words",
    ],
    "congested clique model (Section 1.3)": [
        "repro.congested.mwvc.congested_clique_mwvc",
        "repro.congested.mwvc.LENZEN_ROUNDS",
    ],
    "BDH18 semi-MPC ≡ congested clique": [
        "repro.congested.mwvc.congested_clique_mwvc",
    ],
    # ----- Section 2: preliminaries ----------------------------------------
    "LP relaxation / dual (Figure 1)": [
        "repro.baselines.lp.lp_relaxation",
        "repro.core.certificates.fractional_matching_violation",
    ],
    # ----- Section 3.1: Algorithm 1 ----------------------------------------
    "Algorithm 1 (generic centralized MWVC)": [
        "repro.core.centralized.run_centralized",
    ],
    "Algorithm 1 Line 2 (valid initial fractional matching)": [
        "repro.core.initialization.degree_scaled_init",
        "repro.core.initialization.uniform_init",
    ],
    "Algorithm 1 Line 3 (random thresholds T_{v,t})": [
        "repro.core.thresholds.ThresholdSampler",
    ],
    "Observation 3.1 (duals stay feasible)": [
        "repro.core.certificates.fractional_matching_violation",
    ],
    "Lemma 3.2 (weak LP duality)": [
        "repro.core.certificates.certify_cover",
    ],
    "Proposition 3.3 (2+10ε approximation)": [
        "repro.core.certificates.CoverCertificate",
    ],
    "Proposition 3.4 (degree-scaled init, O(log Δ) termination)": [
        "repro.core.initialization.degree_scaled_init",
        "repro.core.centralized.termination_bound",
    ],
    # ----- Section 3.2: techniques ------------------------------------------
    "non-uniform initialization (min(w/d, w/d))": [
        "repro.core.initialization.degree_scaled_init",
    ],
    "rejected min(w,w)/Δ initialization": [
        "repro.core.initialization.max_degree_scaled_init",
    ],
    "orientation argument": [
        "repro.core.orientation.orient_edges",
        "repro.core.orientation.orientation_report",
    ],
    "V^high / V^inactive split": [
        "repro.core.phase_kernel.split_high",
    ],
    "one-sided bias estimator": [
        "repro.core.params.MPCParameters.bias",
    ],
    # ----- Section 3.3: Algorithm 2 -----------------------------------------
    "Algorithm 2 (MPC simulation)": [
        "repro.core.mpc_mwvc.minimum_weight_vertex_cover",
    ],
    "Algorithm 2 Line (2a) (high/inactive split)": [
        "repro.core.phase_kernel.split_high",
    ],
    "Algorithm 2 Line (2b) (residual weights)": [
        "repro.core.phase_kernel.GlobalState",
    ],
    "Algorithm 2 Line (2c) (initial duals on E[V^high])": [
        "repro.core.phase_kernel.high_edges",
    ],
    "Algorithm 2 Line (2e) (m = √d̄, iterations I)": [
        "repro.core.params.MPCParameters.num_machines",
        "repro.core.params.MPCParameters.iterations_per_phase",
    ],
    "Algorithm 2 Line (2f) (random partition)": [
        "repro.mpc.partition.random_assignment",
    ],
    "Algorithm 2 Line (2g) (local simulation)": [
        "repro.core.phase_kernel.local_iterations",
        "repro.core.phase_kernel.simulate_phase_vectorized",
        "repro.core.engine_cluster.ClusterEngine.run_phase",
    ],
    "Algorithm 2 Line (2h) (dual finalization x0/(1-ε)^t')": [
        "repro.core.phase_kernel.final_duals",
    ],
    "Algorithm 2 Line (2i) (safety freeze y ≥ w')": [
        "repro.core.phase_kernel.simulate_phase_vectorized",
    ],
    "Algorithm 2 Line (2j) (inactive-side duals = 0)": [
        "repro.core.phase_kernel.apply_outcome",
    ],
    "Algorithm 2 Line (2k) (residual degrees)": [
        "repro.core.phase_kernel.apply_outcome",
    ],
    "Algorithm 2 Line 3 (final centralized phase)": [
        "repro.core.mpc_mwvc.minimum_weight_vertex_cover",
    ],
    "Remark 4.2 (residual degrees, not V^high degrees)": [
        "repro.core.phase_kernel.high_edges",
    ],
    # ----- Section 4: analysis → experiments --------------------------------
    "Theorem 1.1 / Theorem 4.5 (O(log log d̄) rounds)": [
        "repro.analysis.experiments.experiment_round_complexity",
        "repro.core.asymptotics.paper_phase_recursion",
    ],
    "Lemma 4.1 (per-machine memory O(n))": [
        "repro.analysis.experiments.experiment_memory",
        "repro.mpc.exceptions.MemoryLimitExceeded",
    ],
    "Observation 4.3 (active out-degree bound)": [
        "repro.analysis.experiments.experiment_degree_reduction",
    ],
    "Lemma 4.4 (surviving edges ≤ 2nd̄(1-ε)^I)": [
        "repro.core.orientation.orientation_report",
    ],
    "Lemma 4.6 (coupled-run deviation ≤ 6ε)": [
        "repro.analysis.experiments.experiment_deviation",
    ],
    "Theorem 4.7 (2+30ε approximation)": [
        "repro.analysis.experiments.experiment_approximation",
    ],
    # ----- comparators the paper cites ---------------------------------------
    "pre-paper O(log n) baseline (KY09-style)": [
        "repro.baselines.local_baseline.local_round_by_round",
    ],
    "GGK+18 unweighted algorithm": [
        "repro.baselines.ggk_unweighted.unweighted_mpc_vertex_cover",
    ],
    "BYE81 / Hoc82 sequential primal-dual": [
        "repro.baselines.pricing.pricing_vertex_cover",
    ],
}


def where(statement: str) -> List[str]:
    """Symbols implementing ``statement`` (KeyError lists known statements)."""
    try:
        return PAPER_MAP[statement]
    except KeyError:
        known = "\n  ".join(sorted(PAPER_MAP))
        raise KeyError(f"unknown statement {statement!r}; known statements:\n  {known}") from None
