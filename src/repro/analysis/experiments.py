"""Experiment runners E1–E11 (DESIGN.md §5).

Each function reproduces one measurable claim of the paper and returns a
list of row dicts; the benchmark suite times the underlying computations and
prints the rows with :func:`repro.analysis.tables.render_table`, and
EXPERIMENTS.md records the claim-vs-measured comparison.

The paper has no empirical tables of its own (it is a theory paper), so the
"ground truth" column of every experiment is the *theorem's bound*, and the
reproduction succeeds when the measured shape matches: phases growing like
``log log d̄``, ratios below ``2 + 30ε``, per-machine memory ``O(n)``, and
so on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.stats import geometric_mean, summarize
from repro.baselines.exact import exact_mwvc
from repro.baselines.ggk_unweighted import unweighted_mpc_vertex_cover
from repro.baselines.local_baseline import local_round_by_round
from repro.baselines.lp import lp_relaxation
from repro.congested.mwvc import congested_clique_mwvc
from repro.core.centralized import run_centralized
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.core.orientation import orientation_report
from repro.core.params import MPCParameters
from repro.core.phase_kernel import GlobalState
from repro.core.thresholds import ThresholdSampler
from repro.graphs.generators import gnp_average_degree, power_law
from repro.graphs.graph import WeightedGraph
from repro.graphs.weights import make_weights

__all__ = [
    "make_workload",
    "experiment_round_complexity",
    "experiment_approximation",
    "experiment_memory",
    "experiment_degree_reduction",
    "experiment_centralized_iterations",
    "experiment_deviation",
    "experiment_vs_local_baseline",
    "experiment_weighted_vs_unweighted",
    "experiment_ablations",
    "experiment_congested_clique",
    "experiment_engine_agreement",
]


def make_workload(
    family: str, n: int, avg_degree: float, weight_model: str, seed: int
) -> WeightedGraph:
    """Standard experiment workload: topology family × weight model."""
    if family == "gnp":
        g = gnp_average_degree(n, avg_degree, seed=seed)
    elif family == "power_law":
        g = power_law(n, exponent=2.5, min_degree=max(1, int(avg_degree / 4)), seed=seed)
    else:
        raise ValueError(f"unknown family {family!r}")
    return g.with_weights(make_weights(weight_model, g, seed=seed + 1))


# --------------------------------------------------------------------- #
# E1 — Theorem 1.1 / 4.5: phases grow like log log d̄
# --------------------------------------------------------------------- #
def experiment_round_complexity(
    *,
    ns: Sequence[int] = (2000, 4000, 8000),
    degrees: Sequence[float] = (16.0, 64.0, 256.0),
    eps: float = 0.1,
    trials: int = 3,
    seed: int = 0,
) -> List[dict]:
    """Phases and rounds vs ``log log d̄`` over an (n, d̄) grid."""
    rows: List[dict] = []
    for n in ns:
        for d in degrees:
            if d >= n / 4:
                continue
            phases, rounds, decays = [], [], []
            for t in range(trials):
                g = make_workload("gnp", n, d, "uniform", seed + 1000 * t)
                res = minimum_weight_vertex_cover(g, eps=eps, seed=seed + t)
                phases.append(res.num_phases)
                rounds.append(res.mpc_rounds)
                if res.phases and res.phases[0].avg_degree > 3.0:
                    p0 = res.phases[0]
                    if p0.avg_degree_after > 1.0:
                        # d -> d^c per phase; c < 1 is the loglog mechanism.
                        decays.append(
                            math.log(p0.avg_degree_after) / math.log(p0.avg_degree)
                        )
            loglog = math.log(max(math.log(max(d, 3.0)), 1.001))
            ps = summarize(phases)
            rs = summarize(rounds)
            rows.append(
                {
                    "n": n,
                    "avg_degree": d,
                    "loglog_d": loglog,
                    "phases_mean": ps.mean,
                    "phases_max": ps.maximum,
                    "rounds_mean": rs.mean,
                    "phases_per_loglog": ps.mean / loglog,
                    "phase0_decay_exp": summarize(decays).mean if decays else float("nan"),
                }
            )
    return rows


# --------------------------------------------------------------------- #
# E2 — Theorem 4.7: w(C) ≤ (2 + 30ε)·OPT
# --------------------------------------------------------------------- #
def experiment_approximation(
    *,
    eps_values: Sequence[float] = (0.05, 0.1, 0.2),
    weight_models: Sequence[str] = ("uniform", "exponential", "adversarial"),
    n_small: int = 40,
    n_medium: int = 1200,
    trials: int = 3,
    seed: int = 0,
) -> List[dict]:
    """Measured ratios against exact OPT (small), LP (medium), and the
    dual certificate (all), per ε and weight model."""
    rows: List[dict] = []
    for eps in eps_values:
        bound = 2.0 + 30.0 * eps
        for model in weight_models:
            exact_ratios, lp_ratios, cert_ratios = [], [], []
            for t in range(trials):
                gs = make_workload("gnp", n_small, 8.0, model, seed + 17 * t)
                rs = minimum_weight_vertex_cover(gs, eps=eps, seed=seed + t)
                opt = exact_mwvc(gs).opt_weight
                if opt > 0:
                    exact_ratios.append(rs.cover_weight / opt)
                gm = make_workload("gnp", n_medium, 24.0, model, seed + 31 * t)
                rm = minimum_weight_vertex_cover(gm, eps=eps, seed=seed + t)
                lp = lp_relaxation(gm).lp_value
                if lp > 0:
                    lp_ratios.append(rm.cover_weight / lp)
                cert_ratios.append(rm.certificate.certified_ratio)
            rows.append(
                {
                    "eps": eps,
                    "weights": model,
                    "paper_bound": bound,
                    "ratio_vs_exact": geometric_mean(exact_ratios),
                    "ratio_vs_lp": geometric_mean(lp_ratios),
                    "certified_ratio": geometric_mean(cert_ratios),
                    "within_bound": max(exact_ratios + lp_ratios) <= bound,
                }
            )
    return rows


# --------------------------------------------------------------------- #
# E3 — Lemma 4.1: per-machine induced subgraphs are O(n)
# --------------------------------------------------------------------- #
def experiment_memory(
    *,
    n: int = 4000,
    degrees: Sequence[float] = (32.0, 128.0, 512.0),
    eps: float = 0.1,
    trials: int = 3,
    seed: int = 0,
) -> List[dict]:
    """Max over phases/machines of ``|E[V_i]| / n`` — Lemma 4.1 claims
    this stays below 2 w.h.p."""
    rows: List[dict] = []
    for d in degrees:
        worst, per_trial = 0.0, []
        for t in range(trials):
            g = make_workload("gnp", n, d, "uniform", seed + 7 * t)
            res = minimum_weight_vertex_cover(g, eps=eps, seed=seed + t)
            m = max((p.max_machine_edges for p in res.phases), default=0)
            per_trial.append(m / n)
            worst = max(worst, m / n)
        rows.append(
            {
                "n": n,
                "avg_degree": d,
                "max_machine_edges_over_n": worst,
                "mean_over_trials": summarize(per_trial).mean,
                "lemma_bound": 2.0,
                "within_bound": worst <= 2.0,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# E4 — Observation 4.3 / Lemma 4.4: per-phase degree reduction
# --------------------------------------------------------------------- #
def experiment_degree_reduction(
    *,
    n: int = 4000,
    avg_degree: float = 64.0,
    families: Sequence[str] = ("gnp", "power_law"),
    eps: float = 0.1,
    seed: int = 0,
) -> List[dict]:
    """Per-phase orientation report rows; Observation 4.3's out-degree
    ratio must be ≤ 1 deterministically, Lemma 4.4's edge ratio ≤ 1 w.h.p."""
    from repro.core.phase_kernel import apply_outcome

    rows: List[dict] = []
    for family in families:
        g = make_workload(family, n, avg_degree, "uniform", seed)
        params = MPCParameters(eps=eps)
        res = minimum_weight_vertex_cover(g, params=params, seed=seed, collect_trace=True)
        # Replay the state evolution so residual degrees at each phase start
        # are in hand for the orientation report.
        state = GlobalState.initial(g, g.weights)
        for plan, outcome in res.traces or []:
            resid_high = state.resid_degree[plan.high_ids]
            report = orientation_report(plan, outcome, params, resid_degree_high=resid_high)
            row = report.as_dict()
            row["family"] = family
            rows.append(row)
            apply_outcome(g, g.weights, state, plan, outcome)
    return rows


# --------------------------------------------------------------------- #
# E5 — Proposition 3.4: centralized iteration counts per initialization
# --------------------------------------------------------------------- #
def experiment_centralized_iterations(
    *,
    n: int = 2000,
    degrees: Sequence[float] = (8.0, 32.0, 128.0),
    weight_spreads: Sequence[float] = (1.0, 5.0, 9.0),
    eps: float = 0.1,
    seed: int = 0,
) -> List[dict]:
    """Iterations of Algorithm 1 with degree-scaled vs uniform vs
    max-degree-scaled initialization, sweeping Δ and the weight spread W."""
    from repro.graphs.weights import adversarial_spread_weights

    rows: List[dict] = []
    for d in degrees:
        for spread in weight_spreads:
            g = gnp_average_degree(n, d, seed=seed)
            w = adversarial_spread_weights(n, orders_of_magnitude=spread, seed=seed + 1)
            g = g.with_weights(w)
            iters = {}
            for scheme in ("degree_scaled", "uniform", "max_degree_scaled"):
                res = run_centralized(g, eps=eps, init=scheme, seed=seed)
                iters[scheme] = res.iterations
            rows.append(
                {
                    "avg_degree": d,
                    "max_degree": g.max_degree,
                    "weight_spread_decades": spread,
                    "log_delta": math.log(max(g.max_degree, 2)),
                    "iters_degree_scaled": iters["degree_scaled"],
                    "iters_uniform": iters["uniform"],
                    "iters_max_degree": iters["max_degree_scaled"],
                    "uniform_over_degree_scaled": iters["uniform"]
                    / max(iters["degree_scaled"], 1),
                }
            )
    return rows


# --------------------------------------------------------------------- #
# E6 — Lemma 4.6: coupled centralized-vs-MPC estimator deviation
# --------------------------------------------------------------------- #
def experiment_deviation(
    *,
    n: int = 3000,
    degrees: Sequence[float] = (32.0, 128.0, 512.0),
    eps: float = 0.1,
    trials: int = 3,
    seed: int = 0,
) -> List[dict]:
    """Normalized deviation ``|y_{v,t} − ỹ^MPC_{v,t}| / w'(v)`` between the
    coupled runs of phase 0.

    Lemma 4.6 claims ≤ 6ε *asymptotically* (the proof needs
    ``4·m^{-0.1} ≤ ε``, i.e. ``m ≥ (4/ε)^10`` machines — far beyond any
    laptop-scale graph).  The reproducible shape at feasible sizes is the
    *decay* of the deviation with the average degree: the local sample of a
    vertex has ``≈ d/m = √d`` edges, so the relative estimator error falls
    like ``d^{-1/4}``.  The rows report max / p99 / median so both the tail
    and the bulk trends are visible.
    """
    rows: List[dict] = []
    for d in degrees:
        per_vertex_devs: List[np.ndarray] = []
        for t in range(trials):
            g = make_workload("gnp", n, d, "uniform", seed + 13 * t)
            params = MPCParameters(eps=eps)
            res = minimum_weight_vertex_cover(
                g, params=params, seed=seed + t, collect_trace=True
            )
            if not res.traces:
                continue
            plan, outcome = res.traces[0]
            if plan.num_high == 0 or plan.iterations == 0:
                continue
            sub = WeightedGraph(plan.num_high, plan.hu, plan.hv, plan.wprime_high)
            sampler = ThresholdSampler(plan.threshold_seed, plan.num_high, eps)
            cres = run_centralized(
                sub,
                eps=eps,
                weights=plan.wprime_high,
                init=plan.x0,
                thresholds=sampler,
                max_iterations=plan.iterations,
                trace=True,
            )
            for it in range(min(len(cres.trace_y), len(outcome.trace_ytilde))):
                diff = np.abs(cres.trace_y[it] - outcome.trace_ytilde[it]) / plan.wprime_high
                both = cres.trace_active[it] & outcome.trace_active[it]
                if both.any():
                    per_vertex_devs.append(diff[both])
        if per_vertex_devs:
            all_devs = np.concatenate(per_vertex_devs)
            max_dev = float(all_devs.max())
            p99 = float(np.percentile(all_devs, 99))
            median = float(np.median(all_devs))
        else:
            max_dev = p99 = median = 0.0
        rows.append(
            {
                "n": n,
                "avg_degree": d,
                "eps": eps,
                "lemma_bound_6eps": 6.0 * eps,
                "max_dev": max_dev,
                "p99_dev": p99,
                "median_dev": median,
                "predicted_scale_d^-1/4": float(d) ** -0.25,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# E7 — rounds vs the O(log n) LOCAL-per-round baseline
# --------------------------------------------------------------------- #
def experiment_vs_local_baseline(
    *,
    ns: Sequence[int] = (1000, 4000, 16000),
    avg_degree: float = 32.0,
    eps: float = 0.1,
    seed: int = 0,
) -> List[dict]:
    """Algorithm 2 phases/rounds vs the uncompressed baseline's rounds."""
    rows: List[dict] = []
    for n in ns:
        g = make_workload("gnp", n, avg_degree, "uniform", seed)
        ours = minimum_weight_vertex_cover(g, eps=eps, seed=seed)
        base = local_round_by_round(g, eps=eps, seed=seed)
        rows.append(
            {
                "n": n,
                "avg_degree": avg_degree,
                "ours_phases": ours.num_phases,
                "ours_rounds": ours.mpc_rounds,
                "baseline_rounds": base.mpc_rounds,
                "ours_weight": ours.cover_weight,
                "baseline_weight": base.cover_weight,
                "weight_ratio": ours.cover_weight / base.cover_weight,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# E8 — weighted vs unweighted (GGK-style) covers on weighted instances
# --------------------------------------------------------------------- #
def experiment_weighted_vs_unweighted(
    *,
    n: int = 2000,
    avg_degree: float = 24.0,
    weight_models: Sequence[str] = ("uniform", "adversarial", "degree_correlated"),
    eps: float = 0.1,
    trials: int = 3,
    seed: int = 0,
) -> List[dict]:
    """Weight of the cardinality-driven cover vs the weighted algorithm's."""
    rows: List[dict] = []
    for model in weight_models:
        ratios = []
        for t in range(trials):
            g = make_workload("gnp", n, avg_degree, model, seed + 11 * t)
            ours = minimum_weight_vertex_cover(g, eps=eps, seed=seed + t)
            ggk = unweighted_mpc_vertex_cover(g, eps=eps, seed=seed + t)
            ratios.append(ggk.true_weight / ours.cover_weight)
        s = summarize(ratios)
        rows.append(
            {
                "weights": model,
                "unweighted_over_weighted_mean": s.mean,
                "unweighted_over_weighted_max": s.maximum,
                "weighted_wins": s.mean > 1.0,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# E9 — ablations: initialization scheme and estimator bias schedule
# --------------------------------------------------------------------- #
def experiment_ablations(
    *,
    n: int = 2000,
    avg_degree: float = 64.0,
    eps: float = 0.1,
    trials: int = 3,
    seed: int = 0,
) -> List[dict]:
    """Phase counts / ratios under the §3.2 design alternatives."""
    variants: Dict[str, MPCParameters] = {
        "paper_practical (unbiased)": MPCParameters(eps=eps),
        "bias mild (0.5, flat)": MPCParameters(eps=eps, bias_coeff=0.5, bias_growth=1.0),
        "bias paper (2, 15^t)": MPCParameters(eps=eps, bias_coeff=2.0, bias_growth=15.0),
        "iterations x2": MPCParameters(eps=eps).with_(iterations_override=None),
    }
    rows: List[dict] = []
    for name, params in variants.items():
        phases, rounds, ratios, pruned_ratios = [], [], [], []
        for t in range(trials):
            g = make_workload("gnp", n, avg_degree, "exponential", seed + 3 * t)
            if name == "iterations x2":
                base_d = g.average_degree
                m = params.num_machines(base_d)
                params = params.with_(
                    iterations_override=2 * MPCParameters(eps=eps).iterations_per_phase(base_d, m)
                )
            res = minimum_weight_vertex_cover(g, params=params, seed=seed + t)
            phases.append(res.num_phases)
            rounds.append(res.mpc_rounds)
            ratios.append(res.certificate.certified_ratio)
            from repro.core.postprocess import prune_redundant_vertices

            pruned = prune_redundant_vertices(g, res.in_cover)
            pruned_weight = float(g.weights[pruned].sum())
            pruned_ratios.append(
                res.certificate.certified_ratio * pruned_weight / res.cover_weight
            )
        rows.append(
            {
                "variant": name,
                "phases_mean": summarize(phases).mean,
                "rounds_mean": summarize(rounds).mean,
                "certified_ratio": geometric_mean(ratios),
                "certified_ratio_pruned": geometric_mean(pruned_ratios),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# E10 — congested-clique round translation
# --------------------------------------------------------------------- #
def experiment_congested_clique(
    *,
    ns: Sequence[int] = (500, 1000, 2000),
    avg_degree: float = 24.0,
    eps: float = 0.1,
    seed: int = 0,
) -> List[dict]:
    """MPC rounds vs translated congested-clique rounds (BDH18 adapter)."""
    rows: List[dict] = []
    for n in ns:
        g = make_workload("gnp", n, avg_degree, "uniform", seed)
        res = congested_clique_mwvc(g, eps=eps, seed=seed)
        rows.append(
            {
                "n": n,
                "mpc_rounds": res.mpc_result.mpc_rounds,
                "cc_rounds": res.cc_rounds,
                "cc_per_mpc": res.cc_rounds_per_mpc_round,
                "cover_weight": res.cover_weight,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# E11 — engine agreement + accounting audit
# --------------------------------------------------------------------- #
def experiment_engine_agreement(
    *,
    ns: Sequence[int] = (200, 400),
    degrees: Sequence[float] = (12.0, 24.0),
    eps: float = 0.1,
    seed: int = 0,
) -> List[dict]:
    """Vectorized vs cluster engine: identical covers, duals, and rounds."""
    rows: List[dict] = []
    for n in ns:
        for d in degrees:
            g = make_workload("gnp", n, d, "uniform", seed)
            rv = minimum_weight_vertex_cover(g, eps=eps, seed=seed, engine="vectorized")
            rc = minimum_weight_vertex_cover(g, eps=eps, seed=seed, engine="cluster")
            rows.append(
                {
                    "n": n,
                    "avg_degree": d,
                    "covers_equal": bool(np.array_equal(rv.in_cover, rc.in_cover)),
                    "duals_close": bool(np.allclose(rv.x, rc.x)),
                    "rounds_vec": rv.mpc_rounds,
                    "rounds_cluster": rc.mpc_rounds,
                    "rounds_equal": rv.mpc_rounds == rc.mpc_rounds,
                }
            )
    return rows
