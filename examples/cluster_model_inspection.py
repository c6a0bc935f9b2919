#!/usr/bin/env python
"""Inspecting the MPC model: capacities, communication, and violations.

The cluster engine is a real message-passing protocol running on the
:mod:`repro.mpc` simulator; this example pries the lid off:

1. runs a workload and prints the cluster's communication metrics
   (words moved, per-round maxima, memory high-water vs the S limit);
2. shows a *model violation*: squeezing machine memory below what Lemma 4.1
   needs makes the run fail loudly (capacity enforcement, not silent
   corruption).

Run:  python examples/cluster_model_inspection.py
"""

from repro import MPCParameters, minimum_weight_vertex_cover
from repro.analysis import render_table
from repro.graphs import gnp_average_degree, uniform_weights
from repro.mpc import MPCError


def main() -> None:
    graph = gnp_average_degree(600, 24.0, seed=40)
    graph = graph.with_weights(uniform_weights(graph.n, seed=41))
    params = MPCParameters(eps=0.1)

    # --- 1. a healthy run, with the cluster's own metrics ---------------
    res = minimum_weight_vertex_cover(
        graph, params=params, seed=42, engine="cluster"
    )
    capacity = params.machine_capacity_words(graph.n)
    print(f"workload: {graph}; machine capacity S = {capacity} words")
    print(f"solved in {res.mpc_rounds} rounds, {res.num_phases} phases\n")

    rows = [{"metric": k, "value": v} for k, v in res.cluster_metrics.items()]
    rows.append({"metric": "capacity S (words)", "value": capacity})
    print(render_table(rows, title="measured cluster metrics (full run)"))
    print(
        "\nnote: max_sent/max_received/memory all sit below S — the run is a\n"
        "machine-checked witness that the algorithm fits the MPC model.\n"
    )

    res2 = minimum_weight_vertex_cover(graph, params=params, seed=42, engine="cluster")
    print(f"re-run reproduces: rounds={res2.mpc_rounds} cover_weight={res2.cover_weight:.1f}\n")

    # --- 2. capacity squeeze: the model rejects an infeasible S ---------
    tiny = MPCParameters(eps=0.1, memory_factor=0.05)
    try:
        minimum_weight_vertex_cover(graph, params=tiny, seed=43, engine="cluster")
    except MPCError as exc:
        print(f"capacity squeeze -> {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
