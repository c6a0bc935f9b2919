"""Seeded, cached input generation for the repo benchmark.

Every workload input is generated from the benchmark seed and written to
files once, before any timing: the program under test only ever sees the
files.  Inputs live in ``<cache>/<scale>-seed<N>-<kind>/`` and are written to a
temporary directory that is renamed into place when complete, so an
interrupted generation never leaves a half-written input set behind.

Run directly to (re)build one seed's inputs::

    PYTHONPATH=src python3 perfbench/inputs.py --seed 1 --kind stream \\
        --cache .perfbench-cache [--scale full|tiny]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

#: Seed kept out of every tuning run; later claims are re-checked on it.
HELD_OUT_SEED = 7919

#: Input sizes.  ``full`` is the benchmark proper; ``tiny`` exists for the
#: benchmark's own smoke tests.
SCALES = {
    "full": {
        "stream_n": 10_000,
        "stream_degree": 9.0,
        "stream_updates": 55_000,
        "batch_size": 1_000,
        # solve-batch graphs: m ~ 0.25M each.
        "gnp_n": 25_000,
        "gnp_degree": 19.0,
        "ba_n": 25_000,
        "ba_attach": 10,
        "pl_n": 32_000,
        "pl_exponent": 2.1,
        "pl_min_degree": 6,
    },
    "tiny": {
        "stream_n": 300,
        "stream_degree": 6.0,
        "stream_updates": 2_000,
        "batch_size": 100,
        "gnp_n": 400,
        "gnp_degree": 8.0,
        "ba_n": 400,
        "ba_attach": 4,
        "pl_n": 600,
        "pl_exponent": 2.1,
        "pl_min_degree": 3,
    },
}

STREAM_GRAPH = "graph.npz"
STREAM_UPDATES = "updates.jsonl"
MANIFEST = "manifest.jsonl"
META = "inputs.json"


#: Input kinds: the two stream workloads share one input set.
KINDS = ("stream", "batch")


def input_dir(cache_root: str, scale: str, seed: int, kind: str) -> str:
    return os.path.join(cache_root, f"{scale}-seed{int(seed)}-{kind}")


def _sub_seed(seed: int, stream: int) -> int:
    """Independent derived seed for one input component."""
    return int(seed) * 1_000 + stream


def _write_stream_inputs(out: str, seed: int, cfg: dict) -> dict:
    from repro.graphs.generators import gnp_average_degree
    from repro.graphs.io import save_npz
    from repro.graphs.streams import uniform_churn_stream
    from repro.graphs.updates import save_update_stream
    from repro.graphs.weights import make_weights

    graph = gnp_average_degree(
        cfg["stream_n"], cfg["stream_degree"], seed=_sub_seed(seed, 1)
    )
    graph = graph.with_weights(make_weights("uniform", graph, seed=_sub_seed(seed, 2)))
    updates = uniform_churn_stream(
        graph, cfg["stream_updates"], seed=_sub_seed(seed, 3)
    )
    save_npz(graph, os.path.join(out, STREAM_GRAPH))
    save_update_stream(updates, os.path.join(out, STREAM_UPDATES))
    return {"n": graph.n, "m": graph.m, "updates": len(updates)}


def _write_batch_inputs(out: str, seed: int, cfg: dict) -> dict:
    """Three skew classes of graph, nine distinct requests, three repeats.

    Each graph is requested with two solver seeds on the vectorized engine
    and once on the cluster engine (distinct cache keys), and its first
    request is repeated at the end of the manifest, where the batch
    solver answers it without a solve.
    """
    from repro.graphs.generators import gnp_average_degree, power_law
    from repro.graphs.generators_extra import preferential_attachment
    from repro.graphs.io import save_npz
    from repro.graphs.weights import make_weights

    graphs = {
        "gnp.npz": gnp_average_degree(
            cfg["gnp_n"], cfg["gnp_degree"], seed=_sub_seed(seed, 11)
        ),
        "ba.npz": preferential_attachment(
            cfg["ba_n"], cfg["ba_attach"], seed=_sub_seed(seed, 12)
        ),
        "powerlaw.npz": power_law(
            cfg["pl_n"],
            cfg["pl_exponent"],
            min_degree=cfg["pl_min_degree"],
            seed=_sub_seed(seed, 13),
        ),
    }
    edges = {}
    for k, (name, graph) in enumerate(graphs.items()):
        graph = graph.with_weights(
            make_weights("uniform", graph, seed=_sub_seed(seed, 20 + k))
        )
        save_npz(graph, os.path.join(out, name))
        edges[name] = graph.m
    lines = []
    for name in graphs:
        stem = name[: -len(".npz")]
        lines.append({"id": f"{stem}-v0", "input": name, "engine": "vectorized", "seed": 0})
        lines.append({"id": f"{stem}-v1", "input": name, "engine": "vectorized", "seed": 1})
        lines.append({"id": f"{stem}-c0", "input": name, "engine": "cluster", "seed": 0})
    for name in graphs:
        stem = name[: -len(".npz")]
        lines.append({"id": f"{stem}-v0-again", "input": name, "engine": "vectorized", "seed": 0})
    with open(os.path.join(out, MANIFEST), "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(json.dumps(line) + "\n")
    return {"graph_edges": edges, "requests": len(lines)}


def ensure_inputs(cache_root: str, scale: str, seed: int, kind: str) -> str:
    """Generate one seed's inputs unless already cached; returns the directory."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")
    if kind not in KINDS:
        raise ValueError(f"unknown input kind {kind!r}; known: {KINDS}")
    final = input_dir(cache_root, scale, seed, kind)
    cfg = SCALES[scale]
    if os.path.exists(os.path.join(final, META)) and load_meta(final)["config"] == cfg:
        return final
    tmp = final + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        write = _write_stream_inputs if kind == "stream" else _write_batch_inputs
        meta = {
            "seed": int(seed),
            "scale": scale,
            "kind": kind,
            "config": cfg,
            "inputs": write(tmp, seed, cfg),
        }
        with open(os.path.join(tmp, META), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def load_meta(directory: str) -> dict:
    with open(os.path.join(directory, META), "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--kind", required=True, choices=KINDS)
    parser.add_argument("--cache", required=True, help="cache root directory")
    args = parser.parse_args(argv)
    print(ensure_inputs(args.cache, args.scale, args.seed, args.kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
