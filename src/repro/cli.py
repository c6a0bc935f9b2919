"""Command-line interface.

Seven subcommands::

    python -m repro solve       # run a cover algorithm on a file or a
                                # generated workload, print the summary
    python -m repro generate    # write a workload to .npz / edge list
    python -m repro experiment  # run experiment runners E1..E11, print tables
    python -m repro batch       # solve a JSON-lines manifest of instances
                                # through the pooled/cached batch service
    python -m repro stream      # maintain a certified cover over a
                                # JSON-lines update stream (or generated
                                # churn)
    python -m repro resume      # pick up a killed `repro stream
                                # --checkpoint-dir` run: restore the last
                                # snapshot, replay the WAL tail, finish
    python -m repro wal-compact # prune a checkpoint dir's snapshots to its
                                # keep_snapshots, drop the WAL records
                                # the retained ones cover

Examples
--------
Generate a workload and solve it::

    python -m repro generate --family gnp --n 5000 --degree 32 \\
        --weights uniform --seed 1 --out work.npz
    python -m repro solve --input work.npz --eps 0.1 --seed 2

Solve a generated workload directly, with the cluster engine::

    python -m repro solve --family power_law --n 2000 --degree 8 \\
        --weights adversarial --engine cluster --seed 3

Reproduce an experiment table::

    python -m repro experiment e5

Solve a manifest of instances through the batch service::

    python -m repro batch --manifest work.jsonl --workers 4 --out results.jsonl

Maintain a cover over 2000 generated churn events::

    python -m repro stream --family gnp --n 2000 --degree 12 \\
        --churn uniform --num-updates 2000 --max-drift 0.25 --out records.jsonl

Run the same stream durably, kill it, and resume exactly where it died::

    python -m repro stream --family gnp --n 2000 --degree 12 \\
        --churn uniform --num-updates 2000 --checkpoint-dir ckpt
    python -m repro resume --checkpoint-dir ckpt
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from repro.analysis import experiments as _exp
from repro.analysis.tables import render_table
from repro.baselines.greedy import greedy_vertex_cover
from repro.baselines.pricing import pricing_vertex_cover
from repro.core.centralized import run_centralized
from repro.core.mpc_mwvc import minimum_weight_vertex_cover
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import load_edgelist, load_npz, save_edgelist, save_npz
from repro.graphs.weights import WEIGHT_MODELS, make_weights
from repro.service.batch import BatchSolver
from repro.service.manifest import GRAPH_FAMILIES, generate_graph, load_manifest

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "e1": ("round complexity (Thm 1.1)", _exp.experiment_round_complexity),
    "e2": ("approximation ratio (Thm 4.7)", _exp.experiment_approximation),
    "e3": ("per-machine memory (Lemma 4.1)", _exp.experiment_memory),
    "e4": ("degree reduction (Obs 4.3 / Lemma 4.4)", _exp.experiment_degree_reduction),
    "e5": ("centralized iterations (Prop 3.4)", _exp.experiment_centralized_iterations),
    "e6": ("coupling deviation (Lemma 4.6)", _exp.experiment_deviation),
    "e7": ("vs LOCAL baseline (intro)", _exp.experiment_vs_local_baseline),
    "e8": ("weighted vs unweighted (motivation)", _exp.experiment_weighted_vs_unweighted),
    "e9": ("design ablations (§3.2)", _exp.experiment_ablations),
    "e10": ("congested clique (§1.3)", _exp.experiment_congested_clique),
    "e11": ("engine agreement (accounting audit)", _exp.experiment_engine_agreement),
}


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro-mwvc")
    except Exception:  # pragma: no cover - metadata unavailable
        import repro

        return repro.__version__


def _load_or_generate(args) -> WeightedGraph:
    if args.input:
        try:
            if str(args.input).endswith(".npz"):
                return load_npz(args.input)
            return load_edgelist(args.input)
        except FileNotFoundError:
            raise SystemExit(f"input file not found: {args.input}")
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read input file: {exc}")
    return _generate_graph(args)


def _generate_graph(args) -> WeightedGraph:
    try:
        g = generate_graph(args.family, n=args.n, degree=args.degree, seed=args.seed)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.weights != "unit":
        g = g.with_weights(make_weights(args.weights, g, seed=args.seed + 1))
    return g


def _cmd_solve(args) -> int:
    graph = _load_or_generate(args)
    if args.algorithm == "mpc":
        res = minimum_weight_vertex_cover(
            graph, eps=args.eps, seed=args.seed, engine=args.engine
        )
        summary = res.summary()
        summary.update(res.certificate.summary())
        cover = res.in_cover
    elif args.algorithm == "centralized":
        res = run_centralized(graph, eps=args.eps, seed=args.seed)
        cover = res.in_cover
        summary = {
            "cover_weight": graph.cover_weight(cover),
            "cover_size": int(cover.sum()),
            "dual_value": res.dual_value,
            "iterations": res.iterations,
        }
    elif args.algorithm == "pricing":
        res = pricing_vertex_cover(graph)
        cover = res.in_cover
        summary = {
            "cover_weight": res.cover_weight,
            "cover_size": int(cover.sum()),
            "dual_value": res.dual_value,
        }
    elif args.algorithm == "greedy":
        res = greedy_vertex_cover(graph)
        cover = res.in_cover
        summary = {"cover_weight": res.cover_weight, "cover_size": int(cover.sum())}
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown algorithm {args.algorithm!r}")

    if not graph.is_vertex_cover(cover):  # pragma: no cover - algorithms verified
        raise SystemExit("internal error: produced a non-cover")
    summary["n"] = graph.n
    summary["m"] = graph.m
    summary["algorithm"] = args.algorithm
    if args.json:
        print(json.dumps({k: _jsonable(v) for k, v in summary.items()}, indent=2))
    else:
        rows = [{"key": k, "value": v} for k, v in summary.items()]
        print(render_table(rows, title=f"{args.algorithm} on {graph}"))
    if args.cover_out:
        np.savetxt(args.cover_out, np.nonzero(cover)[0], fmt="%d")
        print(f"cover vertex ids written to {args.cover_out}", file=sys.stderr)
    return 0


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


def _cmd_generate(args) -> int:
    graph = _generate_graph(args)
    if str(args.out).endswith(".npz"):
        save_npz(graph, args.out)
    else:
        save_edgelist(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    names = [x.lower() for x in args.ids]
    if "all" in names:
        names = list(_EXPERIMENTS)
    unknown = [x for x in names if x not in _EXPERIMENTS]
    if unknown:
        raise SystemExit(f"unknown experiment ids {unknown}; known: {sorted(_EXPERIMENTS)}")
    for name in names:
        title, fn = _EXPERIMENTS[name]
        rows = fn()
        print(render_table(rows, title=f"{name.upper()}: {title}"))
        print()
    return 0


def _cmd_batch(args) -> int:
    import time

    try:
        if args.manifest == "-":
            requests = load_manifest(sys.stdin)
        else:
            requests = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad manifest: {exc}")
    if not requests:
        raise SystemExit("manifest contains no requests")

    try:
        solver = BatchSolver(
            max_workers=args.workers,
            cache=args.cache_size,
            timeout=args.timeout,
            use_processes=not args.no_pool,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))

    # Open the sink before solving: a bad --out path must fail in
    # milliseconds, not after a manifest worth of compute.
    if args.out in (None, "-"):
        out = sys.stdout
    else:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise SystemExit(f"cannot write --out: {exc}")

    start = time.perf_counter()
    with solver:
        results = solver.solve_batch(requests)
    wall = time.perf_counter() - start

    try:
        for res in results:
            out.write(json.dumps({k: _jsonable(v) for k, v in res.summary().items()}))
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()

    failed = sum(1 for r in results if not r.ok)
    hits = sum(1 for r in results if r.cache_hit)
    print(
        f"batch: {len(results)} requests, {failed} failed, {hits} cache hits, "
        f"{wall:.2f}s wall",
        file=sys.stderr,
    )
    if solver.cache is not None:
        stats = solver.cache.stats()
        print(
            f"cache: {stats.size}/{stats.max_entries} entries, "
            f"hit rate {stats.hit_rate:.0%}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _open_stream_out(args):
    """Open ``--out`` up front: a bad path must fail in milliseconds, not
    after a stream worth of compute."""
    if not args.out or args.out == "-":
        return None
    try:
        return open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot write --out: {exc}")


def _emit_stream_summary(args, summary, out) -> int:
    """Shared output path of ``repro stream`` and ``repro resume``."""
    if out is not None:
        try:
            with out:
                for record in summary.records:
                    out.write(
                        json.dumps({k: _jsonable(v) for k, v in record.summary().items()})
                    )
                    out.write("\n")
        except OSError as exc:
            raise SystemExit(f"cannot write --out: {exc}")
    if getattr(args, "cover_out", None) and summary.final_cover is not None:
        try:
            np.savetxt(args.cover_out, np.nonzero(summary.final_cover)[0], fmt="%d")
        except OSError as exc:
            raise SystemExit(f"cannot write --cover-out: {exc}")
        print(f"cover vertex ids written to {args.cover_out}", file=sys.stderr)

    print(json.dumps({k: _jsonable(v) for k, v in summary.summary().items()}, indent=2))
    print(
        f"stream: {summary.num_updates} updates in {summary.num_batches} batches, "
        f"{summary.num_resolves} re-solves ({summary.num_resolve_cache_hits} from cache), "
        f"final ratio {summary.final_certified_ratio:.3f}, "
        f"{summary.elapsed_s:.2f}s wall",
        file=sys.stderr,
    )
    return 0 if summary.final_is_cover else 1


def _cmd_stream(args) -> int:
    from repro.dynamic import (
        CheckpointConfig,
        CheckpointError,
        ResolvePolicy,
        WALError,
        load_update_stream,
        run_stream,
    )
    from repro.graphs.streams import make_update_stream

    graph = _load_or_generate(args)
    if args.updates:
        try:
            # A JSON-lines or .npz file, a directory of segments, or stdin.
            updates = load_update_stream(
                sys.stdin.buffer if args.updates == "-" else args.updates
            )
        except FileNotFoundError:
            raise SystemExit(f"update stream not found: {args.updates}")
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bad update stream: {exc}")
    else:
        try:
            updates = make_update_stream(
                args.churn, graph, args.num_updates, seed=args.stream_seed
            )
        except ValueError as exc:
            raise SystemExit(str(exc))

    try:
        policy = ResolvePolicy(
            max_drift=args.max_drift,
            ratio_ceiling=args.ratio_ceiling,
            min_batches_between=args.min_batches_between,
            every_batch=args.resolve_every_batch,
        )
        # Re-solves come one at a time: a pool would add no parallelism,
        # only ship the whole graph to a child and the result back.
        solver = BatchSolver(cache=args.cache_size, use_processes=False)
        checkpoint = None
        if args.checkpoint_dir:
            checkpoint = CheckpointConfig(
                directory=args.checkpoint_dir,
                snapshot_every=args.snapshot_every,
                fsync=not args.no_fsync,
                keep_snapshots=args.keep_snapshots,
                compact_wal=args.compact_wal,
            )
    except ValueError as exc:
        raise SystemExit(str(exc))

    out = _open_stream_out(args)
    with solver:
        try:
            summary = run_stream(
                graph,
                updates,
                batch_size=args.batch_size,
                policy=policy,
                solver=solver,
                eps=args.eps,
                seed=args.seed,
                engine=args.engine,
                verify_every=args.verify_every,
                checkpoint=checkpoint,
                profile=args.profile,
            )
        except (ValueError, RuntimeError, CheckpointError, WALError) as exc:
            raise SystemExit(str(exc))
    return _emit_stream_summary(args, summary, out)


def _read_stream_config(checkpoint_dir):
    """The checkpoint's :class:`CheckpointConfig`, or a clean exit."""
    from repro.dynamic import CheckpointError
    from repro.dynamic.stream import _load_config

    try:
        checkpoint, _, _ = _load_config(checkpoint_dir)
    except CheckpointError as exc:
        raise SystemExit(str(exc))
    return checkpoint


def _cmd_resume(args) -> int:
    from repro.dynamic import (
        CheckpointError,
        WALError,
        load_update_stream,
        resume_stream,
    )

    updates = None
    if args.updates:
        try:
            updates = load_update_stream(args.updates)
        except FileNotFoundError:
            raise SystemExit(f"update stream not found: {args.updates}")
        except (OSError, ValueError) as exc:
            raise SystemExit(f"bad update stream: {exc}")

    # Fail on a missing or unsupported checkpoint before any solver is
    # started.
    _read_stream_config(args.checkpoint_dir)

    try:
        solver = BatchSolver(cache=args.cache_size, use_processes=False)
    except ValueError as exc:
        raise SystemExit(str(exc))

    out = _open_stream_out(args)
    with solver:
        try:
            summary = resume_stream(
                args.checkpoint_dir,
                updates=updates,
                solver=solver,
                profile=args.profile,
            )
        except (ValueError, RuntimeError, CheckpointError, WALError) as exc:
            raise SystemExit(str(exc))
    print(
        f"resumed from batch {summary.resumed_from_batch}",
        file=sys.stderr,
    )
    return _emit_stream_summary(args, summary, out)


def _cmd_wal_compact(args) -> int:
    from repro.dynamic import CheckpointError, WALError, compact_wal

    checkpoint = _read_stream_config(args.checkpoint_dir)
    try:
        floor = checkpoint.prune_snapshots()
        if floor is None:
            raise SystemExit(
                f"no snapshot in {args.checkpoint_dir}; the whole WAL is "
                f"still needed for recovery — nothing to compact"
            )
        removed = compact_wal(checkpoint.wal_path, floor, fsync=checkpoint.fsync)
    except (CheckpointError, WALError) as exc:
        raise SystemExit(str(exc))
    print(
        f"wal-compact: dropped {removed} record(s) below batch {floor} "
        f"({len(checkpoint.list_snapshots())} snapshot(s) retained)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minimum weight vertex cover in the MPC model "
        "(Ghaffari-Jin-Nilis, SPAA 2020 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("--input", help="input graph (.npz or edge list)")
        p.add_argument("--family", default="gnp", choices=list(GRAPH_FAMILIES))
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--degree", type=float, default=16.0)
        p.add_argument(
            "--weights", default="uniform", choices=["unit", *sorted(WEIGHT_MODELS)]
        )
        p.add_argument("--seed", type=int, default=0)

    solve = sub.add_parser("solve", help="compute a vertex cover")
    add_workload_args(solve)
    solve.add_argument(
        "--algorithm",
        default="mpc",
        choices=["mpc", "centralized", "pricing", "greedy"],
    )
    solve.add_argument("--eps", type=float, default=0.1)
    solve.add_argument("--engine", default="vectorized", choices=["vectorized", "cluster"])
    solve.add_argument("--json", action="store_true", help="machine-readable output")
    solve.add_argument("--cover-out", help="write cover vertex ids to this file")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("generate", help="write a workload file")
    add_workload_args(gen)
    gen.add_argument("--out", required=True, help="output path (.npz or .txt)")
    gen.set_defaults(func=_cmd_generate)

    exp = sub.add_parser("experiment", help="run experiment tables E1..E11")
    exp.add_argument("ids", nargs="+", help="experiment ids (e1..e11 or 'all')")
    exp.set_defaults(func=_cmd_experiment)

    batch = sub.add_parser(
        "batch", help="solve a JSON-lines manifest through the batch service"
    )
    batch.add_argument(
        "--manifest", required=True,
        help="JSON-lines manifest path ('-' for stdin); one request per line",
    )
    batch.add_argument(
        "--out", default="-",
        help="write JSON-lines results here (default: stdout)",
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: cpu count)",
    )
    batch.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU result-cache capacity; 0 disables caching",
    )
    batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-request wall-clock budget in seconds",
    )
    batch.add_argument(
        "--no-pool", action="store_true",
        help="solve in-process instead of a process pool",
    )
    batch.set_defaults(func=_cmd_batch)

    from repro.graphs.streams import CHURN_MODELS

    stream = sub.add_parser(
        "stream",
        help="maintain a certified cover over an update stream "
        "(incremental repair + drift-bounded re-solves, solved in process)",
    )
    add_workload_args(stream)
    stream.add_argument(
        "--updates",
        help="JSON-lines update stream ('-' for stdin, '.gz' ok), a "
        "columnar '.npz' stream such as a checkpoint's updates.npz, or a "
        "directory of segment files; omit to generate churn via --churn",
    )
    stream.add_argument(
        "--churn", default="uniform", choices=list(CHURN_MODELS),
        help="churn model for a generated stream (ignored with --updates)",
    )
    stream.add_argument(
        "--num-updates", type=int, default=500,
        help="length of the generated stream (ignored with --updates)",
    )
    stream.add_argument(
        "--stream-seed", type=int, default=7,
        help="seed of the generated stream (ignored with --updates)",
    )
    stream.add_argument("--batch-size", type=int, default=64,
                        help="updates per repair batch")
    stream.add_argument("--eps", type=float, default=0.1)
    stream.add_argument("--engine", default="vectorized",
                        choices=["vectorized", "cluster"])
    stream.add_argument(
        "--max-drift", type=float, default=0.25,
        help="re-solve once the certified ratio drifts past "
        "base·(1+max_drift)",
    )
    stream.add_argument(
        "--ratio-ceiling", type=float, default=None,
        help="absolute certified-ratio bound (on top of the drift rule)",
    )
    stream.add_argument(
        "--min-batches-between", type=int, default=1,
        help="cooldown batches between re-solves",
    )
    stream.add_argument(
        "--resolve-every-batch", action="store_true",
        help="degenerate policy: re-solve after every batch (baseline)",
    )
    stream.add_argument(
        "--verify-every", type=int, default=0,
        help="exactly re-verify the cover every k batches (0: final only)",
    )
    stream.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU result-cache capacity for the in-process re-solves",
    )
    stream.add_argument(
        "--out", default=None,
        help="write per-batch JSON-lines records here ('-'/omitted: skip)",
    )
    stream.add_argument(
        "--cover-out", default=None,
        help="write the final cover vertex ids to this file",
    )
    stream.add_argument(
        "--checkpoint-dir", default=None,
        help="make the run durable: write-ahead-log every batch and "
        "snapshot maintainer state into this directory (resume a killed "
        "run with `repro resume`)",
    )
    stream.add_argument(
        "--snapshot-every", type=int, default=8,
        help="batches between snapshots (with --checkpoint-dir)",
    )
    stream.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on WAL/snapshot commits (faster; survives process "
        "kills but not power loss)",
    )
    stream.add_argument(
        "--keep-snapshots", type=int, default=1,
        help="retain the last k snapshots instead of one (resume falls "
        "back to an older snapshot when the newest is corrupt)",
    )
    stream.add_argument(
        "--compact-wal", action="store_true",
        help="after each snapshot, drop WAL records older than the oldest "
        "retained snapshot so unbounded streams keep a bounded log",
    )
    stream.add_argument(
        "--profile", action="store_true",
        help="emit the per-batch kernel timing breakdown (repair / prune / "
        "adjacency / certificate) in every record and the summary",
    )
    stream.set_defaults(func=_cmd_stream)

    resume = sub.add_parser(
        "resume",
        help="resume a checkpointed `repro stream` run after a crash: "
        "restore the last snapshot, replay the WAL tail, finish the stream "
        "(re-solves in process)",
    )
    resume.add_argument(
        "--checkpoint-dir", required=True,
        help="checkpoint directory of the interrupted run",
    )
    resume.add_argument(
        "--updates", default=None,
        help="override the stored update stream (default: the checkpoint's "
        "updates.npz); it must match every committed batch, and only the "
        "uncommitted remainder may differ",
    )
    resume.add_argument(
        "--cache-size", type=int, default=256,
        help="LRU result-cache capacity for the in-process re-solves",
    )
    resume.add_argument(
        "--out", default=None,
        help="write per-batch JSON-lines records here ('-'/omitted: skip)",
    )
    resume.add_argument(
        "--cover-out", default=None,
        help="write the final cover vertex ids to this file",
    )
    resume.add_argument(
        "--profile", action="store_true",
        help="emit the per-batch kernel timing breakdown in every record "
        "and the summary",
    )
    resume.set_defaults(func=_cmd_resume)

    wal_compact = sub.add_parser(
        "wal-compact",
        help="prune a checkpoint directory's snapshots to its "
        "--keep-snapshots and truncate the WAL records the retained ones "
        "cover (offline maintenance; `repro stream --compact-wal` does "
        "this automatically)",
    )
    wal_compact.add_argument(
        "--checkpoint-dir", required=True,
        help="checkpoint directory whose wal.jsonl to compact",
    )
    wal_compact.set_defaults(func=_cmd_wal_compact)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
