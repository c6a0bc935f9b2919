"""Correctness oracle, independent of the program under test.

Graphs are read straight from the generated ``.npz`` files with NumPy and
update streams with :mod:`json` — never through ``repro``'s loaders — and
covers are checked with plain sets and array masks.  Every check returns a
list of failure strings; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

Edge = Tuple[int, int]

#: Relative tolerance for float sums taken in different orders.
RTOL = 1e-9


def read_graph(path: str) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(n, edges_u, edges_v, weights)`` straight from a graph ``.npz``."""
    with np.load(path) as data:
        return (
            int(data["n"]),
            np.asarray(data["edges_u"], dtype=np.int64),
            np.asarray(data["edges_v"], dtype=np.int64),
            np.asarray(data["weights"], dtype=np.float64).copy(),
        )


def replay_stream(graph_path: str, updates_path: str) -> Tuple[int, Set[Edge], np.ndarray]:
    """Final ``(n, edge set, weights)`` after applying every update in order."""
    n, u, v, weights = read_graph(graph_path)
    lo, hi = np.minimum(u, v).tolist(), np.maximum(u, v).tolist()
    edges: Set[Edge] = set(zip(lo, hi))
    with open(updates_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            op = rec["op"]
            if op == "reweight":
                weights[int(rec["v"])] = float(rec["weight"])
                continue
            a, b = int(rec["u"]), int(rec["v"])
            key = (a, b) if a < b else (b, a)
            if op == "insert":
                edges.add(key)
            elif op == "delete":
                edges.discard(key)
            else:
                raise ValueError(f"unknown update op {op!r}")
    return n, edges, weights


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def check_cover(
    n: int,
    edges_u: np.ndarray,
    edges_v: np.ndarray,
    weights: np.ndarray,
    cover: np.ndarray,
    *,
    cover_weight: float,
    label: str,
) -> List[str]:
    """The cover is a length-``n`` mask hitting every edge, of the stated weight."""
    cover = np.asarray(cover)
    if cover.dtype != bool or cover.shape != (n,):
        return [f"{label}: cover is not a boolean mask of length {n}"]
    failures = []
    uncovered = int(np.count_nonzero(~(cover[edges_u] | cover[edges_v])))
    if uncovered:
        failures.append(f"{label}: {uncovered} edge(s) left uncovered")
    weight = float(weights[cover].sum())
    if not _close(weight, float(cover_weight)):
        failures.append(f"{label}: cover weight {cover_weight} != recomputed {weight}")
    return failures


def check_stream_result(
    n: int,
    edges: Set[Edge],
    weights: np.ndarray,
    *,
    cover: np.ndarray,
    cover_weight: float,
    certified_ratio: float,
    label: str,
) -> List[str]:
    """A stream's final cover covers the replayed edge set; its ratio is >= 1."""
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    failures = check_cover(
        n, pairs[:, 0], pairs[:, 1], weights, cover, cover_weight=cover_weight, label=label
    )
    if not (math.isfinite(certified_ratio) and certified_ratio >= 1.0 - RTOL):
        failures.append(f"{label}: certified ratio {certified_ratio} is not a finite value >= 1")
    return failures


def dual_ratio(
    edges_u: np.ndarray, edges_v: np.ndarray, weights: np.ndarray, cover: np.ndarray, x: np.ndarray
) -> float:
    """``w(C) / LB`` with ``LB = Σx / max(1, max_v load_v / w_v)``.

    The duals scaled to a feasible fractional matching lower-bound OPT, so
    this is the approximation ratio a certificate may claim for the cover.
    """
    n = weights.size
    loads = np.bincount(edges_u, weights=x, minlength=n) + np.bincount(
        edges_v, weights=x, minlength=n
    )
    scale = max(1.0, float((loads / weights).max())) if n else 1.0
    lower = float(x.sum()) / scale
    weight = float(weights[cover].sum())
    return weight / lower if lower > 0 else math.inf


def check_batch_results(
    graphs: Dict[str, tuple], lines: Sequence[dict], results: Sequence
) -> List[str]:
    """Every answer is a valid cover whose certificate follows from its duals;
    repeats are cache answers equal to their first solve.

    ``graphs`` maps a manifest ``input`` name to :func:`read_graph`'s tuple;
    ``results`` are the :class:`~repro.service.SolveResult` objects in
    manifest order.
    """
    failures: List[str] = []
    if len(results) != len(lines):
        return [f"{len(results)} results for {len(lines)} manifest lines"]
    first: Dict[tuple, object] = {}
    for line, res in zip(lines, results):
        label = line["id"]
        if not res.ok or res.result is None:
            failures.append(f"{label}: request failed: {res.error}")
            continue
        n, eu, ev, w = graphs[line["input"]]
        sol = res.result
        failures += check_cover(n, eu, ev, w, sol.in_cover, cover_weight=sol.cover_weight, label=label)
        x = np.asarray(sol.x, dtype=np.float64)
        if x.shape != eu.shape or (x < 0).any():
            failures.append(f"{label}: duals are not one nonnegative value per edge")
        else:
            ratio = dual_ratio(eu, ev, w, sol.in_cover, x)
            claimed = float(sol.certificate.certified_ratio)
            if not (ratio >= 1.0 - RTOL and _close(ratio, claimed)):
                failures.append(
                    f"{label}: certified ratio {claimed} does not follow from its "
                    f"duals (recomputed {ratio})"
                )
        key = (line["input"], line.get("engine", "vectorized"), int(line.get("seed", 0)))
        if key not in first:
            first[key] = sol
            continue
        lead = first[key]
        if not res.cache_hit:
            failures.append(f"{label}: repeated request was solved again")
        if not (
            np.array_equal(sol.in_cover, lead.in_cover)
            and np.array_equal(sol.x, lead.x)
            and sol.cover_weight == lead.cover_weight
        ):
            failures.append(f"{label}: cache answer differs from its first solve")
    return failures
