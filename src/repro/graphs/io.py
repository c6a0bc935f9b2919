"""Graph serialization.

Two formats:

* **NPZ** (binary, lossless, fast) — the native format for benchmark
  workload caching: endpoint arrays + weights in one compressed file.
* **Text edge list** (interoperable) — ``n`` and per-vertex weights in a
  header, one ``u v`` pair per line; loadable by standard tooling.
  Paths ending in ``.gz`` are transparently gzip-compressed on save and
  decompressed on load, and the edge body is parsed in fixed-size chunks,
  so loading an f-GB edge list needs the output arrays plus O(chunk)
  transient memory — never the whole text at once.
"""

from __future__ import annotations

import gzip
import io
import os
import tempfile
import zipfile
import zlib
from typing import IO, Dict, Iterable, Union

import numpy as np

from repro.graphs.graph import WeightedGraph

__all__ = [
    "save_npz",
    "load_npz",
    "read_npz",
    "save_edgelist",
    "load_edgelist",
    "fsync_directory",
    "write_bytes_atomic",
]

PathLike = Union[str, "os.PathLike[str]"]

_FORMAT_VERSION = 1

#: Edges parsed per chunk by :func:`load_edgelist` — bounds transient
#: parsing memory independently of file size.
EDGELIST_CHUNK = 1 << 16


def _open_text(path: PathLike, mode: str) -> IO[str]:
    """Open a text file, gzip-wrapped iff the path ends in ``.gz``."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def fsync_directory(directory: PathLike) -> None:
    """fsync a directory so freshly renamed/created entries survive power loss.

    POSIX durability of a rename (or of a new file's existence) requires
    flushing the *directory*, not just the file data.  Best-effort: some
    filesystems refuse to open directories, which is reported by silently
    skipping (the data fsync still happened).
    """
    try:
        fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def write_bytes_atomic(path: PathLike, data: bytes, *, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    Readers never observe a half-written file: either the old content (or
    absence) survives, or the complete new content does.  With ``fsync``
    the payload is flushed before the rename and the parent directory is
    flushed after it, so the replacement also survives power loss — the
    write discipline every durable artifact in
    :mod:`repro.dynamic.checkpoint` relies on.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync:
            fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_npz(graph: WeightedGraph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` in compressed NPZ form.

    The file appears atomically: a crash mid-save leaves either the old
    file or none, never a truncated archive.
    """
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        version=np.int64(_FORMAT_VERSION),
        n=np.int64(graph.n),
        edges_u=graph.edges_u,
        edges_v=graph.edges_v,
        weights=graph.weights,
    )
    write_bytes_atomic(path, buf.getvalue(), fsync=False)


def read_npz(path: PathLike, keys: Iterable[str], *, what: str) -> Dict[str, np.ndarray]:
    """The members ``keys`` of the ``.npz`` archive at ``path``.

    A missing file raises ``FileNotFoundError``.  Any other file that does
    not give every member (empty, truncated, corrupt, not an archive, or
    lacking a member) raises ``ValueError`` naming the file; one lacking a
    member is reported as "not ``what``".
    """
    name = os.fspath(path)
    try:
        with zipfile.ZipFile(path) as archive:
            return {
                key: np.lib.format.read_array(archive.open(f"{key}.npy"), allow_pickle=False)
                for key in keys
            }
    except FileNotFoundError:
        raise
    except KeyError as exc:
        raise ValueError(f"{name}: not {what} ({exc.args[0]})") from None
    except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        # An OSError about the file itself names it already.
        detail = exc.strerror if isinstance(exc, OSError) and exc.filename else exc
        raise ValueError(f"{name}: not a readable .npz archive ({detail})") from None


def load_npz(path: PathLike) -> WeightedGraph:
    """Read a graph previously written by :func:`save_npz`.

    An unreadable file, or one that does not hold a valid graph, raises
    ``ValueError`` naming it (see :func:`read_npz`).
    """
    data = read_npz(
        path, ("version", "n", "edges_u", "edges_v", "weights"), what="a graph file"
    )
    try:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported graph file version {version}")
        return WeightedGraph(
            int(data["n"]), data["edges_u"], data["edges_v"], data["weights"]
        )
    except ValueError as exc:
        raise ValueError(f"{os.fspath(path)}: {exc}") from None


def save_edgelist(graph: WeightedGraph, path: PathLike) -> None:
    """Write a human-readable edge list.

    Format::

        # mwvc-edgelist v1
        n <num_vertices> m <num_edges>
        w <w_0> <w_1> ... <w_{n-1}>
        <u> <v>
        ...

    A ``.gz`` suffix selects gzip compression.
    """
    with _open_text(path, "w") as fh:
        fh.write("# mwvc-edgelist v1\n")
        fh.write(f"n {graph.n} m {graph.m}\n")
        fh.write("w " + " ".join(repr(float(w)) for w in graph.weights) + "\n")
        for u, v in zip(graph.edges_u, graph.edges_v):
            fh.write(f"{int(u)} {int(v)}\n")


def load_edgelist(
    path: PathLike, *, chunk_edges: int = EDGELIST_CHUNK
) -> WeightedGraph:
    """Read a graph previously written by :func:`save_edgelist`.

    Handles plain and gzip-compressed (``.gz``) files.  The edge body is
    parsed ``chunk_edges`` lines at a time into the preallocated endpoint
    arrays, keeping transient memory constant per chunk regardless of file
    size.  A missing file raises ``FileNotFoundError``; a file that does not
    hold a valid graph raises ``ValueError`` naming it.
    """
    if chunk_edges < 1:
        raise ValueError(f"chunk_edges must be >= 1, got {chunk_edges}")
    try:
        with _open_text(path, "r") as fh:
            return _parse_edgelist(fh, chunk_edges)
    except (ValueError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{os.fspath(path)}: {exc}") from None


def _parse_edgelist(fh: IO[str], chunk_edges: int) -> WeightedGraph:
    header = fh.readline().strip()
    if header != "# mwvc-edgelist v1":
        raise ValueError(f"unrecognized edgelist header: {header!r}")
    sizes = fh.readline().split()
    if len(sizes) != 4 or sizes[0] != "n" or sizes[2] != "m":
        raise ValueError(f"malformed size line: {sizes!r}")
    n, m = int(sizes[1]), int(sizes[3])
    wline = fh.readline().split()
    if not wline or wline[0] != "w":
        raise ValueError("missing weight line")
    weights = np.asarray([float(x) for x in wline[1:]], dtype=np.float64)
    if weights.size != n:
        raise ValueError(f"expected {n} weights, found {weights.size}")
    us = np.empty(m, dtype=np.int64)
    vs = np.empty(m, dtype=np.int64)
    done = 0
    while done < m:
        want = min(chunk_edges, m - done)
        chunk = []
        for _ in range(want):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {done + len(chunk)}: {parts!r}")
            chunk.append(parts)
        block = np.asarray(chunk, dtype=np.int64)
        us[done : done + want] = block[:, 0]
        vs[done : done + want] = block[:, 1]
        done += want
    return WeightedGraph(n, us, vs, weights)
