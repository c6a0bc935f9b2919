"""Round-trip tests for graph serialization."""

import zipfile

import numpy as np
import pytest

from repro.graphs.generators import gnp_average_degree
from repro.graphs.graph import WeightedGraph
from repro.graphs.io import load_edgelist, load_npz, save_edgelist, save_npz
from repro.graphs.weights import uniform_weights


@pytest.fixture
def sample():
    g = gnp_average_degree(50, 6.0, seed=10)
    return g.with_weights(uniform_weights(g.n, 0.5, 123.25, seed=11))


class TestNpz:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(sample, path)
        loaded = load_npz(path)
        assert loaded == sample

    def test_roundtrip_empty(self, tmp_path):
        g = WeightedGraph.empty(4)
        path = tmp_path / "e.npz"
        save_npz(g, path)
        assert load_npz(path) == g

    def test_deflates_the_endpoints_and_stores_the_rest(self, sample, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(sample, path)
        with zipfile.ZipFile(path) as zf:
            methods = {i.filename: i.compress_type for i in zf.infolist()}
        assert methods == {
            "version.npy": zipfile.ZIP_STORED,
            "n.npy": zipfile.ZIP_STORED,
            "edges_u.npy": zipfile.ZIP_DEFLATED,
            "edges_v.npy": zipfile.ZIP_DEFLATED,
            "weights.npy": zipfile.ZIP_STORED,
        }

    def test_savez_compressed_archive_loads_alike(self, sample, tmp_path):
        # Graph files written by np.savez_compressed (level 6, every
        # member deflated) load to the same graph as the writer's own.
        ours, theirs = tmp_path / "ours.npz", tmp_path / "theirs.npz"
        save_npz(sample, ours)
        np.savez_compressed(
            theirs,
            version=np.int64(1),
            n=np.int64(sample.n),
            edges_u=sample.edges_u,
            edges_v=sample.edges_v,
            weights=sample.weights,
        )
        loaded = load_npz(theirs)
        assert loaded == load_npz(ours) == sample
        assert loaded.content_digest() == sample.content_digest()

    def test_version_checked(self, sample, tmp_path):
        path = tmp_path / "g.npz"
        np.savez_compressed(
            path,
            version=np.int64(999),
            n=np.int64(1),
            edges_u=np.empty(0, np.int64),
            edges_v=np.empty(0, np.int64),
            weights=np.ones(1),
        )
        with pytest.raises(ValueError, match="version"):
            load_npz(path)


class TestEdgelist:
    def test_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_edgelist(sample, path)
        loaded = load_edgelist(path)
        assert loaded == sample  # repr() of floats round-trips exactly

    def test_roundtrip_empty(self, tmp_path):
        g = WeightedGraph.empty(3)
        path = tmp_path / "e.txt"
        save_edgelist(g, path)
        assert load_edgelist(path) == g

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("junk\n")
        with pytest.raises(ValueError, match="header"):
            load_edgelist(path)

    def test_bad_size_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# mwvc-edgelist v1\nnope\n")
        with pytest.raises(ValueError, match="size line"):
            load_edgelist(path)

    def test_truncated_edges(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_edgelist(sample, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="edge line"):
            load_edgelist(path)

    def test_weight_count_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# mwvc-edgelist v1\nn 3 m 0\nw 1.0 2.0\n")
        with pytest.raises(ValueError, match="weights"):
            load_edgelist(path)


class TestGzipEdgelist:
    def test_gzip_roundtrip(self, sample, tmp_path):
        path = tmp_path / "g.txt.gz"
        save_edgelist(sample, path)
        # Really gzip on disk, not just a renamed text file.
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        assert load_edgelist(path) == sample

    def test_gzip_roundtrip_empty(self, tmp_path):
        g = WeightedGraph.empty(3)
        path = tmp_path / "e.txt.gz"
        save_edgelist(g, path)
        assert load_edgelist(path) == g

    def test_gzip_smaller_than_plain(self, tmp_path):
        g = gnp_average_degree(600, 10.0, seed=12)
        plain = tmp_path / "g.txt"
        packed = tmp_path / "g.txt.gz"
        save_edgelist(g, plain)
        save_edgelist(g, packed)
        assert packed.stat().st_size < plain.stat().st_size


class TestChunkedLoading:
    def test_small_chunks_match_default(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_edgelist(sample, path)
        assert load_edgelist(path, chunk_edges=7) == load_edgelist(path)

    def test_chunk_of_one(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_edgelist(sample, path)
        assert load_edgelist(path, chunk_edges=1) == sample

    def test_chunk_exactly_m(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_edgelist(sample, path)
        assert load_edgelist(path, chunk_edges=sample.m) == sample

    def test_bad_chunk_size(self, sample, tmp_path):
        path = tmp_path / "g.txt"
        save_edgelist(sample, path)
        with pytest.raises(ValueError, match="chunk_edges"):
            load_edgelist(path, chunk_edges=0)

    def test_truncated_gzip_edges(self, sample, tmp_path):
        import gzip

        path = tmp_path / "g.txt.gz"
        save_edgelist(sample, path)
        with gzip.open(path, "rt", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="edge line"):
            load_edgelist(path)


class TestAtomicWrites:
    def test_write_bytes_atomic_creates_and_replaces(self, tmp_path):
        from repro.graphs.io import write_bytes_atomic

        path = tmp_path / "blob.bin"
        write_bytes_atomic(path, b"first")
        assert path.read_bytes() == b"first"
        write_bytes_atomic(path, b"second", fsync=False)
        assert path.read_bytes() == b"second"
        # No temp litter either way.
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_failed_write_preserves_existing_file(self, tmp_path, monkeypatch):
        import os

        from repro.graphs import io as gio

        path = tmp_path / "blob.bin"
        gio.write_bytes_atomic(path, b"keep me")

        def exploding_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk went away"):
            gio.write_bytes_atomic(path, b"never lands")
        monkeypatch.undo()
        assert path.read_bytes() == b"keep me"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_save_npz_is_atomic_against_existing(self, sample, tmp_path):
        # Overwriting with the same graph must go through the tmp+rename
        # path and leave a loadable file.
        path = tmp_path / "g.npz"
        save_npz(sample, path)
        save_npz(sample, path)
        assert load_npz(path) == sample
        assert [p.name for p in tmp_path.iterdir()] == ["g.npz"]
