"""Tests for the command-line interface."""

import io
import json
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.graphs.generators import gnp_average_degree
from repro.graphs.io import load_npz, save_npz
from repro.graphs.weights import uniform_weights


class TestSolve:
    def test_solve_generated(self, capsys):
        rc = main(["solve", "--family", "gnp", "--n", "200", "--degree", "8",
                   "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cover_weight" in out

    def test_solve_json(self, capsys):
        rc = main(["solve", "--family", "gnp", "--n", "150", "--degree", "6",
                   "--seed", "2", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == "mpc"
        assert data["cover_weight"] > 0
        assert data["n"] == 150

    @pytest.mark.parametrize("algo", ["centralized", "pricing", "greedy"])
    def test_other_algorithms(self, algo, capsys):
        rc = main(["solve", "--family", "gnp", "--n", "120", "--degree", "6",
                   "--seed", "3", "--algorithm", algo, "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["algorithm"] == algo

    def test_solve_from_file(self, tmp_path, capsys):
        g = gnp_average_degree(100, 5.0, seed=4)
        g = g.with_weights(uniform_weights(g.n, seed=5))
        path = tmp_path / "g.npz"
        save_npz(g, path)
        rc = main(["solve", "--input", str(path), "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 100

    def test_cover_out(self, tmp_path, capsys):
        out = tmp_path / "cover.txt"
        rc = main(["solve", "--family", "gnp", "--n", "100", "--degree", "6",
                   "--seed", "6", "--cover-out", str(out)])
        assert rc == 0
        ids = np.loadtxt(out, dtype=np.int64)
        assert ids.size > 0

    def test_cover_out_keeps_json_stdout(self, tmp_path, capsys):
        out = tmp_path / "cover.txt"
        rc = main(["solve", "--family", "gnp", "--n", "100", "--degree", "6",
                   "--seed", "6", "--json", "--cover-out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["cover_size"] == np.loadtxt(out, dtype=np.int64).size
        assert str(out) in captured.err

    def test_cluster_engine(self, capsys):
        rc = main(["solve", "--family", "gnp", "--n", "120", "--degree", "8",
                   "--seed", "7", "--engine", "cluster", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "cluster"

    @pytest.mark.parametrize("family", ["power_law", "grid", "tree", "sbm", "geometric", "ba"])
    def test_all_families(self, family, capsys):
        rc = main(["solve", "--family", family, "--n", "150", "--degree", "6",
                   "--seed", "8", "--json"])
        assert rc == 0

    def test_unit_weights(self, capsys):
        rc = main(["solve", "--family", "gnp", "--n", "100", "--degree", "6",
                   "--weights", "unit", "--seed", "9", "--json"])
        assert rc == 0


class TestGenerate:
    def test_npz_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "w.npz"
        rc = main(["generate", "--family", "gnp", "--n", "80", "--degree", "5",
                   "--seed", "10", "--out", str(path)])
        assert rc == 0
        g = load_npz(path)
        assert g.n == 80

    def test_edgelist_output(self, tmp_path, capsys):
        path = tmp_path / "w.txt"
        rc = main(["generate", "--family", "tree", "--n", "50", "--seed", "11",
                   "--out", str(path)])
        assert rc == 0
        assert path.read_text().startswith("# mwvc-edgelist v1")

    def test_power_law_follows_degree(self, tmp_path, capsys):
        avg = {}
        for degree in ("4", "32"):
            path = tmp_path / f"pl{degree}.npz"
            rc = main(["generate", "--family", "power_law", "--n", "2000",
                       "--degree", degree, "--seed", "3", "--out", str(path)])
            assert rc == 0
            g = load_npz(path)
            avg[degree] = 2 * g.m / g.n
        assert avg["32"] > avg["4"]


class TestExperiment:
    def test_unknown_id(self):
        with pytest.raises(SystemExit):
            main(["experiment", "e99"])

    def test_e11_runs(self, capsys):
        rc = main(["experiment", "e11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E11" in out
        assert "rounds_equal" in out


class TestBatch:
    def _manifest(self, tmp_path, lines):
        path = tmp_path / "manifest.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        return str(path)

    def test_batch_manifest_to_jsonl(self, tmp_path, capsys):
        manifest = self._manifest(
            tmp_path,
            [
                {"id": "a", "family": "gnp", "n": 80, "degree": 5, "graph_seed": 1},
                {"id": "a2", "family": "gnp", "n": 80, "degree": 5, "graph_seed": 1},
                {"id": "b", "n": 3, "edges": [[0, 1], [1, 2]]},
            ],
        )
        rc = main(["batch", "--manifest", manifest, "--no-pool"])
        assert rc == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["request_id"] for r in rows] == ["a", "a2", "b"]
        assert all(r["ok"] for r in rows)
        assert rows[1]["cache_hit"]  # identical instance deduplicated
        assert rows[0]["cache_key"] == rows[1]["cache_key"]
        assert rows[0]["cover_weight"] == rows[1]["cover_weight"]

    def test_batch_out_file_and_failure_exit_code(self, tmp_path, capsys):
        manifest = self._manifest(
            tmp_path,
            [
                {"id": "good", "family": "tree", "n": 30},
                {"id": "bad", "family": "tree", "n": 30, "eps": 0.4},
            ],
        )
        out = tmp_path / "results.jsonl"
        rc = main(["batch", "--manifest", manifest, "--no-pool", "--out", str(out)])
        assert rc == 1  # one failed request
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        by_id = {r["request_id"]: r for r in rows}
        assert by_id["good"]["ok"]
        assert not by_id["bad"]["ok"] and "eps" in by_id["bad"]["error"]

    def test_batch_bad_manifest(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(SystemExit, match="line 1"):
            main(["batch", "--manifest", str(path)])

    def test_batch_empty_manifest(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("# nothing here\n")
        with pytest.raises(SystemExit):
            main(["batch", "--manifest", str(path)])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["solve", "--family", "moebius"])

    @pytest.mark.parametrize("argv", [
        ["stream", "--family", "gnp", "--n", "60", "--degree", "4"],
        ["resume", "--checkpoint-dir", "ckpt"],
    ])
    def test_streams_take_no_workers_flag(self, argv):
        # Streams re-solve one request at a time, in process.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2"])
        assert exc.value.code == 2


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestMissingInput:
    def test_solve_missing_file_is_clean_error(self, tmp_path):
        missing = tmp_path / "nope.npz"
        with pytest.raises(SystemExit, match="input file not found"):
            main(["solve", "--input", str(missing)])

    def test_solve_missing_edgelist(self, tmp_path):
        missing = tmp_path / "nope.txt"
        with pytest.raises(SystemExit, match="input file not found"):
            main(["solve", "--input", str(missing)])

    def test_corrupt_input_is_clean_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("junk\n")
        with pytest.raises(SystemExit, match="cannot read input file"):
            main(["solve", "--input", str(bad)])

    @pytest.mark.parametrize("kind", ["junk", "directory"])
    @pytest.mark.parametrize("name", ["bad.txt", "bad.npz"])
    def test_unreadable_input_names_the_file_once(self, tmp_path, name, kind):
        bad = tmp_path / name
        if kind == "junk":
            bad.write_text("junk\n")
        else:
            bad.mkdir()
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"family": "tree", "n": 5}) + "\n"
                            + json.dumps({"input": str(bad)}) + "\n")
        for argv, prefix in (
            (["solve", "--input", str(bad)], "cannot read input file: "),
            (["batch", "--manifest", str(manifest)], "bad manifest: manifest line 2: "),
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            message = str(exc_info.value.code)
            assert message.startswith(prefix)
            assert message.count(str(bad)) == 1

    def test_stream_missing_updates_file(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        with pytest.raises(SystemExit, match="update stream not found"):
            main(["stream", "--family", "gnp", "--n", "60", "--degree", "4",
                  "--seed", "1", "--updates", str(missing)])

    @pytest.mark.parametrize("bad", ['"u": null', '"u": 2.9', '"u": true'])
    def test_stream_malformed_updates_is_clean_error(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "insert", "u": 0, "v": 1}\n'
                        '{"op": "insert", %s, "v": 1}\n' % bad)
        with pytest.raises(SystemExit, match=r"bad update stream: .*bad\.jsonl: "
                           r"update stream line 2: vertex ids must be JSON integers"):
            main(["stream", "--family", "gnp", "--n", "60", "--degree", "4",
                  "--seed", "1", "--updates", str(path)])

    @pytest.mark.parametrize("source", ["latin.jsonl", "-"])
    def test_stream_non_utf8_updates_names_file_and_line(
        self, tmp_path, monkeypatch, source
    ):
        raw = b'{"op": "insert", "u": 0, "v": 1}\n\xff\xfe\n'
        if source == "-":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
            where = ""
        else:
            path = tmp_path / source
            path.write_bytes(raw)
            source, where = str(path), f"{path}: "
        with pytest.raises(SystemExit) as info:
            main(["stream", "--family", "gnp", "--n", "60", "--degree", "4",
                  "--seed", "1", "--updates", source])
        assert str(info.value).startswith(
            f"bad update stream: {where}update stream line 2: "
            "'utf-8' codec can't decode byte 0xff"
        )


class TestStream:
    def test_generated_churn_stream(self, tmp_path, capsys):
        out = tmp_path / "records.jsonl"
        rc = main(["stream", "--family", "gnp", "--n", "150", "--degree", "6",
                   "--weights", "uniform", "--seed", "1", "--churn", "uniform",
                   "--num-updates", "120", "--batch-size", "30",
                   "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_is_cover"] is True
        assert summary["num_batches"] == 4
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
        assert all("certified_ratio" in r for r in rows)

    def test_updates_file_stream(self, tmp_path, capsys):
        from repro.dynamic import save_update_stream
        from repro.graphs.streams import uniform_churn_stream
        from repro.service.manifest import generate_graph

        g = generate_graph("gnp", n=100, degree=6.0, seed=2)
        stream_path = tmp_path / "stream.jsonl.gz"
        save_update_stream(uniform_churn_stream(g, 80, seed=3), stream_path)
        rc = main(["stream", "--family", "gnp", "--n", "100", "--degree", "6",
                   "--seed", "2", "--weights", "unit",
                   "--updates", str(stream_path), "--batch-size", "40"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_updates"] == 80
        assert summary["final_is_cover"] is True

    def test_resolve_every_batch_flag(self, capsys):
        rc = main(["stream", "--family", "gnp", "--n", "80", "--degree", "5",
                   "--seed", "4", "--churn", "sliding_window",
                   "--num-updates", "60", "--batch-size", "30",
                   "--resolve-every-batch"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["num_resolves"] == summary["num_batches"] + 1

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit, match="max_drift"):
            main(["stream", "--family", "gnp", "--n", "60", "--degree", "4",
                  "--seed", "5", "--num-updates", "10", "--max-drift", "-1"])
