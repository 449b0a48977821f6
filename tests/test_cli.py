"""Tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (["gen", "c1"], ["place", "c1"], ["suite"],
                     ["info", "c1"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_gen_writes_json(self, tmp_path, capsys):
        out = str(tmp_path / "c1.json")
        verilog = str(tmp_path / "c1.v")
        assert main(["gen", "c1", "--scale", "tiny", "--out", out,
                     "--verilog", verilog]) == 0
        data = json.loads(open(out).read())
        assert data["name"] == "c1"
        assert "module" in open(verilog).read()

    def test_info_runs(self, capsys):
        assert main(["info", "c1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "32 macros" in out
        assert "Gseq" in out

    def test_info_on_json(self, tmp_path, capsys):
        out = str(tmp_path / "d.json")
        main(["gen", "c1", "--scale", "tiny", "--out", out])
        assert main(["info", out]) == 0

    def test_place_hidap(self, tmp_path, capsys):
        out = str(tmp_path / "placement.json")
        svg = str(tmp_path / "fp.svg")
        assert main(["place", "c1", "--scale", "tiny", "--flow",
                     "hidap", "--effort", "fast", "--out", out,
                     "--svg", svg]) == 0
        data = json.loads(open(out).read())
        assert data["flow"] == "hidap"
        assert len(data["macros"]) == 32
        assert open(svg).read().startswith("<svg")

    def test_place_unknown_suite_design(self, capsys):
        assert main(["place", "c99", "--scale", "tiny"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hidap: error: unknown suite design 'c99'")
        assert "known: c1, c2" in err

    @pytest.mark.parametrize("command", ["place", "info"])
    @pytest.mark.parametrize("content,message", [
        (None, "No such file or directory"),
        ("not json {", "Expecting value"),
        ('{"name": "x"}', "design JSON is missing key 'library'"),
        ("[]", "malformed design JSON: list indices must be integers"),
    ], ids=["missing", "not-json", "truncated", "wrong-type"])
    def test_bad_json_design(self, command, content, message, tmp_path,
                             capsys):
        path = tmp_path / "x.json"
        if content is not None:
            path.write_text(content)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"hidap: error: cannot load {path}: ")
        assert message in err

    def test_place_indeda(self, capsys):
        assert main(["place", "c1", "--scale", "tiny", "--flow",
                     "indeda"]) == 0
        assert "indeda" in capsys.readouterr().out

    def test_suite_subset_flows(self, capsys):
        assert main(["suite", "--scale", "tiny", "--designs", "c1",
                     "--flows", "indeda,handfp-strip",
                     "--effort", "fast"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table III" in out
        assert "c1" in out

    @pytest.mark.parametrize("command", ["suite", "serve"])
    def test_store_that_is_a_file(self, command, tmp_path, monkeypatch,
                                  capsys):
        store = tmp_path / "not-a-dir"
        store.write_text("")
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main([command, "--scale", "tiny", "--designs", "c1",
                     "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("hidap: error: ")
        assert str(store) in err

    def test_serve_reports_every_request(self, monkeypatch, capsys):
        requests = [
            {"design": "c1", "flow": "indeda"},
            "not json",
            {"design": "c9", "flow": "indeda"},
            {"design": "c1", "flow": "no-such-flow"},
            '{"design": "c1", "flow": "indeda", "seed": Infinity}',
            {"design": "c1", "flow": "indeda", "seed": 1.5},
            {"design": "c1", "flow": "indeda", "seed": True},
        ]
        lines = [r if isinstance(r, str) else json.dumps(r)
                 for r in requests]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
        assert main(["serve", "--scale", "tiny", "--designs", "c1"]) == 0
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert [e["event"] for e in events] == [
            "ready", "queued", "error", "error", "queued", "error",
            "error", "error", "done", "failed"]
        assert [e["job"] for e in events[-2:]] == [0, 1]
        assert "seed" in events[5]["error"]
