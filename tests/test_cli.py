"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from freearr.cli import _build_parser, _parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


class TestReports:
    def test_catalog_list(self, capsys):
        obj = run_json(capsys, "catalog", "list")
        assert "dual_hesse" in obj["names"]

    def test_charpoly(self, capsys):
        obj = run_json(capsys, "charpoly", "catalog:dual_hesse")
        assert obj["coefficients"] == [1, -9, 24, -16]
        assert obj["exponents"] == [1, 4, 4]

    def test_freeness_family13(self, capsys):
        obj = run_json(capsys, "freeness", "catalog:family13?lambda=3")
        assert obj["verdict"] == "free"
        assert obj["route"] == "yoshinaga"
        assert obj["exponents"] == [1, 6, 6]
        assert obj["witness"]["d1"] * obj["witness"]["d2"] == 36
        assert "derivation_e1" in obj["witness"]

    def test_analyze(self, capsys):
        obj = run_json(capsys, "analyze", "catalog:dual_hesse")
        assert obj["size"] == 9
        assert obj["profile"] == [0, 12]
        assert len(obj["points"]) == 12
        assert all(len(p["incident"]) == 3 for p in obj["points"])
        assert obj["aut_order"] == 432

    def test_classify_profiles(self, capsys):
        obj = run_json(capsys, "classify-profiles", "--max", "12")
        assert len(obj["profiles"]) == 6
        assert obj["profiles"][0] == {"ell": 9, "a": 4, "profile": [0, 12]}

    def test_inductive_and_recursive(self, capsys):
        obj = run_json(capsys, "inductive", "catalog:eleven_if")
        assert obj["inductively_free"] is True
        assert len(obj["chain"]["moves"]) == 11
        obj = run_json(capsys, "recursive", "catalog:dual_hesse", "--max-size", "10")
        assert obj["verdict"] == "yes"
        kinds = [m["kind"] for m in obj["chain"]["moves"]]
        assert kinds.count("add") == 1 and kinds.count("delete") == 10

    def test_additions_deletions(self, capsys):
        obj = run_json(capsys, "additions", "catalog:dual_hesse")
        assert obj["count"] == 12
        obj = run_json(capsys, "deletions", "catalog:eleven_if")
        assert obj["count"] >= 1

    def test_additions_dual_hesse_bytes(self, capsys):
        # the twelve free additions, each through four triple points
        lines = [
            ["1", {"a": "1/2", "b": "-1/2"}, "0"],
            ["1", "-1", "0"],
            ["1", "0", {"a": "-1/2", "b": "1/2"}],
            ["1", "0", {"a": "-1/2", "b": "-1/2"}],
            ["0", "1", {"a": "-1/2", "b": "-1/2"}],
            ["1", {"a": "0", "b": "-1/3"}, {"a": "-1/2", "b": "1/6"}],
            ["1", "1", "-1"],
            ["1", {"a": "-1/2", "b": "-1/2"}, {"a": "1/2", "b": "1/2"}],
            ["1", {"a": "1/2", "b": "-1/2"}, {"a": "-3/2", "b": "1/2"}],
            ["0", "1", {"a": "-1/2", "b": "1/2"}],
            ["1", {"a": "0", "b": "-1"}, {"a": "-1/2", "b": "1/2"}],
            ["1", {"a": "-1/2", "b": "-1/2"}, "-1"],
        ]
        expected = {
            "count": 12,
            "additions": [{"line": line, "exponents": [1, 4, 5]} for line in lines],
        }
        code, out = run(capsys, "additions", "catalog:dual_hesse")
        assert code == 0
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_aut(self, capsys):
        obj = run_json(capsys, "aut", "catalog:family13?lambda=3")
        assert obj["order"] == 18

    def test_scan_family(self, capsys):
        obj = run_json(capsys, "scan-family", "family13", "--samples", "3", "--symbolic")
        assert obj["family"] == "family13"
        labels = [r["label"] for r in obj["rows"]]
        assert labels == ["t", "3"]
        assert obj["rows"][1]["recursive"] == "no"
        values = {v["value"] for v in obj["exceptional"]["values"]}
        assert "2" in values and "1/2" in values

    def test_markdown_mode(self, capsys):
        code, out = run(capsys, "charpoly", "catalog:dual_hesse", "--md")
        assert code == 0
        assert "**coefficients**" in out

    def test_file_input_roundtrip(self, capsys, tmp_path):
        obj = run_json(capsys, "catalog", "get", "pentagonal")
        f = tmp_path / "pent.json"
        f.write_text(json.dumps(obj))
        rep = run_json(capsys, "charpoly", str(f))
        assert rep["exponents"] == [1, 5, 5]

    def test_determinism(self, capsys):
        _, a = run(capsys, "analyze", "catalog:g443")
        _, b = run(capsys, "analyze", "catalog:g443")
        assert a == b

    def test_catalog_check(self, capsys):
        obj = run_json(capsys, "catalog", "check", "family13", "--param", "2")
        assert obj["tag"] == "IF"


class TestRender:
    def test_render_to_file(self, capsys, tmp_path):
        out = tmp_path / "fig.svg"
        code, _ = run(capsys, "render", "catalog:family13?lambda=2/3", "-o", str(out))
        assert code == 0
        doc = out.read_text()
        assert doc.count("<line ") == 12 and "H13 at infinity" in doc

    def test_render_stdout_and_viewport(self, capsys):
        code, out = run(capsys, "render", "catalog:eleven_if", "--viewport=-2,2,-2,2")
        assert code == 0 and out.startswith("<?xml")

    def test_catalog_get_svg(self, capsys):
        code, out = run(capsys, "catalog", "get", "eleven_if", "--svg")
        assert code == 0 and "<svg" in out


class TestExitCodes:
    def test_unknown_catalog(self, capsys):
        assert main(["freeness", "catalog:nope"]) == 2

    def test_bad_file(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert main(["freeness", str(f)]) == 2

    def test_bad_param(self, capsys):
        assert main(["freeness", "catalog:family13?lambda=sqrt(2)+sqrt(3)"]) == 2

    @pytest.mark.parametrize(
        "value", ["__import__('os').getpid()*0+2", "2**(2**40)", "2^(2^40)", "7" * 300]
    )
    def test_unsafe_param_text(self, capsys, value):
        start = time.perf_counter()
        assert main(["charpoly", f"catalog:family13?lambda={value}"]) == 2
        assert main(["catalog", "get", "family13", "--param", value]) == 2
        assert main(["scan-family", "family13", "--samples", f"2,{value}"]) == 2
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("levels", [2, 15, 25, 30])
    def test_nested_sqrt_param(self, capsys, levels):
        value = "sqrt(" * levels + "2" + ")" * levels
        start = time.perf_counter()
        assert main(["charpoly", f"catalog:family13?lambda={value}"]) == 2
        assert main(["catalog", "get", "family13", "--param", value]) == 2
        assert time.perf_counter() - start < 1.0
        assert "nests sqrt" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["21", "100000000"])
    def test_classify_max_capped(self, capsys, value):
        start = time.perf_counter()
        assert main(["classify-profiles", "--max", value]) == 2
        assert time.perf_counter() - start < 1.0
        assert "--max must be at most 20" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            # 65 lines, one over the cap
            json.dumps({"lines": [["1", str(k), "0"] for k in range(65)]}),
            # over 100000 characters, though each line is short
            json.dumps({"lines": [["1", "0", "0"]], "pad": "x" * 100_000}),
            # nested deeper than the JSON decoder recurses
            "[" * 100_000,
        ],
        ids=["lines", "characters", "nesting"],
    )
    def test_oversized_json_input(self, capsys, tmp_path, text):
        f = tmp_path / "big.json"
        f.write_text(text)
        start = time.perf_counter()
        assert main(["aut", str(f)]) == 2
        assert time.perf_counter() - start < 1.0

    def test_json_input_at_the_line_cap(self, capsys, tmp_path):
        f = tmp_path / "pencil.json"
        f.write_text(json.dumps({"lines": [["1", str(k), "0"] for k in range(64)]}))
        obj = run_json(capsys, "aut", str(f))
        assert obj["order"] == math.factorial(64)

    def test_recursive_max_size_capped(self, capsys):
        start = time.perf_counter()
        assert main(["recursive", "catalog:dual_hesse", "--max-size", "16"]) == 2
        assert main(["recursive", "catalog:dual_hesse", "--max-size", "1000000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "--max-size must be at most the input size plus 6" in capsys.readouterr().err
        obj = run_json(capsys, "recursive", "catalog:dual_hesse", "--max-size", "15")
        assert obj["verdict"] == "yes"

    def test_missing_param(self, capsys):
        assert main(["freeness", "catalog:family13"]) == 2

    def test_not_drawable(self, capsys):
        assert main(["render", "catalog:dual_hesse"]) == 5

    def test_field_mismatch(self, capsys):
        # sqrt(3)-form family with a sqrt(5) parameter cannot be specialized
        from freearr.catalog import family13
        from freearr.arrio import parse_param
        from freearr.scalar import FieldMismatchError

        with pytest.raises(FieldMismatchError):
            family13(parse_param("sqrt(5)"), sqrt3=True)

    def test_closed_pipe_exits_1_without_traceback(self):
        # the read end is closed before the child starts, so its one write
        # always meets a broken pipe, as in ``freearr analyze ... | head``
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        r, w = os.pipe()
        os.close(r)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "freearr.cli", "analyze", "catalog:pentagonal"],
                stdout=w,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestParserKept:
    """The parser built once per process parses like a freshly built one."""

    ARGVS = [
        ["freeness", "catalog:dual_hesse"],
        ["--md", "inductive", "catalog:eleven_if"],
        ["recursive", "catalog:g443", "--max-size", "14", "--json"],
        ["analyze", "in.json", "--md"],
        ["scan-family", "family13", "--samples", "2,5", "--symbolic"],
        ["classify-profiles", "--max", "12"],
        ["catalog", "get", "pentagonal", "--svg"],
        ["catalog", "check", "family13", "--param", "3"],
        ["render", "catalog:g443", "-o", "out.svg", "--viewport", "-1,1,-1,1"],
        ["deletions", "catalog:eleven_if"],
        # usage errors
        [],
        ["nosuch", "catalog:g443"],
        ["freeness"],
        ["recursive", "catalog:g443", "--max-size", "many"],
        ["classify-profiles"],
        ["catalog", "drop", "g443"],
        ["additions", "catalog:g443", "--bogus"],
        ["charpoly", "catalog:dual_hesse"],
    ]

    @staticmethod
    def _parse(parser: argparse.ArgumentParser, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                return parser.parse_args(argv), err.getvalue()
            except SystemExit as e:
                return ("exit", e.code), err.getvalue()

    def test_same_namespace_as_fresh_parser(self):
        kept = _parser()
        assert _parser() is kept
        for argv in self.ARGVS:
            assert self._parse(kept, argv) == self._parse(_build_parser(), argv), argv
        assert _parser() is kept
