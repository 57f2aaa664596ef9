"""Byte-for-byte comparison of CLI output against stored golden files.

Each case runs ``freearr`` in process and compares its stdout and exit code
with ``tests/golden/<name>.out`` and ``tests/golden/exit_codes.json``.
Regenerate the files (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from freearr.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "freeness_dual_hesse": ["freeness", "catalog:dual_hesse"],
    "freeness_dual_hesse_md": ["freeness", "catalog:dual_hesse", "--md"],
    "freeness_g443": ["freeness", "catalog:g443"],
    "freeness_family13_3": ["freeness", "catalog:family13?lambda=3"],
    "freeness_family15_2": ["freeness", "catalog:family15?lambda=2"],
    "freeness_family13_golden_ratio": ["freeness", "catalog:family13?lambda=(1+sqrt(5))/2"],
    "charpoly_g443": ["charpoly", "catalog:g443"],
    "analyze_eleven_if": ["analyze", "catalog:eleven_if"],
    "analyze_pentagonal": ["analyze", "catalog:pentagonal"],
    "analyze_dual_hesse": ["analyze", "catalog:dual_hesse"],
    "deletions_eleven_if": ["deletions", "catalog:eleven_if"],
    "inductive_eleven_if": ["inductive", "catalog:eleven_if"],
    "inductive_dual_hesse": ["inductive", "catalog:dual_hesse"],
    "recursive_eleven_if": ["recursive", "catalog:eleven_if"],
    "render_family13_2_3": ["render", "catalog:family13?lambda=2/3"],
    "catalog_get_pentagonal_svg": ["catalog", "get", "pentagonal", "--svg"],
    "scan_family13": ["scan-family", "family13", "--samples", "2,5"],
    "scan_family15": ["scan-family", "family15", "--samples", "2", "--symbolic"],
    # symbolic families over Q(t): the only output with a derivation_e1 over Q(t)
    "freeness_family13_symbolic": ["freeness", str(GOLDEN / "family13_symbolic.json")],
    "freeness_family15_symbolic": ["freeness", str(GOLDEN / "family15_symbolic.json")],
}


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = _run(CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
