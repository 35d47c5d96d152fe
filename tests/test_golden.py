"""Replay the golden CLI corpus (tests/golden) and compare stdout byte for byte.

The corpus was recorded by tests/golden/record.py; see its docstring.
"""

import json
import os

import pytest

from weylorbits.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


@pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.delenv("WEYLORBITS_CAP", raising=False)
    code = main(case["argv"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, case["name"]), "rb") as fh:
        expected = fh.read()
    assert code == case["exit"]
    assert out.encode("utf-8") == expected
