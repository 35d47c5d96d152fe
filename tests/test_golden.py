"""Replay the golden CLI corpus (tests/golden) and compare stdout byte for byte.

The corpus was recorded by tests/golden/record.py; see its docstring.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from weylorbits import nilpotent as nil
from weylorbits.cli import main
from weylorbits.roots import build_root_system

from oracles import LABEL_SYSTEMS, orthogonal_subsets

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


def _load_census_recorder():
    path = os.path.join(GOLDEN, "record_census.py")
    spec = importlib.util.spec_from_file_location("record_census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_golden():
    # the full report of classify and levi_and_involution(report.reduced_set)
    # on every orthogonal set of at most four positive roots of B4, C4, F4 and
    # D5 line by line, and of E6 as one digest per set size (1626 sets)
    recorder = _load_census_recorder()
    with open(recorder.GOLDEN, encoding="utf-8") as fh:
        expected = fh.read().splitlines()
    lines = recorder.census_lines()
    assert len(lines) == len(expected) == 649
    for line, want in zip(lines, expected):
        assert line == want
    assert sum(json.loads(line).get("sets", 1) for line in expected) == 1626


@pytest.mark.parametrize("case", MANIFEST, ids=[c["name"] for c in MANIFEST])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.delenv("WEYLORBITS_CAP", raising=False)
    code = main(case["argv"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, case["name"]), "rb") as fh:
        expected = fh.read()
    assert code == case["exit"]
    assert out.encode("utf-8") == expected


# Replays the named cases in one interpreter, then breaks the byte bound of
# the packed span scan on purpose. Prints sys.flags.optimize, the number of
# cases, the names whose exit code or stdout differ from the corpus, and the
# error the bound raised.
CHILD = """
import io, json, os, sys
from weylorbits.cli import main
golden, names = sys.argv[1], set(sys.argv[2:])
with open(os.path.join(golden, "manifest.json"), encoding="utf-8") as fh:
    cases = [c for c in json.load(fh) if c["name"] in names]
bad = []
for case in cases:
    sys.stdout = io.StringIO()
    code = main(case["argv"])
    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
    with open(os.path.join(golden, case["name"]), "rb") as fh:
        if code != case["exit"] or out.encode("utf-8") != fh.read():
            bad.append(case["name"])
# the byte bound of the packed span scan: lcm(norms) * long norm below 128
from weylorbits.roots import RootSystem
g2 = RootSystem("G", 2)
g2.long_norm = 22  # 6 * 22 = 132
try:
    g2._span_lanes([g2.highest_root])
    bound = "not checked"
except AssertionError as exc:
    bound = str(exc)
print(repr((sys.flags.optimize, len(cases), bad, bound)))
"""


def _replay(flags, script, names):
    """The literal the child script prints after replaying the named cases
    in a fresh interpreter run with the given flags, without WEYLORBITS_CAP."""
    env = {k: v for k, v in os.environ.items() if k != "WEYLORBITS_CAP"}
    src = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, GOLDEN, *names], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def _replay_under_python_O(prefixes):
    # python -O strips assert statements: the invariants these commands rest
    # on are explicit raises, so the outputs must not change, and the byte
    # bound still raises
    names = [c["name"] for c in MANIFEST if c["name"].startswith(prefixes)]
    assert _replay(["-O"], CHILD, names) == (
        1, len(names), [], "G2: Bessel defects do not fit in 7 bits"
    )


def test_classify_and_cascade_goldens_under_python_O():
    _replay_under_python_O(("classify-", "cascade-"))


def test_orbits_and_compare_goldens_under_python_O():
    # the orbit tables and the pattern order of compare --nr (linkpatterns)
    _replay_under_python_O(("orbits-", "compare-"))


def test_poset_and_selftest_goldens_under_python_O():
    # the cover scan of poset, and the order and cover checks of selftest,
    # all decided on keys
    _replay_under_python_O(("poset-", "selftest"))


# Replays the named cases in one interpreter; after each, looks for Weyl
# group objects alive. Prints the number of cases, the names whose output
# differs, and the names after which some WeylGroup was alive.
ENUMERATION_CHILD = """
import gc, io, json, os, sys
from weylorbits.cli import main
from weylorbits.weyl import WeylGroup
golden, names = sys.argv[1], set(sys.argv[2:])
with open(os.path.join(golden, "manifest.json"), encoding="utf-8") as fh:
    cases = [c for c in json.load(fh) if c["name"] in names]
bad, with_group = [], []
for case in cases:
    sys.stdout = io.StringIO()
    code = main(case["argv"])
    out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
    with open(os.path.join(golden, case["name"]), "rb") as fh:
        if code != case["exit"] or out.encode("utf-8") != fh.read():
            bad.append(case["name"])
    if any(isinstance(g, WeylGroup) for g in gc.get_objects()):
        with_group.append(case["name"])
print(repr((len(cases), bad, with_group)))
"""


def test_poset_compare_and_orbits_goldens_enumerate_no_group():
    # these commands work on keys alone: the cap is checked on |W| from the
    # degrees and the orders on keys, so no command makes a WeylGroup, let
    # alone enumerates one; the selftest goldens are replayed too
    names = [c["name"] for c in MANIFEST if c["argv"][0] in ("poset", "compare", "orbits", "selftest")]
    assert len(names) == 46
    assert _replay([], ENUMERATION_CHILD, names) == (len(names), [], [])


# The classify goldens of D4, B3, C3, B2 and G2.
LABEL_GOLDENS = [c for c in MANIFEST if re.match(r"classify-\d-", c["name"])]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_label_goldens_in_either_system_order(order, capsys, monkeypatch):
    # one process labels these systems in one order or the other; the
    # goldens must come out either way, and the one memo left, of the
    # coefficients, must depend on its arguments alone: each signature met
    # must get the quotients of its projections by its norms
    monkeypatch.delenv("WEYLORBITS_CAP", raising=False)
    nil._coefficients.cache_clear()
    for case in LABEL_GOLDENS[::order]:
        assert main(case["argv"]) == case["exit"]
        with open(os.path.join(GOLDEN, case["name"]), "rb") as fh:
            assert capsys.readouterr().out.encode("utf-8") == fh.read(), case["name"]
    signatures = set()
    for family, rank in LABEL_SYSTEMS[::order]:
        rs = build_root_system(family, rank)
        for thetas in orthogonal_subsets(rs, 4):
            norms = tuple(rs.norms[t] for t in thetas)
            for o in nil.orthogonal_set(rs, thetas).offenders:
                signatures.add((tuple(int(q * n) for q, n in zip(o.coefficients, norms)), norms))
    assert len(signatures) > 20
    for proj, norms in sorted(signatures)[::order]:
        assert nil._coefficients(proj, norms) == tuple(map(Fraction, proj, norms)), (proj, norms)
