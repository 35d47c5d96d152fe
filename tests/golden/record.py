"""Record the golden CLI corpus: one stdout file per command plus manifest.json.

    python3 tests/golden/record.py [SRC_DIR]

Each command runs as `python -m weylorbits ...` in a fresh interpreter with
SRC_DIR (default: this checkout's src/) on PYTHONPATH. manifest.json lists
every command with its argv and exit code; tests/test_golden.py replays the
commands and compares stdout byte for byte. Re-record only when an output
change is intended.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

# CRITERION_4_DATA of the acceptance gate: family, rank, I, J, K
POSETS = (
    ("A", 3, "1", "3", ""),
    ("A", 5, "1", "5", "3"),
    ("B", 4, "1", "3", ""),
    ("D", 4, "1", "3", ""),
)
# the samples of the seven-case heights (case A1 never labels an offender)
CLASSIFY = (
    ("D", 4, ("1 2 1 1", "1 0 0 0", "0 0 1 0", "0 0 0 1")),
    ("B", 3, ("1 2 2", "1 0 0", "0 0 1")),
    ("C", 3, ("0 1 0", "0 1 1", "2 2 1")),
    ("B", 2, ("0 1", "1 1")),
    ("B", 2, ("1 2", "1 0")),
    ("G", 2, ("3 2", "1 0")),
)
# the highest root of each system, whose Levi subdiagram folds to the type named
HIGHEST_ROOTS = (
    ("E", 8, "2 3 4 6 5 4 3 2"),  # E7
    ("E", 7, "2 2 3 4 3 2 1"),  # D6
    ("D", 6, "1 2 2 2 1 1"),  # D4 x A1
    ("F", 4, "2 3 4 2"),  # C3
    ("B", 5, "1 2 2 2 2"),  # B3 x A1
)

# |I| = 2 with a star that reverses the diagram: pins the letter order of the
# transversal u^L a_I y^{-1} with y* = a_J
A5_REVERSED = ("A", 5, "1 2", "4 5", "", "1:5 2:4")

LEVI_E6 = ("1 1 2 2 2 1", "1 1 1 2 1 1", "0 1 1 2 1 0")

# sets whose B2-long reduction drops more than one root: in B4 every pair of
# e4, e3, e2, e1 conflicts (reduced size 1); in C4 two disjoint pairs do (size 2)
REDUCTIONS = (
    ("B", 4, ("0 0 0 1", "0 0 1 1", "0 1 1 1", "1 1 1 1")),
    ("C", 4, ("0 0 1 0", "0 0 1 1", "1 0 0 0", "1 2 2 1")),
)

# maximal sets of E7 and E8 with D4 offenders (height 4, not spherical)
EXCEPTIONAL_OFFENDERS = (
    ("E", 7, ("2 2 3 4 3 2 1", "0 1 1 2 2 2 1", "0 0 0 0 0 0 1", "0 1 1 2 1 0 0",
              "0 0 0 0 1 0 0", "0 0 1 0 0 0 0", "0 1 0 0 0 0 0")),
    ("E", 8, ("2 3 4 6 5 4 3 2", "2 2 3 4 3 2 1 0", "0 1 1 2 2 2 1 0", "0 0 0 0 0 0 1 0",
              "0 1 1 2 1 0 0 0", "0 0 0 0 1 0 0 0", "0 0 1 0 0 0 0 0", "0 1 0 0 0 0 0 0")),
)


def _datum_args(f, r, I, J, K, star=""):
    out = ["--type", f, "--rank", str(r), "--I", I, "--J", J] + (["--K", K] if K else [])
    return out + (["--star", star] if star else [])


def cases():
    out = []
    for f, r, I, J, K in POSETS:
        tag = f"{f}{r}-I{I}-J{J}" + (f"-K{K}" if K else "")
        for fmt in ("text", "json", "dot"):
            out.append((f"poset-{tag}.{fmt}", ["poset"] + _datum_args(f, r, I, J, K) + ["--format", fmt]))
    out.append(("poset-A5-I12-J45-star-reversed.text", ["poset"] + _datum_args(*A5_REVERSED)))
    for n in range(1, 7):
        for r in range(n // 2 + 1):
            out.append((f"orbits-n{n}-r{r}.text", ["orbits", "--n", str(n), "--r", str(r)]))
    for n, r in ((7, 2), (7, 3), (8, 2), (8, 4), (9, 2)):
        out.append((f"orbits-n{n}-r{r}.text", ["orbits", "--n", str(n), "--r", str(r)]))
    for rank in (7, 8):
        out.append((f"cascade-E{rank}.text", ["cascade", "--type", "E", "--rank", str(rank)]))
    for k, (f, r, roots) in enumerate(CLASSIFY):
        for fmt in ("text", "json"):
            out.append((f"classify-{k}-{f}{r}.{fmt}", ["classify", "--type", f, "--rank", str(r), "--format", fmt, *roots]))
    for f, r, root in HIGHEST_ROOTS:
        out.append((f"classify-highest-{f}{r}.text", ["classify", "--type", f, "--rank", str(r), root]))
    # the Levi [1, 2, 3, 5, 6] with two negated swaps, folded A2 x A1
    out.append(("classify-levi-E6.text", ["classify", "--type", "E", "--rank", "6", *LEVI_E6]))
    out.append((
        "compare-A3-perm-nr.text",
        ["compare"] + _datum_args("A", 3, "1", "3", "") + ["--perm", "--nr", "4 2", "1 2 3 4", "4 3 1 2"],
    ))
    for tag, spec, lhs, rhs in (
        ("D4", ("D", 4, "1", "3", ""), "2 1", "3 2 1 4 2 3"),
        ("A5-K3", ("A", 5, "1", "5", "3"), "2 1 3", "4 3 2 1 5 4"),
        ("A5-K3-incomparable", ("A", 5, "1", "5", "3"), "1 2 3 4 5", "2 1 3 4 5 4 3 2 1"),
        ("A5-star-reversed", A5_REVERSED, "2 1 3 4 5 4", "1 2 3 4 5 1 2"),
        ("A5-star-reversed-incomparable", A5_REVERSED, "4 5 3 2", "1 2 1 3 4"),
        ("B5-K5", ("B", 5, "1", "3", "5"), "2 3 4 5 4 3 2 1", "1 2 3 4 5 4 3 2 1 2"),
    ):
        out.append((f"compare-{tag}.text", ["compare"] + _datum_args(*spec) + [lhs, rhs]))
    out.append(("selftest.text", ["selftest"]))
    # the quotient walk over a triple bond (G2) and long/short letters (C3, F4)
    out.append(("poset-G2-K1.text", ["poset", "--type", "G", "--rank", "2", "--K", "1"]))
    out.append(("poset-C3-I1-J3.text", ["poset"] + _datum_args("C", 3, "1", "3", "")))
    for tag, lhs, rhs in (("F4", "3 2 3 4", "2 1 3 2 3 4 3"), ("F4-incomparable", "2 1", "1 4 3")):
        out.append((f"compare-{tag}.text", ["compare"] + _datum_args("F", 4, "1", "4", "") + [lhs, rhs]))
    out.append(("selftest-coxeter-B3.text", ["selftest", "--coxeter", "B3"]))
    for f, r, roots in REDUCTIONS:
        for fmt in ("text", "json"):
            out.append((f"classify-reduce-{f}{r}.{fmt}", ["classify", "--type", f, "--rank", str(r), "--format", fmt, *roots]))
    for f, r, roots in EXCEPTIONAL_OFFENDERS:
        for fmt in ("text", "json"):
            out.append((f"classify-offender-{f}{r}.{fmt}", ["classify", "--type", f, "--rank", str(r), "--format", fmt, *roots]))
    return out


def main(argv) -> int:
    src = os.path.abspath(argv[0]) if argv else DEFAULT_SRC
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("WEYLORBITS_CAP", None)
    manifest = []
    for name, args in cases():
        proc = subprocess.run([sys.executable, "-m", "weylorbits", *args], env=env, capture_output=True)
        if proc.stderr:
            print(f"{name}: stderr {proc.stderr.decode()!r}", file=sys.stderr)
        with open(os.path.join(HERE, name), "wb") as fh:
            fh.write(proc.stdout)
        manifest.append({"name": name, "argv": args, "exit": proc.returncode})
        print(f"{name}: exit {proc.returncode}, {len(proc.stdout)} bytes")
    with open(os.path.join(HERE, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
