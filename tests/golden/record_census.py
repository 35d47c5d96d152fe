"""Record the census golden: the full classification report of every
orthogonal set of at most four positive roots of B4, C4, F4, D5 and E6.

    python3 tests/golden/record_census.py [SRC_DIR]

Each set is classified in this interpreter, with SRC_DIR (default: this
checkout's src/) first on sys.path, and the sets are listed by
tests/oracles.py. One line per set holds `classify` and
`levi_and_involution(report.reduced_set)`, every field included; the sets of
E6 are kept as one SHA-256 per set size over their lines. census.jsonl is
written next to this file; tests/test_golden.py replays it. Re-record only
when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TESTS = os.path.dirname(HERE)
DEFAULT_SRC = os.path.join(os.path.dirname(TESTS), "src")
GOLDEN = os.path.join(HERE, "census.jsonl")

# systems whose sets are kept line by line, then those kept as digests
LINES = (("B", 4), ("C", 4), ("F", 4), ("D", 5))
DIGESTS = (("E", 6),)
MAX_SIZE = 4


def report_line(system, thetas) -> str:
    """The full report of one set as one line of compact JSON."""
    from weylorbits import nilpotent as nil

    report = nil.classify(nil.orthogonal_set(system, thetas))
    inv = nil.levi_and_involution(report.reduced_set)
    return json.dumps({
        "system": f"{system.family}{system.rank}",
        "thetas": report.oset.thetas,
        "rational": report.rationally_orthogonal,
        "cases": [[c.case, c.beta, [str(q) for q in c.coefficients]] for c in report.cases],
        "reduced": report.reduced_set.thetas,
        "h": report.h.coords,
        "h_dominant": report.h_dominant.coords,
        "height": report.height,
        "spherical": report.spherical,
        "labels": report.dynkin_labels,
        "type_rank": report.orbit_type_rank,
        "levi": inv.levi_simple_roots,
        "action": list(inv.sigma_action.items()),
        "fixed": inv.fixed,
        "negated_swaps": inv.negated_swaps,
        "other": inv.other,
        "folded_type": inv.folded_type,
    }, separators=(",", ":"))


def census_lines():
    """The lines of census.jsonl, in order."""
    from oracles import orthogonal_subsets
    from weylorbits.roots import build_root_system

    out = []
    for family, rank in LINES:
        system = build_root_system(family, rank)
        out += [report_line(system, s) for s in orthogonal_subsets(system, MAX_SIZE)]
    for family, rank in DIGESTS:
        system = build_root_system(family, rank)
        sets = orthogonal_subsets(system, MAX_SIZE)
        for size in range(1, MAX_SIZE + 1):
            digest = hashlib.sha256()
            count = 0
            for s in sets:
                if len(s) == size:
                    digest.update(report_line(system, s).encode() + b"\n")
                    count += 1
            out.append(json.dumps({
                "system": f"{family}{rank}", "size": size, "sets": count, "sha256": digest.hexdigest(),
            }, separators=(",", ":")))
    return out


def main(argv) -> int:
    sys.path[:0] = [os.path.abspath(argv[0]) if argv else DEFAULT_SRC, TESTS]
    lines = census_lines()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    print(f"{GOLDEN}: {len(lines)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
