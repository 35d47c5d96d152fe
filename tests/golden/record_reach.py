"""Record the reach digests: the stdout of commands too large for the golden
corpus (`orbits` tables, the E6 and A7 posets, the A99 and D40 cascades, the
classification of the highest roots of E8 and A99), kept as one SHA-256 per
command.

    python3 tests/golden/record_reach.py [SRC_DIR]

Each command runs in this interpreter through cli.main, with SRC_DIR
(default: this checkout's src/) first on sys.path and WEYLORBITS_CAP set to
CAP. One line per command holds the argv, the cap, the exit code, the number
of stdout lines and the SHA-256 of stdout. reach.jsonl is written next to
this file; tests/test_golden.py replays it. Re-record only when an output
change is intended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
GOLDEN = os.path.join(HERE, "reach.jsonl")

CAP = 10**9
COMMANDS = (
    ["orbits", "--n", "10", "--r", "2"],
    ["orbits", "--n", "10", "--r", "3"],
    ["orbits", "--n", "12", "--r", "2"],
    ["orbits", "--n", "10", "--r", "2", "--format", "json"],
    ["poset", "--type", "E", "--rank", "6", "--I", "1", "--J", "6", "--K", "2 4"],
    ["poset", "--type", "E", "--rank", "6", "--I", "1", "--J", "6", "--K", "2 4", "--format", "json"],
    ["poset", "--type", "A", "--rank", "7", "--I", "1 2", "--J", "6 7", "--K", "4"],
    ["cascade", "--type", "A", "--rank", "99"],
    ["cascade", "--type", "D", "--rank", "40"],
    ["classify", "--type", "E", "--rank", "8", "2 3 4 6 5 4 3 2"],
    ["classify", "--type", "A", "--rank", "99", " ".join(["1"] * 99)],
)


def reach_line(argv) -> str:
    """One command's digest line, run under WEYLORBITS_CAP=CAP."""
    from weylorbits.cli import main

    saved = os.environ.get("WEYLORBITS_CAP")
    os.environ["WEYLORBITS_CAP"] = str(CAP)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        if saved is None:
            del os.environ["WEYLORBITS_CAP"]
        else:
            os.environ["WEYLORBITS_CAP"] = saved
    data = out.getvalue().encode("utf-8")
    return json.dumps({
        "argv": argv, "cap": CAP, "exit": code, "lines": data.count(b"\n"),
        "sha256": hashlib.sha256(data).hexdigest(),
    }, separators=(",", ":"))


def main(argv) -> int:
    sys.path.insert(0, os.path.abspath(argv[0]) if argv else DEFAULT_SRC)
    lines = [reach_line(list(command)) for command in COMMANDS]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    print(f"{GOLDEN}: {len(lines)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
