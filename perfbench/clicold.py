"""The cli-cold workload: whole CLI commands, each in a fresh interpreter.

run.py runs passes over the command list, one child at a time. Run as a
script, this file is the traced child: it imports the CLI, installs the
tracer, runs one command and reports its counters on the last stderr line.

    python3 perfbench/clicold.py poset --type A --rank 3 --I 1 --J 3
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_PREFIX = "perfbench-trace "

# family, rank, I, J, K, (nodes, edges), output formats. A5 K=3 runs in
# text only: its json and dot commands would add 7 s to every pass.
POSETS = {
    "full": (
        ("A", 3, "1", "3", "", (12, 22), ("text", "json", "dot")),
        ("D", 4, "1", "3", "", (96, 336), ("text", "json", "dot")),
        ("A", 5, "1", "5", "3", (180, 654), ("text",)),
    ),
    "tiny": (("A", 3, "1", "3", "", (12, 22), ("text", "json")),),
}
# The seven-case samples with the heights the paper gives them.
CLASSIFY = {
    "full": (
        ("D", 4, ("1 2 1 1", "1 0 0 0", "0 0 1 0", "0 0 0 1"), 4),
        ("B", 3, ("1 2 2", "1 0 0", "0 0 1"), 4),
        ("C", 3, ("0 1 0", "0 1 1", "2 2 1"), 2),
        ("B", 2, ("0 1", "1 1"), 2),
        ("B", 2, ("1 2", "1 0"), 2),
        ("G", 2, ("3 2", "1 0"), 4),
    ),
    "tiny": (("G", 2, ("3 2", "1 0"), 4),),
}
# (n, r) of the orbit table, (family, rank, roots in the cascade)
ORBITS = {"full": (6, 2), "tiny": (4, 2)}
CASCADE = {"full": ("E", 8, 8), "tiny": ("E", 7, 7)}
# data of the seeded compare commands: family, rank, I, J, K
COMPARE = {
    "full": (("D", 4, "1", "3", ""), ("A", 5, "1", "5", "3")),
    "tiny": (("A", 3, "1", "3", ""),),
}


class Command(NamedTuple):
    kind: str
    args: Tuple[str, ...]
    expect: object


def _datum_args(f, r, I, J, K) -> Tuple[str, ...]:
    return ("--type", f, "--rank", str(r), "--I", I, "--J", J) + (("--K", K) if K else ())


def commands(scale: str, seed: int) -> List[Command]:
    rng = random.Random(seed)
    out = []
    for f, r, I, J, K, counts, formats in POSETS[scale]:
        for fmt in formats:
            out.append(Command(f"poset-{fmt}", ("poset",) + _datum_args(f, r, I, J, K) + ("--format", fmt), counts))
    n, r = ORBITS[scale]
    out.append(Command("orbits", ("orbits", "--n", str(n), "--r", str(r)), (n, r)))
    f, r, size = CASCADE[scale]
    out.append(Command("cascade", ("cascade", "--type", f, "--rank", str(r)), size))
    for f, r, roots, height in CLASSIFY[scale]:
        out.append(Command("classify", ("classify", "--type", f, "--rank", str(r)) + roots, height))
    for spec in COMPARE[scale]:
        words = [[rng.randint(1, spec[1]) for _ in range(rng.randint(0, 3 * spec[1]))] for _ in range(2)]
        texts = [" ".join(map(str, w)) for w in words]
        out.append(Command("compare", ("compare",) + _datum_args(*spec) + tuple(texts), (spec, words)))
    return out


class Outcome(NamedTuple):
    command: Command
    code: int
    stdout: str
    stderr: str
    wall_s: float


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WEYLORBITS_CAP"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_pass(cmds: Sequence[Command], rng: random.Random, env: Dict[str, str], traced: bool) -> List[Outcome]:
    """Every command once, in a seeded order, one child process at a time."""
    order = list(cmds)
    rng.shuffle(order)
    prefix = [sys.executable, os.path.abspath(__file__)] if traced else [sys.executable, "-m", "weylorbits"]
    out = []
    for cmd in order:
        start = time.monotonic()
        proc = subprocess.run(prefix + list(cmd.args), env=env, cwd=ROOT, capture_output=True, text=True)
        out.append(Outcome(cmd, proc.returncode, proc.stdout, proc.stderr, time.monotonic() - start))
    return out


def trace_record(outcome: Outcome) -> Optional[Dict]:
    lines = outcome.stderr.splitlines()
    if lines and lines[-1].startswith(TRACE_PREFIX):
        return json.loads(lines[-1][len(TRACE_PREFIX):])
    return None


# -- checks ---------------------------------------------------------------------


def _parse_word(text: str) -> Tuple[int, ...]:
    return () if text == "e" else tuple(int(s[1:]) for s in text.split())


def check(outcomes: Sequence[Outcome]) -> List[str]:
    """One message per command whose exit code or output is wrong."""
    errors = []
    for o in outcomes:
        try:
            _check_one(o)
        except (AssertionError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"{' '.join(o.command.args)}: {type(exc).__name__} {exc}")
    return errors


def _check_one(o: Outcome) -> None:
    kind, expect, lines = o.command.kind, o.command.expect, o.stdout.splitlines()
    if kind != "compare":
        assert o.code == 0, f"exit code {o.code}"
    if kind.startswith("poset"):
        nodes, edges = expect
        if kind == "poset-text":
            assert lines[0] == f"{nodes} nodes, {edges} cover edges", lines[0]
            assert len(lines) == 1 + nodes + edges, "line count"
        elif kind == "poset-json":
            graph = json.loads(o.stdout)
            assert (len(graph["nodes"]), len(graph["edges"])) == expect, "json counts"
        else:
            assert o.stdout.count("[label=") == nodes and o.stdout.count(" -> ") == edges, "dot counts"
    elif kind == "orbits":
        n, r = expect
        rows = math.factorial(n) // (math.factorial(r) * math.factorial(n - 2 * r))
        assert len(lines) == 1 + rows, f"{len(lines) - 1} rows, expected {rows}"
    elif kind == "cascade":
        assert len(lines) == 1 + expect, f"{len(lines) - 1} cascade roots, expected {expect}"
    elif kind == "classify":
        line = next(l for l in lines if l.startswith("height: "))
        assert line == f"height: {expect}  spherical: {expect <= 3}", line
    else:
        _check_compare(o, *expect)


def _check_compare(o: Outcome, spec, words) -> None:
    from oracle import QuotientOracle

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from weylorbits.roots import cartan_matrix

    f, r, I, J, K = spec
    ints = lambda s: tuple(int(x) for x in s.split())
    I, J, K = ints(I), ints(J), ints(K)
    oracle = QuotientOracle(cartan_matrix(f, r), I, J, K, dict(zip(I, J)))
    lines = o.stdout.splitlines()
    reps = [_parse_word(lines[k].split(": ", 1)[1].split("  Min = ")[0]) for k in (0, 1)]
    for rep, word in zip(reps, words):
        assert oracle.weyl.element(rep) == oracle.canonical(word), f"rep {rep} of {word}"
    rel, back = oracle.leq(words[0], words[1]), oracle.leq(words[1], words[0])
    assert lines[2].startswith("not ") != rel, lines[2]
    assert o.code == (0 if rel or back else 1), f"exit code {o.code}"


# -- traced child ---------------------------------------------------------------


def traced_main(argv: Sequence[str]) -> int:
    start = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    from weylorbits import cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = cli.main(list(argv))  # cli.main is the tracer's wrapper now
    sys.stdout.flush()
    record = {"import_s": import_s, "trace": tracer.raw()}
    print(TRACE_PREFIX + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
