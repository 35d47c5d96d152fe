"""Command-line front end.

Subcommands: poset, compare, classify, cascade, orbits, selftest.
Exit codes: 0 success / relation holds, 1 property fails / incomparable,
2 usage or validation error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import linkpatterns as lp
from . import nilpotent as nil
from . import quotient as qt
from .roots import RootSystem, build_root_system, InvalidRankError
from .weyl import (
    CapExceededError,
    WeylElement,
    from_line_notation,
    from_word,
    to_line_notation,
    weyl_group,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(ValueError):
    pass


def _parse_ints(text: str) -> List[int]:
    parts = text.replace(",", " ").split()
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"cannot parse integers from {text!r}") from exc


def _parse_star(text: str) -> Dict[int, int]:
    star = {}
    for piece in text.replace(",", " ").split():
        a, _, b = piece.partition(":")
        try:
            star[int(a)] = int(b)
        except ValueError as exc:
            raise UsageError(f"cannot parse star pair {piece!r}; expected i:j") from exc
    return star


def _parse_nr(text: str) -> Tuple[int, int]:
    values = _parse_ints(text)
    if len(values) != 2:
        raise UsageError(f"--nr needs two integers n r, got {text!r}")
    return values[0], values[1]


def _build_system(family: str, rank: int) -> RootSystem:
    try:
        return build_root_system(family, rank)
    except InvalidRankError as exc:
        raise UsageError(str(exc)) from exc


def _enumerate_capped(system: RootSystem) -> None:
    """Enumerate the Weyl group under the WEYLORBITS_CAP size limit, if set.

    Only commands that enumerate the group call this; classify and cascade
    work on roots and keys alone.
    """
    cap = os.environ.get("WEYLORBITS_CAP")
    if cap is not None:
        try:
            limit = int(cap)
        except ValueError as exc:
            raise UsageError(f"bad WEYLORBITS_CAP value {cap!r}") from exc
        if limit < 1:
            raise UsageError(f"bad WEYLORBITS_CAP value {cap!r}")
        weyl_group(system, cap=limit)


def _build_datum(args: argparse.Namespace) -> qt.IJKDatum:
    system = _build_system(args.type, args.rank)
    _enumerate_capped(system)
    I = _parse_ints(args.I) if args.I else []
    J = _parse_ints(args.J) if args.J else []
    K = _parse_ints(args.K) if args.K else []
    star = _parse_star(args.star) if args.star else None
    try:
        return qt.IJKDatum(system, I, J, K, star)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _write(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_word(datum: qt.IJKDatum, text: str, perm: bool) -> qt.QuotientElement:
    system = datum.system
    if perm:
        try:
            w = from_line_notation(system, _parse_ints(text))
        except ValueError as exc:
            raise UsageError(f"--perm {text!r}: {exc}") from exc
    else:
        word = _parse_ints(text)
        if any(not 1 <= i <= system.rank for i in word):
            raise UsageError(f"word {text!r} has out-of-range letters")
        w = from_word(system, word)
    return datum.canonical_rep(w)


def _word_str(w: WeylElement) -> str:
    word = w.reduced_word()
    return "e" if not word else " ".join(f"s{i}" for i in word)


# -- subcommands ----------------------------------------------------------


def cmd_poset(args: argparse.Namespace) -> int:
    datum = _build_datum(args)
    poset = qt.build_poset(datum)
    if args.format == "dot":
        _write(args, poset.to_dot())
    elif args.format == "json":
        _write(args, poset.to_json() + "\n")
    else:
        lines = [f"{len(poset.nodes)} nodes, {len(poset.edges)} cover edges"]
        for i, node in enumerate(poset.nodes):
            lines.append(f"  [{i}] rank {node.length()}: {_word_str(node.rep)}")
        for lo, hi in poset.edges:
            lines.append(f"  {_word_str(poset.nodes[lo].rep)} < {_word_str(poset.nodes[hi].rep)}")
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    datum = _build_datum(args)
    wp = _parse_word(datum, args.lhs, args.perm)
    w = _parse_word(datum, args.rhs, args.perm)
    lines = []
    rel = qt.leq_O(wp, w)
    rel_back = qt.leq_O(w, wp)
    mins_p = qt.min_set(wp)
    lines.append(f"lhs: {_word_str(wp.rep)}  Min = {{{', '.join(_word_str(u) for u in mins_p)}}}")
    lines.append(f"rhs: {_word_str(w.rep)}  Min = {{{', '.join(_word_str(u) for u in qt.min_set(w))}}}")
    if rel:
        witness = next(u for u in mins_p if datum.group.bruhat_leq(u, w.rep))
        lines.append(f"{_word_str(wp.rep)} <=_O {_word_str(w.rep)} (witness {_word_str(witness)})")
    else:
        lines.append(f"not {_word_str(wp.rep)} <=_O {_word_str(w.rep)}")
    if datum.system.family == "A" and args.nr:
        n, r = _parse_nr(args.nr)
        try:
            for label, node in (("lhs", wp), ("rhs", w)):
                line = to_line_notation(node.rep)
                lines.append(
                    f"{label} S_w = ({' '.join(map(str, lp.seq_S(line, r)))})"
                )
            dl = lp.olp_from_perm(to_line_notation(wp.rep), r)
            dr = lp.olp_from_perm(to_line_notation(w.rep), r)
        except ValueError as exc:
            raise UsageError(f"--nr {args.nr!r}: {exc}") from exc
        lines.append(f"leq_D: {lp.leq_D(dl, dr)}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if rel or rel_back else EXIT_FAIL


def cmd_classify(args: argparse.Namespace) -> int:
    system = _build_system(args.type, args.rank)
    thetas = []
    for spec_text in args.root:
        coords = tuple(_parse_ints(spec_text))
        if len(coords) != system.rank or not system.is_root(coords):
            raise UsageError(f"{spec_text!r} is not a root of {args.type}{args.rank}")
        thetas.append(coords)
    try:
        oset = nil.orthogonal_set(system, thetas)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = nil.classify(oset)
    if args.format == "json":
        _write(args, json.dumps(_report_json(report), indent=2) + "\n")
        return EXIT_OK
    lines = [
        f"roots: {list(map(list, oset.thetas))}",
        f"rationally orthogonal: {report.rationally_orthogonal}",
    ]
    for label in report.cases:
        lines.append(f"case {label.case}: beta = {list(label.beta)}")
    lines.append(f"reduced set size: {report.reduced_set.r} (type {report.orbit_type_rank}A1)")
    lines.append(f"height: {report.height}  spherical: {report.spherical}")
    lines.append("weighted Dynkin diagram: " + " ".join(map(str, report.dynkin_labels)))
    inv = nil.levi_and_involution(report.reduced_set)
    lines.append(f"levi simple roots: {list(inv.levi_simple_roots)}")
    for i in inv.levi_simple_roots:
        lines.append(f"  w(alpha_{i}) = {list(inv.sigma_action[i])}")
    lines.append(f"folded type: {' x '.join(inv.folded_type) if inv.folded_type else '(empty)'}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _report_json(report: nil.ClassificationReport) -> Dict:
    return {
        "roots": [list(t) for t in report.oset.thetas],
        "rationally_orthogonal": report.rationally_orthogonal,
        "cases": [
            {
                "case": c.case,
                "beta": list(c.beta),
                "coefficients": [str(q) for q in c.coefficients],
            }
            for c in report.cases
        ],
        "reduced_roots": [list(t) for t in report.reduced_set.thetas],
        "h": list(report.h.coords),
        "h_dominant": list(report.h_dominant.coords),
        "height": report.height,
        "spherical": report.spherical,
        "dynkin_labels": list(report.dynkin_labels),
        "orbit_type_rank": report.orbit_type_rank,
    }


def cmd_cascade(args: argparse.Namespace) -> int:
    if args.depth is not None and args.depth < 0:
        raise UsageError("--depth must be >= 0")
    system = _build_system(args.type, args.rank)
    tree = nil.chain_cascade(system, args.depth)
    lines: List[str] = []

    def render(node: nil.CascadeNode, indent: int) -> None:
        if node.chain:
            label = str(list(node.chain[-1]))
            lines.append(
                "  " * indent
                + f"{label}  h = {list(node.coweight.coords)}  dominant = {list(node.coweight_dominant.coords)}"
            )
        for child in node.children:
            render(child, indent + 1)

    lines.append(f"chain cascade of {args.type}{args.rank}")
    render(tree, 0)
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_orbits(args: argparse.Namespace) -> int:
    n, r = args.n, args.r
    if 2 * r > n or r < 0:
        raise UsageError("need 0 <= 2r <= n")
    if r:
        _enumerate_capped(_build_system("A", n - 1))  # orbit_pair_params enumerates it
    params = lp.orbit_pair_params(n, r)
    rows = []
    for (w1inv, w2inv), line, zdim in params:
        d = lp.olp_from_perm(line, r)
        rows.append(
            {
                "w": list(line),
                "arrows": [list(a) for a in d.sorted_arrows()],
                "S_w": list(lp.seq_S(line, r)),
                "length": sum(
                    1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if line[i] > line[j]
                ),
                "b_orbit_dimension": lp.orbit_dimension(d),
                "z_params": [list(w1inv), list(w2inv)],
                "z_orbit_dimension": zdim,
            }
        )
    if args.format == "json":
        _write(args, json.dumps(rows, indent=2) + "\n")
    else:
        lines = [
            "w | arrows | S_w | l(w) | dim B-orbit | Z-params | dim Z-orbit"
        ]
        for row in rows:
            lines.append(
                " ".join(map(str, row["w"]))
                + " | "
                + ",".join(f"{a}->{b}" for a, b in row["arrows"])
                + " | ("
                + " ".join(map(str, row["S_w"]))
                + f") | {row['length']} | {row['b_orbit_dimension']}"
                + f" | {row['z_params']} | {row['z_orbit_dimension']}"
            )
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    failures: List[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        status = "ok" if ok else "FAIL"
        print(f"  {name}: {status}" + (f" ({detail})" if detail and not ok else ""))
        if not ok:
            failures.append(name)

    pairs_nr = [_parse_nr(args.nr)] if args.nr else [(4, 2), (5, 2)]
    coxeter = args.coxeter or "A3"
    try:
        family, rank = coxeter[0].upper(), int(coxeter[1:])
    except ValueError as exc:
        raise UsageError(f"cannot parse --coxeter {coxeter!r}; expected e.g. B3") from exc
    try:
        type_a = [(n, r, lp.type_a_datum(n, r)) for n, r in pairs_nr]
        cover_datum = qt.IJKDatum(build_root_system(family, rank), [1], [3])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for n, r, datum in type_a:
        nodes = datum.quotient_elements()
        lines = [to_line_notation(node.rep) for node in nodes]
        pats = [lp.olp_from_perm(line, r) for line in lines]
        bad = None
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                o = qt.leq_O(a, b)
                d = lp.leq_D(pats[i], pats[j])
                s = lp.leq_seq(lines[i], lines[j], r)
                if not (o == d == s):
                    bad = (lines[i], lines[j], o, d, s)
                    break
            if bad:
                break
        check(f"order equivalence (n={n}, r={r})", bad is None, str(bad))
    datum = cover_datum
    nodes = datum.quotient_elements()
    ok = True
    detail = ""
    for w in nodes:
        for wp in nodes:
            if wp.length() != w.length() - 1:
                continue
            i = any(
                datum.group.bruhat_leq(up, u) and up.length() == u.length() - 1
                for u in qt.min_set(w)
                for up in qt.min_set(wp)
            )
            iii = any(
                datum.group.bruhat_leq(up, w.rep) for up in qt.min_set(wp)
            )
            if i != iii:
                ok = False
                detail = f"{wp} vs {w}"
                break
        if not ok:
            break
    check(f"cover equivalence ({coxeter})", ok, detail)
    if failures:
        print("failed: " + ", ".join(failures))
        return EXIT_FAIL
    print("all checks passed")
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylorbits",
        description="Coxeter quotient orders, oriented link patterns, and "
        "orthogonal-root classification with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system(p: argparse.ArgumentParser) -> None:
        p.add_argument("--type", required=True, help="family A-G")
        p.add_argument("--rank", type=int, required=True)

    def add_datum(p: argparse.ArgumentParser) -> None:
        add_system(p)
        p.add_argument("--I", default="", help="simple indices of I")
        p.add_argument("--J", default="", help="simple indices of J")
        p.add_argument("--K", default="", help="simple indices of K")
        p.add_argument("--star", default="", help="pairs i:j mapping I to J")

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "dot"), default="text")
        p.add_argument("--output", help="output path (default stdout)")

    p = sub.add_parser("poset", help="Hasse diagram of <=_O on W(I,J,K)")
    add_datum(p)
    add_output(p)
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("compare", help="compare two elements under <=_O")
    add_datum(p)
    add_output(p)
    p.add_argument("lhs", help="word of simple indices (or line notation with --perm)")
    p.add_argument("rhs")
    p.add_argument("--perm", action="store_true", help="arguments are line notation")
    p.add_argument("--nr", default="", help="n r for type-A orbit statistics")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("classify", help="classify an orthogonal set of roots")
    add_system(p)
    add_output(p)
    p.add_argument("root", nargs="+", help="root coordinates, e.g. '1 2 2 1'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cascade", help="chain cascade tree")
    add_system(p)
    add_output(p)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("orbits", help="type-A square-zero orbit table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("selftest", help="run the main exhaustive checks")
    p.add_argument("--nr", default="", help="n r scale for the equivalence check")
    p.add_argument("--coxeter", default="", help="system for the covers check, e.g. B3")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
