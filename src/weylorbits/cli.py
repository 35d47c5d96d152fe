"""Command-line front end.

Subcommands: poset, compare, classify, cascade, orbits, selftest.
Exit codes: 0 success / relation holds, 1 property fails / incomparable,
2 usage or validation error, 3 enumeration cap exceeded.

Only roots is imported here: the layer modules (weyl, quotient,
linkpatterns, nilpotent) and json are imported inside the commands that use
them, so a command loads only what it runs. No command makes a Weyl group:
the cap is checked on |W| from the degrees, and the orders are decided on
keys.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .roots import DEFAULT_CAP, CapExceededError, InvalidRankError
from .roots import build_root_system, capped_order, cartan_entries

if TYPE_CHECKING:
    from . import nilpotent as nil
    from . import quotient as qt

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
            source, target = int(a), int(b)
        except ValueError as exc:
            raise UsageError(f"cannot parse star pair {piece!r}; expected i:j") from exc
        if source in star:
            raise UsageError(f"--star maps {source} twice")
        star[source] = target
    return star


def _parse_nr(text: str) -> Tuple[int, int]:
    values = _parse_ints(text)
    if len(values) != 2:
        raise UsageError(f"--nr needs two integers n r, got {text!r}")
    return values[0], values[1]


def _check_cap(*systems: Tuple[str, int]) -> None:
    """Check that each system is supported (InvalidRankError otherwise) and
    has |W| under WEYLORBITS_CAP (DEFAULT_CAP if unset; roots.capped_order).
    Builds nothing: a command builds its own systems after the check.
    classify and cascade ignore the cap."""
    cap = os.environ.get("WEYLORBITS_CAP")
    try:
        limit = DEFAULT_CAP if cap is None else int(cap)
    except ValueError as exc:
        raise UsageError(f"bad WEYLORBITS_CAP value {cap!r}") from exc
    if limit < 1:
        raise UsageError(f"bad WEYLORBITS_CAP value {cap!r}")
    for family, rank in systems:
        capped_order(family, rank, limit)


def _build_datum(args: argparse.Namespace, *extra: Tuple[str, int]) -> qt.IJKDatum:
    """The datum of the command line, validated on its Cartan entries before
    the cap is applied, so bad input is a usage error under any cap. The cap
    covers the extra systems a command builds too, checked first."""
    from . import quotient as qt

    try:
        cartan = cartan_entries(args.type, args.rank)
        I, J, K = (_parse_ints(text) if text else [] for text in (args.I, args.J, args.K))
        star = _parse_star(args.star) if args.star else None
        parts = qt.check_datum(args.rank, cartan, I, J, K, star)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _check_cap(*extra, (args.type, args.rank))
    return qt.IJKDatum(build_root_system(args.type, args.rank), *parts)


def _write(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {args.output!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_word(datum: qt.IJKDatum, text: str, perm: bool) -> qt.QuotientElement:
    from .weyl import from_line_notation, from_word

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


# -- subcommands ----------------------------------------------------------


def cmd_poset(args: argparse.Namespace) -> int:
    from . import quotient as qt

    datum = _build_datum(args)
    poset = qt.build_poset(datum)
    if args.format == "dot":
        _write(args, poset.to_dot())
    elif args.format == "json":
        _write(args, poset.to_json() + "\n")
    else:
        labels = [repr(node.rep) for node in poset.nodes]  # spelled once per node
        lines = [f"{len(poset.nodes)} nodes, {len(poset.edges)} cover edges"]
        lines += [f"  [{i}] rank {n.length()}: {label}" for i, (n, label) in enumerate(zip(poset.nodes, labels))]
        lines += [f"  {labels[lo]} < {labels[hi]}" for lo, hi in poset.edges]
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    from . import quotient as qt
    from .weyl import bruhat_leq_keys, to_line_notation

    datum = _build_datum(args)
    wp = _parse_word(datum, args.lhs, args.perm)
    w = _parse_word(datum, args.rhs, args.perm)
    lines = []
    rel = qt.leq_O(wp, w)
    rel_back = qt.leq_O(w, wp)
    mins_p = qt.min_set(wp)
    lines.append(f"lhs: {wp.rep!r}  Min = {{{', '.join(map(repr, mins_p))}}}")
    lines.append(f"rhs: {w.rep!r}  Min = {{{', '.join(map(repr, qt.min_set(w)))}}}")
    if rel:
        bonds, x, lw = datum.system.bonds, w.rep.x, w.length()
        witness = next(u for u in mins_p if bruhat_leq_keys(bonds, u.x, u.length(), x, lw))
        lines.append(f"{wp.rep!r} <=_O {w.rep!r} (witness {witness!r})")
    else:
        lines.append(f"not {wp.rep!r} <=_O {w.rep!r}")
    if args.nr:
        from . import linkpatterns as lp

        n, r = _parse_nr(args.nr)
        try:
            if n != datum.system.rank + 1:
                raise ValueError(f"n must be rank + 1 = {datum.system.rank + 1}")
            if lp.type_a_parts(n, r) != (datum.I, datum.J, datum.K, datum.star_map):
                raise ValueError(f"the datum is not the type-A datum of D_{{{n},{r}}}")
            perms = [to_line_notation(node.rep) for node in (wp, w)]
            for label, line in zip(("lhs", "rhs"), perms):
                lines.append(f"{label} S_w = ({' '.join(map(str, lp.seq_S(line, r)))})")
            dl, dr = (lp.olp_from_perm(line, r) for line in perms)
        except ValueError as exc:
            raise UsageError(f"--nr {args.nr!r}: {exc}") from exc
        lines.append(f"leq_D: {lp.leq_D(dl, dr)}")
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if rel or rel_back else EXIT_FAIL


def cmd_classify(args: argparse.Namespace) -> int:
    from . import nilpotent as nil

    system = build_root_system(args.type, args.rank)
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
        import json

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
    from . import nilpotent as nil

    system = build_root_system(args.type, args.rank)
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
    from . import linkpatterns as lp

    n, r = args.n, args.r
    if 2 * r > n or r < 0:
        raise UsageError("need 0 <= 2r <= n")
    if r:
        _check_cap(("A", n - 1))  # the group S_n whose quotient orbit_pair_params lists
    params = lp.orbit_pair_params(n, r)
    offset = lp.z_orbit_offset(n, r)
    rows = []
    for (w1inv, w2inv), line, zdim in params:
        d = lp.olp_from_perm(line, r)
        rows.append(
            {
                "w": list(line),
                "arrows": [list(a) for a in d.sorted_arrows()],
                "S_w": list(lp.seq_S(line, r)),
                "length": zdim - offset,
                "b_orbit_dimension": lp.orbit_dimension(d),
                "z_params": [list(w1inv), list(w2inv)],
                "z_orbit_dimension": zdim,
            }
        )
    if args.format == "json":
        import json

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
    from . import linkpatterns as lp
    from . import quotient as qt
    from .weyl import bruhat_leq_keys, to_line_notation

    failures: List[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        status = "ok" if ok else "FAIL"
        print(f"  {name}: {status}" + (f" ({detail})" if detail and not ok else ""))
        if not ok:
            failures.append(name)

    pairs_nr = [_parse_nr(args.nr)] if args.nr else [(4, 2), (5, 2)]
    coxeter = args.coxeter or "A3"
    family, digits = coxeter[0].upper(), coxeter[1:]
    if not (digits.isascii() and digits.isdigit()):  # int() would take signs, spaces and other digits
        raise UsageError(f"cannot parse --coxeter {coxeter!r}; expected e.g. B3")
    rank = int(digits)
    if any(r < 1 or 2 * r > n for n, r in pairs_nr):
        raise UsageError("need 1 <= 2r <= n")
    cover = argparse.Namespace(type=family, rank=rank, I="1", J="3", K="", star="")
    datum = _build_datum(cover, *[("A", n - 1) for n, _ in pairs_nr])
    for n, r in pairs_nr:
        nodes = lp.type_a_datum(n, r).quotient_elements()
        lines = [to_line_notation(node.rep) for node in nodes]
        rows = list(zip(nodes, lines, [lp.olp_from_perm(line, r) for line in lines]))
        results = (
            (la, lb, qt.leq_O(a, b), lp.leq_D(da, db), lp.leq_seq(la, lb, r))
            for a, la, da in rows
            for b, lb, db in rows
        )
        bad = next((t for t in results if not t[2] == t[3] == t[4]), None)
        check(f"order equivalence (n={n}, r={r})", bad is None, str(bad))

    def covers_agree(wp: qt.QuotientElement, w: qt.QuotientElement) -> bool:
        """For w' one shorter than w: (i) some member of Min(w') is
        Bruhat-below some member of Min(w) (each of its representative's
        length) iff (iii) w' <=_O w."""
        i = any(
            bruhat_leq_keys(datum.system.bonds, up.x, wp.length(), u.x, w.length())
            for u in qt.min_set(w)
            for up in qt.min_set(wp)
        )
        return i == qt.leq_O(wp, w)

    nodes = datum.quotient_elements()
    bad = next(
        (f"{wp} vs {w}" for w in nodes for wp in nodes if wp.length() == w.length() - 1 and not covers_agree(wp, w)),
        None,
    )
    check(f"cover equivalence ({family}{rank})", bad is None, str(bad))
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
        p.add_argument("--type", type=str.upper, required=True, help="family A-G")
        p.add_argument("--rank", type=int, required=True)

    def add_datum(p: argparse.ArgumentParser) -> None:
        add_system(p)
        p.add_argument("--I", default="", help="simple indices of I")
        p.add_argument("--J", default="", help="simple indices of J")
        p.add_argument("--K", default="", help="simple indices of K")
        p.add_argument("--star", default="", help="pairs i:j mapping I to J")

    def add_output(p: argparse.ArgumentParser, formats: Tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", help="output path (default stdout)")

    p = sub.add_parser("poset", help="Hasse diagram of <=_O on W(I,J,K)")
    add_datum(p)
    add_output(p, ("text", "json", "dot"))
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("compare", help="compare two elements under <=_O")
    add_datum(p)
    add_output(p, ("text",))
    p.add_argument("lhs", help="word of simple indices (or line notation with --perm)")
    p.add_argument("rhs")
    p.add_argument("--perm", action="store_true", help="arguments are line notation")
    p.add_argument("--nr", default="", help="n r for type-A orbit statistics")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("classify", help="classify an orthogonal set of roots")
    add_system(p)
    add_output(p, ("text", "json"))
    p.add_argument("root", nargs="+", help="root coordinates, e.g. '1 2 2 1'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cascade", help="chain cascade tree")
    add_system(p)
    add_output(p, ("text",))
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("orbits", help="type-A square-zero orbit table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_output(p, ("text", "json"))
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
    except (UsageError, InvalidRankError) as exc:  # an unsupported system is bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
