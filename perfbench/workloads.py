"""The in-process workload `library`: set-up, seeded requests, output checks.

Library interleaves the request lists of three parts, QuotientHasse,
OrbitTable and OrthosetCensus, in one job. A job (worker.py) sets the parts
up in a fresh interpreter and runs requests(), a fixed list made from the
seed. Batch requests are the computation a user waits for (posets, orbit
and pattern tables, cascades and the census); their summed time is the
job's time to solution. Compare requests, order queries and classification
requests are the small requests whose latency is measured. Requests call
the package through module attributes, so that tracer wrappers see the
calls. check() runs after all of a job's requests and returns one message
per failed request. Checks rely on the oracle module and on facts that do
not come from the package (counts, formulas, known cascade sizes) where
they can.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import random
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from oracle import QuotientOracle


class Request(NamedTuple):
    kind: str
    key: object
    thunk: Callable[[], object]
    batch: bool = False


def _lib(name: str):
    return importlib.import_module(f"weylorbits.{name}")


def _spread(small: List[Request], batch: List[Request]) -> List[Request]:
    """The small requests with the batch requests spread evenly among them,
    so that both kinds are timed over the whole job rather than one stretch."""
    out = list(small)
    for i in reversed(range(len(batch))):
        out.insert(round((i + 1) * len(small) / (len(batch) + 1)), batch[i])
    return out


def _inversions(line: Sequence[int]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(line)), 2) if line[i] > line[j])


# -- quotient-hasse ---------------------------------------------------------


def _word_of(element) -> Tuple[int, ...]:
    return tuple(element.reduced_word())


def _compare(datum, lhs: Tuple[int, ...], rhs: Tuple[int, ...]):
    """What `weylorbits compare` computes: reps, <=_O both ways, Min sets."""
    qt, weyl = _lib("quotient"), _lib("weyl")
    system = datum.system
    wp = datum.canonical_rep(weyl.from_word(system, lhs))
    w = datum.canonical_rep(weyl.from_word(system, rhs))
    rel, back = qt.leq_O(wp, w), qt.leq_O(w, wp)
    mins_p, mins = qt.min_set(wp), qt.min_set(w)
    witness = None
    if rel:
        witness = _word_of(next(u for u in mins_p if datum.group.bruhat_leq(u, w.rep)))
    return (
        _word_of(wp.rep),
        _word_of(w.rep),
        rel,
        back,
        [_word_of(u) for u in mins_p],
        [_word_of(u) for u in mins],
        witness,
    )


def _poset(datum):
    poset = _lib("quotient").build_poset(datum)
    return poset.to_json(), poset.to_dot()


class QuotientHasse:
    """Compare requests on five data and one poset request per small datum."""

    kinds = ("compare", "poset")
    # family, rank, I, J, K, (nodes, edges) of the poset request or None
    DATA = {
        "full": (
            ("D", 4, (1,), (3,), (), (96, 336)),
            ("B", 4, (1,), (3,), (), (192, 756)),
            ("A", 5, (1,), (5,), (3,), (180, 654)),
            ("F", 4, (1,), (4,), (), None),
            ("B", 5, (1,), (3,), (5,), None),
        ),
        "tiny": (
            ("A", 3, (1,), (3,), (), (12, 22)),
            ("B", 3, (1,), (3,), (), None),
        ),
    }

    COMPARES = {"full": 350, "tiny": 5}

    def __init__(self, scale: str, seed: int):
        self.specs = self.DATA[scale]
        self.compares = self.COMPARES[scale]
        self.seed = seed

    def setup(self) -> Dict:
        roots, qt = _lib("roots"), _lib("quotient")
        self.data = [
            qt.IJKDatum(roots.build_root_system(f, r), I, J, K)
            for f, r, I, J, K, _ in self.specs
        ]
        return {"group_order": {f"{s[0]}{s[1]}": len(d.group) for s, d in zip(self.specs, self.data)}}

    def requests(self) -> List[Request]:
        rng = random.Random(self.seed)
        compares = []
        for i in range(self.compares):
            # the data take turns, so that the seed changes words but not the mix
            k = i % len(self.data)
            datum = self.data[k]
            rank, top = datum.system.rank, len(datum.system.positive_roots)
            lhs, rhs = (
                tuple(rng.randint(1, rank) for _ in range(rng.randint(0, top)))
                for _ in range(2)
            )
            compares.append(Request("compare", (k, lhs, rhs), functools.partial(_compare, datum, lhs, rhs)))
        posets = [k for k, s in enumerate(self.specs) if s[5]]
        rng.shuffle(posets)
        return _spread(compares, [
            Request("poset", k, functools.partial(_poset, self.data[k]), batch=True) for k in posets
        ])

    def check(self, results: List[Tuple]) -> List[str]:
        oracles = [
            QuotientOracle(d.system.cartan, d.I, d.J, d.K, d.star_map) for d in self.data
        ]
        errors: List[str] = []
        hasse: Dict[int, Tuple[Dict, List[int]]] = {}
        for kind, k, out in results:
            if kind == "poset":
                try:
                    hasse[k] = self._check_poset(oracles[k], self.specs[k][5], *out)
                except AssertionError as exc:
                    errors.append(f"poset {self.specs[k][:2]}: {exc}")
        for kind, key, out in results:
            if kind == "compare":
                try:
                    self._check_compare(oracles[key[0]], hasse.get(key[0]), key, out)
                except AssertionError as exc:
                    errors.append(f"compare {key}: {exc}")
        return errors

    @staticmethod
    def _check_poset(oracle: QuotientOracle, expected, text_json: str, text_dot: str):
        weyl = oracle.weyl
        graph = json.loads(text_json)
        words = [tuple(n["word"]) for n in graph["nodes"]]
        edges = [tuple(e) for e in graph["edges"]]
        assert (len(words), len(edges)) == expected, f"{len(words)}/{len(edges)} != {expected}"
        assert text_dot.count("[label=") == len(words) and text_dot.count(" -> ") == len(edges), "dot counts"
        index = {}
        for i, (word, node) in enumerate(zip(words, graph["nodes"])):
            v = weyl.element(word)
            assert weyl.length(v) == len(word) == node["length"], f"node {i} not reduced"
            assert oracle.canonical(word) == v, f"node {i} is not its coset's rep"
            index[word] = i
        assert len(index) == len(words), "repeated nodes"
        for lo, hi in edges:
            assert len(words[hi]) == len(words[lo]) + 1, f"edge {lo}->{hi} skips a rank"
            assert oracle.leq(words[lo], words[hi]), f"edge {lo}->{hi} is not a relation"
        # reach[i]: bitset of the nodes above node i; nodes are sorted by length
        reach = [1 << i for i in range(len(words))]
        ups: Dict[int, List[int]] = {}
        for lo, hi in edges:
            ups.setdefault(lo, []).append(hi)
        for i in sorted(range(len(words)), key=lambda i: -len(words[i])):
            for hi in ups.get(i, ()):
                reach[i] |= reach[hi]
        return index, reach

    @staticmethod
    def _check_compare(oracle: QuotientOracle, hasse, key, out) -> None:
        _, lhs, rhs = key
        lrep, rrep, rel, back, mins_l, mins_r, witness = out
        weyl = oracle.weyl
        cosets = [oracle.coset(lhs), oracle.coset(rhs)]
        canon = [oracle.canonical(lhs), oracle.canonical(rhs)]
        for rep, coset, can, mins in zip((lrep, rrep), cosets, canon, (mins_l, mins_r)):
            assert weyl.element(rep) == can and weyl.length(can) == len(rep), "wrong rep"
            assert rep in mins, "rep missing from Min"
            for u in mins:
                assert weyl.element(u) in coset and len(u) == len(rep), "Min member"
        assert rel == any(weyl.bruhat_leq(u, canon[1]) for u in cosets[0]), "lhs <= rhs"
        assert back == any(weyl.bruhat_leq(u, canon[0]) for u in cosets[1]), "rhs <= lhs"
        if rel:
            assert witness in mins_l and weyl.bruhat_leq(weyl.element(witness), canon[1]), "witness"
        if hasse is not None:
            index, reach = hasse
            lo, hi = index[tuple(lrep)], index[tuple(rrep)]
            assert rel == bool(reach[lo] >> hi & 1), "disagrees with the Hasse diagram"
            assert back == bool(reach[hi] >> lo & 1), "disagrees with the Hasse diagram"


# -- orbit-table -------------------------------------------------------------


def _pattern_word(n: int, arrows: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """The shortest w with d_w = d: targets, free vertices, sources."""
    pairs = sorted(arrows)
    used = {v for a in pairs for v in a}
    return tuple([t for _, t in pairs] + [v for v in range(1, n + 1) if v not in used] + [s for s, _ in pairs])


def _pattern_table(n: int, r: int):
    lp = _lib("linkpatterns")
    return [(tuple(sorted(d.arrows)), lp.orbit_dimension(d)) for d in lp.all_patterns(n, r)]


def _order_query(a, b, r: int):
    lp = _lib("linkpatterns")
    pa, pb = lp.perm_from_olp(a), lp.perm_from_olp(b)
    return lp.leq_D(a, b), lp.leq_rank(a, b), lp.leq_seq(pa, pb, r), tuple(pa), tuple(pb)


def _count(n: int, r: int) -> int:
    return math.factorial(n) // (math.factorial(r) * math.factorial(n - 2 * r))


class OrbitTable:
    """Orbit tables for n <= 6, pattern tables, and order queries."""

    kinds = ("order", "orbits", "table")
    SIZES = {
        "full": {"orbit_n": range(2, 7), "tables": ((7, 2), (7, 3), (8, 2)), "queries": 400},
        "tiny": {"orbit_n": range(2, 5), "tables": ((5, 2),), "queries": 5},
    }

    def __init__(self, scale: str, seed: int):
        self.sizes = self.SIZES[scale]
        self.seed = seed
        self.orbit_args = [(n, r) for n in self.sizes["orbit_n"] for r in range(n // 2 + 1)]

    def setup(self) -> Dict:
        return {
            "orbit_rows": {f"{n},{r}": _count(n, r) for n, r in self.orbit_args},
            "patterns": {f"{n},{r}": _count(n, r) for n, r in self.sizes["tables"]},
        }

    def requests(self) -> List[Request]:
        lp = _lib("linkpatterns")
        rng = random.Random(self.seed)
        orbit_args = list(self.orbit_args)
        rng.shuffle(orbit_args)
        batch = [
            Request("orbits", (n, r), functools.partial(lp.orbit_pair_params, n, r), batch=True)
            for n, r in orbit_args
        ]
        tables = self.sizes["tables"]
        for n, r in tables:
            batch.append(Request("table", (n, r), functools.partial(_pattern_table, n, r), batch=True))
        # Most queries pair a pattern new to the job with one an earlier query
        # used: one q_table/rank_table miss and one hit. Every 20th pairs two
        # new patterns. So the median lies among the one-miss queries and p99
        # among the two-miss ones, not in a gap between them.
        used: Dict[Tuple[int, int], List] = {t: [] for t in tables}

        def fresh(n: int, r: int):
            seen = {arrows for arrows, _ in used[(n, r)]}
            while True:
                w = rng.sample(range(1, n + 1), n)
                arrows = tuple(sorted((w[n - r + i], w[i]) for i in range(r)))
                if arrows not in seen:
                    used[(n, r)].append((arrows, lp.olp(n, arrows)))
                    return used[(n, r)][-1]

        queries = []
        for q in range(self.sizes["queries"]):
            n, r = tables[q % len(tables)]
            a = fresh(n, r)
            b = fresh(n, r) if q % 20 == 19 else rng.choice(used[(n, r)])
            queries.append(Request("order", (n, r, a[0], b[0]), functools.partial(_order_query, a[1], b[1], r)))
        return _spread(queries, batch)

    def check(self, results: List[Tuple]) -> List[str]:
        errors: List[str] = []
        dims: Dict[Tuple[int, int], Dict] = {}
        for kind, key, out in results:
            try:
                if kind == "orbits":
                    self._check_orbits(*key, out)
                elif kind == "table":
                    dims[key] = self._check_table(*key, out)
            except AssertionError as exc:
                errors.append(f"{kind} {key}: {exc}")
        for kind, key, out in results:
            if kind != "order":
                continue
            n, r, a, b = key
            dl, rk, sq, pa, pb = out
            table = dims.get((n, r), {})
            da, db = table.get(tuple(sorted(a))), table.get(tuple(sorted(b)))
            if not dl == rk == sq:
                errors.append(f"order {key}: leq_D {dl}, leq_rank {rk}, leq_seq {sq}")
            elif (pa, pb) != (_pattern_word(n, a), _pattern_word(n, b)):
                errors.append(f"order {key}: perm_from_olp {pa} {pb}")
            elif dl and sorted(a) != sorted(b) and not (da is not None and db is not None and da < db):
                errors.append(f"order {key}: relation with dimensions {da} >= {db}")
        return errors

    @staticmethod
    def _check_orbits(n: int, r: int, rows) -> None:
        assert len(rows) == (_count(n, r) if r else 1), "row count"
        base = r * (r - 1) // 2 + (n - 2 * r) * (n - 2 * r - 1) // 2
        ident = list(range(1, n + 1))
        lines = set()
        for (w1inv, w2inv), line, dim in rows:
            assert sorted(line) == sorted(w1inv) == sorted(w2inv) == ident, "not permutations"
            assert dim - base == _inversions(line), f"dimension {dim} of {line}"
            lines.add(tuple(line))
        assert len(lines) == len(rows), "repeated rows"

    @staticmethod
    def _check_table(n: int, r: int, rows) -> Dict:
        assert len(rows) == _count(n, r), "pattern count"
        table = dict(rows)
        assert len(table) == len(rows), "repeated patterns"
        for arrows in table:
            assert len(arrows) == r and len({v for a in arrows for v in a}) == 2 * r, "bad pattern"
        base = table[tuple((n - r + i + 1, i + 1) for i in range(r))]
        for arrows, dim in table.items():
            assert dim - base == _inversions(_pattern_word(n, arrows)), f"dimension of {arrows}"
        assert max(table.values()) == 2 * r * (n - r), "top dimension"
        return table


# -- orthoset-census ----------------------------------------------------------


CASES = {"D4", "B3", "C3", "B2long", "B2short", "G2both", "A1"}


def _orthogonal_sets(system, max_size: int) -> List[Tuple]:
    """Orthogonal sets of at most max_size positive roots, in root order."""
    pos = system.positive_roots
    out: List[Tuple] = []
    frontier: List[Tuple] = [()]
    while frontier:
        grown = []
        for subset in frontier:
            start = pos.index(subset[-1]) + 1 if subset else 0
            for v in pos[start:]:
                if all(system.form(v, t) == 0 for t in subset):
                    grown.append(subset + (v,))
        out.extend(grown)
        frontier = [s for s in grown if len(s) < max_size]
    return out


def _classify(system, thetas):
    nil = _lib("nilpotent")
    report = nil.classify(nil.orthogonal_set(system, thetas))
    inv = nil.levi_and_involution(report.reduced_set)
    return {
        "rational": report.rationally_orthogonal,
        "cases": [c.case for c in report.cases],
        "reduced": report.reduced_set.thetas,
        "h_dominant": report.h_dominant.coords,
        "height": report.height,
        "spherical": report.spherical,
        "labels": report.dynkin_labels,
        "type_rank": report.orbit_type_rank,
        "levi": inv.levi_simple_roots,
        "action": dict(inv.sigma_action),
    }


def _cascade(system):
    root = _lib("nilpotent").chain_cascade(system)
    chains, dominant = [], []

    def walk(node):
        dominant.append(node.coweight_dominant.coords)
        if not node.children:
            chains.append(node.chain)
        for child in node.children:
            walk(child)

    walk(root)
    return chains, dominant


class OrthosetCensus:
    """E7/E8 cascades, then a census over small orthogonal sets."""

    kinds = ("classify", "cascade")
    # family, rank, which sets, known number of sets. Which sets: None for
    # all, ("every", k) for every k-th in root order, ("sample", m) for m of
    # each size picked by the seed. The slowest requests, which set p99, are
    # sets of four roots in F4 and E6; fixing their number keeps p99 inside
    # that group rather than at its edge.
    SYSTEMS = {
        "full": (
            ("B", 4, None, 114),
            ("C", 4, None, 114),
            ("F", 4, ("every", 2), 252),
            ("D", 5, None, 165),
            ("E", 6, ("sample", 15), 981),
        ),
        "tiny": (("B", 3, None, 25), ("G", 2, None, 9)),
    }
    # family, rank, number of roots in the cascade
    CASCADES = (("E", 7, 7), ("E", 8, 8))

    def __init__(self, scale: str, seed: int):
        self.specs = self.SYSTEMS[scale]
        self.seed = seed

    def setup(self) -> Dict:
        roots = _lib("roots")
        rng = random.Random(self.seed)
        self.systems = [roots.build_root_system(f, r) for f, r, _, _ in self.specs]
        self.cascade_systems = [roots.build_root_system(f, r) for f, r, _ in self.CASCADES]
        self.census = {}
        self.pool = []
        for k, ((f, r, which, _), system) in enumerate(zip(self.specs, self.systems)):
            sets = _orthogonal_sets(system, 4)
            self.census[f"{f}{r}"] = len(sets)
            if which is not None:
                how, m = which
                if how == "every":
                    sets = sets[::m]
                else:
                    sets = [s for size in range(1, 5) for s in rng.sample([t for t in sets if len(t) == size], m)]
            self.pool.extend((k, s) for s in sets)
        return {"orthogonal_sets": self.census, "requests_per_pass": len(self.pool)}

    def requests(self) -> List[Request]:
        out = [
            Request("cascade", k, functools.partial(_cascade, system), batch=True)
            for k, system in enumerate(self.cascade_systems)
        ]
        pool = list(self.pool)
        random.Random(self.seed + 1).shuffle(pool)
        for k, thetas in pool:
            out.append(Request(
                "classify", (k, thetas), functools.partial(_classify, self.systems[k], thetas), batch=True
            ))
        return out

    def check(self, results: List[Tuple]) -> List[str]:
        errors: List[str] = []
        for f, r, _, known in self.specs:
            if self.census[f"{f}{r}"] != known:
                errors.append(f"census {f}{r}: {self.census[f'{f}{r}']} sets, expected {known}")
        for kind, key, out in results:
            try:
                if kind == "cascade":
                    self._check_cascade(self.cascade_systems[key], self.CASCADES[key][2], *out)
                else:
                    self._check_report(self.systems[key[0]], key[1], out)
            except AssertionError as exc:
                errors.append(f"{kind} {key}: {exc}")
        return errors

    @staticmethod
    def _check_cascade(system, size: int, chains, dominant) -> None:
        assert len({t for chain in chains for t in chain}) == size, "cascade size"
        for chain in chains:
            for a, b in itertools.combinations(chain, 2):
                for v in (tuple(x + y for x, y in zip(a, b)), tuple(x - y for x, y in zip(a, b))):
                    assert any(v) and v not in system.root_set, "chain not strongly orthogonal"
        assert all(c >= 0 for h in dominant for c in h), "dominant coweight"

    @staticmethod
    def _check_report(system, thetas, rep) -> None:
        assert rep["rational"] == (not rep["cases"]), "cases vs rational orthogonality"
        assert set(rep["cases"]) <= CASES, "unknown case"
        assert rep["spherical"] == (rep["height"] <= 3), "sphericality vs height"
        assert all(c >= 0 for c in rep["h_dominant"]), "h not dominant"
        assert tuple(rep["labels"]) == tuple(rep["h_dominant"]), "labels"
        height = sum(c * x for c, x in zip(rep["h_dominant"], system.highest_root))
        assert height == rep["height"], "height on the highest root"
        assert set(rep["reduced"]) <= set(thetas) and rep["type_rank"] == len(rep["reduced"]), "reduced set"
        assert all(1 <= i <= system.rank for i in rep["levi"]), "levi indices"
        assert sorted(rep["action"]) == sorted(rep["levi"]), "involution domain"
        assert all(v in system.root_set for v in rep["action"].values()), "involution image"


# -- library: the three request lists in one job ------------------------------


class Library:
    """Compare requests and posets, orbit and pattern tables with order
    queries, and the census, interleaved in one interpreter. One job runs
    about 25 s, so that a run of two jobs averages the host's speed over
    about 50 s."""

    PARTS = (QuotientHasse, OrbitTable, OrthosetCensus)
    latency_kinds = ("compare", "order", "classify")

    def __init__(self, scale: str, seed: int):
        self.parts = [part(scale, seed) for part in self.PARTS]

    def setup(self) -> Dict:
        sizes: Dict = {}
        for part in self.parts:
            sizes.update(part.setup())
        return sizes

    def requests(self) -> List[Request]:
        """Each part's requests in its own order, merged by relative position."""
        lists = [part.requests() for part in self.parts]
        keyed = [((i + 0.5) / len(reqs), k, req) for k, reqs in enumerate(lists) for i, req in enumerate(reqs)]
        return [req for _, _, req in sorted(keyed, key=lambda t: t[:2])]

    def check(self, results: List[Tuple]) -> List[str]:
        errors: List[str] = []
        for part in self.parts:
            errors += part.check([r for r in results if r[0] in part.kinds])
        return errors


WORKLOADS = {"library": Library}
