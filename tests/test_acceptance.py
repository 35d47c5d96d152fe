"""Acceptance gate: twelve exhaustive checks, one printed verdict line each."""

from contextlib import contextmanager
from itertools import combinations

from weylorbits.linkpatterns import (
    all_patterns,
    count_patterns,
    leq_D,
    leq_rank,
    leq_seq,
    olp_from_perm,
    orbit_dimension,
    orbit_pair_params,
    perm_from_olp,
    seq_S,
    type_a_datum,
)
from weylorbits.nilpotent import (
    chain_cascade,
    grading_dimensions,
    height_of_sum,
    is_rationally_orthogonal,
    is_spherical,
    levi_and_involution,
    orthogonal_set,
    reduce_b2long,
    type_b_height,
    weighted_dynkin,
)
from weylorbits.quotient import IJKDatum, build_poset, covers_O_below, leq_O, min_set
from weylorbits.roots import Coweight, build_root_system
from weylorbits.weyl import from_word, to_line_notation, weyl_group

from oracles import (
    action_matrix,
    covers_naive,
    involution_element,
    leq_O_full_coset,
    stabilizer_dimension,
)


@contextmanager
def verdict(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({title}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} ({title}): PASS", flush=True)


def _orthogonal_subsets(system, max_size):
    pos = system.positive_roots
    out = []
    frontier = [()]
    while frontier:
        new = []
        for subset in frontier:
            start = pos.index(subset[-1]) + 1 if subset else 0
            for v in pos[start:]:
                if all(system.form(v, t) == 0 for t in subset):
                    new.append(subset + (v,))
        out.extend(new)
        frontier = [s for s in new if len(s) < max_size]
    return out


def add(*vs):
    return tuple(sum(c) for c in zip(*vs))


def test_criterion_01_figure_poset():
    with verdict(1, "order poset on the rank-3 quotient"):
        a3 = build_root_system("A", 3)
        poset = build_poset(IJKDatum(a3, [1], [3]))
        assert len(poset.nodes) == 12 and len(poset.edges) == 22
        assert poset.rank_profile() == (1, 2, 3, 3, 2, 1)
        words = (
            [],
            [2],
            [1],
            [1, 2],
            [3, 2],
            [2, 1],
            [1, 3, 2],
            [3, 2, 1],
            [1, 2, 1],
            [2, 1, 3, 2],
            [1, 3, 2, 1],
            [2, 3, 2, 1, 2],
        )
        expected = {action_matrix(from_word(a3, w)) for w in words}
        assert {action_matrix(n.rep) for n in poset.nodes} == expected
        r1 = [i for i, n in enumerate(poset.nodes) if n.length() == 1]
        r2 = [i for i, n in enumerate(poset.nodes) if n.length() == 2]
        edge_set = set(poset.edges)
        assert all((a, b) in edge_set for a in r1 for b in r2)


def test_criterion_02_figure_sequences():
    with verdict(2, "sequence table for n=4, r=2"):
        a3 = build_root_system("A", 3)
        expected = {
            (): (0, 0, 1, 2),
            (2,): (0, 1, 0, 3),
            (1,): (0, 0, 2, 1),
            (1, 2): (2, 0, 0, 3),
            (3, 2): (0, 1, 4, 0),
            (2, 1): (0, 3, 0, 1),
            (1, 3, 2): (2, 0, 4, 0),
            (3, 2, 1): (0, 4, 1, 0),
            (1, 2, 1): (3, 0, 0, 2),
            (2, 1, 3, 2): (3, 4, 0, 0),
            (1, 3, 2, 1): (4, 0, 2, 0),
            (2, 3, 2, 1, 2): (4, 3, 0, 0),
        }
        got = {}
        for node in type_a_datum(4, 2).quotient_elements():
            got[to_line_notation(node.rep)] = seq_S(to_line_notation(node.rep), 2)
        assert len(got) == 12
        for word, seq in expected.items():
            line = to_line_notation(from_word(a3, word))
            assert got[line] == seq


def test_criterion_03_order_equivalence():
    with verdict(3, "four order criteria agree"):
        for n, r in ((4, 2), (5, 2), (6, 2), (6, 3)):
            datum = type_a_datum(n, r)
            nodes = datum.quotient_elements()
            lines = [to_line_notation(node.rep) for node in nodes]
            pats = [olp_from_perm(line, r) for line in lines]
            for i, a in enumerate(nodes):
                for j, b in enumerate(nodes):
                    o = leq_O(a, b)
                    assert o == leq_D(pats[i], pats[j])
                    assert o == leq_rank(pats[i], pats[j])
                    assert o == leq_seq(lines[i], lines[j], r)


CRITERION_4_DATA = (
    ("A", 3, [1], [3], []),
    ("A", 5, [1], [5], [3]),
    ("B", 4, [1], [3], []),
    ("D", 4, [1], [3], []),
)


def test_criterion_04_cover_equivalence_and_gradedness():
    with verdict(4, "cover characterizations and gradedness"):
        for family, rank, I, J, K in CRITERION_4_DATA:
            datum = IJKDatum(build_root_system(family, rank), I, J, K)
            group = datum.group
            nodes = datum.quotient_elements()
            rel = [[leq_O(a, b) for b in nodes] for a in nodes]
            mins = [min_set(node) for node in nodes]
            for i, w in enumerate(nodes):
                cover_idx = set(covers_naive(nodes, rel, i))
                got = {
                    next(j for j, m in enumerate(nodes) if m == c)
                    for c in covers_O_below(w)
                }
                assert got == cover_idx
                for j, wp in enumerate(nodes):
                    is_cover = j in cover_idx
                    some_pair = any(
                        up.length() == u.length() - 1 and group.bruhat_leq(up, u)
                        for u in mins[i]
                        for up in mins[j]
                    )
                    some_below_w = any(
                        up.length() == w.length() - 1
                        and group.bruhat_leq(up, w.rep)
                        for up in mins[j]
                    )
                    every_u = all(
                        any(
                            up.length() == u.length() - 1
                            and group.bruhat_leq(up, u)
                            for up in mins[j]
                        )
                        for u in mins[i]
                    )
                    assert is_cover == some_pair == some_below_w == every_u
                    if is_cover:
                        assert w.length() - wp.length() == 1


def test_criterion_05_full_coset_oracle():
    with verdict(5, "minimal-set order equals the full coset scan"):
        for family, rank, I, J, K in CRITERION_4_DATA:
            datum = IJKDatum(build_root_system(family, rank), I, J, K)
            nodes = datum.quotient_elements()
            for a in nodes:
                for b in nodes:
                    assert leq_O(a, b) == leq_O_full_coset(a, b)


def test_criterion_06_dimension_oracle():
    with verdict(6, "orbit dimensions track length and covers"):
        for n in range(2, 7):
            for r in range(1, n // 2 + 1):
                datum = type_a_datum(n, r)
                base = orbit_dimension(olp_from_perm(tuple(range(1, n + 1)), r))
                dims = {}
                for node in datum.quotient_elements():
                    d = olp_from_perm(to_line_notation(node.rep), r)
                    dims[d] = orbit_dimension(d)
                    assert dims[d] - base == node.length()
                assert max(dims.values()) == 2 * r * (n - r)
                pats = sorted(dims, key=lambda d: d.sorted_arrows())
                rel = [[leq_D(a, b) for b in pats] for a in pats]
                for i, d in enumerate(pats):
                    for j in covers_naive(pats, rel, i):
                        assert dims[d] - dims[pats[j]] == 1


def test_criterion_07_seven_case_heights():
    with verdict(7, "heights of the sample combinations"):
        d4 = build_root_system("D", 4)
        b3 = build_root_system("B", 3)
        c3 = build_root_system("C", 3)
        b2 = build_root_system("B", 2)
        g2 = build_root_system("G", 2)
        data = (
            (d4, (d4.highest_root, d4.simple_root(1), d4.simple_root(3), d4.simple_root(4))),
            (b3, (b3.highest_root, b3.simple_root(1), b3.simple_root(3))),
            (c3, (c3.simple_root(2), add(c3.simple_root(2), c3.simple_root(3)), c3.highest_root)),
            (b2, (b2.simple_root(2), add(b2.simple_root(1), b2.simple_root(2)))),
            (b2, (b2.highest_root, b2.simple_root(1))),
            (g2, (g2.highest_root, g2.simple_root(1))),
        )
        heights = [height_of_sum(orthogonal_set(s, t)) for s, t in data]
        assert heights == [4, 4, 2, 2, 2, 4]


def test_criterion_08_census_lemmas():
    with verdict(8, "orthogonal-set census in types B, C, F"):
        for rank in (3, 4):
            rs = build_root_system("C", rank)
            for subset in _orthogonal_subsets(rs, 4):
                v = is_spherical(orthogonal_set(rs, subset))
                assert v.spherical and v.height == 2
        for rank in (3, 4):
            rs = build_root_system("B", rank)
            for subset in _orthogonal_subsets(rs, 4):
                oset = orthogonal_set(rs, subset)
                expected = type_b_height(oset)
                height = height_of_sum(oset)
                if expected <= 3:
                    assert height == expected
                else:
                    assert height >= 4
                assert is_spherical(oset).spherical == (expected <= 3)
        f4 = build_root_system("F", 4)
        long_norm = max(f4.form(a, a) for a in f4.roots)
        for subset in _orthogonal_subsets(f4, 4):
            oset = reduce_b2long(orthogonal_set(f4, subset))
            all_long = all(f4.form(t, t) == long_norm for t in oset.thetas)
            expected = oset.r <= 2 or (oset.r == 3 and all_long)
            assert is_spherical(oset).spherical == expected


def test_criterion_09_e7_cascade():
    with verdict(9, "rank-7 cascade coweights"):
        e7 = build_root_system("E", 7)
        root = chain_cascade(e7, max_depth=4)
        assert [c.chain[0] for c in root.children] == [e7.highest_root]
        first = root.children[0]
        assert first.coweight_dominant == Coweight((1, 0, 0, 0, 0, 0, 0))
        theta2 = (0, 1, 1, 2, 2, 2, 1)
        second = next(c for c in first.children if c.chain[1] == theta2)
        assert second.coweight_dominant == Coweight((0, 0, 0, 0, 0, 1, 0))
        theta3p = (0, 1, 1, 2, 1, 0, 0)
        third = next(c for c in second.children if c.chain[2] == theta3p)
        assert third.coweight_dominant == Coweight((0, 0, 1, 0, 0, 0, 0))
        seventh = next(c for c in second.children if c.chain[2] == e7.simple_root(7))
        assert seventh.coweight_dominant == Coweight((0, 0, 0, 0, 0, 0, 2))
        # depth-4 branch through alpha_2: four rationally orthogonal roots
        via_a2 = next(c for c in third.children if c.chain[3] == e7.simple_root(2))
        assert via_a2.coweight_dominant == Coweight((0, 1, 0, 0, 0, 0, 1))
        assert is_rationally_orthogonal(orthogonal_set(e7, via_a2.chain))[0]
        # depth-4 branch through alpha_3: a non-rationally-orthogonal quadruple
        via_a3 = next(c for c in third.children if c.chain[3] == e7.simple_root(3))
        oset = orthogonal_set(e7, via_a3.chain)
        rat, offenders = is_rationally_orthogonal(oset)
        assert not rat
        from weylorbits.nilpotent import classify_combination

        assert any(
            classify_combination(oset, gamma).case == "D4" for gamma, _ in offenders
        )
        assert via_a3.coweight_dominant == Coweight((2, 0, 0, 0, 0, 0, 0))
        assert height_of_sum(oset) == 4


def test_criterion_10_involution_reports():
    with verdict(10, "involution reports for the worked examples"):
        for l, r in ((3, 1), (5, 2), (7, 3)):
            rs = build_root_system("A", l)
            thetas = [
                tuple(1 if i <= p <= l + 1 - i else 0 for p in range(1, l + 1))
                for i in range(1, r + 1)
            ]
            report = levi_and_involution(orthogonal_set(rs, thetas))
            assert report.other == ()
            assert report.fixed == tuple(range(r + 1, l - r + 1))
            assert report.negated_swaps == tuple((i, l + 1 - i) for i in range(1, r))
            expected = tuple(
                sorted(
                    (["A%d" % (r - 1)] if r >= 2 else [])
                    + (["A%d" % (l - 2 * r)] if l > 2 * r else []),
                    key=lambda t: (-int(t[1:]), t),
                )
            )
            assert report.folded_type == expected
        e6 = build_root_system("E", 6)
        w = from_word(e6, [4, 2])
        base = [e6.highest_root, (1, 0, 1, 1, 1, 1), (0, 0, 1, 1, 1, 0)]
        oset = orthogonal_set(e6, [w.apply(t) for t in base])
        assert weighted_dynkin(oset) == (0, 0, 0, 1, 0, 0)
        sigma = involution_element(oset)
        assert sigma.apply(e6.simple_root(1)) == tuple(-x for x in e6.simple_root(6))
        assert sigma.apply(e6.simple_root(3)) == tuple(-x for x in e6.simple_root(5))
        assert sigma.apply(e6.simple_root(2)) == e6.simple_root(2)
        report = levi_and_involution(oset)
        assert report.levi_simple_roots == (1, 2, 3, 5, 6)
        assert report.folded_type == ("A2", "A1")


def test_criterion_11_counting():
    with verdict(11, "pattern counts match quotient sizes"):
        import math

        for n in range(1, 8):
            for r in range(n // 2 + 1):
                count = count_patterns(n, r)
                assert count == math.factorial(n) // (
                    math.factorial(r) * math.factorial(n - 2 * r)
                )
                assert count == len(all_patterns(n, r))
                assert count == len(orbit_pair_params(n, r))
                if r >= 1:
                    assert count == len(type_a_datum(n, r).quotient_elements())


def test_criterion_12_grading_dimensions():
    with verdict(12, "height-2 grading dimension formula"):
        for n in range(2, 9):
            rs = build_root_system("A", n - 1)
            for r in range(1, n // 2 + 1):
                coords = [0] * (n - 1)
                coords[r - 1] += 1
                coords[n - r - 1] += 1
                dims = grading_dimensions(rs, Coweight(tuple(coords)))
                got = dims.get(0, 0) + dims.get(1, 0)
                assert got == (n - r) ** 2 + r * r - 1
                assert got == stabilizer_dimension([2] * r + [1] * (n - 2 * r)) - 1
