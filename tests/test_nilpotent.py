import ast
import math
import os
import random
import subprocess
import sys
from itertools import combinations, product

import pytest

from weylorbits.nilpotent import (
    CASES,
    CascadeNode,
    OrthogonalSet,
    _case_supports,
    _subdiagram_type,
    chain_cascade,
    classify,
    classify_combination,
    grading_dimensions,
    height_of_sum,
    is_rationally_orthogonal,
    is_spherical,
    is_strongly_orthogonal,
    levi_and_involution,
    offending_roots,
    orthogonal_set,
    reduce_b2long,
    type_b_height,
    weighted_dynkin,
)
from weylorbits.roots import Coweight, RootSystem, build_root_system, degrees
from weylorbits.weyl import from_word, parabolic_elements, reflection

from oracles import (
    ALL_SYSTEMS,
    LABEL_SYSTEMS,
    SYSTEMS_TO_12,
    cascade_chains,
    case_by_counts,
    chain_cascade_by_pool,
    classify_by_members,
    involution_element,
    label_by_diagram,
    levi_action_by_reflections,
    orthogonal_subsets,
    parabolic_degrees,
    projection_span_membership,
    random_orthogonal_set,
    reduce_b2long_by_restart,
    stabilizer_dimension,
)


def neg(v):
    return tuple(-x for x in v)


def add(*vs):
    return tuple(sum(c) for c in zip(*vs))


@pytest.fixture(scope="module")
def b3():
    return build_root_system("B", 3)


def test_orthogonal_set_validation(b3):
    with pytest.raises(ValueError):
        orthogonal_set(b3, [(5, 0, 0)])
    with pytest.raises(ValueError):
        orthogonal_set(b3, [b3.simple_root(1), b3.simple_root(2)])


def test_strongly_orthogonal_simply_laced():
    # in simply laced systems orthogonal implies strongly orthogonal
    for family, rank in [("A", 3), ("D", 4)]:
        rs = build_root_system(family, rank)
        for a in rs.roots:
            for b in rs.roots:
                if a in (b, neg(b)):
                    continue
                assert is_strongly_orthogonal(rs, a, b) == (rs.form(a, b) == 0)
    b2 = build_root_system("B", 2)
    a2 = b2.simple_root(2)
    other = add(b2.simple_root(1), a2)
    assert b2.form(a2, other) == 0
    # their sum is the highest root, so the pair is not strongly orthogonal
    assert not is_strongly_orthogonal(b2, a2, other)


def _rem_5cases_data():
    d4 = build_root_system("D", 4)
    b3 = build_root_system("B", 3)
    c3 = build_root_system("C", 3)
    b2 = build_root_system("B", 2)
    g2 = build_root_system("G", 2)
    return [
        # (system, thetas, combination beta, case, height)
        (
            d4,
            (d4.highest_root, d4.simple_root(1), d4.simple_root(3), d4.simple_root(4)),
            None,
            "D4",
            4,
        ),
        (b3, (b3.highest_root, b3.simple_root(1), b3.simple_root(3)), None, "B3", 4),
        (
            c3,
            (c3.simple_root(2), add(c3.simple_root(2), c3.simple_root(3)), c3.highest_root),
            None,
            "C3",
            2,
        ),
        (
            b2,
            (b2.simple_root(2), add(b2.simple_root(1), b2.simple_root(2))),
            b2.highest_root,
            "B2long",
            2,
        ),
        (
            b2,
            (b2.highest_root, b2.simple_root(1)),
            add(b2.simple_root(1), b2.simple_root(2)),
            "B2short",
            2,
        ),
        (g2, (g2.highest_root, g2.simple_root(1)), (3, 1), "G2both", 4),
    ]


def test_seven_case_heights():
    heights = [height_of_sum(orthogonal_set(s, t)) for s, t, _, _, h in _rem_5cases_data()]
    assert heights == [4, 4, 2, 2, 2, 4]


def test_classify_combination_cases():
    for system, thetas, beta, case, _ in _rem_5cases_data():
        oset = orthogonal_set(system, thetas)
        if beta is None:
            beta = tuple(x // 2 for x in add(*thetas)) if case != "B3" else None
        if case == "B3":
            # beta = (theta + alpha_1 + 2 alpha_3) / 2
            beta = tuple(
                (a + b + 2 * c) // 2
                for a, b, c in zip(thetas[0], thetas[1], thetas[2])
            )
        assert system.is_root(beta)
        assert classify_combination(oset, beta).case == case
    # the one-root case: beta equal to a member itself
    a3 = build_root_system("A", 3)
    oset = orthogonal_set(a3, [a3.highest_root])
    assert classify_combination(oset, a3.highest_root).case == "A1"
    with pytest.raises(ValueError):
        classify_combination(oset, a3.simple_root(1))


def test_g2_second_combination():
    g2 = build_root_system("G", 2)
    oset = orthogonal_set(g2, (g2.highest_root, g2.simple_root(1)))
    assert classify_combination(oset, (2, 1)).case == "G2both"


def test_rationally_orthogonal():
    d4 = build_root_system("D", 4)
    quad = orthogonal_set(
        d4, (d4.highest_root, d4.simple_root(1), d4.simple_root(3), d4.simple_root(4))
    )
    rat, offenders = is_rationally_orthogonal(quad)
    assert not rat and offenders
    a3 = build_root_system("A", 3)
    pair = orthogonal_set(a3, (a3.highest_root, a3.simple_root(2)))
    assert is_rationally_orthogonal(pair) == (True, [])


def test_rationally_orthogonal_implies_spherical():
    for family, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        for subset in orthogonal_subsets(rs, 4):
            oset = orthogonal_set(rs, subset)
            if is_rationally_orthogonal(oset)[0]:
                verdict = is_spherical(oset)
                assert verdict.spherical
                assert height_of_sum(oset) <= 3


def test_reduce_b2long():
    b2 = build_root_system("B", 2)
    pair = orthogonal_set(b2, (b2.simple_root(2), add(b2.simple_root(1), b2.simple_root(2))))
    reduced = reduce_b2long(pair)
    assert reduced.thetas == (b2.simple_root(2),)
    c3 = build_root_system("C", 3)
    triple = orthogonal_set(
        c3, (c3.simple_root(2), add(c3.simple_root(2), c3.simple_root(3)), c3.highest_root)
    )
    assert reduce_b2long(triple).r == 2
    # idempotent, and no B2-long pair survives
    for family, rank in [("B", 3), ("C", 3), ("F", 4)]:
        rs = build_root_system(family, rank)
        for subset in orthogonal_subsets(rs, 3):
            red = reduce_b2long(orthogonal_set(rs, subset))
            assert reduce_b2long(red).thetas == red.thetas
            for a, b in combinations(red.thetas, 2):
                assert is_strongly_orthogonal(rs, a, b) or not rs.is_root(add(a, b))


@pytest.mark.parametrize("family,rank", [("B", 3), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2)])
def test_reduce_b2long_matches_restart_oracle(family, rank):
    rs = build_root_system(family, rank)
    for subset in orthogonal_subsets(rs, 4):
        oset = orthogonal_set(rs, subset)
        assert reduce_b2long(oset).thetas == reduce_b2long_by_restart(oset), subset


def test_lemma_one_root():
    # if theta_i - theta_j is a root, theta_k + theta_i - theta_j never is
    for family, rank in [("B", 4), ("C", 3), ("F", 4)]:
        rs = build_root_system(family, rank)
        for subset in orthogonal_subsets(rs, 3):
            if len(subset) < 3:
                continue
            for i, j in ((0, 1), (0, 2), (1, 2)):
                diff = tuple(x - y for x, y in zip(subset[i], subset[j]))
                if not rs.is_root(diff):
                    continue
                for k in range(3):
                    if k != j:
                        assert not rs.is_root(add(subset[k], diff))


@pytest.mark.parametrize("family,rank", [("C", 3), ("C", 4)])
def test_type_c_always_spherical_height_2(family, rank):
    rs = build_root_system(family, rank)
    for subset in orthogonal_subsets(rs, 4):
        oset = orthogonal_set(rs, subset)
        verdict = is_spherical(oset)
        assert verdict.spherical and verdict.height == 2


@pytest.mark.parametrize("family,rank", [("B", 3), ("B", 4)])
def test_type_b_census(family, rank):
    rs = build_root_system(family, rank)
    for subset in orthogonal_subsets(rs, 4):
        oset = orthogonal_set(rs, subset)
        expected = type_b_height(oset)
        height = height_of_sum(oset)
        if expected <= 3:
            assert height == expected
        else:
            assert height >= 4
        assert is_spherical(oset).spherical == (expected <= 3)


def test_type_f4_census():
    rs = build_root_system("F", 4)
    long_norm = max(rs.form(a, a) for a in rs.roots)
    # orthogonal short roots always sum to a long root in F4
    for a in rs.positive_roots:
        if rs.form(a, a) == long_norm:
            continue
        for b in rs.positive_roots:
            if b != a and rs.form(b, b) != long_norm and rs.form(a, b) == 0:
                assert rs.is_root(add(a, b))
    # spherical iff (after reduction) r <= 2, or r = 3 with all roots long
    for subset in orthogonal_subsets(rs, 4):
        oset = reduce_b2long(orthogonal_set(rs, subset))
        all_long = all(rs.form(t, t) == long_norm for t in oset.thetas)
        expected = oset.r <= 2 or (oset.r == 3 and all_long)
        assert is_spherical(oset).spherical == expected


def test_type_b_height_requires_type_b():
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError):
        type_b_height(orthogonal_set(a3, [a3.highest_root]))


def test_cascade_a3():
    a3 = build_root_system("A", 3)
    chains = cascade_chains(chain_cascade(a3))
    assert chains == [(a3.highest_root, a3.simple_root(2))]


def test_cascade_siblings_do_not_share_children():
    d4 = build_root_system("D", 4)  # the highest root leaves three A1 components
    nodes = chain_cascade(d4).children[0].children
    assert len(nodes) == 3
    assert len({id(n.children) for n in nodes}) == 3
    nodes[0].children.append(nodes[1])
    assert nodes[1].children == [] and nodes[2].children == []


def test_cascade_g2():
    g2 = build_root_system("G", 2)
    chains = cascade_chains(chain_cascade(g2))
    assert len(chains) == 1
    th, second = chains[0]
    assert th == g2.highest_root
    assert g2.form(th, second) == 0


def test_cascade_chains_strongly_orthogonal():
    for family, rank in [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("F", 4)]:
        rs = build_root_system(family, rank)
        for chain in cascade_chains(chain_cascade(rs)):
            for a, b in combinations(chain, 2):
                assert is_strongly_orthogonal(rs, a, b)


def test_cascade_e7():
    e7 = build_root_system("E", 7)
    root = chain_cascade(e7, max_depth=4)
    assert [c.chain[0] for c in root.children] == [e7.highest_root]
    first = root.children[0]
    assert first.coweight_dominant == Coweight((1, 0, 0, 0, 0, 0, 0))
    theta2 = (0, 1, 1, 2, 2, 2, 1)
    second = next(c for c in first.children if c.chain[1] == theta2)
    assert second.coweight_dominant == Coweight((0, 0, 0, 0, 0, 1, 0))
    # two orthogonal components at the next step: a D4 part and the alpha_7 line
    assert len(second.children) == 2
    theta3p = (0, 1, 1, 2, 1, 0, 0)
    third = next(c for c in second.children if c.chain[2] == theta3p)
    other = next(c for c in second.children if c.chain[2] != theta3p)
    assert third.coweight_dominant == Coweight((0, 0, 1, 0, 0, 0, 0))
    assert other.chain[2] == e7.simple_root(7)
    assert other.coweight_dominant == Coweight((0, 0, 0, 0, 0, 0, 2))


def test_cascade_gandini_dominance():
    # chains whose nilpotent has height 2 carry a dominant coroot sum
    for family, rank in [("A", 5), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        root = chain_cascade(rs)
        stack = [root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if not node.chain:
                continue
            oset = orthogonal_set(rs, node.chain)
            if height_of_sum(oset) == 2:
                assert node.coweight.is_dominant()


@pytest.mark.parametrize("family,rank", SYSTEMS_TO_12)
def test_diagram_cascade_matches_the_pool_cascade(family, rank):
    # the cascade grown on sets of simple indices equals the one grown on
    # sets of roots: chains, h, h dominant and the order of the children,
    # in full and cut at every depth
    rs = build_root_system(family, rank)
    full = chain_cascade(rs)
    assert full == chain_cascade_by_pool(rs)
    depth = max(len(chain) for chain in cascade_chains(full))
    for max_depth in range(depth + 1):
        assert chain_cascade(rs, max_depth) == chain_cascade_by_pool(rs, max_depth)
    assert chain_cascade(rs, depth) == full and chain_cascade(rs, depth - 1) != full


def test_weighted_dynkin():
    b2 = build_root_system("B", 2)
    oset = orthogonal_set(b2, (b2.highest_root, b2.simple_root(1)))
    assert weighted_dynkin(oset) == (2, 0)
    # invariance under the Weyl action on the whole set
    d4 = build_root_system("D", 4)
    thetas = (d4.highest_root, d4.simple_root(1))
    labels = weighted_dynkin(orthogonal_set(d4, thetas))
    for beta in d4.positive_roots:
        w = reflection(d4, beta)
        moved = tuple(w.apply(t) for t in thetas)
        assert weighted_dynkin(orthogonal_set(d4, moved)) == labels


def test_weighted_dynkin_reads_the_reduced_set():
    # e_eps3 + e_eps2 in B3 has Jordan type [3, 1, 1, 1, 1] and diagram
    # (2, 0, 0); the unreduced coroot sum would dominantize to (0, 2, 0)
    b3 = build_root_system("B", 3)
    assert weighted_dynkin(orthogonal_set(b3, ((0, 0, 1), (0, 1, 1)))) == (2, 0, 0)
    count = 0
    for family, rank in [("B", 3), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]:
        rs = build_root_system(family, rank)
        for subset in orthogonal_subsets(rs, 4):
            oset = orthogonal_set(rs, subset)
            assert weighted_dynkin(oset) == classify(oset).dynkin_labels, subset
            count += 1
    assert count == 559


def test_grading_dimensions_a_series():
    for n in range(2, 9):
        rs = build_root_system("A", n - 1)
        for r in range(1, n // 2 + 1):
            coords = [0] * (n - 1)
            coords[r - 1] += 1
            coords[n - r - 1] += 1
            h = Coweight(tuple(coords))
            dims = grading_dimensions(rs, h)
            got = dims.get(0, 0) + dims.get(1, 0)
            assert got == (n - r) ** 2 + r * r - 1
            # independent check through the Jordan-type centralizer in gl_n
            assert got == stabilizer_dimension([2] * r + [1] * (n - 2 * r)) - 1
            # height-2 grading: top degree 2 with the rank-r block square
            assert max(dims) == 2 and dims[2] == r * r


def test_grading_dimensions_total():
    b3 = build_root_system("B", 3)
    h, _ = b3.dominantize(orthogonal_set(b3, [b3.highest_root]).coroot_sum())
    dims = grading_dimensions(b3, h)
    assert sum(dims.values()) == len(b3.roots) + b3.rank


def test_involution_a_series():
    # nested arcs theta_i = alpha_i + ... + alpha_{l+1-i} in type A_l
    for l, r in [(3, 1), (5, 2), (7, 3)]:
        rs = build_root_system("A", l)
        thetas = [
            tuple(1 if i <= p <= l + 1 - i else 0 for p in range(1, l + 1))
            for i in range(1, r + 1)
        ]
        report = levi_and_involution(orthogonal_set(rs, thetas))
        expected_levi = tuple(
            i
            for i in range(1, l + 1)
            if i <= r - 1 or r + 1 <= i <= l - r or i >= l + 2 - r
        )
        assert report.levi_simple_roots == expected_levi
        assert report.other == ()
        assert report.fixed == tuple(range(r + 1, l - r + 1))
        assert report.negated_swaps == tuple((i, l + 1 - i) for i in range(1, r))
        expected = tuple(
            sorted(
                (["A%d" % (r - 1)] if r >= 2 else []) + (["A%d" % (l - 2 * r)] if l > 2 * r else []),
                key=lambda t: (-int(t[1:]), t),
            )
        )
        assert report.folded_type == expected


def test_involution_e6_3a1():
    e6 = build_root_system("E", 6)
    w = from_word(e6, [4, 2])  # s_4 s_2, applied as theta' = s_4 s_2 (theta)
    base = [e6.highest_root, (1, 0, 1, 1, 1, 1), (0, 0, 1, 1, 1, 0)]
    thetas = [w.apply(t) for t in base]
    oset = orthogonal_set(e6, thetas)
    assert weighted_dynkin(oset) == (0, 0, 0, 1, 0, 0)
    report = levi_and_involution(oset)
    assert report.levi_simple_roots == (1, 2, 3, 5, 6)
    sigma = involution_element(oset)
    assert sigma.apply(e6.simple_root(1)) == neg(e6.simple_root(6))
    assert sigma.apply(e6.simple_root(3)) == neg(e6.simple_root(5))
    assert sigma.apply(e6.simple_root(2)) == e6.simple_root(2)
    assert report.folded_type == ("A2", "A1")


def _assert_sigma_action_is_the_involution(oset):
    report = levi_and_involution(oset)
    sigma = involution_element(oset)
    for i in report.levi_simple_roots:
        alpha = oset.system.simple_root(i)
        assert report.sigma_action[i] == sigma.apply(alpha), (oset.thetas, i)


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2)])
def test_sigma_action_matches_involution_element(family, rank):
    # every orthogonal set of at most 4 roots, with every choice of signs
    rs = build_root_system(family, rank)
    for subset in orthogonal_subsets(rs, 4):
        for signs in product((1, -1), repeat=len(subset)):
            thetas = tuple(t if s > 0 else neg(t) for s, t in zip(signs, subset))
            _assert_sigma_action_is_the_involution(OrthogonalSet(rs, thetas))


@pytest.mark.parametrize("rank,max_size", [(6, 4), (7, 7), (8, 8)])
def test_sigma_action_matches_involution_element_exceptional(rank, max_size):
    rs = build_root_system("E", rank)
    rng = random.Random(rank)
    for size in range(1, max_size + 1):
        for _ in range(4):
            _assert_sigma_action_is_the_involution(random_orthogonal_set(rs, size, rng))


def test_classify_report(b3):
    oset = orthogonal_set(b3, (b3.highest_root, b3.simple_root(1), b3.simple_root(3)))
    report = classify(oset)
    assert not report.rationally_orthogonal
    assert report.height == 4 and not report.spherical
    assert {c.case for c in report.cases} <= {"B3", "B2short", "B2long"}
    assert report.orbit_type_rank == report.reduced_set.r
    assert report.dynkin_labels == report.h_dominant.coords


@pytest.mark.parametrize("family,rank", [("B", 3), ("G", 2), ("B", 4), ("C", 4)])
def test_case_supports_match_subset_scans(family, rank):
    # _case_supports reads one scan of the whole set; the reference scans
    # every sub-set theta_S for an offender with full support
    rs = build_root_system(family, rank)
    for subset in orthogonal_subsets(rs, 4):
        oset = orthogonal_set(rs, subset)
        cases_of = {}
        for k in range(1, len(subset) + 1):
            for idx in combinations(range(len(subset)), k):
                sub = OrthogonalSet(rs, tuple(subset[i] for i in idx))
                cases_of[idx] = {
                    classify_combination(sub, gamma).case
                    for gamma, coeffs in offending_roots(sub)
                    if all(q != 0 for q in coeffs)
                }
        for case in CASES:
            expected = sorted(idx for idx, cases in cases_of.items() if case in cases)
            assert _case_supports(oset, case) == expected


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 4), ("F", 4), ("D", 5), ("E", 6), ("G", 2)])
def test_offenders_match_per_root_projection_scan(family, rank):
    # the packed scan against one exact projection test per root, the
    # positive roots first and each part in root order
    rs = build_root_system(family, rank)
    positive_first = sorted(rs.roots, key=lambda gamma: not rs.is_positive(gamma))
    for thetas in orthogonal_subsets(rs, 4):
        oset = orthogonal_set(rs, thetas)
        pm = set(thetas) | {neg(t) for t in thetas}
        expected = [
            (gamma, coeffs)
            for gamma in positive_first
            if gamma not in pm
            for coeffs in [projection_span_membership(rs, thetas, gamma)]
            if coeffs is not None
        ]
        assert [(o.beta, o.coefficients) for o in oset.offenders] == expected
        for o in oset.offenders:
            assert o.case == label_by_diagram(oset, o)
            assert classify_combination(oset, o.beta) == o


def test_classify_scans_each_set_once(monkeypatch):
    calls = []
    span_lanes = RootSystem._span_lanes

    def counting(self, thetas):
        calls.append(tuple(thetas))
        return span_lanes(self, thetas)

    monkeypatch.setattr(RootSystem, "_span_lanes", counting)
    data = _rem_5cases_data()
    # nothing to reduce: one scan of the set
    for system, thetas, _, case, _ in data[:2] + data[4:]:
        calls.clear()
        classify(orthogonal_set(system, thetas))
        assert calls == [thetas], case
    # the B2-long reduction drops a root: the reduced set reads its labels
    # off the scan of the whole set
    b2, thetas = data[3][0], data[3][1]
    calls.clear()
    classify(orthogonal_set(b2, thetas))
    assert calls == [thetas]


def _inheritance_sets():
    """Every orthogonal set of at most four roots in B4, C4, F4 and D5, and
    100 seeded sets each in E6 and E7."""
    for family, rank in (("B", 4), ("C", 4), ("F", 4), ("D", 5)):
        rs = build_root_system(family, rank)
        yield from (orthogonal_set(rs, thetas) for thetas in orthogonal_subsets(rs, 4))
    for rank in (6, 7):
        rs = build_root_system("E", rank)
        rng = random.Random(rank)
        for size in range(1, 5):
            for _ in range(25):
                yield random_orthogonal_set(rs, size, rng)


def test_reduced_set_inherits_the_labels_of_a_fresh_scan():
    reductions = 0
    for oset in _inheritance_sets():
        reduced = reduce_b2long(oset)
        fresh = orthogonal_set(oset.system, reduced.thetas)
        assert reduced.offenders == fresh.offenders, oset.thetas
        reductions += reduced is not oset
    assert reductions > 100


def test_levi_action_matches_the_reflect_chain():
    for oset in _inheritance_sets():
        for s in (oset, reduce_b2long(oset)):
            report = levi_and_involution(s)
            assert (report.levi_simple_roots, report.sigma_action) == levi_action_by_reflections(s)


@pytest.mark.parametrize("family,rank", [("B", 4), ("F", 4), ("E", 6)])
def test_levi_report_reads_the_coroots_classify_made(family, rank, monkeypatch):
    # a classify request makes the reduced set's coroot columns and their sum
    # once; the Levi report of the reduced set reads them and asks the system
    # for no coroot
    rs = build_root_system(family, rank)
    reports = [classify(orthogonal_set(rs, thetas)) for thetas in orthogonal_subsets(rs, 4)]
    expected = [levi_action_by_reflections(report.reduced_set) for report in reports]

    def refuse(self, b):
        raise AssertionError("coroot asked again")

    monkeypatch.setattr(RootSystem, "coroot", refuse)
    for report, want in zip(reports, expected):
        levi = levi_and_involution(report.reduced_set)
        assert (levi.levi_simple_roots, levi.sigma_action) == want, report.oset.thetas
        assert report.reduced_set.coroot_sum() == report.h


def test_system_constants_are_made_on_first_use():
    # the long-root lanes and the negated simple roots are made once per
    # system, by the first classification that reads them; building the
    # system and its cascade makes neither
    rs = RootSystem("F", 4)
    chain_cascade(rs)
    assert not {"_long_lanes", "_negated_simple"} & set(vars(rs))
    long_lanes = negated = None
    for thetas in orthogonal_subsets(rs, 4):
        report = classify(orthogonal_set(rs, thetas))
        levi_and_involution(report.reduced_set)
        if report.cases:
            long_lanes = long_lanes or rs._long_lanes
            assert rs._long_lanes is long_lanes
        negated = negated or rs._negated_simple
        assert rs._negated_simple is negated
    assert long_lanes == sum(0x80 << 8 * k for k, b in enumerate(rs.roots) if rs.norms[b] == rs.long_norm)
    assert negated == {neg(rs.simple_root(j)): j for j in range(1, 5)}


@pytest.mark.parametrize("family,rank", [("B", 4), ("F", 4)])
def test_classify_makes_one_scan_per_request(family, rank, monkeypatch):
    # a classify request as the census makes it: the report and the Levi
    # report of the reduced set, on a fresh set
    calls = []
    span_lanes = RootSystem._span_lanes

    def counting(self, thetas):
        calls.append(tuple(thetas))
        return span_lanes(self, thetas)

    monkeypatch.setattr(RootSystem, "_span_lanes", counting)
    rs = build_root_system(family, rank)
    reductions = 0
    for thetas in orthogonal_subsets(rs, 4):
        calls.clear()
        report = classify(orthogonal_set(rs, thetas))
        levi_and_involution(report.reduced_set)
        assert calls == [thetas]
        reductions += report.reduced_set.thetas != thetas
    assert reductions > 10


def connected_subsets(system):
    """Every nonempty connected set of 1-based simple indices."""
    n = system.rank
    for k in range(1, n + 1):
        for subset in combinations(range(1, n + 1), k):
            reached, todo = {subset[0]}, [subset[0]]
            while todo:
                i = todo.pop()
                for j in set(subset) - reached:
                    if system.cartan[i - 1][j - 1]:
                        reached.add(j)
                        todo.append(j)
            if len(reached) == k:
                yield subset


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_subdiagram_type_of_every_connected_subset(family, rank):
    rs = build_root_system(family, rank)
    for subset in connected_subsets(rs):
        name = _subdiagram_type(rs, subset)
        sub_family, sub_rank = name[0], int(name[1:])
        assert sub_rank == len(subset), (subset, name)
        # the subsystem is the set of roots supported on the subset
        outside = [i for i in range(rank) if i + 1 not in subset]
        count = sum(1 for r in rs.roots if not any(r[i] for i in outside))
        assert 2 * sum(d - 1 for d in degrees(sub_family, sub_rank)) == count, (subset, name)
        multiple = any(
            rs.cartan[i - 1][j - 1] * rs.cartan[j - 1][i - 1] > 1
            for i, j in combinations(subset, 2)
        )
        assert (sub_family in "BCFG") == multiple, (subset, name)
        if sub_family == "B" and sub_rank >= 3:
            norms = [rs.norm(rs.simple_root(i)) for i in subset]
            assert norms.count(min(norms)) == 1, (subset, name)


def _lane_sets():
    """Every orthogonal set of at most four roots in A1-A6, B2-B5, C2-C5,
    D4, D5, G2, F4 and E6 (3116 sets), 56 seeded sets each in E7 and E8
    (of every size up to the rank), and the 50-root chain of the A99
    cascade, whose lane counts sum 50 masks."""
    systems = (
        [("A", n) for n in range(1, 7)]
        + [(f, n) for f in "BC" for n in range(2, 6)]
        + [("D", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6)]
    )
    for family, rank in systems:
        rs = build_root_system(family, rank)
        yield from (orthogonal_set(rs, thetas) for thetas in orthogonal_subsets(rs, 4))
    for rank in (7, 8):
        rs = build_root_system("E", rank)
        rng = random.Random(100 + rank)
        for size in range(1, rank + 1):
            for _ in range(50 // rank + 1):
                yield random_orthogonal_set(rs, size, rng)
    a99 = build_root_system("A", 99)
    (chain,) = cascade_chains(chain_cascade(a99))
    yield orthogonal_set(a99, chain)


def test_lane_labels_match_the_per_member_labels():
    # classify reads its cases, rational orthogonality and the integrality
    # of the reduced set's labels off summed lane counts; the reference
    # labels every member of the span one at a time
    sets = reductions = 0
    for oset in _lane_sets():
        fresh = orthogonal_set(oset.system, oset.thetas)
        report = classify(oset)
        reduced = report.reduced_set
        fields = (
            report.rationally_orthogonal,
            report.cases,
            reduced.thetas,
            report.h,
            report.height,
            report.dynkin_labels,
        )
        assert (fields, oset.offenders, reduced.offenders) == classify_by_members(fresh), oset.thetas
        sets += oset.system.rank < 7
        reductions += reduced is not oset
    assert sets == 3116 and reductions > 300


def test_classify_checks_orthogonality_once(monkeypatch):
    # a four-root F4 set whose reduction drops a root: the set checks its six
    # pairs when it is made, and neither classify nor the reduced set checks
    # them again
    f4 = build_root_system("F", 4)
    thetas = next(
        t for t in orthogonal_subsets(f4, 4)
        if len(t) == 4 and reduce_b2long(orthogonal_set(f4, t)).r < 4
    )
    calls = []
    form = RootSystem.form

    def counting(self, u, v):
        calls.append((u, v))
        return form(self, u, v)

    monkeypatch.setattr(RootSystem, "form", counting)
    oset = orthogonal_set(f4, thetas)
    assert sorted(calls) == sorted(combinations(thetas, 2))
    report = classify(oset)
    assert report.reduced_set.r < 4 and len(calls) == 6
    report.reduced_set.offenders, levi_and_involution(report.reduced_set)
    assert len(calls) == 6


def test_classify_combination_checks_no_orthogonality(monkeypatch):
    # membership is read from the set's span lanes: labelling the 40
    # offenders of this F4 set one by one made 240 form calls (6 per call)
    f4 = build_root_system("F", 4)
    oset = orthogonal_set(f4, [(0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 2, 1), (2, 3, 4, 2)])
    pair = orthogonal_set(f4, oset.thetas[:2])  # four orthogonal roots span every root
    outside = next(g for g in f4.roots if f4.span_membership(pair.thetas, g) is None)
    calls = []
    form = RootSystem.form

    def counting(self, u, v):
        calls.append((u, v))
        return form(self, u, v)

    monkeypatch.setattr(RootSystem, "form", counting)
    assert len(oset.offenders) == 40
    assert [classify_combination(oset, o.beta) for o in oset.offenders] == list(oset.offenders)
    for t in oset.thetas:
        assert classify_combination(oset, t).case == classify_combination(oset, neg(t)).case == "A1"
    for beta in (outside, (1, 0, 1, 0)):  # a root outside the span, and not a root
        with pytest.raises(ValueError, match=r"^beta is not a root in the span of the set$"):
            classify_combination(pair, beta)
    assert calls == []


def test_classify_combination_labels_the_span_with_no_scan(monkeypatch):
    # membership is read from the offender lane of the set, once scanned,
    # and from its members: labelling every root of the span makes no
    # further _span_lanes call (it made one per call before)
    calls = []
    span_lanes = RootSystem._span_lanes

    def counting(self, thetas):
        calls.append(tuple(thetas))
        return span_lanes(self, thetas)

    monkeypatch.setattr(RootSystem, "_span_lanes", counting)
    sets, labels = 0, []
    for family, rank in LABEL_SYSTEMS:
        rs = build_root_system(family, rank)
        for thetas in orthogonal_subsets(rs, 4):
            norms = tuple(rs.norms[t] for t in thetas)
            span = [(g, q) for g in rs.roots for q in [projection_span_membership(rs, thetas, g)] if q]
            oset = orthogonal_set(rs, thetas)
            oset.offenders  # the one scan of the set
            calls.clear()
            for gamma, coeffs in span:
                if gamma in thetas or neg(gamma) in thetas:
                    case = "A1"
                else:
                    proj = tuple(rs.form(gamma, t) for t in thetas)
                    case = case_by_counts(proj, norms, rs.long_norm, rs.norms[gamma] == rs.long_norm)
                assert classify_combination(oset, gamma) == (case, gamma, coeffs), (thetas, gamma)
                labels.append(case)
            assert calls == [], thetas
            sets += 1
    assert (sets, len(labels)) == (119, 660)
    assert set(labels) == set(CASES)


def _faults():
    """The errors classify raises when each invariant it reads off the lanes
    is broken on purpose: reduce_b2long leaves a B2-long pair whole, and a
    G2 system built apart from the shared one is given a long norm that no
    root has."""
    import weylorbits.nilpotent as nil

    errors = []
    b2 = build_root_system("B", 2)
    original = nil.reduce_b2long
    nil.reduce_b2long = lambda oset: oset
    try:
        classify(orthogonal_set(b2, [(0, 1), (1, 1)]))
    except AssertionError as exc:
        errors.append(str(exc))
    finally:
        nil.reduce_b2long = original
    g2 = RootSystem("G", 2)
    g2.long_norm = 4
    try:
        classify(orthogonal_set(g2, [g2.highest_root, (1, 0)]))
    except AssertionError as exc:
        errors.append(str(exc))
    return errors


FAULTS = [
    "integral combination (1, 0) survives the reduction",
    "no case matches projections (3, -3) on norms (6, 2)",
]


def test_lane_invariants_raise():
    assert _faults() == FAULTS


def test_lane_invariants_raise_under_python_O():
    # python -O strips assert statements; both checks are explicit raises
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
    script = "import sys, test_nilpotent as t; print(repr((sys.flags.optimize, t._faults())))"
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout.strip()) == (1, FAULTS)


@pytest.mark.parametrize("family,rank", [(f, n) for f, n in ALL_SYSTEMS if n <= 6])
def test_parabolic_order_is_the_product_of_its_component_degrees(family, rank):
    # |W_L| read off the diagram alone: the product of the degrees of the
    # types that _subdiagram_type gives the _components of L, for every L
    rs = build_root_system(family, rank)
    for k in range(rank + 1):
        for L in combinations(range(1, rank + 1), k):
            degs = parabolic_degrees(rs, L)
            assert math.prod(degs) == len(parabolic_elements(rs, L)), (L, degs)
