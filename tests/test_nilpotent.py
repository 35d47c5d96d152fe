from itertools import combinations

import pytest

from weylorbits.nilpotent import (
    CASES,
    CascadeNode,
    OrthogonalSet,
    _case_supports,
    cascade_chains,
    chain_cascade,
    classify,
    classify_combination,
    grading_dimensions,
    height_of_sum,
    involution_element,
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
from weylorbits.roots import Coweight, RootSystem, build_root_system
from weylorbits.weyl import from_word, reflection

from oracles import stabilizer_dimension


def neg(v):
    return tuple(-x for x in v)


def add(*vs):
    return tuple(sum(c) for c in zip(*vs))


def orthogonal_subsets(system, max_size):
    """All pairwise-orthogonal subsets of the positive roots, up to max_size."""
    pos = system.positive_roots
    out = [()]
    frontier = [()]
    while frontier:
        new = []
        for subset in frontier:
            start = pos.index(subset[-1]) + 1 if subset else 0
            for v in pos[start:]:
                if all(system.form(v, t) == 0 for t in subset):
                    grown = subset + (v,)
                    new.append(grown)
        out.extend(new)
        frontier = [s for s in new if len(s) < max_size]
    return [s for s in out if s]


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


def test_classify_scans_each_set_once(monkeypatch):
    calls = []
    span_membership = RootSystem.span_membership

    def counting(self, roots, gamma):
        calls.append(tuple(roots))
        return span_membership(self, roots, gamma)

    monkeypatch.setattr(RootSystem, "span_membership", counting)
    data = _rem_5cases_data()
    # nothing to reduce: one scan of the set
    for system, thetas, _, case, _ in data[:2] + data[4:]:
        calls.clear()
        classify(orthogonal_set(system, thetas))
        assert calls == [thetas] * (len(system.roots) - 2 * len(thetas)), case
    # the B2-long reduction drops a root: one more scan, of the reduced set
    b2, thetas = data[3][0], data[3][1]
    calls.clear()
    classify(orthogonal_set(b2, thetas))
    assert calls == [thetas] * (len(b2.roots) - 4) + [thetas[:1]] * (len(b2.roots) - 2)
