from fractions import Fraction

import pytest

from weylorbits.roots import (
    CLASSICAL_COUNTS,
    Coweight,
    InvalidRankError,
    build_root_system,
)

ALL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_classical_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == CLASSICAL_COUNTS[family](rank)
    assert 2 * len(rs.positive_roots) == len(rs.roots)


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 2), ("E", 5), ("F", 3), ("G", 3)])
def test_invalid_rank(family, rank):
    with pytest.raises(InvalidRankError):
        build_root_system(family, rank)


def test_g2_lengths():
    g2 = build_root_system("G", 2)
    lengths = sorted(g2.form(r, r) for r in g2.roots)
    assert lengths.count(lengths[0]) == 6 and lengths.count(lengths[-1]) == 6


def test_e7_highest_root():
    e7 = build_root_system("E", 7)
    assert e7.highest_root == (2, 2, 3, 4, 3, 2, 1)


def test_f4_highest_root():
    f4 = build_root_system("F", 4)
    assert f4.highest_root == (2, 3, 4, 2)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_pairing_diagonal(family, rank):
    rs = build_root_system(family, rank)
    for i in range(1, rank + 1):
        assert rs.pairing(rs.simple_root(i), rs.simple_root(i)) == 2


def test_pairing_highest_with_coweight():
    # the value <theta, 2 varpi_2^vee> is 4 in both D4 and G2
    d4 = build_root_system("D", 4)
    assert d4.coweight_value(Coweight((0, 2, 0, 0)), d4.highest_root) == 4
    g2 = build_root_system("G", 2)
    assert g2.coweight_value(Coweight((0, 2)), g2.highest_root) == 4


def test_pairing_bilinearity():
    b3 = build_root_system("B", 3)
    for a in b3.roots[:10]:
        for b in b3.roots[:10]:
            s = tuple(x + y for x, y in zip(a, b))
            for c in b3.positive_roots:
                assert b3.pairing(s, c) == b3.pairing(a, c) + b3.pairing(b, c)


def test_reflect_basics():
    b2 = build_root_system("B", 2)
    for a in b2.roots:
        assert b2.reflect(a, a) == tuple(-x for x in a)
    # orthogonal roots are fixed by each other's reflection
    a1, th = b2.simple_root(1), b2.highest_root
    assert b2.form(a1, th) == 0
    assert b2.reflect(a1, th) == a1


def test_reflect_g2_half_combination():
    # beta1 = theta long, beta2 = alpha_1 short, beta = (beta1 + 3 beta2)/2:
    # s_beta(beta2) = beta2 - beta
    g2 = build_root_system("G", 2)
    b1, b2_ = g2.highest_root, g2.simple_root(1)
    beta = tuple((x + 3 * y) // 2 for x, y in zip(b1, b2_))
    assert g2.is_root(beta)
    assert g2.reflect(b2_, beta) == tuple(x - y for x, y in zip(b2_, beta))


def test_reflection_closure():
    for family, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rs = build_root_system(family, rank)
        for a in rs.roots:
            for b in rs.roots:
                assert rs.is_root(rs.reflect(a, b))


def test_dominantize():
    e7 = build_root_system("E", 7)
    dom, word = e7.dominantize(Coweight((-1, 0, 0, 1, 0, 0, 0)))
    assert dom == Coweight((0, 0, 1, 0, 0, 0, 0))
    dom2, _ = e7.dominantize(Coweight((-2, 0, 2, 0, 0, 0, 0)))
    assert dom2 == Coweight((2, 0, 0, 0, 0, 0, 0))
    # replaying the word reproduces the dominant form
    h = Coweight((-1, 0, 0, 1, 0, 0, 0))
    for i in word:
        h = e7.reflect_coweight(h, i - 1)
    assert h == dom
    # dominant input: identity with empty word
    assert e7.dominantize(dom) == (dom, ())


def test_dominantize_invariance():
    b3 = build_root_system("B", 3)
    h = Coweight((1, -2, 1))
    dom, _ = b3.dominantize(h)
    assert dom.is_dominant()
    for i in range(3):
        assert b3.dominantize(b3.reflect_coweight(h, i))[0] == dom


def test_coweight_basis_roundtrip():
    for family, rank in [("A", 4), ("B", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(family, rank)
        h = Coweight(tuple((-1) ** i * (i + 1) for i in range(rank)))
        assert rs.coweight_from_coroot_basis(rs.coweight_to_coroot_basis(h)) == h


def test_span_membership():
    d4 = build_root_system("D", 4)
    th = d4.highest_root
    quad = [th, d4.simple_root(1), d4.simple_root(3), d4.simple_root(4)]
    assert d4.span_membership(quad, th) == (1, 0, 0, 0)
    half = tuple(sum(v) // 2 for v in zip(*quad))
    assert d4.is_root(half)
    assert d4.span_membership(quad, half) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_span_membership_absent():
    a3 = build_root_system("A", 3)
    thetas = [a3.highest_root, a3.simple_root(2)]
    pm = {t for t in thetas} | {tuple(-x for x in t) for t in thetas}
    for gamma in a3.roots:
        coeffs = a3.span_membership(thetas, gamma)
        if gamma in pm:
            assert coeffs is not None
        else:
            assert coeffs is None


def test_span_membership_dependent():
    a3 = build_root_system("A", 3)
    a1 = a3.simple_root(1)
    with pytest.raises(ValueError):
        a3.span_membership([a1, tuple(-x for x in a1)], a3.simple_root(2))


def test_span_membership_rejects_non_orthogonal():
    # alpha_1, alpha_2 are independent but not orthogonal: no general solver
    a3 = build_root_system("A", 3)
    with pytest.raises(ValueError, match="not pairwise orthogonal"):
        a3.span_membership([a3.simple_root(1), a3.simple_root(2)], (1, 1, 0))


def test_highest_root_property():
    for family, rank in [("A", 4), ("B", 4), ("C", 3), ("D", 5), ("E", 6)]:
        rs = build_root_system(family, rank)
        th = rs.highest_root
        for i in range(1, rank + 1):
            s = tuple(x + y for x, y in zip(th, rs.simple_root(i)))
            assert not rs.is_root(s)
