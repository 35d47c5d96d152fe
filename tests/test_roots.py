from fractions import Fraction
from itertools import combinations

import pytest

from weylorbits.roots import (
    Coweight,
    InvalidRankError,
    RootSystem,
    build_root_system,
    cartan_matrix,
    degrees,
    symmetrizer,
)

from oracles import (
    ALL_SYSTEMS,
    SYSTEMS_TO_12,
    all_roots_closure,
    coweight_from_coroot_basis,
    coweight_to_coroot_basis,
    gram_coroot,
    gram_form,
    gram_pairing,
    gram_reflect,
    highest_root,
    positive_definite,
    projection_span_membership,
)

@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_classical_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == 2 * sum(d - 1 for d in degrees(family, rank))
    assert 2 * len(rs.positive_roots) == len(rs.roots)


@pytest.mark.parametrize("family,rank", [*SYSTEMS_TO_12, ("A", 30), ("D", 20)])
def test_roots_match_a_full_row_closure(family, rank):
    # the closure over every root, negative ones included, against the
    # closure over the positive roots
    norms = all_roots_closure(family, rank)
    rs = RootSystem(family, rank)
    assert rs.norms == norms
    assert rs.roots == tuple(sorted(norms))
    assert rs.positive_roots == tuple(r for r in sorted(norms) if all(c >= 0 for c in r))


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_negative_roots_come_first(family, rank):
    # roots is sorted, so a split at |Phi+| parts the negative from the
    # positive roots
    rs = build_root_system(family, rank)
    npos = len(rs.positive_roots)
    assert all(min(v) < 0 and max(v) <= 0 for v in rs.roots[:npos])
    assert all(max(v) > 0 and min(v) >= 0 for v in rs.roots[npos:])
    assert len(rs.roots) == 2 * npos


@pytest.mark.parametrize("family,rank", [("A", 0), ("D", 2), ("E", 5), ("F", 3), ("G", 3)])
def test_invalid_rank(family, rank):
    with pytest.raises(InvalidRankError):
        build_root_system(family, rank)
    with pytest.raises(InvalidRankError):
        RootSystem(family, rank)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_builtin_cartan_data(family, rank):
    # the built-in tables define a finite crystallographic root system:
    # D A is a symmetric positive definite form with a[i][i] = 2, a[i][j] <= 0
    a, d = cartan_matrix(family, rank), symmetrizer(family, rank)
    n = range(rank)
    assert all(a[i][i] == 2 for i in n)
    assert all(a[i][j] <= 0 for i in n for j in n if i != j)
    assert all(x > 0 for x in d)
    b = [[d[i] * a[i][j] for j in n] for i in n]
    assert all(b[i][j] == b[j][i] for i in n for j in n)
    assert positive_definite(b)


def test_positive_definite_rejects_affine_and_indefinite_forms():
    # affine A_2 (semidefinite) and a hyperbolic rank-2 matrix (indefinite)
    assert not positive_definite([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert not positive_definite([[2, -3], [-3, 2]])
    assert positive_definite([[2, -1], [-1, 2]])


def test_direct_construction_matches_cached_system():
    rs = RootSystem("B", 3)
    cached = build_root_system("B", 3)
    assert rs is not cached
    assert rs.roots == cached.roots and rs.norms == cached.norms
    assert rs.highest_root == cached.highest_root


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


@pytest.mark.parametrize("i", [0, 4, -1])
def test_simple_root_out_of_range(i):
    with pytest.raises(IndexError, match=f"^simple index {i} out of range$"):
        build_root_system("B", 3).simple_root(i)


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
        assert coweight_from_coroot_basis(rs, coweight_to_coroot_basis(rs, h)) == h


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


@pytest.mark.parametrize("family,rank", [("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_span_membership_matches_projection_oracle(family, rank):
    rs = build_root_system(family, rank)
    pos = rs.positive_roots
    osets = [
        s
        for k in range(4)
        for s in combinations(pos, k)
        if all(rs.form(a, b) == 0 for a, b in combinations(s, 2))
    ]
    assert osets[0] == ()  # the empty list spans only 0
    for thetas in osets:
        # 0 is in every span; 2 theta_1 is in the span but is not a root
        extra = ((0,) * rank,) + ((tuple(2 * x for x in thetas[0]),) if thetas else ())
        for gamma in rs.roots + extra:
            assert rs.span_membership(thetas, gamma) == projection_span_membership(
                rs, thetas, gamma
            )


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_coroot_matches_pairings(family, rank):
    rs = build_root_system(family, rank)
    for b in rs.roots:
        assert rs.coroot(b).coords == tuple(
            rs.pairing(rs.simple_root(i), b) for i in range(1, rank + 1)
        )


def test_coroot_of_a_non_root_raises():
    # (2, 1) = 2 alpha_1 + alpha_2 in B2: <alpha_1, b^vee> = 12/10
    with pytest.raises(ValueError, match="not integral"):
        build_root_system("B", 2).coroot((2, 1))


def test_span_membership_checks_orthogonality_after_a_valid_call():
    rs = build_root_system("A", 3)
    a1, a2, a3 = (rs.simple_root(i) for i in (1, 2, 3))
    assert rs.span_membership([a1, a3], (1, 0, 1)) == (1, 1)
    with pytest.raises(ValueError, match="not pairwise orthogonal"):
        rs.span_membership([a1, a2], (1, 1, 0))
    with pytest.raises(ValueError, match="not pairwise orthogonal"):
        rs.span_membership([a1, a3, a2], (1, 1, 0))


def test_span_membership_memo_is_per_system():
    # B3 and C3 share these coordinate tuples but not their forms: each pair
    # is orthogonal in one system only
    b3, c3 = build_root_system("B", 3), build_root_system("C", 3)
    for ok, bad, roots, gamma in (
        (b3, c3, ((0, 0, 1), (1, 1, 1)), (1, 1, 2)),
        (c3, b3, ((0, 1, 0), (0, 1, 1)), (0, 2, 1)),
    ):
        assert ok.span_membership(roots, gamma) == (1, 1)
        with pytest.raises(ValueError, match="not pairwise orthogonal"):
            bad.span_membership(roots, gamma)
        assert ok.span_membership(roots, gamma) == (1, 1)


def test_highest_root_property():
    for family, rank in [("A", 4), ("B", 4), ("C", 3), ("D", 5), ("E", 6)]:
        rs = build_root_system(family, rank)
        th = rs.highest_root
        for i in range(1, rank + 1):
            s = tuple(x + y for x, y in zip(th, rs.simple_root(i)))
            assert not rs.is_root(s)


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_highest_root_is_the_unique_root_of_greatest_height(family, rank):
    rs = build_root_system(family, rank)
    heights = sorted(sum(b) for b in rs.positive_roots)
    assert sum(rs.highest_root) == heights[-1] and heights.count(heights[-1]) == 1


@pytest.mark.parametrize("family,rank", SYSTEMS_TO_12)
def test_highest_root_is_the_root_with_no_positive_root_above(family, rank):
    # the system takes its root of greatest height; the definition scans
    # every pair of positive roots
    rs = build_root_system(family, rank)
    assert rs.highest_root == highest_root(rs.roots)


def test_highest_root_of_a_reducible_set_raises():
    # in B2, alpha_1 and alpha_1 + 2 alpha_2 are orthogonal long roots: A1 x A1
    b2 = build_root_system("B", 2)
    a, b = b2.simple_root(1), (1, 2)
    assert b2.is_root(b) and b2.form(a, b) == 0
    with pytest.raises(ValueError):
        highest_root([a, tuple(-x for x in a), b, tuple(-x for x in b)])
    assert highest_root(b2.roots) == b2.highest_root == b


# every supported (family, rank) of rank at most 4, with F4 and E6
KERNEL_SYSTEMS = [(f, n) for f, n in SYSTEMS_TO_12 if n <= 4] + [("E", 6)]


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("family,rank", KERNEL_SYSTEMS)
def test_kernels_match_gram_definitions(family, rank):
    # form, pairing, reflect and coroot read one cached row B b per root b;
    # each must equal its definition on the whole Gram matrix, on every pair
    # of roots and on arguments that are not roots, which are never cached
    rs = RootSystem(family, rank)  # a fresh system, with empty row caches
    coroots = {b: gram_coroot(rs, b) for b in rs.roots}
    for b in rs.roots:
        assert rs.coroot(b) == coroots[b]
        for a in rs.roots:
            assert rs.form(a, b) == gram_form(rs, a, b)
            assert rs.pairing(a, b) == gram_pairing(rs, a, b)
            assert rs.reflect(a, b) == gram_reflect(rs, a, b)
    zero = (0,) * rank
    double = tuple(2 * x for x in rs.simple_root(1))
    for b in rs.roots:
        for v in (zero, double, list(b)):
            assert rs.form(v, b) == gram_form(rs, v, b)
            assert rs.form(b, v) == gram_form(rs, b, v)
            for f, g in ((rs.pairing, gram_pairing), (rs.reflect, gram_reflect)):
                assert _outcome(f, b, v) == _outcome(g, rs, b, v)
    for v in (zero, double):
        assert _outcome(rs.coroot, v) == _outcome(gram_coroot, rs, v)
        assert rs.norm(v) == gram_form(rs, v, v)
    assert rs.coroot(list(rs.highest_root)) == coroots[rs.highest_root]
    for cache in (rs._rows, rs._coroots):
        assert len(cache) <= len(rs.roots) and set(cache) <= rs.root_set
