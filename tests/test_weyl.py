import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorbits.roots import build_root_system
from weylorbits.weyl import (
    CapExceededError,
    WeylGroup,
    from_line_notation,
    from_word,
    identity,
    parabolic_decompose,
    right_weak_leq,
    simple_reflection,
    to_line_notation,
    weyl_group,
)

from oracles import bruhat_leq_subword, tableau_leq


@pytest.fixture(scope="module")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="module")
def ga3(a3):
    return weyl_group(a3)


def test_identity_and_lengths(a3):
    assert from_word(a3, []).length() == 0
    assert from_word(a3, [2, 3, 2, 1, 2]).length() == 5
    assert from_word(a3, [1, 3, 2]).length() == 3


def test_group_axioms(a3, ga3):
    for w in ga3.elements:
        assert w * w.inv() == identity(a3)
        assert (w.inv()).inv() == w
    u = from_word(a3, [1, 2])
    w = from_word(a3, [3, 2, 1])
    assert (u * w).length() <= u.length() + w.length()


def test_reduced_word_roundtrip(a3, ga3):
    for w in ga3.elements:
        word = w.reduced_word()
        assert len(word) == w.length()
        assert from_word(a3, word) == w
    assert from_word(a3, [1]).reduced_word() == (1,)
    assert identity(a3).reduced_word() == ()


def test_reduced_word_3412(a3):
    w = from_line_notation(a3, (3, 4, 1, 2))
    assert len(w.reduced_word()) == 4


def test_line_notation(a3, ga3):
    assert to_line_notation(identity(a3)) == (1, 2, 3, 4)
    assert to_line_notation(from_word(a3, [2, 1, 3, 2])) == (3, 4, 1, 2)
    assert to_line_notation(from_word(a3, [2, 1])) == (3, 1, 2, 4)
    for w in ga3.elements:
        assert from_line_notation(a3, to_line_notation(w)) == w
    with pytest.raises(ValueError):
        from_line_notation(a3, (1, 1, 2, 3))


def test_line_notation_length_is_inversions(ga3):
    for w in ga3.elements:
        line = to_line_notation(w)
        inv = sum(
            1
            for i in range(len(line))
            for j in range(i + 1, len(line))
            if line[i] > line[j]
        )
        assert inv == w.length()


def test_bruhat_paper_examples(a3, ga3):
    s1 = from_word(a3, [1])
    s3s2 = from_word(a3, [3, 2])
    assert not ga3.bruhat_leq(s1, s3s2)
    assert ga3.bruhat_leq(s3s2, from_word(a3, [1, 3, 2]))
    for w in ga3.elements:
        assert ga3.bruhat_leq(identity(a3), w)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3)])
def test_bruhat_against_subword_oracle(family, rank):
    rs = build_root_system(family, rank)
    g = weyl_group(rs)
    for u in g.elements:
        for w in g.elements:
            assert g.bruhat_leq(u, w) == bruhat_leq_subword(u, w)


def test_bruhat_against_tableau_criterion():
    rs = build_root_system("A", 4)
    g = weyl_group(rs)
    lines = {w.matrix: to_line_notation(w) for w in g.elements}
    for u in g.elements:
        for w in g.elements:
            assert g.bruhat_leq(u, w) == tableau_leq(lines[u.matrix], lines[w.matrix])


def test_covers(a3, ga3):
    assert ga3.bruhat_covers_below(identity(a3)) == []
    covers = ga3.bruhat_covers_below(from_word(a3, [1, 2]))
    assert {c.reduced_word() for c in covers} == {(1,), (2,)}
    w0 = max(ga3.elements, key=lambda w: w.length())
    assert len(ga3.bruhat_covers_below(w0)) == 3
    # covers agree with the length-graded bruhat scan
    for w in ga3.elements:
        expected = {
            u.matrix
            for u in ga3.elements
            if u.length() == w.length() - 1 and ga3.bruhat_leq(u, w)
        }
        assert {u.matrix for u in ga3.bruhat_covers_below(w)} == expected


def test_right_weak(a3, ga3):
    for w in ga3.elements:
        assert right_weak_leq(identity(a3), w)
        assert right_weak_leq(w, w)
    assert right_weak_leq(from_word(a3, [2]), from_word(a3, [1, 2]))
    assert not right_weak_leq(from_word(a3, [1]), from_word(a3, [1, 2]))
    # right weak order implies bruhat order
    for v in ga3.elements:
        for w in ga3.elements:
            if right_weak_leq(v, w):
                assert ga3.bruhat_leq(v, w)


def test_parabolic_decompose(a3, ga3):
    up, lo = parabolic_decompose(from_word(a3, [2, 1]), [1])
    assert (up.reduced_word(), lo.reduced_word()) == ((2,), (1,))
    up, lo = parabolic_decompose(from_word(a3, [2, 1, 3, 2]), [1, 3])
    assert lo.is_identity() and up == from_word(a3, [2, 1, 3, 2])
    for w in ga3.elements:
        for L in ([1], [1, 3], [2], [1, 2]):
            up, lo = parabolic_decompose(w, L)
            assert up * lo == w
            assert w.length() == up.length() + lo.length()
            assert all(i in L for i in lo.reduced_word())
            assert not set(L).intersection(up.right_descents())
            # uniqueness against the brute-force factorization scan
            matches = [
                x
                for x in ga3.subgroup_elements(L)
                if not set(L).intersection((w * x.inv()).right_descents())
            ]
            assert lo in matches


def test_enumeration(a3):
    assert len(weyl_group(a3)) == 24
    assert len(weyl_group(a3).min_coset_reps([1, 3])) == 6
    f4 = build_root_system("F", 4)
    assert len(weyl_group(f4)) == 1152
    with pytest.raises(CapExceededError):
        WeylGroup(build_root_system("A", 4), cap=10)


def test_enumeration_breadth_first(ga3):
    lengths = [w.length() for w in ga3.elements]
    assert lengths == sorted(lengths)


@pytest.mark.parametrize("rank", [3, 4])
def test_quotient_bruhat_graded(rank):
    # the bruhat order restricted to W^K is graded
    rs = build_root_system("A", rank)
    g = weyl_group(rs)
    for K in ([2], [1, 2]):
        reps = g.min_coset_reps(K)
        for w in reps:
            for u in reps:
                if u == w or not g.bruhat_leq(u, w):
                    continue
                has_middle = any(
                    v != u and v != w and g.bruhat_leq(u, v) and g.bruhat_leq(v, w)
                    for v in reps
                )
                if not has_middle:
                    assert u.length() == w.length() - 1


def test_action_permutes_roots(a3, ga3):
    for w in ga3.elements[:12]:
        images = {w.apply(r) for r in a3.roots}
        assert images == set(a3.roots)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.permutations(range(1, n + 1)),
            st.lists(st.integers(1, n - 1), max_size=20),
        )
    )
)
def test_line_notation_round_trip(data):
    perm, word = data
    rs = build_root_system("A", len(perm) - 1)
    assert to_line_notation(from_line_notation(rs, perm)) == tuple(perm)
    w = from_word(rs, word)
    assert from_line_notation(rs, to_line_notation(w)) == w
