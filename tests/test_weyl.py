import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorbits.quotient import IJKDatum
from weylorbits.roots import RootSystem, build_root_system
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

from oracles import action_matrix, bruhat_leq_subword, min_coset_reps, tableau_leq


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
    lines = {action_matrix(w): to_line_notation(w) for w in g.elements}
    for u in g.elements:
        for w in g.elements:
            expected = tableau_leq(lines[action_matrix(u)], lines[action_matrix(w)])
            assert g.bruhat_leq(u, w) == expected


def test_covers(a3, ga3):
    assert ga3.bruhat_covers_below(identity(a3)) == []
    covers = ga3.bruhat_covers_below(from_word(a3, [1, 2]))
    assert {c.reduced_word() for c in covers} == {(1,), (2,)}
    w0 = max(ga3.elements, key=lambda w: w.length())
    assert len(ga3.bruhat_covers_below(w0)) == 3
    # covers agree with the length-graded bruhat scan
    for w in ga3.elements:
        expected = {
            action_matrix(u)
            for u in ga3.elements
            if u.length() == w.length() - 1 and ga3.bruhat_leq(u, w)
        }
        assert {action_matrix(u) for u in ga3.bruhat_covers_below(w)} == expected


@pytest.mark.parametrize("family", ["A", "B"])
def test_covers_are_the_bruhat_lower_elements_one_shorter(family):
    group = WeylGroup(build_root_system(family, 3))
    for w in group.elements:
        expected = {u for u in group.elements if group.bruhat_leq(u, w) and u.length() == w.length() - 1}
        assert set(group.bruhat_covers_below(w)) == expected


def test_covers_enumerate_no_group():
    """A covers query reads each candidate's length from its key."""
    group = WeylGroup(build_root_system("E", 6))
    w = from_word(group.system, [1, 3, 4, 2, 5, 4, 6, 5, 4])
    covers = group.bruhat_covers_below(w)
    assert "lengths" not in vars(group) and "elements" not in vars(group)
    assert covers and all(u.length() == w.length() - 1 and group.bruhat_leq(u, w) for u in covers)


def test_line_notation_needs_type_a():
    b3 = build_root_system("B", 3)
    for call in (lambda: from_line_notation(b3, (1, 2, 3, 4)), lambda: to_line_notation(identity(b3))):
        with pytest.raises(ValueError, match="^line notation is defined for type A only$"):
            call()


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


def test_products_refuse_elements_of_another_system(a3):
    # A3 and B3 share the keys of s1 and of s3 s2, and their product was read
    # as an element of A3; the weak order compared across systems the same way
    b3 = build_root_system("B", 3)
    u, v = from_word(a3, [1]), from_word(b3, [3, 2])
    for product in (lambda: u * v, lambda: u.mul(v), lambda: right_weak_leq(u, from_word(b3, [1]))):
        with pytest.raises(ValueError, match=r"^element of another root system$"):
            product()
    assert repr(u * from_word(a3, [3, 2])) == "s1 s3 s2"


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


@pytest.mark.parametrize(
    "call",
    [
        lambda a3, g: g.subgroup_elements([0]),
        lambda a3, g: g.subgroup_elements([9]),
        lambda a3, g: min_coset_reps(g, [0]),
        lambda a3, g: parabolic_decompose(from_word(a3, [1, 2]), [7]),
        lambda a3, g: simple_reflection(a3, 4),
        lambda a3, g: from_word(a3, [1, 0]),
    ],
    ids=[
        "subgroup_elements-0",
        "subgroup_elements-9",
        "min_coset_reps-0",
        "parabolic_decompose-7",
        "simple_reflection-4",
        "from_word-0",
    ],
)
def test_out_of_range_simple_index(a3, ga3, call):
    with pytest.raises(IndexError, match=r"simple index -?\d+ out of range"):
        call(a3, ga3)


def test_enumeration(a3):
    assert len(weyl_group(a3).elements) == len(weyl_group(a3)) == 24
    assert len(min_coset_reps(weyl_group(a3), [1, 3])) == 6
    f4 = build_root_system("F", 4)
    assert len(weyl_group(f4).elements) == len(weyl_group(f4)) == 1152
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
        reps = min_coset_reps(g, K)
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


def test_elements_of_different_systems_are_unequal(a3):
    c3 = build_root_system("C", 3)
    a, c = from_word(a3, (3,)), from_word(c3, (3,))
    assert a.x == c.x  # same key: the third Cartan rows agree
    assert a != c and c != a
    assert len({a, c}) == 2
    assert a == from_word(RootSystem("A", 3), (3,))  # same system, built again
    qa = IJKDatum(a3, [1], [3]).canonical_rep(a)
    qc = IJKDatum(c3, [1], [3]).canonical_rep(c)
    assert qa.rep.x == qc.rep.x and qa != qc


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
