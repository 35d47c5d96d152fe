"""The enumeration of WeylGroup against element-level arithmetic."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorbits import weyl
from weylorbits.linkpatterns import type_a_datum
from weylorbits.nilpotent import classify, levi_and_involution, orthogonal_set
from weylorbits.roots import build_root_system, degrees
from weylorbits.weyl import (
    CapExceededError,
    WeylGroup,
    from_word,
    simple_reflection,
    weyl_group,
)

from oracles import ALL_SYSTEMS, bruhat_leq_subword

# every group of order <= 1152 with its order
ORDERS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 24,
    ("A", 4): 120,
    ("B", 2): 8,
    ("B", 3): 48,
    ("B", 4): 384,
    ("C", 3): 48,
    ("D", 4): 192,
    ("G", 2): 12,
    ("F", 4): 1152,
}


@pytest.fixture(scope="module", params=sorted(ORDERS), ids=lambda p: f"{p[0]}{p[1]}")
def group(request):
    return weyl_group(build_root_system(*request.param))


def test_group_order(group):
    rs = group.system
    assert len(group) == len(group.elements) == ORDERS[(rs.family, rs.rank)]
    assert list(group.lengths) == [w.x for w in group.elements]
    # each element's reduced word spells its key
    for w in group.elements:
        assert from_word(rs, w.reduced_word()).x == w.x


def test_lengths_count_inverted_positive_roots(group):
    rs = group.system
    for w in group.elements:
        inverted = sum(1 for beta in rs.positive_roots if not rs.is_positive(w.apply(beta)))
        assert group.lengths[w.x] == w.length() == inverted
    lengths = [group.lengths[w.x] for w in group.elements]
    assert lengths == sorted(lengths)  # breadth-first


def test_right_multiplication_and_descents(group):
    gens = [simple_reflection(group.system, i + 1) for i in range(group.system.rank)]
    for w in group.elements:
        for i, s in enumerate(gens, 1):
            ws = w * s
            assert group.lengths[ws.x] == group.lengths[w.x] + (-1 if i in w.right_descents() else 1)


def test_inverse_is_a_length_preserving_involution(group):
    for w in group.elements:
        inverse = w.inv()
        assert inverse.inv() == w
        assert group.lengths[inverse.x] == group.lengths[w.x]
        assert (w * inverse).is_identity() and (inverse * w).is_identity()


def test_words_are_lex_min_reduced_words(group):
    rs = group.system
    for w in group.elements:
        word = w.reduced_word()
        assert from_word(rs, word) == w
        assert len(word) == group.lengths[w.x]
        # lex-min: every letter is the smallest left descent of the suffix it starts
        for j in range(len(word)):
            suffix = from_word(rs, word[j:])
            assert word[j] == min(suffix.inv().right_descents())


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([("B", 3), ("A", 4), ("G", 2), ("F", 4)]).flatmap(
        lambda fr: st.tuples(
            st.just(fr),
            st.lists(st.integers(1, fr[1]), max_size=14),
            st.lists(st.integers(1, fr[1]), max_size=14),
        )
    )
)
def test_bruhat_random_words_against_subword_oracle(data):
    (family, rank), left, right = data
    rs = build_root_system(family, rank)
    u, w = from_word(rs, left), from_word(rs, right)
    assert weyl_group(rs).bruhat_leq(u, w) == bruhat_leq_subword(u, w)


def test_one_system_and_group_per_process():
    assert build_root_system("a", 4) is build_root_system("A", 4)
    assert type_a_datum(5, 2).group is type_a_datum(5, 1).group
    assert type_a_datum(5, 2).group is weyl_group(build_root_system("A", 4))


def test_cap_holds_for_cached_group():
    rs = build_root_system("B", 3)
    group = weyl_group(rs)
    assert weyl_group(rs, cap=48) is group
    with pytest.raises(CapExceededError, match=r"^enumeration cap exceeded; partial size 47$"):
        weyl_group(rs, cap=47)
    assert weyl_group(rs) is group


def test_cap_on_first_build():
    rs = build_root_system("D", 5)
    rs.__dict__.pop("_weyl_group", None)
    with pytest.raises(CapExceededError, match=r"partial size 100$") as info:
        weyl_group(rs, cap=100)
    assert info.value.partial_size == 100
    assert getattr(rs, "_weyl_group", None) is None
    assert len(weyl_group(rs).elements) == 1920


@pytest.mark.parametrize(
    "family,rank", [s for s in ALL_SYSTEMS if math.prod(degrees(*s)) <= 51840]
)
def test_group_order_is_product_of_degrees(family, rank):
    group = weyl_group(build_root_system(family, rank))
    # len is the product of the degrees; the enumeration must reach it
    assert len(group.lengths) == len(group.elements) == len(group) == math.prod(degrees(family, rank))


@pytest.mark.parametrize("family,rank", [("B", 8), ("C", 8), ("D", 8), ("E", 7), ("E", 8)])
def test_default_cap_refuses_before_enumerating(family, rank):
    rs = build_root_system(family, rank)
    assert math.prod(degrees(family, rank)) > WeylGroup.DEFAULT_CAP
    with pytest.raises(CapExceededError, match=r"^enumeration cap exceeded; partial size 1000000$"):
        weyl_group(rs)
    assert getattr(rs, "_weyl_group", None) is None


def test_cap_equal_to_the_order_enumerates():
    rs = build_root_system("B", 3)
    group = WeylGroup(rs, cap=48)
    assert len(group.elements) == len(group) == 48
    with pytest.raises(CapExceededError, match=r"^enumeration cap exceeded; partial size 47$"):
        WeylGroup(rs, cap=47)


def test_enumeration_of_the_wrong_size_raises(monkeypatch):
    orbit = weyl._orbit
    monkeypatch.setattr(weyl, "_orbit", lambda *args: dict(list(orbit(*args).items())[:-1]))
    group = WeylGroup(build_root_system("A", 3))  # construction enumerates nothing
    with pytest.raises(AssertionError, match=r"^W\(A3\) has 23 elements, expected 24$"):
        group.lengths


@pytest.mark.parametrize("rank", [7, 8])
def test_classification_never_enumerates(rank):
    rs = build_root_system("E", rank)
    # the highest root is orthogonal to these three simple roots in E7 and E8
    thetas = [rs.highest_root, rs.simple_root(2), rs.simple_root(3), rs.simple_root(5)]
    report = classify(orthogonal_set(rs, thetas))
    levi_and_involution(report.reduced_set)
    assert getattr(rs, "_weyl_group", None) is None
