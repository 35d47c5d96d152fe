import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorbits.quotient import (
    IJKDatum,
    QuotientElement,
    build_poset,
    covers_O_below,
    leq_O,
    min_set,
)
from weylorbits.roots import build_root_system
from weylorbits.weyl import from_word, identity, weyl_group

from oracles import covers_naive, leq_O_full_coset


@pytest.fixture(scope="module")
def a3():
    return build_root_system("A", 3)


@pytest.fixture(scope="module")
def datum(a3):
    return IJKDatum(a3, I=[1], J=[3])


def test_datum_validation(a3):
    with pytest.raises(ValueError):
        IJKDatum(a3, I=[1], J=[1])  # not disjoint
    with pytest.raises(ValueError):
        IJKDatum(a3, I=[1], J=[2])  # connected across parts
    with pytest.raises(ValueError):
        IJKDatum(a3, I=[1], J=[3], star={1: 2})
    b3 = build_root_system("B", 3)
    with pytest.raises(ValueError):
        # s1 s2 have m = 3 but s1* s2* would need m(s3, s1) pairing
        IJKDatum(b3, I=[1, 2], J=[2, 3])


def test_star_extend(datum, a3):
    assert datum.star_extend(identity(a3)).is_identity()
    assert datum.star_extend(from_word(a3, [1])) == from_word(a3, [3])
    with pytest.raises(ValueError):
        datum.star_extend(from_word(a3, [2]))
    # order preserving on W_I (both are rank-1 here)
    x = from_word(a3, [1])
    assert datum.star_extend(x).length() == x.length()


def test_coset(datum, a3):
    for w in weyl_group(a3).elements:
        assert len(datum.coset(w)) == 2
    # [s2s1] = {s2s1, s2s1 s1 s3} = {s2s1, s2s3}
    got = {u.reduced_word() for u in datum.coset(from_word(a3, [2, 1]))}
    assert got == {(2, 1), (2, 3)}


def test_canonical_rep(datum, a3):
    g = weyl_group(a3)
    # w in W(I,J,K) maps to itself
    for node in datum.quotient_elements():
        assert datum.canonical_rep(node.rep).rep == node.rep
    # coset invariance
    for w in g.elements:
        rep = datum.canonical_rep(w).rep
        for u in datum.coset(w):
            assert datum.canonical_rep(u).rep == rep
    # s1 s3 = e * (s1 s1*) lies in the identity coset
    assert datum.canonical_rep(from_word(a3, [1, 3])).rep.is_identity()


def test_min_set(datum, a3):
    w = datum.canonical_rep(from_word(a3, [2, 1]))
    got = {u.reduced_word() for u in min_set(w)}
    assert got == {(2, 1), (2, 3)}
    # singleton exactly when w2 is trivial
    for node in datum.quotient_elements():
        ms = min_set(node)
        assert (len(ms) == 1) == node.w2.is_identity()
        assert all(u.length() == node.length() for u in ms)


def test_min_set_size_counts_weak_order(datum):
    g = datum.group
    for node in datum.quotient_elements():
        below = [
            x
            for x in datum.w_i_elements()
            if (node.w2 * x.inv()).length() + x.length() == node.w2.length()
        ]
        assert len(min_set(node)) == len(below)


def test_leq_O_paper_examples(datum, a3):
    s1 = datum.canonical_rep(from_word(a3, [1]))
    s3s2 = datum.canonical_rep(from_word(a3, [3, 2]))
    s1s2 = datum.canonical_rep(from_word(a3, [1, 2]))
    assert leq_O(s1, s3s2)
    assert not leq_O(s1s2, s3s2)
    for node in datum.quotient_elements():
        assert leq_O(node, node)


@pytest.mark.parametrize(
    "family,rank,I,J,K",
    [
        ("A", 3, [1], [3], []),
        ("A", 4, [1], [4], []),
        ("B", 3, [1], [3], []),
    ],
)
def test_order_axioms(family, rank, I, J, K):
    rs = build_root_system(family, rank)
    datum = IJKDatum(rs, I, J, K)
    nodes = datum.quotient_elements()
    rel = [[leq_O(a, b) for b in nodes] for a in nodes]
    for i in range(len(nodes)):
        assert rel[i][i]
        for j in range(len(nodes)):
            if i != j and rel[i][j]:
                assert not rel[j][i]  # antisymmetry
            for k in range(len(nodes)):
                if rel[i][j] and rel[j][k]:
                    assert rel[i][k]  # transitivity


def test_leq_O_equals_full_coset_scan(datum):
    nodes = datum.quotient_elements()
    for a in nodes:
        for b in nodes:
            assert leq_O(a, b) == leq_O_full_coset(a, b)


def test_member_of_M(datum, a3):
    assert datum.member_of_M(from_word(a3, [2, 3]))
    assert not datum.member_of_M(from_word(a3, [1, 3]))
    for node in datum.quotient_elements():
        assert datum.member_of_M(node.rep)  # u_L component from W^{IuJuK} part
        for u in min_set(node):
            assert datum.member_of_M(u)
    # the M membership test recovers exactly the union of the Min sets
    all_min = {
        u.matrix for node in datum.quotient_elements() for u in min_set(node)
    }
    for w in weyl_group(a3).elements:
        assert datum.member_of_M(w) == (w.matrix in all_min)


def test_covers_O(datum, a3):
    top = datum.canonical_rep(from_word(a3, [2, 1, 3, 2]))
    got = {c.rep for c in covers_O_below(top)}
    assert got == {
        from_word(a3, [1, 3, 2]),
        from_word(a3, [3, 2, 1]),
        from_word(a3, [1, 2, 1]),
    }
    s1s2 = datum.canonical_rep(from_word(a3, [1, 2]))
    assert {c.rep for c in covers_O_below(s1s2)} == {
        from_word(a3, [1]),
        from_word(a3, [2]),
    }
    assert covers_O_below(datum.canonical_rep(identity(a3))) == []


def test_covers_O_against_naive_scan(datum):
    nodes = datum.quotient_elements()
    rel = [[leq_O(a, b) for b in nodes] for a in nodes]
    for i, node in enumerate(nodes):
        naive = set(covers_naive(nodes, rel, i))
        got = {
            next(j for j, m in enumerate(nodes) if m == c)
            for c in covers_O_below(node)
        }
        assert got == naive


def test_build_poset_figure(datum, a3):
    poset = build_poset(datum)
    assert len(poset.nodes) == 12
    assert len(poset.edges) == 22
    assert poset.rank_profile() == (1, 2, 3, 3, 2, 1)
    expected = {
        from_word(a3, word).matrix
        for word in (
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
    }
    assert {n.rep.matrix for n in poset.nodes} == expected
    # rank 1 -> 2 edges form the complete bipartite graph
    r1 = [i for i, n in enumerate(poset.nodes) if n.length() == 1]
    r2 = [i for i, n in enumerate(poset.nodes) if n.length() == 2]
    assert {(a, b) for a in r1 for b in r2} <= set(poset.edges)
    # gradedness
    for lo, hi in poset.edges:
        assert poset.nodes[hi].length() - poset.nodes[lo].length() == 1


def test_poset_trivial_datum(a3):
    # empty I, J, K gives the full bruhat order on W
    datum = IJKDatum(a3, [], [])
    poset = build_poset(datum)
    assert len(poset.nodes) == 24
    g = weyl_group(a3)
    index = {n.rep.matrix: i for i, n in enumerate(poset.nodes)}
    for w in g.elements:
        for u in g.bruhat_covers_below(w):
            assert (index[u.matrix], index[w.matrix]) in set(poset.edges)


def test_poset_serialization(datum):
    poset = build_poset(datum)
    data = json.loads(poset.to_json())
    assert len(data["nodes"]) == 12 and len(data["edges"]) == 22
    dot = poset.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == 22
    assert "rank = same;" in dot


def test_min_coherence(datum):
    # for w' <=_O w, every u in Min(w) dominates some coset member of [w']
    nodes = datum.quotient_elements()
    g = datum.group
    for a in nodes:
        for b in nodes:
            if not leq_O(a, b):
                continue
            for u in min_set(b):
                assert any(g.bruhat_leq(up, u) for up in datum.coset(a.rep))


def test_lem_product_spot(a3):
    # for x' <= x there exists y' <= y with x'y' <= xy
    g = weyl_group(a3)
    els = g.elements
    for x in els:
        below_x = [xp for xp in els if g.bruhat_leq(xp, x)]
        for y in els[:8]:
            below_y = [yp for yp in els if g.bruhat_leq(yp, y)]
            xy = x * y
            for xp in below_x:
                assert any(g.bruhat_leq(xp * yp, xy) for yp in below_y)


# (family, rank, I, J, K): the acceptance-gate data
QUOTIENT_DATA = (
    ("A", 3, (1,), (3,), ()),
    ("A", 5, (1,), (5,), (3,)),
    ("B", 4, (1,), (3,), ()),
    ("D", 4, (1,), (3,), ()),
)


@lru_cache(maxsize=None)
def _datum(family, rank, I, J, K):
    return IJKDatum(build_root_system(family, rank), I, J, K)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(QUOTIENT_DATA).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.integers(1, d[1]), max_size=12),
            st.lists(st.integers(1, d[1]), max_size=12),
        )
    )
)
def test_leq_O_random_words_against_full_coset(data):
    key, left, right = data
    datum = _datum(*key)
    wp = datum.canonical_rep(from_word(datum.system, left))
    w = datum.canonical_rep(from_word(datum.system, right))
    assert leq_O(wp, w) == leq_O_full_coset(wp, w)
