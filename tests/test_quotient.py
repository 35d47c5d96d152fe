import json
import math
import os
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorbits.linkpatterns import type_a_datum
from weylorbits.quotient import (
    IJKDatum,
    QuotientElement,
    build_poset,
    check_datum,
    covers_O_below,
    leq_O,
    min_set,
)
from weylorbits.cli import _build_datum, build_parser
from weylorbits.roots import build_root_system, cartan_entries, degrees
from weylorbits.weyl import from_word, identity, parabolic_decompose, parabolic_elements, weyl_group

from oracles import (
    ALL_SYSTEMS,
    action_matrix,
    canonical_rep_by_scan,
    covers_O_below_by_group,
    covers_naive,
    leq_O_full_coset,
    min_set_by_group,
    parabolic_degrees,
    quotient_elements_by_group,
    quotient_rank_profile,
)


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
    # A6: m(1,3) = 2 but m(5,6) = 3; C5: m(1,2) = 3 but m(4,5) = 4
    for family, rank, I, J in (("A", 6, [1, 3], [5, 6]), ("C", 5, [1, 2], [4, 5])):
        with pytest.raises(ValueError, match="^star is not a Coxeter-diagram isomorphism$"):
            IJKDatum(build_root_system(family, rank), I=I, J=J)


def test_star_is_required_when_I_and_J_differ_in_size():
    with pytest.raises(ValueError, match=r"^star map required when \|I\| != \|J\|$"):
        check_datum(3, cartan_entries("A", 3), [1], [], [3])
    with pytest.raises(ValueError, match=r"^star map required when \|I\| != \|J\|$"):
        IJKDatum(build_root_system("A", 5), I=[1, 2], J=[5])


def test_quotient_element_hash_and_repr(datum, a3):
    node = datum.canonical_rep(from_word(a3, [2, 1]))
    again = QuotientElement(datum, from_word(a3, [2, 1]))
    assert node == again and hash(node) == hash(again) == hash(node.rep)
    assert len({node, again, datum.canonical_rep(identity(a3))}) == 2
    assert repr(node) == repr(node.rep) == "s2 s1"
    assert repr(datum.canonical_rep(identity(a3))) == "e"


def test_quotient_elements_are_made_per_call(datum):
    """The datum keeps no list of its quotient: each call makes a new one,
    equal to the last."""
    assert not hasattr(IJKDatum, "_nodes")
    first, second = datum.quotient_elements(), datum.quotient_elements()
    assert first == second and first is not second


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


# CRITERION_4_DATA, |I| = 2 with the default and the reversing star, a K in
# B5, and F4: (family, rank, I, J, K, star)
SCAN_DATA = (
    pytest.param("A", 3, (1,), (3,), (), None, id="A3"),
    pytest.param("A", 5, (1,), (5,), (3,), None, id="A5-K3"),
    pytest.param("B", 4, (1,), (3,), (), None, id="B4"),
    pytest.param("D", 4, (1,), (3,), (), None, id="D4"),
    pytest.param("A", 5, (1, 2), (4, 5), (), None, id="A5-I12"),
    pytest.param("A", 5, (1, 2), (4, 5), (), {1: 5, 2: 4}, id="A5-I12-reversed"),
    pytest.param("B", 5, (1,), (3,), (5,), None, id="B5-K5"),
    pytest.param("F", 4, (1,), (4,), (), None, id="F4"),
)


@pytest.mark.parametrize("family,rank,I,J,K,star", SCAN_DATA)
def test_transversal_against_coset_scan(family, rank, I, J, K, star):
    datum = IJKDatum(build_root_system(family, rank), I, J, K, star)
    for w in datum.group.elements:
        least = min(u.length() for u in datum.coset(w))
        assert [datum.canonical_rep(w).rep] == canonical_rep_by_scan(datum, w)
        assert datum.member_of_M(w) == (w.length() == least)
    for node in datum.quotient_elements():
        coset = datum.coset(node.rep)
        least = min(u.length() for u in coset)
        assert min_set(node) == [u for u in coset if u.length() == least]


# B3 s1 and s2 s1 have keys of A3 elements, B3 s3 s2 s3 has none
@pytest.mark.parametrize("word", [[2, 1], [3, 2, 3], [1]])
def test_element_of_another_system_is_rejected(datum, a3, word):
    u = from_word(build_root_system("B", 3), word)
    w = from_word(a3, [1, 2, 3, 2, 1])
    with pytest.raises(ValueError):
        datum.canonical_rep(u)
    with pytest.raises(ValueError):
        datum.member_of_M(u)
    with pytest.raises(ValueError):
        QuotientElement(datum, u)
    with pytest.raises(ValueError):
        datum.star_extend(u)
    with pytest.raises(ValueError):
        datum.coset(u)
    with pytest.raises(ValueError):
        datum.group.bruhat_leq(u, w)
    with pytest.raises(ValueError):
        datum.group.bruhat_leq(w, u)
    with pytest.raises(ValueError):
        datum.group.bruhat_covers_below(u)


def test_leq_O_rejects_elements_of_different_data(datum, a3):
    w = datum.canonical_rep(from_word(a3, [2, 1]))
    same = IJKDatum(a3, [1], [3])
    assert leq_O(same.canonical_rep(from_word(a3, [2])), w)
    other = IJKDatum(a3, [3], [1])
    with pytest.raises(ValueError):
        leq_O(other.canonical_rep(from_word(a3, [2])), w)


def test_min_set(datum, a3):
    w = datum.canonical_rep(from_word(a3, [2, 1]))
    got = {u.reduced_word() for u in min_set(w)}
    assert got == {(2, 1), (2, 3)}
    # singleton exactly when w2 is trivial
    for node in datum.quotient_elements():
        ms = min_set(node)
        _, w2 = parabolic_decompose(node.rep, datum.L)
        assert (len(ms) == 1) == w2.is_identity()
        assert all(u.length() == node.length() for u in ms)


def test_min_set_size_counts_weak_order(datum):
    for node in datum.quotient_elements():
        _, w2 = parabolic_decompose(node.rep, datum.L)
        below = [
            x
            for x in parabolic_elements(datum.system, datum.I)
            if (w2 * x.inv()).length() + x.length() == w2.length()
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
        action_matrix(u) for node in datum.quotient_elements() for u in min_set(node)
    }
    for w in weyl_group(a3).elements:
        assert datum.member_of_M(w) == (action_matrix(w) in all_min)


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
        action_matrix(from_word(a3, word))
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
    assert {action_matrix(n.rep) for n in poset.nodes} == expected
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
    index = {action_matrix(n.rep): i for i, n in enumerate(poset.nodes)}
    for w in g.elements:
        for u in g.bruhat_covers_below(w):
            assert (index[action_matrix(u)], index[action_matrix(w)]) in set(poset.edges)


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
    ("A", 5, (1, 2), (4, 5), ()),  # W_I non-abelian
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


def _poset_argvs():
    """Every poset datum of the golden corpus, once each, plus two larger ones."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    with open(os.path.join(golden, "manifest.json"), encoding="utf-8") as fh:
        argvs = [case["argv"] for case in json.load(fh) if case["argv"][0] == "poset"]
    argvs += [
        ["poset", "--type", "E", "--rank", "6", "--I", "1", "--J", "6", "--K", "2 4"],  # 4320 nodes
        ["poset", "--type", "A", "--rank", "7", "--I", "1 2", "--J", "6 7", "--K", "4"],  # 3360 nodes
    ]
    unique = {}
    for argv in argvs:
        argv = argv[: argv.index("--format")] if "--format" in argv else argv
        unique.setdefault(" ".join(argv[1:]), argv)
    return list(unique.values())


@pytest.mark.parametrize("argv", _poset_argvs(), ids=lambda argv: " ".join(argv[1:]))
def test_rank_profile_from_degrees(argv, monkeypatch):
    # W(I,J,K) = W^{J u K}: |W| / |W_{J u K}| nodes, ranked by W(q) / W_{J u K}(q)
    monkeypatch.delenv("WEYLORBITS_CAP", raising=False)
    datum = _build_datum(build_parser().parse_args(argv))
    rs, jk = datum.system, datum.J + datum.K
    poset = build_poset(datum)
    order = math.prod(degrees(rs.family, rs.rank))
    assert len(poset.nodes) == order // math.prod(parabolic_degrees(rs, jk))
    assert poset.rank_profile() == quotient_rank_profile(rs, jk)


def _random_data(count, seed):
    """Seeded random data (family, rank, I, J, K, star) on the systems with
    |W| <= 51840, drawn until check_datum accepts them."""
    rng = random.Random(seed)
    systems = [s for s in ALL_SYSTEMS if math.prod(degrees(*s)) <= 51840]
    out = []
    while len(out) < count:
        family, rank = rng.choice(systems)
        idx = rng.sample(range(1, rank + 1), rank)
        k = rng.randint(0, rank // 2)
        I, J = idx[:k], idx[k : 2 * k]
        K = [i for i in idx[2 * k :] if rng.random() < 0.4]
        try:
            parts = check_datum(rank, cartan_entries(family, rank), I, J, K, dict(zip(I, J)))
        except ValueError:
            continue
        out.append((family, rank, *parts))
    return out


# the acceptance data (criterion 4, and the type-A data of criteria 3, 6
# and 11), the two largest posets, and random data
KEY_PATH_DATA = (
    [pytest.param(f, r, I, J, K, None, id=f"{f}{r}-I{I}-J{J}-K{K}") for f, r, I, J, K in QUOTIENT_DATA[:4]]
    + [pytest.param("A", n - 1, n, r, None, "type-A", id=f"type-A-n{n}-r{r}") for n in range(2, 8) for r in range(1, n // 2 + 1)]
    + [
        pytest.param("E", 6, (1,), (6,), (2, 4), None, id="E6-I1-J6-K24"),
        pytest.param("A", 7, (1, 2), (6, 7), (4,), None, id="A7-I12-J67-K4"),
    ]
    + [pytest.param(*d, id=f"random-{i}-{d[0]}{d[1]}") for i, d in enumerate(_random_data(50, 19))]
)


@pytest.mark.parametrize("family,rank,I,J,K,star", KEY_PATH_DATA)
def test_key_path_matches_the_whole_group(family, rank, I, J, K, star):
    # the quotient, its covers and its Min sets, enumerated on keys, against
    # the same read from the enumerated group
    datum = type_a_datum(I, J) if star == "type-A" else IJKDatum(build_root_system(family, rank), I, J, K, star)
    lengths = datum.group.lengths
    nodes = datum.quotient_elements()
    reps = quotient_elements_by_group(datum)
    assert [n.rep.x for n in nodes] == [w.x for w in reps]
    assert [n.length() for n in nodes] == [lengths[w.x] for w in reps]
    assert [n.rep.reduced_word() for n in nodes] == [w.reduced_word() for w in reps]
    for node in nodes:
        assert [c.rep for c in covers_O_below(node)] == covers_O_below_by_group(node)
        mins = min_set(node)
        assert mins == min_set_by_group(node)
        assert [u.length() for u in mins] == [lengths[u.x] for u in mins]
