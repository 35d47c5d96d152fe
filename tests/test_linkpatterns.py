import ast
import inspect
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylorbits import linkpatterns, weyl
from weylorbits.linkpatterns import (
    OrientedLinkPattern,
    all_patterns,
    count_patterns,
    leq_D,
    leq_rank,
    leq_seq,
    matrix_from_olp,
    olp,
    olp_from_perm,
    orbit_dimension,
    orbit_pair_params,
    perm_from_olp,
    q_table,
    rank_table,
    seq_S,
    type_a_datum,
    z_orbit_offset,
)
from weylorbits.quotient import leq_O
from weylorbits.weyl import to_line_notation

from oracles import (
    centralizer_orbit_dimension,
    covers_naive,
    leq_D_pairwise,
    leq_rank_pairwise,
    leq_seq_pairwise,
    orbit_pair_params_by_decomposition,
    p_stat,
    q_stat,
    q_stat_linear_algebra,
    rank_stat,
    rational_rank_stat,
)


def test_pattern_validation():
    with pytest.raises(ValueError):
        olp(4, [(1, 1)])
    with pytest.raises(ValueError):
        olp(4, [(1, 5)])
    with pytest.raises(ValueError):
        olp(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        olp(3, [(1, 2), (3, 1)])


def test_direct_construction_is_validated():
    with pytest.raises(ValueError):
        OrientedLinkPattern(3, frozenset({(1, 1)}))


def test_equal_patterns_are_equal_cache_keys():
    a = olp(7, [(2, 5), (6, 1)])
    b = OrientedLinkPattern(7, frozenset({(6, 1), (2, 5)}))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != olp(7, [(2, 5)]) and a != olp(8, [(2, 5), (6, 1)])
    assert len({a, b}) == 1
    table = q_table(a)
    hits = q_table.cache_info().hits
    assert q_table(b) is table
    assert q_table.cache_info().hits == hits + 1


def test_olp_from_perm_examples():
    assert olp_from_perm((1, 2, 3, 4), 2) == olp(4, [(3, 1), (4, 2)])
    assert olp_from_perm((3, 4, 1, 2), 2) == olp(4, [(1, 3), (2, 4)])
    assert olp_from_perm((1, 2, 3, 4), 0) == olp(4, [])


def test_perm_from_olp_roundtrip():
    for n in range(1, 7):
        for r in range(n // 2 + 1):
            for d in all_patterns(n, r):
                w = perm_from_olp(d)
                assert olp_from_perm(w, r) == d
                # middle and tail of w ascend, so w lies in W(I,J,K)
                assert list(w[r : n - r]) == sorted(w[r : n - r])
                assert list(w[n - r :]) == sorted(w[n - r :])


def test_every_perm_gives_a_pattern():
    n, r = 4, 2
    pats = set(all_patterns(n, r))
    for w in permutations(range(1, n + 1)):
        assert olp_from_perm(w, r) in pats


def test_counts():
    for n in range(1, 8):
        for r in range(n // 2 + 1):
            assert len(all_patterns(n, r)) == count_patterns(n, r)
    assert count_patterns(4, 2) == 12
    with pytest.raises(ValueError):
        count_patterns(3, 2)


def test_matrix_from_olp():
    m = matrix_from_olp(olp(4, [(3, 1), (4, 2)]))
    assert m == ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0))


def test_p_and_q_statistics():
    d = olp(4, [(3, 1), (4, 2)])
    assert [p_stat(d, k) for k in range(5)] == [0, 1, 2, 2, 2]
    assert q_stat(d, 4, 4) == 4
    assert q_stat(d, 0, 4) == 2
    with pytest.raises(IndexError):
        p_stat(d, 5)


def test_q_statistic_dual_formulas():
    for n in range(1, 6):
        for r in range(n // 2 + 1):
            for d in all_patterns(n, r):
                for k in range(n + 1):
                    for ell in range(1, n + 1):
                        assert q_stat(d, k, ell) == q_stat_linear_algebra(d, k, ell)


def test_rank_stat_basics():
    y = matrix_from_olp(olp(4, [(1, 3), (2, 4)]))
    assert rank_stat(0, 0, y) == 0
    assert rank_stat(4, 0, y) == 2
    assert rank_stat(0, 4, y) == 1 * 4
    assert rank_stat(2, 2, y) == 4  # images 3,4 independent of e1,e2


def _check_kernels(d):
    """The integer kernels against the Fraction oracles and q_stat."""
    n = d.n
    y = matrix_from_olp(d)
    ranks = [[rational_rank_stat(i, j, y) for j in range(n + 1)] for i in range(n + 1)]
    assert [[rank_stat(i, j, y) for j in range(n + 1)] for i in range(n + 1)] == ranks
    assert rank_table(d) == tuple(map(tuple, ranks[1:]))
    assert orbit_dimension(d) == centralizer_orbit_dimension(d)
    assert q_table(d) == tuple(
        tuple(q_stat(d, k, ell) for ell in range(1, n + 1)) for k in range(n + 1)
    )


def test_kernels_match_oracles_up_to_6():
    for n in range(1, 7):
        for r in range(n // 2 + 1):
            for d in all_patterns(n, r):
                _check_kernels(d)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(7, 9).flatmap(
        lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(0, n // 2))
    )
)
def test_kernels_match_oracles_random(case):
    w, r = case
    _check_kernels(olp_from_perm(w, r))


@pytest.mark.parametrize(
    "y",
    [
        [[1, 1], [0, 0]],  # two 1s in a row
        [[1, 0], [1, 0]],  # two 1s in a column
        [[2, 0], [0, 0]],
        [[0, -1], [0, 0]],
        [[1, 0]],  # not square
    ],
)
def test_rank_stat_rejects_non_partial_permutations(y):
    with pytest.raises(ValueError, match="partial permutation"):
        rank_stat(1, 0, y)


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2), (5, 1)])
def test_three_pattern_criteria_agree(n, r):
    pats = all_patterns(n, r)
    for dp in pats:
        for d in pats:
            got = leq_D(dp, d)
            assert got == leq_rank(dp, d)
            assert got == leq_seq(perm_from_olp(dp), perm_from_olp(d), r)


def _orders_and_pairwise_loops(pairs, r):
    """(leq_D, leq_rank, leq_seq) and the retired pairwise loops on each
    pair of patterns, with the permutations w of d_w given alongside."""
    for (dp, wp), (d, w) in pairs:
        got = (leq_D(dp, d), leq_rank(dp, d), leq_seq(wp, w, r))
        assert got == (
            leq_D_pairwise(dp, d), leq_rank_pairwise(dp, d), leq_seq_pairwise(wp, w, r)
        ), (dp.arrows, d.arrows)
        yield got[0]


@pytest.mark.parametrize("n", range(1, 7))
def test_pattern_orders_match_the_pairwise_loops(n):
    # every pair of patterns of every D_{n,r}
    for r in range(n // 2 + 1):
        pats = [(d, perm_from_olp(d)) for d in all_patterns(n, r)]
        pairs = [(a, b) for a in pats for b in pats]
        assert sum(_orders_and_pairwise_loops(pairs, r)) >= len(pats)


@pytest.mark.parametrize("n,r", [(7, 2), (7, 3), (8, 2), (8, 4)])
def test_pattern_orders_match_the_pairwise_loops_seeded(n, r):
    # 2000 seeded pairs; both outcomes occur
    rng = random.Random(n * 10 + r)
    pats = [(d, perm_from_olp(d)) for d in all_patterns(n, r)]
    pairs = [(rng.choice(pats), rng.choice(pats)) for _ in range(2000)]
    outcomes = set(_orders_and_pairwise_loops(pairs, r))
    assert outcomes == {True, False}


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2)])
def test_pattern_order_matches_quotient_order(n, r):
    datum = type_a_datum(n, r)
    nodes = {to_line_notation(q.rep): q for q in datum.quotient_elements()}
    pats = all_patterns(n, r)
    assert len(nodes) == len(pats)
    for dp in pats:
        for d in pats:
            qp = nodes[perm_from_olp(dp)]
            q = nodes[perm_from_olp(d)]
            assert leq_D(dp, d) == leq_O(qp, q)


def test_leq_D_order_axioms():
    pats = all_patterns(5, 2)
    for d in pats:
        assert leq_D(d, d)
    for a in pats:
        for b in pats:
            if a != b and leq_D(a, b):
                assert not leq_D(b, a)


def test_sequences():
    assert seq_S((1, 2, 3, 4), 2) == (0, 0, 1, 2)
    assert seq_S((3, 4, 1, 2), 2) == (3, 4, 0, 0)
    assert seq_S((2, 1, 3, 4), 2) == (0, 0, 2, 1)
    with pytest.raises(ValueError):
        seq_S((1, 3, 2, 4), 1)  # middle not ascending
    with pytest.raises(ValueError):
        seq_S((1, 1, 2, 3), 2)


def test_negative_r_is_rejected():
    with pytest.raises(ValueError, match="0 <= 2r"):
        olp_from_perm((1, 2, 3, 4), -1)
    with pytest.raises(ValueError, match="0 <= 2r"):
        seq_S((1, 2, 3, 4), -1)
    with pytest.raises(ValueError, match="0 <= 2r"):
        leq_seq((1, 2, 3, 4), (4, 3, 2, 1), -1)


def test_leq_seq_examples():
    # identity pattern is the unique minimum
    pats = all_patterns(4, 2)
    wid = (1, 2, 3, 4)
    for d in pats:
        assert leq_seq(wid, perm_from_olp(d), 2)
    # the longest element of the quotient is the unique maximum
    top = (4, 3, 1, 2)
    for d in pats:
        assert leq_seq(perm_from_olp(d), top, 2)
    # an incomparable pair
    a, b = (1, 3, 2, 4), (2, 4, 1, 3)
    assert not leq_seq(a, b, 2) or not leq_seq(b, a, 2)


def _is_elementary_move(dp, d):
    """dp arises from d by transposing two vertex labels (an arrow flip
    a -> b to b -> a is the case of the transposition (a, b))."""
    for a in range(1, d.n + 1):
        for b in range(a + 1, d.n + 1):
            swap = {a: b, b: a}
            image = {(swap.get(s, s), swap.get(t, t)) for s, t in d.arrows}
            if image == set(dp.arrows):
                return True
    return False


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2), (5, 1)])
def test_cover_edges_are_elementary_moves(n, r):
    pats = all_patterns(n, r)
    rel = [[leq_D(a, b) for b in pats] for a in pats]
    for i, d in enumerate(pats):
        for j in covers_naive(pats, rel, i):
            dp = pats[j]
            assert _is_elementary_move(dp, d)
            assert orbit_dimension(d) - orbit_dimension(dp) == 1


@pytest.mark.parametrize("n,r", [(4, 2), (5, 2), (6, 2), (6, 3)])
def test_orbit_dimension(n, r):
    datum = type_a_datum(n, r)
    base = orbit_dimension(olp_from_perm(tuple(range(1, n + 1)), r))
    dims = []
    for node in datum.quotient_elements():
        d = olp_from_perm(to_line_notation(node.rep), r)
        dim = orbit_dimension(d)
        dims.append(dim)
        assert dim - base == node.length()
    assert max(dims) == 2 * r * (n - r)


def test_orbit_pair_params():
    rows = orbit_pair_params(4, 2)
    assert len(rows) == 12
    dims = sorted(dim for _, _, dim in rows)
    assert dims[0] == 1 and dims[-1] == 6
    # counts agree with the pattern count, and exactly one orbit is dense
    for n in range(1, 7):
        for r in range(n // 2 + 1):
            params = orbit_pair_params(n, r)
            assert len(params) == count_patterns(n, r)
            full = n * (n - 1) // 2
            assert all(dim <= full for _, _, dim in params)
            if r >= 1:
                assert sum(1 for _, _, dim in params if dim == full) == 1
    # r = 0 is the single zero orbit
    assert orbit_pair_params(3, 0) == [(((1, 2, 3), (1, 2, 3)), (1, 2, 3), 3)]


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 9) for r in range(1, n // 2 + 1)])
def test_orbit_pair_params_equals_the_decomposition_oracle(n, r):
    assert orbit_pair_params(n, r) == orbit_pair_params_by_decomposition(n, r)


@pytest.mark.parametrize("n", range(1, 9))
def test_z_orbit_dimension_is_the_length_plus_the_offset(n):
    # the orbits command reads the length column l(w), the inversions of the
    # row's line notation, off the Z-orbit dimension
    for r in range(n // 2 + 1):
        offset = z_orbit_offset(n, r)
        assert offset == r * (r - 1) // 2 + (n - 2 * r) * (n - 2 * r - 1) // 2
        for _, line, dim in orbit_pair_params(n, r):
            assert dim - offset == sum(a > b for a, b in combinations(line, 2)), (n, r, line)


def test_orbit_pair_params_reads_line_notation_only(monkeypatch):
    """The rows come from the line notation of each quotient element: no
    parabolic factorization and no reduced word is computed."""

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(weyl, "parabolic_decompose", refuse)
    monkeypatch.setattr(weyl.WeylElement, "reduced_word", refuse)
    for n, r in [(4, 2), (6, 2), (7, 3)]:
        assert len(orbit_pair_params(n, r)) == count_patterns(n, r)
    imported = [
        alias.name
        for node in ast.walk(ast.parse(inspect.getsource(linkpatterns)))
        if isinstance(node, ast.ImportFrom) and node.module == "weyl"
        for alias in node.names
    ]
    assert imported == ["to_line_notation"]


def test_an_arrow_too_many_shares_a_vertex():
    """More than n/2 arrows cannot all have distinct endpoints, so the
    per-vertex check refuses every such set."""
    for n in range(2, 6):
        arrows = [(s, t) for s in range(1, n + 1) for t in range(1, n + 1) if s != t]
        for chosen in combinations(arrows, n // 2 + 1):
            with pytest.raises(ValueError, match=r"^vertex \d+ touches more than one arrow$"):
                olp(n, chosen)


def test_pattern_and_permutation_size_errors():
    with pytest.raises(ValueError, match="^patterns on different vertex sets$"):
        leq_D(olp(4, [(1, 2)]), olp(5, [(1, 2)]))
    with pytest.raises(ValueError, match="^patterns on different vertex sets$"):
        leq_rank(olp(4, [(1, 2)]), olp(5, [(1, 2)]))
    with pytest.raises(ValueError, match="^permutations of different sizes$"):
        leq_seq((1, 2, 3, 4), (1, 2, 3, 4, 5), 1)
    with pytest.raises(ValueError, match=r"^input is not a permutation of 1\.\.n$"):
        olp_from_perm((1, 1, 2, 3), 1)
    for n in (2, 5):
        with pytest.raises(ValueError, match="^need 1 <= 2r <= n$"):
            type_a_datum(n, 0)


def test_q_table_shape():
    d = olp(5, [(2, 4)])
    table = q_table(d)
    assert len(table) == 6 and all(len(row) == 5 for row in table)
