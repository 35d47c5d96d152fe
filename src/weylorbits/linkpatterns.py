"""Type-A oriented link patterns and the closure criteria on square-zero orbits.

A pattern on {1..n} is a set of arrows, each vertex touching at most one
arrow. Pattern d_w for w in S_n has arrows (w(n-r+i), w(i)); its matrix M_d
sends eps_i to eps_j when there is an arrow i -> j. The flag convention is
V_j = span(eps_1..eps_j).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain, combinations, permutations
from operator import le
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .roots import build_root_system
from .quotient import IJKDatum
from .weyl import to_line_notation

Arrow = Tuple[int, int]


class OrientedLinkPattern:
    __slots__ = ("n", "arrows")

    def __init__(self, n: int, arrows: FrozenSet[Arrow]):
        self.n = n
        self.arrows = arrows
        touched = set()
        for s, t in arrows:
            if s == t:
                raise ValueError("arrow endpoints must differ")
            for v in (s, t):
                if not 1 <= v <= n:
                    raise ValueError(f"vertex {v} out of range")
                if v in touched:
                    raise ValueError(f"vertex {v} touches more than one arrow")
                touched.add(v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OrientedLinkPattern) and (self.n, self.arrows) == (other.n, other.arrows)

    def __hash__(self) -> int:
        return hash((self.n, self.arrows))

    @property
    def r(self) -> int:
        return len(self.arrows)

    def sorted_arrows(self) -> List[Arrow]:
        return sorted(self.arrows)


def olp(n: int, arrows: Sequence[Arrow]) -> OrientedLinkPattern:
    return OrientedLinkPattern(n, frozenset(tuple(a) for a in arrows))


def olp_from_perm(w: Sequence[int], r: int) -> OrientedLinkPattern:
    """d_w with arrows (w(n-r+i), w(i)) for 1 <= i <= r."""
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError("input is not a permutation of 1..n")
    _check_r(n, r)
    return olp(n, [(w[n - r + i], w[i]) for i in range(r)])


def _check_r(n: int, r: int) -> None:
    if not 0 <= 2 * r <= n:
        raise ValueError("need 0 <= 2r <= n")


def perm_from_olp(d: OrientedLinkPattern) -> Tuple[int, ...]:
    """The unique w in W(I,J,K) with d_w = d.

    Sources go to positions n-r+1..n in ascending order, their targets to
    positions 1..r in the paired order, the untouched vertices fill the middle
    ascending.
    """
    n, r = d.n, d.r
    pairs = sorted(d.arrows)  # ascending by source
    sources = [s for s, _ in pairs]
    targets = [t for _, t in pairs]
    used = set(sources) | set(targets)
    middle = [v for v in range(1, n + 1) if v not in used]
    w = targets + middle + sources
    if frozenset(zip(w[n - r :], w[:r])) != d.arrows:  # the arrows of d_w
        raise AssertionError("pattern does not round-trip through its permutation")
    return tuple(w)


def all_patterns(n: int, r: int) -> List[OrientedLinkPattern]:
    """All of D_{n,r}, each made once, ordered by sorted arrow list."""
    out = []
    for verts in combinations(range(1, n + 1), 2 * r):
        for sources in combinations(verts, r):
            rest = [v for v in verts if v not in sources]
            for targets in permutations(rest):
                out.append(olp(n, list(zip(sources, targets))))
    return sorted(out, key=lambda d: d.sorted_arrows())


def count_patterns(n: int, r: int) -> int:
    """|D_{n,r}| = n! / (r! (n-2r)!)."""
    _check_r(n, r)
    return math.factorial(n) // (math.factorial(r) * math.factorial(n - 2 * r))


def _pattern_rows(d: OrientedLinkPattern) -> Tuple[int, ...]:
    """The row of the 1 in each column of M_d, 0 for a zero column: column s
    holds its 1 in row t for each arrow s -> t. Raises unless M_d squares to
    zero."""
    rows = [0] * d.n
    for s, t in d.arrows:
        rows[s - 1] = t
    # M^2 eps_c = M eps_row(c): M^2 = 0 iff column row(c) is zero for each nonzero column c
    if any(rows[row - 1] for row in rows if row):
        raise AssertionError("pattern matrix does not square to zero")
    return tuple(rows)


def matrix_from_olp(d: OrientedLinkPattern) -> Tuple[Tuple[int, ...], ...]:
    """M_d with M_d(eps_i) = eps_j for each arrow i -> j; squares to zero."""
    m = [[0] * d.n for _ in range(d.n)]
    for c, row in enumerate(_pattern_rows(d)):
        if row:
            m[row - 1][c] = 1
    return tuple(tuple(row) for row in m)


# -- statistics ----------------------------------------------------------


@lru_cache(maxsize=None)
def q_table(d: OrientedLinkPattern) -> Tuple[Tuple[int, ...], ...]:
    """Rows k = 0..n of q_{k,ell}, ell = 1..n, from prefix counts: row 0 is
    p_ell, the vertices <= ell that are not sources, and row k adds the arrow
    with target k, if any, to every ell from its source on."""
    source_of = {t: s for s, t in d.arrows}
    sources = set(source_of.values())
    row = list(accumulate(int(v not in sources) for v in range(1, d.n + 1)))
    table = [tuple(row)]
    for k in range(1, d.n + 1):
        for ell in range(source_of.get(k, d.n + 1) - 1, d.n):
            row[ell] += 1
        table.append(tuple(row))
    return tuple(table)


def leq_D(dp: OrientedLinkPattern, d: OrientedLinkPattern) -> bool:
    """d' <=_D d iff q^d <= q^{d'} entrywise."""
    if dp.n != d.n:
        raise ValueError("patterns on different vertex sets")
    return _dominated(q_table(d), q_table(dp))


def _dominated(low: Sequence[Sequence[int]], high: Sequence[Sequence[int]]) -> bool:
    """low <= high entrywise, for tables of one shape, in one C-level pass."""
    return all(map(le, chain.from_iterable(low), chain.from_iterable(high)))


def _truncation_rows(s: Sequence[int], first: Sequence[int]) -> List[Tuple[int, ...]]:
    """Rows i = 0..n of first[j] + #{x in s[:i] : x > j}, j = 0..n: row i
    adds 1 to the entries j < s[i-1] of row i - 1 (none for x = 0), so the
    table costs O(n^2)."""
    row = list(first)
    out = [tuple(row)]
    for x in s:
        for j in range(x):
            row[j] += 1
        out.append(tuple(row))
    return out


@lru_cache(maxsize=None)
def rank_table(d: OrientedLinkPattern) -> Tuple[Tuple[int, ...], ...]:
    """Rows i = 1..n of r(i,j,M_d) = dim(M_d(V_i) + V_j), j = 0..n. Distinct
    columns of M_d have distinct rows, so M_d(V_i) + V_j is V_j plus one new
    eps_row for each column c <= i whose 1 lies in a row > j."""
    return tuple(_truncation_rows(_pattern_rows(d), range(d.n + 1))[1:])


def leq_rank(dp: OrientedLinkPattern, d: OrientedLinkPattern) -> bool:
    """d' <=_D d via the rank criterion r(i,j,.) entrywise."""
    if dp.n != d.n:
        raise ValueError("patterns on different vertex sets")
    return _dominated(rank_table(dp), rank_table(d))


# -- sequences S_w ---------------------------------------------------------


def seq_S(w: Sequence[int], r: int) -> Tuple[int, ...]:
    """S_w: entry w(i) is w(i-(n-r)) for n-r < i <= n, zero elsewhere."""
    n = len(w)
    _check_in_quotient(w, r)
    seq = [0] * n
    for i in range(n - r + 1, n + 1):
        seq[w[i - 1] - 1] = w[i - (n - r) - 1]
    return tuple(seq)


def _check_in_quotient(w: Sequence[int], r: int) -> None:
    n = len(w)
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError("input is not a permutation of 1..n")
    _check_r(n, r)
    mid = list(w[r : n - r])
    tail = list(w[n - r :])
    if mid != sorted(mid) or tail != sorted(tail):
        raise ValueError("permutation is not in W(I,J,K)")


def leq_seq(wp: Sequence[int], w: Sequence[int], r: int) -> bool:
    """Truncation criterion on the sequences S_w.

    For every i, the nonzero entries of the first i positions of S_{w'} must
    not dominate those of S_w above any threshold j.
    """
    if len(wp) != len(w):
        raise ValueError("permutations of different sizes")
    zeros = [0] * (len(w) + 1)
    return _dominated(_truncation_rows(seq_S(wp, r), zeros), _truncation_rows(seq_S(w, r), zeros))


# -- orbit dimensions -------------------------------------------------------


def orbit_dimension(d: OrientedLinkPattern) -> int:
    """dim of the Borel orbit of M_d: dim b minus the dimension of the
    centralizer of M_d in the upper-triangular matrices.

    M_d is a partial permutation matrix, so each equation (x M - M x)[a][b] = 0
    on the unknowns x[i][j], i <= j, reads x_u = x_v or x_u = 0. The classes
    of unknowns joined by x_u = x_v have at most two members, and the free
    ones are: x[i][j] for i <= j with i not a source and j not a target, and
    x[s][s'] = x[t][t'] for arrows s -> t, s' -> t' with s <= s', t <= t'.
    """
    n = d.n
    arrows = [(s, t) for s, t in enumerate(_pattern_rows(d), 1) if t]
    sources, targets = {s for s, _ in arrows}, {t for _, t in arrows}
    free = sum(
        1 for i in range(1, n + 1) if i not in sources for j in range(i, n + 1) if j not in targets
    )
    pairs = sum(1 for s, t in arrows for s2, t2 in arrows if s <= s2 and t <= t2)
    return n * (n + 1) // 2 - free - pairs


def type_a_parts(n: int, r: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Dict[int, int]]:
    """I, J, K and the star map of the S_n datum whose quotient indexes
    D_{n,r}; for r = 0, I = J = {} and K = {1..n-1}. Builds no datum."""
    _check_r(n, r)
    I = tuple(range(1, r))
    return I, tuple(range(n - r + 1, n)), tuple(range(r + 1, n - r)), {i: n - r + i for i in I}


def type_a_datum(n: int, r: int) -> IJKDatum:
    """The (I,J,K) datum of S_n whose quotient indexes D_{n,r}."""
    if r < 1 or 2 * r > n:
        raise ValueError("need 1 <= 2r <= n")
    return IJKDatum(build_root_system("A", n - 1), *type_a_parts(n, r))


def _inverse_line(line: Tuple[int, ...]) -> Tuple[int, ...]:
    """Line notation of w^{-1} from that of w: the positions i ordered by w(i)."""
    return tuple(sorted(range(1, len(line) + 1), key=lambda i: line[i - 1]))


def z_orbit_offset(n: int, r: int) -> int:
    """r(r-1)/2 + (n-2r)(n-2r-1)/2: the dimension of the Z-orbit of w minus l(w)."""
    return r * (r - 1) // 2 + (n - 2 * r) * (n - 2 * r - 1) // 2


def orbit_pair_params(
    n: int, r: int
) -> List[Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...], int]]:
    """Orbit parameters ((w1^-1, w2^-1), w, dim) for every w in W(I,J,K).

    The dimension is l(w) + z_orbit_offset(n, r), and l(w) = l(w1) + l(w2).
    """
    _check_r(n, r)
    base = z_orbit_offset(n, r)
    if r == 0:
        # I = J = {} and K = {1..n-1}: a single coset, the identity row
        line = tuple(range(1, n + 1))
        return [((line, line), line, base)]
    out = []
    for node in type_a_datum(n, r).quotient_elements():
        # w = w1 w2, w2 in W_I = S_r on positions 1..r: the J and K blocks of
        # w increase (no right descent in J u K), so w1 is w with its first r
        # entries sorted, and w2^-1 lists those r positions by their values
        line = to_line_notation(node.rep)
        w1 = tuple(sorted(line[:r])) + line[r:]
        w2inv = _inverse_line(line[:r]) + tuple(range(r + 1, n + 1))
        out.append(((_inverse_line(w1), w2inv), line, node.length() + base))  # l(w) = l(w1) + l(w2)
    return out
