"""Type-A oriented link patterns and the closure criteria on square-zero orbits.

A pattern on {1..n} is a set of arrows, each vertex touching at most one
arrow. Pattern d_w for w in S_n has arrows (w(n-r+i), w(i)); its matrix M_d
sends eps_i to eps_j when there is an arrow i -> j. The flag convention is
V_j = span(eps_1..eps_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import FrozenSet, List, Sequence, Tuple

from .roots import build_root_system
from .quotient import IJKDatum
from .weyl import to_line_notation

Arrow = Tuple[int, int]


@dataclass(frozen=True)
class OrientedLinkPattern:
    n: int
    arrows: FrozenSet[Arrow]

    def __post_init__(self) -> None:
        touched = set()
        for s, t in self.arrows:
            if s == t:
                raise ValueError("arrow endpoints must differ")
            for v in (s, t):
                if not 1 <= v <= self.n:
                    raise ValueError(f"vertex {v} out of range")
                if v in touched:
                    raise ValueError(f"vertex {v} touches more than one arrow")
                touched.add(v)
        if 2 * len(self.arrows) > self.n:
            raise ValueError("too many arrows")

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
    if 2 * r > n:
        raise ValueError("2r must not exceed n")
    return olp(n, [(w[n - r + i], w[i]) for i in range(r)])


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
    if olp_from_perm(w, r) != d:
        raise AssertionError("pattern does not round-trip through its permutation")
    return tuple(w)


def all_patterns(n: int, r: int) -> List[OrientedLinkPattern]:
    """All of D_{n,r}, ordered by sorted arrow list."""
    out = []
    for verts in combinations(range(1, n + 1), 2 * r):
        for sources in combinations(verts, r):
            rest = [v for v in verts if v not in sources]
            for targets in permutations(rest):
                out.append(olp(n, list(zip(sources, targets))))
    return sorted(set(out), key=lambda d: d.sorted_arrows())


def count_patterns(n: int, r: int) -> int:
    """|D_{n,r}| = n! / (r! (n-2r)!)."""
    if 2 * r > n:
        raise ValueError("2r must not exceed n")
    return math.factorial(n) // (math.factorial(r) * math.factorial(n - 2 * r))


def matrix_from_olp(d: OrientedLinkPattern) -> Tuple[Tuple[int, ...], ...]:
    """M_d with M_d(eps_i) = eps_j for each arrow i -> j; squares to zero."""
    m = [[0] * d.n for _ in range(d.n)]
    for s, t in d.arrows:
        m[t - 1][s - 1] = 1
    mat = tuple(tuple(row) for row in m)
    if not _is_square_zero(mat):
        raise AssertionError("pattern matrix does not square to zero")
    return mat


def _is_square_zero(m: Tuple[Tuple[int, ...], ...]) -> bool:
    n = len(m)
    return all(
        sum(m[i][k] * m[k][j] for k in range(n)) == 0
        for i in range(n)
        for j in range(n)
    )


# -- statistics ----------------------------------------------------------


def p_stat(d: OrientedLinkPattern, k: int) -> int:
    """p_k: free vertices <= k plus arrow targets <= k."""
    if not 0 <= k <= d.n:
        raise IndexError("index out of range")
    touched = {v for a in d.arrows for v in a}
    targets = {t for _, t in d.arrows}
    free = sum(1 for v in range(1, k + 1) if v not in touched)
    return free + sum(1 for t in targets if t <= k)


def q_stat(d: OrientedLinkPattern, k: int, ell: int) -> int:
    """q_{k,ell} = p_ell + #{arrows with source <= ell and target <= k}."""
    if not (0 <= k <= d.n and 1 <= ell <= d.n):
        raise IndexError("index out of range")
    return p_stat(d, ell) + sum(1 for s, t in d.arrows if s <= ell and t <= k)


def q_stat_linear_algebra(d: OrientedLinkPattern, k: int, ell: int) -> int:
    """The same statistic as dim(V_ell ^ ker M) + dim(M V_ell ^ V_k)."""
    sources = {s for s, _ in d.arrows}
    ker_dim = sum(1 for v in range(1, ell + 1) if v not in sources)
    img_dim = sum(1 for s, t in d.arrows if s <= ell and t <= k)
    return ker_dim + img_dim


@lru_cache(maxsize=None)
def q_table(d: OrientedLinkPattern) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(q_stat(d, k, ell) for ell in range(1, d.n + 1)) for k in range(d.n + 1)
    )


def leq_D(dp: OrientedLinkPattern, d: OrientedLinkPattern) -> bool:
    """d' <=_D d iff q^d <= q^{d'} entrywise."""
    if dp.n != d.n:
        raise ValueError("patterns on different vertex sets")
    qd, qdp = q_table(d), q_table(dp)
    return all(
        qd[k][ell] <= qdp[k][ell] for k in range(d.n + 1) for ell in range(d.n)
    )


def rank_stat(i: int, j: int, y: Sequence[Sequence[int]]) -> int:
    """r(i,j,y) = dim(y(V_i) + V_j), exact rank over the rationals."""
    n = len(y)
    cols = [[Fraction(y[row][col]) for row in range(n)] for col in range(i)]
    cols += [
        [Fraction(1 if row == col else 0) for row in range(n)] for col in range(j)
    ]
    return _rank(cols)


def _rank(cols: List[List[Fraction]]) -> int:
    if not cols:
        return 0
    n = len(cols[0])
    mat = [list(col) for col in cols]
    rank = 0
    for piv_row in range(n):
        piv = next((c for c in range(rank, len(mat)) if mat[c][piv_row] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        base = mat[rank]
        f0 = base[piv_row]
        for c in range(rank + 1, len(mat)):
            if mat[c][piv_row] != 0:
                f = mat[c][piv_row] / f0
                mat[c] = [x - f * y_ for x, y_ in zip(mat[c], base)]
        rank += 1
    return rank


@lru_cache(maxsize=None)
def rank_table(d: OrientedLinkPattern) -> Tuple[Tuple[int, ...], ...]:
    y = matrix_from_olp(d)
    return tuple(
        tuple(rank_stat(i, j, y) for j in range(d.n + 1)) for i in range(1, d.n + 1)
    )


def leq_rank(dp: OrientedLinkPattern, d: OrientedLinkPattern) -> bool:
    """d' <=_D d via the rank criterion r(i,j,.) entrywise."""
    if dp.n != d.n:
        raise ValueError("patterns on different vertex sets")
    return all(
        a <= b for rp, rq in zip(rank_table(dp), rank_table(d)) for a, b in zip(rp, rq)
    )


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
    n = len(w)
    sp, s = seq_S(wp, r), seq_S(w, r)
    for i in range(1, n + 1):
        head_p = [x for x in sp[:i] if x]
        head = [x for x in s[:i] if x]
        for j in range(n + 1):
            if sum(1 for x in head_p if x > j) > sum(1 for x in head if x > j):
                return False
    return True


# -- orbit dimensions -------------------------------------------------------


def orbit_dimension(d: OrientedLinkPattern) -> int:
    """dim of the Borel orbit of M_d: dim b minus the dimension of the
    centralizer of M_d in the upper-triangular matrices."""
    n = d.n
    m = matrix_from_olp(d)
    # unknowns: x[i][j] for i <= j; constraints: (x m - m x)[a][b] = 0
    vars_ = [(i, j) for i in range(n) for j in range(i, n)]
    var_index = {v: c for c, v in enumerate(vars_)}
    rows: List[List[Fraction]] = []
    for a in range(n):
        for b in range(n):
            row = [Fraction(0)] * len(vars_)
            # sum_k x[a][k] m[k][b] - m[a][k] x[k][b]
            for k in range(a, n):
                if m[k][b]:
                    row[var_index[(a, k)]] += m[k][b]
            for k in range(n):
                if m[a][k] and k <= b:
                    row[var_index[(k, b)]] -= m[a][k]
            if any(row):
                rows.append(row)
    constraint_rank = _rank([list(col) for col in zip(*rows)]) if rows else 0
    centralizer_dim = len(vars_) - constraint_rank
    return n * (n + 1) // 2 - centralizer_dim


def type_a_datum(n: int, r: int) -> IJKDatum:
    """The (I,J,K) datum of S_n whose quotient indexes D_{n,r}."""
    if r < 1 or 2 * r > n:
        raise ValueError("need 1 <= 2r <= n")
    system = build_root_system("A", n - 1)
    I = list(range(1, r))
    J = list(range(n - r + 1, n))
    K = list(range(r + 1, n - r))
    star = {i: n - r + i for i in I}
    return IJKDatum(system, I, J, K, star)


def orbit_pair_params(
    n: int, r: int
) -> List[Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], Tuple[int, ...], int]]:
    """Orbit parameters ((w1^-1, w2^-1), w, dim) for every w in W(I,J,K).

    The dimension is l(w1) + l(w2) + r(r-1)/2 + (n-2r)(n-2r-1)/2.
    """
    if 2 * r > n:
        raise ValueError("2r must not exceed n")
    datum = type_a_datum(n, r) if r else None
    base = r * (r - 1) // 2 + (n - 2 * r) * (n - 2 * r - 1) // 2
    out = []
    if datum is None:
        # r = 0: the quotient is all of S_n? no: W(I,J,K) with I=J=empty,
        # K = {1..n-1}: a single coset; emit the identity row.
        line = tuple(range(1, n + 1))
        return [((line, line), line, base)]
    for node in datum.quotient_elements():
        w1, w2 = node.w1, node.w2
        dim = w1.length() + w2.length() + base
        out.append(
            (
                (to_line_notation(w1.inv()), to_line_notation(w2.inv())),
                to_line_notation(node.rep),
                dim,
            )
        )
    return out
