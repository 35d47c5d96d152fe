"""Independent brute-force oracles used by the tests."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from weylorbits.linkpatterns import OrientedLinkPattern, matrix_from_olp
from weylorbits.nilpotent import OrthogonalSet
from weylorbits.quotient import IJKDatum, QuotientElement
from weylorbits.roots import Coords, Coweight, RootSystem
from weylorbits.weyl import WeylElement, from_word, identity, reflection

# every supported (family, rank) of rank at most 8
ALL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


def positive_definite(m: Sequence[Sequence[int]]) -> bool:
    """A symmetric matrix is positive definite iff every pivot of Gaussian
    elimination without row exchanges is positive (the pivots are the ratios
    of consecutive leading principal minors)."""
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    for k in range(n):
        if work[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= f * work[k][j]
    return True


def action_matrix(w: WeylElement) -> Tuple[Coords, ...]:
    """Matrix of w on the root lattice; column j is w(alpha_j). Keys sets of
    elements independently of the coweight key."""
    rs = w.system
    return tuple(zip(*(w.apply(rs.simple_root(j + 1)) for j in range(rs.rank))))


def involution_element(oset: OrthogonalSet) -> WeylElement:
    """w = s_{theta_1} ... s_{theta_r} as a group element; on the span's
    orthogonal complement it acts trivially, so the order of the factors
    does not matter."""
    w = identity(oset.system)
    for t in oset.thetas:
        w = w * reflection(oset.system, t)
    return w


def bruhat_leq_subword(u: WeylElement, w: WeylElement) -> bool:
    """Subword characterization: u <= w iff some subsequence of a reduced
    word of w multiplies to u."""
    word = w.reduced_word()
    lu = u.length()
    system = u.system
    for k in range(lu, len(word) + 1):
        for idx in combinations(range(len(word)), k):
            if from_word(system, [word[i] for i in idx]) == u:
                return True
    return False


def tableau_leq(u: Sequence[int], w: Sequence[int]) -> bool:
    """Tableau criterion for the strong Bruhat order on permutations."""
    n = len(u)
    for k in range(1, n):
        us = sorted(u[:k])
        ws = sorted(w[:k])
        if any(a > b for a, b in zip(us, ws)):
            return False
    return True


def leq_O_full_coset(wp: QuotientElement, w: QuotientElement) -> bool:
    """Definitional scan: some member of the full coset [w'] is below w."""
    datum = w.datum
    return any(
        datum.group.bruhat_leq(u, w.rep) for u in datum.coset(wp.rep)
    )


def canonical_rep_by_scan(datum: IJKDatum, w: WeylElement) -> List[WeylElement]:
    """The members of the full coset [w] with no right descent in J u K;
    a transversal has exactly one."""
    jk = set(datum.J + datum.K)
    return [u for u in datum.coset(w) if not jk & set(u.right_descents())]


def covers_naive(
    nodes: List[QuotientElement], leq: List[List[bool]], i: int
) -> List[int]:
    """Cover indices below node i from the full relation matrix."""
    below = [j for j in range(len(nodes)) if j != i and leq[j][i]]
    return [
        j
        for j in below
        if not any(k != j and leq[j][k] and leq[k][i] for k in below)
    ]


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


def stabilizer_dimension(partition: Sequence[int]) -> int:
    """dim of the gl_n centralizer of a nilpotent with the given Jordan type:
    the sum of squares of the conjugate partition."""
    if not partition:
        return 0
    conj = [sum(1 for p in partition if p > i) for i in range(max(partition))]
    return sum(c * c for c in conj)


def _rational_rank(cols: List[List[Fraction]]) -> int:
    """Rank of a list of column vectors by Fraction Gaussian elimination."""
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


def rational_rank_stat(i: int, j: int, y: Sequence[Sequence[int]]) -> int:
    """r(i,j,y) = dim(y(V_i) + V_j) as the rank of the columns y(eps_1..eps_i)
    and eps_1..eps_j, for any square matrix y."""
    n = len(y)
    cols = [[Fraction(y[row][col]) for row in range(n)] for col in range(i)]
    cols += [
        [Fraction(1 if row == col else 0) for row in range(n)] for col in range(j)
    ]
    return _rational_rank(cols)


def centralizer_orbit_dimension(d: OrientedLinkPattern) -> int:
    """dim b minus the rank-nullity dimension of the upper-triangular
    centralizer of M_d, from the full constraint matrix of x M - M x = 0."""
    n = d.n
    m = matrix_from_olp(d)
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
    constraint_rank = _rational_rank([list(col) for col in zip(*rows)]) if rows else 0
    centralizer_dim = len(vars_) - constraint_rank
    return n * (n + 1) // 2 - centralizer_dim


def projection_span_membership(
    system: RootSystem, roots: Sequence[Coords], gamma: Coords
) -> Optional[Tuple[Fraction, ...]]:
    """gamma = sum q_i beta_i for pairwise orthogonal beta_i, with the
    Fraction projections q_i = (gamma, beta_i)/(beta_i, beta_i); None when
    the projections do not reconstruct gamma."""
    coeffs = tuple(Fraction(system.form(gamma, b), system.form(b, b)) for b in roots)
    recon = [sum(q * b[j] for q, b in zip(coeffs, roots)) for j in range(system.rank)]
    return coeffs if recon == list(gamma) else None


def reduce_b2long_by_restart(oset: OrthogonalSet) -> Tuple[Coords, ...]:
    """The B2-long reduction by restarts: delete the higher member of the
    first pair (in index order) whose sum or difference is a root, and start
    over until no such pair is left."""
    rs = oset.system
    thetas = list(oset.thetas)
    changed = True
    while changed:
        changed = False
        for i in range(len(thetas)):
            for j in range(i + 1, len(thetas)):
                s = tuple(x + y for x, y in zip(thetas[i], thetas[j]))
                diff = tuple(x - y for x, y in zip(thetas[i], thetas[j]))
                if rs.is_root(s) or rs.is_root(diff):
                    del thetas[j]
                    changed = True
                    break
            if changed:
                break
    return tuple(thetas)


def _solve_square(aug: List[List[Fraction]]) -> Optional[List[Fraction]]:
    """Solve a square augmented system by Gaussian elimination."""
    n = len(aug)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def coweight_to_coroot_basis(system: RootSystem, h: Coweight) -> Tuple[Fraction, ...]:
    """Coefficients c with h = sum c_j alpha_j^vee; solves A^T c = coords."""
    n = system.rank
    mat = [
        [Fraction(system.cartan[j][i]) for j in range(n)] + [Fraction(h.coords[i])]
        for i in range(n)
    ]
    sol = _solve_square(mat)
    if sol is None:
        raise ValueError("Cartan matrix is singular")
    return tuple(sol)


def coweight_from_coroot_basis(system: RootSystem, c: Sequence[Fraction]) -> Coweight:
    n = system.rank
    coords = []
    for i in range(n):
        v = sum(c[j] * system.cartan[j][i] for j in range(n))
        if v.denominator != 1:
            raise ValueError("not an integral coweight")
        coords.append(int(v))
    return Coweight(tuple(coords))
