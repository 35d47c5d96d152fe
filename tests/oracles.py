"""Independent brute-force oracles used by the tests."""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import add, mul
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

from weylorbits.linkpatterns import (
    OrientedLinkPattern,
    _inverse_line,
    _truncation_rows,
    matrix_from_olp,
    q_table,
    rank_table,
    seq_S,
    type_a_parts,
)
from weylorbits.nilpotent import (
    CascadeNode,
    CaseLabel,
    OrthogonalSet,
    _case_supports,
    _components,
    _subdiagram_type,
    reduce_b2long,
)
from weylorbits.quotient import IJKDatum, QuotientElement
from weylorbits.roots import Coords, Coweight, RootSystem, build_root_system, cartan_matrix, degrees, symmetrizer
from weylorbits.weyl import (
    WeylElement,
    WeylGroup,
    from_word,
    identity,
    parabolic_decompose,
    parabolic_elements,
    reflection,
    shorter_reflections,
    simple_indices,
    to_line_notation,
)

# every supported (family, rank) of rank at most 8
ALL_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)

# every supported (family, rank) of rank at most 12
SYSTEMS_TO_12 = (
    [("A", n) for n in range(1, 13)]
    + [(f, n) for f in "BC" for n in range(2, 13)]
    + [("D", n) for n in range(3, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

# A3, D4, B3, C3, B2 and G2: they share the norm 2 (every root of A3 and D4,
# the short roots of the others) but have long norms 2, 4 and 6
LABEL_SYSTEMS = [("A", 3), ("D", 4), ("B", 3), ("C", 3), ("B", 2), ("G", 2)]


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


# -- the quotient through the enumerated group -------------------------------


def min_coset_reps(group: WeylGroup, L: Sequence[int]) -> List[WeylElement]:
    """Minimal-length representatives W^L, in enumeration order: the elements
    with no right descent in L (IndexError for an index outside 1..rank)."""
    gens = simple_indices(group.system.rank, L)
    return [w for w in group.elements if all(w.x[i] > 0 for i in gens)]


def quotient_elements_by_group(datum: IJKDatum) -> List[WeylElement]:
    """W^{J u K} filtered from the whole group, by (length, reduced word)."""
    lengths = datum.group.lengths
    reps = min_coset_reps(datum.group, datum.J + datum.K)
    return sorted(reps, key=lambda w: (lengths[w.x], w.reduced_word()))


def covers_O_below_by_group(w: QuotientElement) -> List[WeylElement]:
    """The representatives covered by w: the Bruhat covers of w.rep in the
    whole group (the w s_beta one shorter than w, by the group's length
    table) that are as short as the representative of their coset."""
    datum, lengths = w.datum, w.datum.group.lengths
    target = lengths[w.rep.x] - 1
    out: List[WeylElement] = []
    for x in shorter_reflections(datum.system, w.rep.x):
        if lengths[x] == target:
            rep = datum.canonical_rep(WeylElement(datum.system, x)).rep
            if lengths[rep.x] == target and rep not in out:
                out.append(rep)
    return out


def min_set_by_group(w: QuotientElement) -> List[WeylElement]:
    """Min(w) = {w x x* : x in W_I} at the length of w, with the lengths
    of the whole group, in the order of W_I."""
    datum, lengths = w.datum, w.datum.group.lengths
    w_i = parabolic_elements(datum.system, datum.I)
    products = (w.rep * x * datum.star_extend(x) for x in w_i)
    return [u for u in products if lengths[u.x] == lengths[w.rep.x]]


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


def _column_rows(y: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The row (1-based) of the 1 in each column of y, 0 for a zero column;
    ValueError unless y is a square 0/1 matrix with at most one 1 in each row
    and each column."""
    n = len(y)
    rows = [0] * n
    for a, line in enumerate(y, 1):
        ones = [c for c, v in enumerate(line) if v]
        if len(line) != n or len(ones) > 1 or any(line[c] != 1 or rows[c] for c in ones):
            raise ValueError("not a partial permutation matrix")
        for c in ones:
            rows[c] = a
    return tuple(rows)


def rank_stat(i: int, j: int, y: Sequence[Sequence[int]]) -> int:
    """r(i,j,y) = dim(y(V_i) + V_j) for a partial permutation matrix y:
    y(V_i) + V_j is V_j plus one new eps_row for each column c <= i whose 1
    lies in a row > j, counted by the truncation rows of the column rows."""
    if not (0 <= i <= len(y) and 0 <= j <= len(y)):
        raise IndexError("index out of range")
    return _truncation_rows(_column_rows(y), range(len(y) + 1))[i][j]


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
    # den * gamma == sum (den q_i) beta_i, coordinate by coordinate, in integers
    den = math.lcm(*(q.denominator for q in coeffs))
    scaled = [(q.numerator * (den // q.denominator), b) for q, b in zip(coeffs, roots)]
    in_span = all(sum(c * b[j] for c, b in scaled) == den * x for j, x in enumerate(gamma))
    return coeffs if in_span else None


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


# -- orthogonal sets up to W-conjugacy ----------------------------------------


def orthogonal_subsets(system: RootSystem, max_size: int) -> List[Tuple[Coords, ...]]:
    """All pairwise-orthogonal subsets of the positive roots, up to max_size,
    each in the order of system.positive_roots: every orthogonal set up to
    the signs of its roots."""
    pos = system.positive_roots
    out: List[Tuple[Coords, ...]] = []
    frontier: List[Tuple[Coords, ...]] = [()]
    while frontier:
        new = []
        for subset in frontier:
            start = pos.index(subset[-1]) + 1 if subset else 0
            for v in pos[start:]:
                if all(system.form(v, t) == 0 for t in subset):
                    new.append(subset + (v,))
        out.extend(new)
        frontier = [s for s in new if len(s) < max_size]
    return out


def random_orthogonal_set(rs: RootSystem, size: int, rng: random.Random) -> OrthogonalSet:
    """A random orthogonal set of the given size, grown one root at a time."""
    while True:
        thetas = []
        pool = list(rs.roots)
        while len(thetas) < size and pool:
            t = rng.choice(pool)
            thetas.append(t)
            bt = [sum(map(mul, row, t)) for row in rs.gram]  # (v, t) = v . B t
            pool = [v for v in pool if not sum(map(mul, v, bt))]
        if len(thetas) == size:
            return OrthogonalSet(rs, tuple(thetas))


def up_to_sign(v: Coords) -> Coords:
    """The positive one of the roots v and -v."""
    return v if max(v) > 0 else tuple(-x for x in v)


def _reflect_simple(v: Coords, i: int, c: int) -> Coords:
    """s_i(v) = v - c alpha_i for c = (A v)_i, 0-based i."""
    if not c:
        return v
    out = list(v)
    out[i] -= c
    return tuple(out)


def all_roots_closure(family: str, rank: int) -> Dict[Coords, int]:
    """Every root with its norm: the closure of the simple roots, negative
    roots included, under s_i(v) = v - (A v)_i alpha_i with (A v)_i summed
    over the whole Cartan row; a root keeps the norm 2 d_i of the simple
    root it came from."""
    cartan, symm = cartan_matrix(family, rank), symmetrizer(family, rank)
    norms = {tuple(int(j == i) for j in range(rank)): 2 * d for i, d in enumerate(symm)}
    frontier = list(norms)
    while frontier:
        new = []
        for v in frontier:
            for i in range(rank):
                w = _reflect_simple(v, i, sum(map(mul, cartan[i], v)))
                if w not in norms:
                    norms[w] = norms[v]
                    new.append(w)
        frontier = new
    return norms


class CanonicalForm:
    """W-conjugacy canonical form of orthogonal sets of one root system, up
    to the order and signs of their roots (s_theta negates theta and fixes
    the other members, so signs are free).

    Pick a member and a sign, move it to its J-dominant conjugate under the
    standard parabolic W_J ((A v)_i >= 0 for i in J, starting from every
    simple index), apply the same word to the other members, shrink J to the
    indices with (A v)_i == 0 and recurse on the rest. The stabilizer of a
    J-dominant vector in W_J is the standard parabolic of those indices
    (Humphreys, Reflection Groups and Coxeter Groups, 1.12), so every choice
    yields a W-invariant sequence; the form is the lexicographic minimum over
    all choices, memoized on (remaining roots up to sign, J).
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self._memo: Dict[Tuple[FrozenSet[Coords], Tuple[int, ...]], Tuple[Coords, ...]] = {}
        self._dominants: Dict[Tuple[Coords, Tuple[int, ...]], tuple] = {}
        self._images: Dict[Tuple[Coords, Coords, Tuple[int, ...]], Coords] = {}

    def __call__(self, thetas: Sequence[Coords]) -> Tuple[Coords, ...]:
        rest = frozenset(up_to_sign(tuple(t)) for t in thetas)
        return self._best(rest, tuple(range(self.system.rank)))

    def _dominant(self, v: Coords, J: Tuple[int, ...]) -> Tuple[Coords, List[int], Tuple[int, ...]]:
        """The J-dominant conjugate of v, the 0-based word that reaches it and
        the indices of J that fix it."""
        key = (v, J)
        found = self._dominants.get(key)
        if found is None:
            rs = self.system
            word = []
            while True:
                av = [sum(map(mul, row, v)) for row in rs.cartan]
                i = next((i for i in J if av[i] < 0), None)
                if i is None:
                    break
                v = _reflect_simple(v, i, av[i])
                word.append(i)
            found = self._dominants[key] = (v, word, tuple(i for i in J if av[i] == 0))
        return found

    def _image(self, u: Coords, start: Coords, J: Tuple[int, ...]) -> Coords:
        """u, up to sign, under the word that makes start J-dominant."""
        key = (u, start, J)
        found = self._images.get(key)
        if found is None:
            cartan = self.system.cartan
            for i in self._dominant(start, J)[1]:
                u = _reflect_simple(u, i, sum(map(mul, cartan[i], u)))
            found = self._images[key] = up_to_sign(u)
        return found

    def _best(self, rest: FrozenSet[Coords], J: Tuple[int, ...]) -> Tuple[Coords, ...]:
        if not rest:
            return ()
        key = (rest, J)
        found = self._memo.get(key)
        if found is None:
            choices = [
                (t, start) + self._dominant(start, J)
                for t in rest
                for start in (t, tuple(-x for x in t))
            ]
            # the minimum starts with the least dominant member: recurse on ties only
            first = min(c[2] for c in choices)
            for t, start, v, _, stab in choices:
                if v == first:
                    moved = frozenset(self._image(u, start, J) for u in rest if u != t)
                    cand = (v,) + self._best(moved, stab)
                    if found is None or cand < found:
                        found = cand
            self._memo[key] = found
        return found


def census(system: RootSystem, canonical: Optional[CanonicalForm] = None) -> List[List[Tuple[Coords, ...]]]:
    """One representative of every W-class of nonempty orthogonal sets,
    grouped by size: each representative of size k is extended by every
    positive root orthogonal to it, keeping one set per canonical form.
    Complete by induction, since every (k+1)-set contains a k-set conjugate
    to a representative."""
    canonical = canonical or CanonicalForm(system)
    levels: List[List[Tuple[Coords, ...]]] = []
    frontier: List[Tuple[Coords, ...]] = [()]
    while frontier:
        grown: Dict[Tuple[Coords, ...], Tuple[Coords, ...]] = {}
        for rep in frontier:
            for beta in system.positive_roots:
                if beta not in rep and all(system.form(beta, t) == 0 for t in rep):
                    grown.setdefault(canonical(rep + (beta,)), rep + (beta,))
        frontier = list(grown.values())
        if frontier:
            levels.append(frontier)
    return levels


# -- Poincare polynomials from the degrees ---------------------------------------


def poincare_polynomial(degs: Sequence[int]) -> List[int]:
    """Coefficients of W(q) = prod over the degrees d of 1 + q + ... + q^(d-1),
    the length generating function of a Weyl group with these degrees
    (Humphreys, Reflection Groups and Coxeter Groups, ch. 3)."""
    poly = [1]
    for d in degs:
        poly = [sum(poly[max(0, k - d + 1):k + 1]) for k in range(len(poly) + d - 1)]
    return poly


def parabolic_degrees(system: RootSystem, L: Sequence[int]) -> List[int]:
    """The degrees of the standard parabolic W_L: W_L is the product of the
    Weyl groups of the connected components of L."""
    out: List[int] = []
    for comp in _components(L, lambda i, j: system.cartan[i - 1][j - 1] != 0):
        name = _subdiagram_type(system, comp)
        out += degrees(name[0], int(name[1:]))
    return out


def quotient_rank_profile(system: RootSystem, L: Sequence[int]) -> Tuple[int, ...]:
    """Coefficients of W(q) / W_L(q), the length generating function of the
    minimal coset representatives W^L (Bjorner-Brenti, ch. 7)."""
    num = poincare_polynomial(degrees(system.family, system.rank))
    den = poincare_polynomial(parabolic_degrees(system, L))
    quotient = []
    for k in range(len(num) - len(den) + 1):  # den[0] == 1: divide from the bottom
        c = num[k]
        quotient.append(c)
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise ValueError("W_L(q) does not divide W(q)")
    return tuple(quotient)


# -- second routes for the classification decisions -----------------------------


# Multisets of pairs (<theta_i, (-beta)^vee>, <-beta, theta_i^vee>) for the
# affine diagrams of the seven cases, after sign normalization.
_DIAGRAM_SIGNATURES = {
    ("D4", 4): ((-1, -1), (-1, -1), (-1, -1), (-1, -1)),
    ("B3", 3): ((-1, -1), (-1, -1), (-1, -2)),
    ("C3", 3): ((-1, -1), (-1, -1), (-2, -1)),
    ("B2long", 2): ((-1, -2), (-1, -2)),
    ("B2short", 2): ((-2, -1), (-2, -1)),
    ("G2both:G", 2): ((-1, -1), (-1, -3)),
    ("G2both:D", 2): ((-1, -1), (-3, -1)),
    ("A1", 1): ((-2, -2),),
}


def _classify_by_diagram(
    rs: RootSystem, support: List[Tuple[Coords, Fraction]], beta: Coords
) -> str:
    minus = tuple(-x for x in beta)
    sig = tuple(
        sorted((rs.pairing(t, minus), rs.pairing(minus, t)) for t, _ in support)
    )
    for (case, k), pattern in _DIAGRAM_SIGNATURES.items():
        if k == len(support) and tuple(sorted(pattern)) == sig:
            return case.split(":")[0]
    raise AssertionError(f"no affine diagram matches signature {sig}")


def label_by_diagram(oset: OrthogonalSet, label: CaseLabel) -> str:
    """The case of a combination from the generalized Cartan matrix on its
    support together with -beta (an affine diagram), the support's roots
    signed so that every coefficient is positive."""
    support = [
        (t if q > 0 else tuple(-x for x in t), abs(q))
        for t, q in zip(oset.thetas, label.coefficients)
        if q != 0
    ]
    return _classify_by_diagram(oset.system, support, label.beta)


def spherical_by_pattern(oset: OrthogonalSet) -> bool:
    """Sphericality by the direct pattern test per family: not spherical iff
    a D4 quadruple in types D/E, a B3 triple or two disjoint B2-short pairs
    in types B/F, a G2-both pair in type G; types A and C are always
    spherical."""
    family = oset.system.family
    if family in ("A", "C"):
        non_spherical = False
    elif family in ("D", "E"):
        non_spherical = bool(_case_supports(oset, "D4"))
    elif family in ("B", "F"):
        pairs = _case_supports(oset, "B2short")
        non_spherical = bool(_case_supports(oset, "B3")) or any(
            not set(a) & set(b) for i, a in enumerate(pairs) for b in pairs[i + 1 :]
        )
    else:  # G2
        non_spherical = bool(_case_supports(oset, "G2both"))
    return not non_spherical


# -- the root-system kernels by their Gram-matrix definitions -----------------


def gram_form(system: RootSystem, u: Sequence[int], v: Sequence[int]) -> int:
    """(u, v) = sum u_i B_ij v_j over the whole Gram matrix B = D A."""
    return sum(
        u[i] * system.gram[i][j] * v[j] for i in range(system.rank) for j in range(system.rank)
    )


def gram_pairing(system: RootSystem, a: Sequence[int], b: Sequence[int]) -> int:
    """<a, b^vee> = 2 (a, b) / (b, b); ValueError when it is not an integer."""
    q, r = divmod(2 * gram_form(system, a, b), gram_form(system, b, b))
    if r:
        raise ValueError("pairing is not integral")
    return q


def gram_reflect(system: RootSystem, a: Sequence[int], b: Sequence[int]) -> Coords:
    """s_b(a) = a - <a, b^vee> b."""
    c = gram_pairing(system, a, b)
    return tuple(x - c * y for x, y in zip(a, b))


def gram_coroot(system: RootSystem, b: Sequence[int]) -> Coweight:
    """b^vee as a coweight: its value on alpha_i is <alpha_i, b^vee>."""
    simple = (system.simple_root(i) for i in range(1, system.rank + 1))
    return Coweight(tuple(gram_pairing(system, a, b) for a in simple))


# -- the cascade on the pool of roots ------------------------------------------


def highest_root(roots: Collection[Coords]) -> Coords:
    """The highest root of an irreducible root system, given as its set of
    roots: the one positive root b with b + a outside the set for every
    positive root a. ValueError when there is not exactly one, as for a
    reducible set, which has one such root per component."""
    rset = set(roots)
    pos = [v for v in roots if all(x >= 0 for x in v)]
    best = [b for b in pos if all(tuple(map(add, b, a)) not in rset for a in pos)]
    if len(best) != 1:
        raise ValueError("root set has no unique highest root")
    return best[0]


def cascade_chains(root: CascadeNode) -> List[Tuple[Coords, ...]]:
    """All maximal chains of the cascade tree."""
    if not root.children:
        return [root.chain]
    out = []
    for child in root.children:
        out.extend(cascade_chains(child))
    return out


def chain_cascade_by_pool(system: RootSystem, max_depth: Optional[int] = None) -> CascadeNode:
    """The cascade tree grown on sets of roots: the components of the pool
    under (a, b) != 0, each ordered by its smallest root, branch through
    their highest roots, and a child's pool is the roots of its component
    orthogonal to that highest root."""

    def grow(chain: Tuple[Coords, ...], pool: List[Coords], depth: int) -> CascadeNode:
        h = OrthogonalSet(system, chain).coroot_sum() if chain else Coweight((0,) * system.rank)
        h_dom, _ = system.dominantize(h)
        node = CascadeNode(chain, h, h_dom, [])
        if max_depth is not None and depth >= max_depth:
            return node
        for comp in _components(pool, lambda a, b: system.form(a, b) != 0):
            theta = highest_root(comp)
            sub = [v for v in comp if system.form(v, theta) == 0]
            node.children.append(grow(chain + (theta,), sub, depth + 1))
        return node

    return grow((), list(system.roots), 0)


# -- the retired routes of the Levi report, the pattern orders and the orbit rows -


def levi_action_by_reflections(oset: OrthogonalSet) -> Tuple[Tuple[int, ...], Dict[int, Coords]]:
    """The Levi simple roots (the zeros of the coroot sum) and the image of
    each under s_{theta_1} ... s_{theta_r}, applied one reflection at a time."""
    rs = oset.system
    levi = tuple(i for i, c in enumerate(oset.coroot_sum().coords, 1) if c == 0)
    return levi, {i: reduce(rs.reflect, oset.thetas, rs.simple_root(i)) for i in levi}


def leq_D_pairwise(dp: OrientedLinkPattern, d: OrientedLinkPattern) -> bool:
    """q^d <= q^{d'}, one indexed comparison per entry."""
    qd, qdp = q_table(d), q_table(dp)
    return all(qd[k][ell] <= qdp[k][ell] for k in range(d.n + 1) for ell in range(d.n))


def leq_rank_pairwise(dp: OrientedLinkPattern, d: OrientedLinkPattern) -> bool:
    """r(i,j,d') <= r(i,j,d) for every entry, one pair of rows at a time."""
    return all(
        a <= b for rp, rq in zip(rank_table(dp), rank_table(d)) for a, b in zip(rp, rq)
    )


def leq_seq_pairwise(wp: Sequence[int], w: Sequence[int], r: int) -> bool:
    """The truncation criterion with every count taken afresh:
    #{x in S_{w'}[:i] : x > j} <= #{x in S_w[:i] : x > j} for all i, j."""
    n = len(w)
    sp, s = seq_S(wp, r), seq_S(w, r)
    for i in range(1, n + 1):
        head_p = [x for x in sp[:i] if x]
        head = [x for x in s[:i] if x]
        for j in range(n + 1):
            if sum(1 for x in head_p if x > j) > sum(1 for x in head if x > j):
                return False
    return True


def orbit_pair_params_by_decomposition(n: int, r: int) -> List[Tuple]:
    """The rows ((w1^-1, w2^-1), w, dim) of linkpatterns.orbit_pair_params
    for n >= 2, read off the quotient of the datum of type_a_parts (for
    r = 0 too), with w = w1 w2 factored by weyl.parabolic_decompose over
    L = I u J u K, and w2 checked to lie in W_I by its reduced word."""
    datum = IJKDatum(build_root_system("A", n - 1), *type_a_parts(n, r))
    base = r * (r - 1) // 2 + (n - 2 * r) * (n - 2 * r - 1) // 2
    out = []
    for node in datum.quotient_elements():
        w1, w2 = parabolic_decompose(node.rep, datum.L)
        if not set(w2.reduced_word()) <= set(datum.I) or w1.length() + w2.length() != node.length():
            raise AssertionError("W_L part of a quotient element is not in W_I, or lengths do not add")
        inverses = tuple(_inverse_line(to_line_notation(v)) for v in (w1, w2))
        out.append((inverses, to_line_notation(node.rep), node.length() + base))
    return out


# -- the per-member labelling that the lane counts of nilpotent replace --------


def span_members(system: RootSystem, thetas: Sequence[Coords]) -> List[Tuple[int, Tuple[int, ...]]]:
    """(k, p) for each root roots[k] in the rational span of pairwise
    orthogonal roots thetas (ValueError otherwise), in root order, with
    p_i = (roots[k], theta_i): the members of the packed Bessel test
    (RootSystem._span_lanes) decoded one at a time."""
    if any(system.form(a, b) for a, b in combinations(thetas, 2)):
        raise ValueError("input roots are not pairwise orthogonal")
    columns = [system._column(t)[0] for t in thetas]
    mask, members = system._span_lanes(thetas), []
    while mask:
        bit = mask & -mask
        k = bit.bit_length() // 8 - 1
        members.append((k, tuple(proj[k] for proj in columns)))
        mask ^= bit
    return members


def offenders_by_members(oset: OrthogonalSet) -> Tuple[CaseLabel, ...]:
    """OrthogonalSet.offenders, one member at a time: each member of the span
    with more than one nonzero projection labelled by case_by_counts,
    positive roots first and each part in root order; for a set made by
    reduce_b2long, its parent's labels that vanish on the dropped members,
    restricted to the kept ones."""
    parent = oset._parent
    if parent is not None:
        keep = [parent.thetas.index(t) for t in oset.thetas]
        drop = [i for i in range(parent.r) if i not in keep]
        return tuple(
            CaseLabel(o.case, o.beta, tuple(o.coefficients[i] for i in keep))
            for o in offenders_by_members(parent)
            if not any(o.coefficients[i] for i in drop)
        )
    rs = oset.system
    norms = tuple(rs.norms[t] for t in oset.thetas)
    members = span_members(rs, oset.thetas)
    split = bisect_left(members, (len(rs.positive_roots),))  # sorted roots: negatives first
    labels = []
    for k, p in members[split:] + members[:split]:
        if p.count(0) < len(p) - 1:  # one nonzero projection: +-theta_i
            beta = rs.roots[k]
            case = case_by_counts(p, norms, rs.long_norm, rs.norms[beta] == rs.long_norm)
            labels.append(CaseLabel(case, beta, tuple(map(Fraction, p, norms))))
    return tuple(labels)


def case_by_counts(proj: Sequence[int], norms: Sequence[int], long_norm: int, beta_long: bool) -> str:
    """The case of a combination with projections p_i on roots of norms
    n_i, from the count, lengths and coefficients of its support, rule by
    rule: |q_i| = 1/2 iff 2 |p_i| = n_i and |q_i| = 1 iff |p_i| = n_i."""
    support = [(abs(p), n) for p, n in zip(proj, norms) if p]
    k = len(support)
    halves = sum(2 * p == n for p, n in support)
    ones = sum(p == n for p, n in support)
    longs = sum(n == long_norm for _, n in support)
    if k == 0:
        raise ValueError("beta is zero")
    if k == 1:
        return "A1"
    if k == 4 and halves == 4:
        return "D4"
    if k == 3 and (halves, ones, longs) in ((2, 1, 2), (3, 0, 1)):
        return "B3" if ones else "C3"
    if k == 2 and longs == 1:
        return "G2both"
    if k == 2 and (halves, ones, beta_long) in ((0, 2, True), (2, 0, False)):
        return "B2long" if ones else "B2short"
    raise AssertionError(f"no case matches projections {proj} on norms {norms}")


def classify_by_members(oset: OrthogonalSet) -> Tuple[Tuple, Tuple[CaseLabel, ...], Tuple[CaseLabel, ...]]:
    """(rationally_orthogonal, cases, reduced thetas, h, height, labels) of
    classify from the per-member labels (the first label of each case, and
    the Fraction test that no label of the reduced set is integral, an
    AssertionError otherwise), with the offenders of the set and of its
    reduced set."""
    rs = oset.system
    offenders = offenders_by_members(oset)
    first: Dict[str, CaseLabel] = {}
    for label in offenders:
        first.setdefault(label.case, label)
    reduced = reduce_b2long(oset)
    reduced_offenders = offenders_by_members(reduced)
    for o in reduced_offenders:
        if all(q.denominator == 1 for q in o.coefficients):
            raise AssertionError(f"integral combination {o.beta} survives the reduction")
    h = reduced.coroot_sum()
    h_dom = rs.dominantize(h)[0]
    height = rs.coweight_value(h_dom, rs.highest_root)
    fields = (not offenders, list(first.values()), reduced.thetas, h, height, h_dom.coords)
    return fields, offenders, reduced_offenders
