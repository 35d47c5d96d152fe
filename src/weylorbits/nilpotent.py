"""Classification of sums of root vectors over pairwise orthogonal roots.

An orthogonal set of roots theta_1..theta_r determines a nilpotent element
e = sum of root vectors with semisimple partner h = sum of coroots. This
module decides rational orthogonality, labels the offending combinations by
the seven possible cases, computes the height of e through the dominant
conjugate of h, tests sphericality (height <= 3), builds chain cascades, and
reports the Levi + involution data attached to the set.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations, repeat
from operator import add, mul, or_, sub
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .roots import Coords, Coweight, RootSystem

if TYPE_CHECKING:
    from fractions import Fraction

CASES = ("D4", "B3", "C3", "B2long", "B2short", "G2both", "A1")


class _lazy:
    """An attribute computed on first read and kept in the instance's
    __dict__, where later reads find it. Unlike functools.cached_property up
    to Python 3.11 it takes no lock; threads that race compute equal values."""

    def __init__(self, fn: Callable):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner: Optional[type] = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class OrthogonalSet:
    """Pairwise orthogonal roots of a system; compared by identity."""

    # the set this one was reduced from (reduce_b2long), whose lanes it reads
    _parent: Optional[OrthogonalSet] = None

    def __init__(self, system: RootSystem, thetas: Tuple[Coords, ...]):
        self.system = system
        self.thetas = thetas
        for t in thetas:
            if not system.is_root(t):
                raise ValueError(f"{t} is not a root")
        if any(system.form(a, b) for a, b in combinations(thetas, 2)):
            raise ValueError("roots are not pairwise orthogonal")
        # orthogonal roots are linearly independent automatically

    @property
    def r(self) -> int:
        return len(self.thetas)

    def coroot_sum(self) -> Coweight:
        return self._coroot_columns[1]

    @_lazy
    def _coroot_columns(self) -> Tuple[List[Coords], Coweight]:
        """The coroots theta_i^vee, as their values on the simple roots, and
        their sum h."""
        rs = self.system
        columns = [rs.coroot(t).coords for t in self.thetas]
        return columns, Coweight(tuple(map(sum, zip((0,) * rs.rank, *columns))))

    @_lazy
    def offenders(self) -> Tuple[CaseLabel, ...]:
        """The roots of span_Q(thetas) other than the +-theta_i, labelled,
        positive roots first and each part in root order; decoded on first read."""
        return tuple(map(self._label, self.system._lanes_in_order(self._lanes[0])))

    @_lazy
    def _lanes(self) -> Tuple[int, int, int, int, int]:
        """(offenders, support, halves, ones, longs), one byte per root gamma:
        0x80 where gamma is an offender, then the numbers of i with p_i != 0,
        2 |p_i| = n_i, |p_i| = n_i, and p_i != 0 with theta_i long, for
        p_i = (gamma, theta_i), n_i = (theta_i, theta_i). No count carries: by
        Bessel's inequality sum p_i^2 / n_i <= (gamma, gamma) <= 6 and each
        nonzero term is at least 1/6, so at most 36 p_i are nonzero, at any
        rank. A set made by reduce_b2long keeps its parent's counts, and the
        parent's offenders on which the dropped members vanish."""
        rs = self.system
        if (parent := self._parent) is not None:
            offenders, *counts = parent._lanes
            dropped = sum(rs._column(t)[2] for t in parent.thetas if t not in self.thetas)
            return (offenders & rs._lanes_at(dropped, 0), *counts)
        support = halves = ones = longs = 0
        for t in self.thetas:
            _, _, nonzero, half, whole = rs._column(t)
            support, halves, ones = support + nonzero, halves + half, ones + whole
            if rs.norms[t] == rs.long_norm:
                longs += nonzero
        offenders = rs._span_lanes(self.thetas) & ~rs._lanes_at(support, 1)  # not +-theta_i
        return offenders, support, halves, ones, longs

    @_lazy
    def _cases(self) -> Dict[str, int]:
        """The offenders of each case of CASES[:6], as lanes: zero-lane tests
        on the counts of _lanes, and on the norm of the combination for the
        B2 cases; empty when there is no offender. An offender in no case is
        an AssertionError."""
        rs = self.system
        offenders, support, halves, ones, longs = self._lanes
        if not offenders:
            return {}
        at, long_roots = rs._lanes_at, rs._long_lanes
        triple, pair = (offenders & at(support, k) for k in (3, 2))
        g2 = pair & at(longs, 1)
        cases = dict(zip(CASES, (
            offenders & at(support, 4) & at(halves, 4),  # D4
            triple & at(halves, 2) & at(ones, 1) & at(longs, 2),  # B3
            triple & at(halves, 3) & at(longs, 1),  # C3
            pair & ~g2 & at(ones, 2) & long_roots,  # B2long
            pair & ~g2 & at(halves, 2) & ~long_roots,  # B2short
            g2,  # G2both
        )))
        unmatched = offenders & ~reduce(or_, cases.values())
        if unmatched:
            proj, norms = self._projections(next(rs._lanes_in_order(unmatched)))
            raise AssertionError(f"no case matches projections {proj} on norms {norms}")
        return cases

    def _projections(self, k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The projections p_i = (roots[k], theta_i) and the norms n_i."""
        rs = self.system
        return tuple(rs._column(t)[0][k] for t in self.thetas), tuple(rs.norms[t] for t in self.thetas)

    def _label(self, k: int) -> CaseLabel:
        """The case label of roots[k], a root of the span: its case in _cases,
        A1 for the +-theta_i."""
        case = next((c for c, lanes in self._cases.items() if lanes >> 8 * k & 0x80), "A1")
        return CaseLabel(case, self.system.roots[k], _coefficients(*self._projections(k)))

    @_lazy
    def _characteristic(self) -> Tuple[OrthogonalSet, Coweight, Coweight, int]:
        """The B2-long-reduced set, its coroot sum h, the dominant conjugate
        of h (the characteristic of e) and the height of e, the value of the
        dominant conjugate on the highest root; computed once per set."""
        rs = self.system
        reduced = reduce_b2long(self)
        offenders, support, _, ones, _ = reduced._lanes
        # n_i | p_i iff p_i is 0 or +-n_i (|p_i| < 2 n_i): integral iff support = ones
        integral = offenders and offenders & rs._lanes_at(support - ones, 0)
        if integral:
            beta = rs.roots[next(rs._lanes_in_order(integral))]
            raise AssertionError(f"integral combination {beta} survives the reduction")
        h = reduced._coroot_columns[1]
        h_dom = rs.dominantize(h)[0]
        return reduced, h, h_dom, rs.coweight_value(h_dom, rs.highest_root)


def orthogonal_set(system: RootSystem, thetas: Sequence[Sequence[int]]) -> OrthogonalSet:
    return OrthogonalSet(system, tuple(tuple(t) for t in thetas))


class CaseLabel(NamedTuple):
    case: str
    beta: Coords
    coefficients: Tuple[Fraction, ...]


def is_strongly_orthogonal(system: RootSystem, a: Coords, b: Coords) -> bool:
    """True iff neither a+b nor a-b lies in Phi or equals 0."""
    for v in (
        tuple(x + y for x, y in zip(a, b)),
        tuple(x - y for x, y in zip(a, b)),
    ):
        if not any(v) or system.is_root(v):
            return False
    return True


def offending_roots(
    oset: OrthogonalSet,
) -> List[Tuple[Coords, Tuple[Fraction, ...]]]:
    """Roots of span_Q(thetas) other than the +-theta_i, with coefficients."""
    return [(o.beta, o.coefficients) for o in oset.offenders]


def is_rationally_orthogonal(
    oset: OrthogonalSet,
) -> Tuple[bool, List[Tuple[Coords, Tuple[Fraction, ...]]]]:
    """True iff span_Q(thetas) meets Phi only in the +-theta_i."""
    return not oset._lanes[0], offending_roots(oset)


def classify_combination(oset: OrthogonalSet, beta: Coords) -> CaseLabel:
    """Label the combination beta = sum q_i theta_i by its case, read from
    the count, lengths and coefficients of its support.

    tests/test_census.py checks this label against the affine diagram on the
    support together with -beta, on every W-class of orthogonal sets of
    every supported system of rank at most 8.
    """
    rs, beta = oset.system, tuple(beta)
    if beta in rs.root_set:
        k = rs.roots.index(beta)
        offender = oset._lanes[0] >> 8 * k & 0x80
        if offender or beta in oset.thetas or tuple(-x for x in beta) in oset.thetas:
            return oset._label(k)
    raise ValueError("beta is not a root in the span of the set")


@lru_cache(maxsize=None)
def _coefficients(proj: Tuple[int, ...], norms: Tuple[int, ...]) -> Tuple[Fraction, ...]:
    """q_i = p_i / n_i, one tuple per signature; cascade never labels a case
    and loads no fractions."""
    from fractions import Fraction

    return tuple(map(Fraction, proj, norms))


def reduce_b2long(oset: OrthogonalSet) -> OrthogonalSet:
    """Keep each member, in order, that is strongly orthogonal to every member
    kept before it: of each pair whose sum is a root, the higher index is
    dropped (s_b(a + b) = a - b for orthogonal a, b, so one probe decides).
    Such a sum is a B2-long offender, so a set with none is its own
    reduction. The reduced set reads its lanes off this one
    (OrthogonalSet._lanes)."""
    rs = oset.system
    if not oset._cases.get("B2long"):
        return oset
    kept: List[Coords] = []
    for t in oset.thetas:
        if all(tuple(map(add, t, k)) not in rs.root_set for k in kept):
            kept.append(t)
    if len(kept) == oset.r:
        return oset
    reduced = OrthogonalSet.__new__(OrthogonalSet)  # a sub-set of a checked set: not checked again
    reduced.system, reduced.thetas, reduced._parent = rs, tuple(kept), oset
    return reduced


def height_of_sum(oset: OrthogonalSet) -> int:
    """Height of e = sum of root vectors: the value of the dominant conjugate
    of the coroot sum on the highest root, after B2-long reduction."""
    return oset._characteristic[3]


def _case_supports(oset: OrthogonalSet, case: str) -> List[Tuple[int, ...]]:
    """The distinct supports {i : q_i != 0} of the offenders labelled `case`,
    in lexicographic order.

    A sub-set theta_S has an offender with full support and this case exactly
    when S is listed: span(theta_S) lies in span(theta), none of its roots is
    +-theta_j for j outside S, and the coefficients are orthogonal
    projections, which do not depend on the other members of the set.
    """
    rs = oset.system
    columns = [rs._column(t)[0] for t in oset.thetas]
    lanes = rs._lanes_in_order(oset._cases.get(case, 0))
    return sorted({tuple(i for i, p in enumerate(columns) if p[k]) for k in lanes})


class SphericalVerdict(NamedTuple):
    spherical: bool
    height: int


def is_spherical(oset: OrthogonalSet) -> SphericalVerdict:
    """Sphericality of the orbit of e: spherical iff e has height at most 3
    (Panyushev 1994).

    tests/test_census.py checks this verdict against the direct pattern test
    per family (D4 quadruple in types D/E, B3 triple or two disjoint B2-short
    pairs in types B/F, G2-both pair in type G) on every W-class of
    orthogonal sets of every supported system of rank at most 8.
    """
    height = height_of_sum(oset)
    return SphericalVerdict(height <= 3, height)


def type_b_height(oset: OrthogonalSet) -> int:
    """Height by the type-B case table; 4 stands for 'at least 4'.

    Cases: all short -> 2; all long with r = 2 or no B2-short pair -> 2;
    mixed with no B2-short pair -> 3; all long, r >= 3, exactly one B2-short
    pair -> 3; otherwise >= 4.
    """
    if oset.system.family != "B":
        raise ValueError("type B systems only")
    oset = reduce_b2long(oset)
    r = oset.r
    if r == 0:
        return 0
    longs = sum(1 for t in oset.thetas if oset.system.norms[t] == oset.system.long_norm)
    shorts = r - longs
    pairs = len(_case_supports(oset, "B2short"))
    if shorts == r:
        return 2
    if longs == r and (r == 2 or pairs == 0):
        return 2
    if shorts >= 1 and longs >= 1 and pairs == 0:
        return 3
    if longs == r and r >= 3 and pairs == 1:
        return 3
    return 4


# -- chain cascades ----------------------------------------------------------


class CascadeNode(NamedTuple):
    """One node of the cascade tree: the chain chosen so far and its coweight."""

    chain: Tuple[Coords, ...]
    coweight: Coweight
    coweight_dominant: Coweight
    children: List["CascadeNode"]


def _components(items: Sequence, adjacent: Callable[..., bool]) -> List[list]:
    """Connected components under a symmetric adjacency predicate, each
    sorted, ordered by their smallest member."""
    remaining = sorted(items)
    comps = []
    while remaining:
        comp = [remaining.pop(0)]
        for c in comp:  # comp grows while it is walked
            near = [v for v in remaining if adjacent(c, v)]
            remaining = [v for v in remaining if v not in near]
            comp.extend(near)
        comps.append(sorted(comp))
    return comps


def chain_cascade(system: RootSystem, max_depth: Optional[int] = None) -> CascadeNode:
    """The cascade tree: each node branches once per irreducible component of
    the subsystem orthogonal to the chain chosen so far, through the
    component's highest root. Every chain is strongly orthogonal.

    Read on the Dynkin diagram: a component is a connected set S of simple
    indices, its highest root theta is the root of greatest height with
    support in S, and theta is dominant for S, so the roots of S orthogonal
    to it are those of the sub-diagram {i in S : (alpha_i, theta) = 0} (the
    stabilizer of a dominant weight is generated by the simple reflections
    that fix it; Humphreys, Introduction to Lie Algebras and Representation
    Theory, 10.3). Components are ordered by their smallest index."""
    # the positive roots, highest first, with their supports as bit masks
    ranked = sorted(
        (sum(v), sum(1 << i for i, x in enumerate(v) if x), v) for v in system.positive_roots
    )[::-1]

    def grow(chain: Tuple[Coords, ...], h: Coweight, indices: List[int], depth: int) -> CascadeNode:
        node = CascadeNode(chain, h, system.dominantize(h)[0], [])
        if max_depth is not None and depth >= max_depth:
            return node
        for comp in _components(indices, lambda i, j: system.cartan[i][j] != 0):
            support = sum(1 << i for i in comp)
            theta = next(v for _, mask, v in ranked if not mask & ~support)
            coroot = system.coroot(theta)
            sub = [i for i in comp if coroot.coords[i] == 0]
            node.children.append(grow(chain + (theta,), h + coroot, sub, depth + 1))
        return node

    return grow((), Coweight((0,) * system.rank), list(range(system.rank)), 0)


# -- weighted Dynkin diagrams and involutions ---------------------------------


def weighted_dynkin(oset: OrthogonalSet) -> Tuple[int, ...]:
    """Labels alpha_i(h_dom) for h the coroot sum of the B2-long-reduced set."""
    return oset._characteristic[2].coords


def grading_dimensions(system: RootSystem, h: Coweight) -> Dict[int, int]:
    """dim g(i) = #{roots alpha with h(alpha) = i}, plus the rank at i = 0."""
    out: Dict[int, int] = {0: system.rank}
    for alpha in system.roots:
        v = system.coweight_value(h, alpha)
        out[v] = out.get(v, 0) + 1
    return out


class InvolutionReport(NamedTuple):
    levi_simple_roots: Tuple[int, ...]
    sigma_action: Dict[int, Coords]
    fixed: Tuple[int, ...]
    negated_swaps: Tuple[Tuple[int, int], ...]
    other: Tuple[int, ...]
    folded_type: Tuple[str, ...]


def _subdiagram_type(system: RootSystem, indices: Sequence[int]) -> str:
    """Cartan type of the connected subdiagram on the given simple indices
    (1-based); every subdiagram of a finite diagram is of finite type."""
    idx = sorted(indices)
    n = len(idx)
    if n == 0:
        return ""
    edges = []
    degs = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            i, j = idx[a] - 1, idx[b] - 1
            prod = system.cartan[i][j] * system.cartan[j][i]
            if prod:
                edges.append((a, b, prod))
                degs[a] += 1
                degs[b] += 1
    if len(edges) != n - 1:
        raise ValueError("subdiagram is not connected")
    bonds = {p for _, _, p in edges}
    if 3 in bonds:
        return "G2"
    if 2 in bonds:
        if n == 2:
            return "B2"
        a, b = next((a, b) for a, b, p in edges if p == 2)
        if degs[a] == degs[b] == 2:
            return "F4"
        ds = [system.symm[i - 1] for i in idx]
        return f"B{n}" if ds.count(min(ds)) == 1 else f"C{n}"
    if max(degs) <= 2:
        return f"A{n}"
    # a simply-laced tree with a branch node: D_n has two or three end
    # nodes next to the branch node, E_n has one
    branch = degs.index(3)
    ends = sum(1 for a, b, _ in edges if branch in (a, b) and degs[a + b - branch] == 1)
    return f"D{n}" if ends >= 2 else f"E{n}"


def levi_and_involution(oset: OrthogonalSet) -> InvolutionReport:
    """Levi simple roots (h = 0 wall), the action of s_{theta_1}...s_{theta_r}
    on them, and the folded type after identifying negated-swapped components.
    The thetas are orthogonal, so the product sends alpha_i to alpha_i - sum_j
    <alpha_i, theta_j^vee> theta_j, read off the set's coroots theta_j^vee.
    It negates h, so an image -alpha_j has h(alpha_j) = 0: j is in the Levi."""
    rs = oset.system
    columns, h = oset._coroot_columns
    negated = rs._negated_simple
    action = {}
    fixed = []
    swaps = []
    other = []
    for i, value in enumerate(h.coords, 1):
        if value:
            continue
        image = simple = rs._simple_roots[i - 1]
        for t, col in zip(oset.thetas, columns):
            c = col[i - 1]
            if c:
                image = tuple(map(sub, image, map(mul, repeat(c), t)))
        action[i] = image
        if image == simple:
            fixed.append(i)
        elif image in negated:
            j = negated[image]
            if (j, i) not in swaps:
                swaps.append((i, j))
        else:
            other.append(i)
    levi = tuple(action)
    folded = _folded_type(rs, levi, fixed, swaps, other)
    return InvolutionReport(
        levi_simple_roots=levi,
        sigma_action=action,
        fixed=tuple(fixed),
        negated_swaps=tuple(swaps),
        other=tuple(other),
        folded_type=folded,
    )


def _folded_type(
    rs: RootSystem,
    levi: Sequence[int],
    fixed: Sequence[int],
    swaps: Sequence[Tuple[int, int]],
    other: Sequence[int],
) -> Tuple[str, ...]:
    if other:
        return ("unknown",)
    partner = {}
    for i, j in swaps:
        partner[i] = j
        partner[j] = i
    comps = _components(levi, lambda i, j: rs.cartan[i - 1][j - 1] != 0)
    comp_of = {i: c for c, comp in enumerate(comps) for i in comp}
    types = []
    merged: Set[int] = set()
    for c, comp in enumerate(comps):
        if c in merged:
            continue
        if all(i in fixed for i in comp):
            types.append(_subdiagram_type(rs, comp))
            continue
        targets = {comp_of[partner[i]] for i in comp if i in partner}
        if len(targets) == 1 and targets != {c} and all(i in partner for i in comp):
            types.append(_subdiagram_type(rs, comp))
            merged.add(targets.pop())
        else:
            return ("unknown",)
    return tuple(sorted(types, key=lambda t: (-int(t[1:]), t)))


class ClassificationReport(NamedTuple):
    oset: OrthogonalSet
    rationally_orthogonal: bool
    cases: List[CaseLabel]
    reduced_set: OrthogonalSet
    h: Coweight
    h_dominant: Coweight
    height: int
    spherical: bool
    dynkin_labels: Tuple[int, ...]
    orbit_type_rank: int


def classify(oset: OrthogonalSet) -> ClassificationReport:
    """Full report for an orthogonal set: its cases and rational orthogonality
    read off the lanes, one label built per case, no offender decoded, and
    the height read off the set's characteristic."""
    rs = oset.system
    # the first offender of each case, positive roots first
    first = sorted((next(rs._lanes_in_order(lanes)), case) for case, lanes in oset._cases.items() if lanes)
    labels = [CaseLabel(case, rs.roots[k], _coefficients(*oset._projections(k))) for k, case in first]
    reduced, h, h_dom, height = oset._characteristic
    # the fields in order: positional arguments cost half as much as keywords
    return ClassificationReport(
        oset, not oset._lanes[0], labels, reduced, h, h_dom, height, height <= 3, h_dom.coords, reduced.r
    )
