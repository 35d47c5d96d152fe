"""Classification of sums of root vectors over pairwise orthogonal roots.

An orthogonal set of roots theta_1..theta_r determines a nilpotent element
e = sum of root vectors with semisimple partner h = sum of coroots. This
module decides rational orthogonality, labels the offending combinations by
the seven possible cases, computes the height of e through the dominant
conjugate of h, tests sphericality (height <= 3), builds chain cascades, and
reports the Levi + involution data attached to the set.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import combinations
from operator import add
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .roots import Coords, Coweight, RootSystem

if TYPE_CHECKING:
    from fractions import Fraction

CASES = ("D4", "B3", "C3", "B2long", "B2short", "G2both", "A1")


class OrthogonalSet:
    """Pairwise orthogonal roots of a system; compared by identity."""

    # the set this one was reduced from (reduce_b2long), whose labels it reads
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
        rs = self.system
        columns = (rs.coroot(t).coords for t in self.thetas)
        return Coweight(tuple(map(sum, zip((0,) * rs.rank, *columns))))

    @cached_property
    def offenders(self) -> Tuple[CaseLabel, ...]:
        """The roots of span_Q(thetas) other than the +-theta_i with their
        coefficients and case labels, positive roots first, each part in root
        order: one packed scan (RootSystem.span_members), or for a set made by
        reduce_b2long, its parent's labels that vanish on the dropped members."""
        parent = self._parent
        if parent is not None:
            keep = [parent.thetas.index(t) for t in self.thetas]
            drop = [i for i in range(parent.r) if i not in keep]
            return tuple(
                CaseLabel(o.case, o.beta, tuple(o.coefficients[i] for i in keep))
                for o in parent.offenders
                if not any(o.coefficients[i] for i in drop)
            )
        rs = self.system
        norms = tuple(rs.norms[t] for t in self.thetas)
        members = rs.span_members(self.thetas)
        split = bisect_left(members, (len(rs.positive_roots),))  # sorted roots: negatives first
        labels = []
        for k, p in members[split:] + members[:split]:
            if p.count(0) < len(p) - 1:  # one nonzero projection: +-theta_i
                beta = rs.roots[k]
                case, coefficients = _case(p, norms, rs.long_norm, rs.norms[beta] == rs.long_norm)
                labels.append(CaseLabel(case, beta, coefficients))
        return tuple(labels)

    @cached_property
    def _characteristic(self) -> Tuple[OrthogonalSet, Coweight, Coweight]:
        """The B2-long-reduced set, its coroot sum h and the dominant conjugate
        of h (the characteristic of e), computed once per set."""
        reduced = reduce_b2long(self)
        h = reduced.coroot_sum()
        return reduced, h, self.system.dominantize(h)[0]


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
    offenders = offending_roots(oset)
    return not offenders, offenders


def classify_combination(oset: OrthogonalSet, beta: Coords) -> CaseLabel:
    """Label the combination beta = sum q_i theta_i by its case, read from
    the count, lengths and coefficients of its support.

    tests/test_census.py checks this label against the affine diagram on the
    support together with -beta, on every W-class of orthogonal sets of
    every supported system of rank at most 8.
    """
    rs = oset.system
    if rs.span_membership(oset.thetas, beta) is None:
        raise ValueError("beta is not in the span of the set")
    proj = tuple(rs.form(beta, t) for t in oset.thetas)
    norms = tuple(rs.norms[t] for t in oset.thetas)
    case, coefficients = _case(proj, norms, rs.long_norm, rs.norm(beta) == rs.long_norm)
    return CaseLabel(case, beta, coefficients)


@lru_cache(maxsize=None)
def _case(
    proj: Tuple[int, ...], norms: Tuple[int, ...], long_norm: int, beta_long: bool
) -> Tuple[str, Tuple[Fraction, ...]]:
    """The case and coefficients q_i = p_i / n_i of a combination with
    projections p_i on roots of norms n_i: |q_i| = 1/2 iff 2 |p_i| = n_i and
    |q_i| = 1 iff |p_i| = n_i. A function of these few integers only, so one
    call per distinct signature; cascade never calls it and loads no fractions."""
    from fractions import Fraction

    support = [(abs(p), n) for p, n in zip(proj, norms) if p]
    k = len(support)
    halves = sum(2 * p == n for p, n in support)
    ones = sum(p == n for p, n in support)
    longs = sum(n == long_norm for _, n in support)
    if k == 0:
        raise ValueError("beta is zero")
    if k == 1:
        case = "A1"
    elif k == 4 and halves == 4:
        case = "D4"
    elif k == 3 and (halves, ones, longs) in ((2, 1, 2), (3, 0, 1)):
        case = "B3" if ones else "C3"
    elif k == 2 and longs == 1:
        case = "G2both"
    elif k == 2 and (halves, ones, beta_long) in ((0, 2, True), (2, 0, False)):
        case = "B2long" if ones else "B2short"
    else:
        raise AssertionError(f"no case matches projections {proj} on norms {norms}")
    return case, tuple(map(Fraction, proj, norms))


def reduce_b2long(oset: OrthogonalSet) -> OrthogonalSet:
    """Keep each member, in order, that is strongly orthogonal to every member
    kept before it: of each pair whose sum is a root, the higher index is
    dropped (s_b(a + b) = a - b for orthogonal a, b, so one probe decides).
    The reduced set reads its labels off this one (OrthogonalSet.offenders)."""
    rs = oset.system
    kept: List[Coords] = []
    for t in oset.thetas:
        if all(tuple(map(add, t, k)) not in rs.root_set for k in kept):
            kept.append(t)
    if len(kept) == oset.r:
        return oset
    reduced = OrthogonalSet(rs, tuple(kept))
    reduced._parent = oset
    return reduced


def height_of_sum(oset: OrthogonalSet) -> int:
    """Height of e = sum of root vectors: the value of the dominant conjugate
    of the coroot sum on the highest root, after B2-long reduction."""
    reduced, _, h_dom = oset._characteristic
    for o in reduced.offenders:
        if all(q.denominator == 1 for q in o.coefficients):
            raise AssertionError(f"integral combination {o.beta} survives the reduction")
    return oset.system.coweight_value(h_dom, oset.system.highest_root)


def _case_supports(oset: OrthogonalSet, case: str) -> List[Tuple[int, ...]]:
    """The distinct supports {i : q_i != 0} of the offenders labelled `case`,
    in lexicographic order.

    A sub-set theta_S has an offender with full support and this case exactly
    when S is listed: span(theta_S) lies in span(theta), none of its roots is
    +-theta_j for j outside S, and the coefficients are orthogonal
    projections, which do not depend on the other members of the set.
    """
    return sorted(
        {
            tuple(i for i, q in enumerate(o.coefficients) if q)
            for o in oset.offenders
            if o.case == case
        }
    )


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
    <alpha_i, theta_j^vee> theta_j, read off the kept coroots theta_j^vee."""
    rs = oset.system
    columns = [rs.coroot(t).coords for t in oset.thetas]
    levi = tuple(i for i, c in enumerate(map(sum, zip((0,) * rs.rank, *columns)), 1) if c == 0)
    action = {}
    for i in levi:
        image = rs.simple_root(i)
        for t, col in zip(oset.thetas, columns):
            if col[i - 1]:
                image = tuple(x - col[i - 1] * y for x, y in zip(image, t))
        action[i] = image
    fixed = []
    swaps = []
    other = []
    neg_simple = {tuple(-x for x in rs.simple_root(j)): j for j in levi}
    for i in levi:
        img = action[i]
        if img == rs.simple_root(i):
            fixed.append(i)
        elif img in neg_simple:
            j = neg_simple[img]
            if (j, i) not in swaps:
                swaps.append((i, j))
        else:
            other.append(i)
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
    """Full report for an orthogonal set."""
    rat, _ = is_rationally_orthogonal(oset)
    first: Dict[str, CaseLabel] = {}
    for label in oset.offenders:  # positive roots first
        first.setdefault(label.case, label)
    verdict = is_spherical(oset)
    reduced, h, h_dom = oset._characteristic
    return ClassificationReport(
        oset=oset,
        rationally_orthogonal=rat,
        cases=list(first.values()),
        reduced_set=reduced,
        h=h,
        h_dominant=h_dom,
        height=verdict.height,
        spherical=verdict.spherical,
        dynkin_labels=h_dom.coords,
        orbit_type_rank=reduced.r,
    )
