"""Classification of sums of root vectors over pairwise orthogonal roots.

An orthogonal set of roots theta_1..theta_r determines a nilpotent element
e = sum of root vectors with semisimple partner h = sum of coroots. This
module decides rational orthogonality, labels the offending combinations by
the seven possible cases, computes the height of e through the dominant
conjugate of h, tests sphericality (height <= 3), builds chain cascades, and
reports the Levi + involution data attached to the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .roots import Coords, Coweight, RootSystem
from .weyl import WeylElement, identity, reflection

CASES = ("D4", "B3", "C3", "B2long", "B2short", "G2both", "A1")


@dataclass(frozen=True)
class OrthogonalSet:
    system: RootSystem
    thetas: Tuple[Coords, ...]

    def __post_init__(self) -> None:
        rs = self.system
        for t in self.thetas:
            if not rs.is_root(t):
                raise ValueError(f"{t} is not a root")
        for i in range(len(self.thetas)):
            for j in range(i + 1, len(self.thetas)):
                if rs.form(self.thetas[i], self.thetas[j]) != 0:
                    raise ValueError("roots are not pairwise orthogonal")
        # orthogonal roots are linearly independent automatically

    @property
    def r(self) -> int:
        return len(self.thetas)

    def coroot_sum(self) -> Coweight:
        h = Coweight((0,) * self.system.rank)
        for t in self.thetas:
            h = h + self.system.coroot(t)
        return h

    @cached_property
    def offenders(self) -> Tuple[CaseLabel, ...]:
        """The roots of span_Q(thetas) other than the +-theta_i, each with its
        coefficients and case label: one scan of the root system, made on
        first use and kept on the set."""
        rs = self.system
        pm = set(self.thetas) | {tuple(-x for x in t) for t in self.thetas}
        out = []
        for gamma in rs.roots:
            if gamma not in pm:
                coeffs = rs.span_membership(self.thetas, gamma)
                if coeffs is not None:
                    out.append(_label(self, gamma, coeffs))
        return tuple(out)


def orthogonal_set(system: RootSystem, thetas: Sequence[Sequence[int]]) -> OrthogonalSet:
    return OrthogonalSet(system, tuple(tuple(t) for t in thetas))


@dataclass(frozen=True)
class CaseLabel:
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


def _is_long(system: RootSystem, v: Coords) -> bool:
    # the highest root of an irreducible system is long
    return system.form(v, v) == system.form(system.highest_root, system.highest_root)


def classify_combination(oset: OrthogonalSet, beta: Coords) -> CaseLabel:
    """Label the combination beta = sum q_i theta_i by its case.

    Classified twice: once by the count/length/coefficient pattern of the
    support, once by the generalized Cartan matrix on the support together
    with -beta (an affine diagram); the two labels must agree.
    """
    coeffs = oset.system.span_membership(oset.thetas, beta)
    if coeffs is None:
        raise ValueError("beta is not in the span of the set")
    return _label(oset, beta, coeffs)


def _label(oset: OrthogonalSet, beta: Coords, coeffs: Tuple[Fraction, ...]) -> CaseLabel:
    rs = oset.system
    support = [(t, q) for t, q in zip(oset.thetas, coeffs) if q != 0]
    if not support:
        raise ValueError("beta is zero")
    # normalize signs so every coefficient is positive
    normalized = [
        (t if q > 0 else tuple(-x for x in t), abs(q)) for t, q in support
    ]
    by_pattern = _classify_by_pattern(rs, normalized, beta)
    by_diagram = _classify_by_diagram(rs, normalized, beta)
    if by_pattern != by_diagram:
        raise AssertionError(
            f"classification mismatch: {by_pattern} vs {by_diagram}"
        )
    return CaseLabel(by_pattern, beta, coeffs)


def _classify_by_pattern(
    rs: RootSystem, support: List[Tuple[Coords, Fraction]], beta: Coords
) -> str:
    k = len(support)
    half = Fraction(1, 2)
    qs = sorted(q for _, q in support)
    longs = [_is_long(rs, t) for t, _ in support]
    beta_long = _is_long(rs, beta)
    if k == 1:
        return "A1"
    if k == 4 and qs == [half] * 4:
        return "D4"
    if k == 3:
        if qs == [half, half, 1] and sorted(longs) == [False, True, True]:
            return "B3"
        if qs == [half] * 3 and sorted(longs) == [False, False, True]:
            return "C3"
    if k == 2:
        if qs == [1, 1] and longs[0] == longs[1] and beta_long:
            return "B2long"
        if qs == [half, half] and longs[0] == longs[1] and not beta_long:
            return "B2short"
        if longs[0] != longs[1]:
            return "G2both"
    raise AssertionError(f"no case matches coefficients {qs}")


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


def reduce_b2long(oset: OrthogonalSet) -> OrthogonalSet:
    """Drop one member of each pair whose sum (equivalently difference) is a
    root, repeating until no such pair remains; the higher index is removed."""
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
    if len(thetas) == oset.r:
        return oset
    return OrthogonalSet(rs, tuple(thetas))


def height_of_sum(oset: OrthogonalSet) -> int:
    """Height of e = sum of root vectors: the value of the dominant conjugate
    of the coroot sum on the highest root, after B2-long reduction."""
    rs = oset.system
    reduced = reduce_b2long(oset)
    if reduced.r == 0:
        return 0
    for o in reduced.offenders:
        if all(q.denominator == 1 for q in o.coefficients):
            raise AssertionError(
                f"integral combination {o.beta} survives the reduction"
            )
    h = reduced.coroot_sum()
    h_dom, _ = rs.dominantize(h)
    return rs.coweight_value(h_dom, rs.highest_root)


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


@dataclass(frozen=True)
class SphericalVerdict:
    spherical: bool
    height: int


def is_spherical(oset: OrthogonalSet) -> SphericalVerdict:
    """Sphericality of the orbit of e, decided two independent ways.

    Route one is height <= 3; route two is the direct pattern test per family
    (D4 quadruple in types D/E, B3 triple or two disjoint B2-short pairs in
    types B/F, G2-both pair in type G). The two must agree.
    """
    height = height_of_sum(oset)
    by_height = height <= 3
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
    by_pattern = not non_spherical
    if by_height != by_pattern:
        raise AssertionError(
            f"sphericality disagreement: height {height} vs pattern {by_pattern}"
        )
    return SphericalVerdict(by_height, height)


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
    longs = sum(1 for t in oset.thetas if _is_long(oset.system, t))
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


@dataclass
class CascadeNode:
    """One node of the cascade tree: the chain chosen so far and its coweight."""

    chain: Tuple[Coords, ...]
    coweight: Coweight
    coweight_dominant: Coweight
    children: List["CascadeNode"] = field(default_factory=list)


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


def _component_highest(system: RootSystem, comp: List[Coords]) -> Coords:
    pos = [v for v in comp if system.is_positive(v)]
    cset = set(comp)
    best = [
        b
        for b in pos
        if all(tuple(x + y for x, y in zip(b, a)) not in cset for a in pos)
    ]
    if len(best) != 1:
        raise AssertionError("component has no unique highest root")
    return best[0]


def chain_cascade(system: RootSystem, max_depth: Optional[int] = None) -> CascadeNode:
    """The cascade tree: each node branches once per irreducible component of
    the subsystem orthogonal to the chain chosen so far, through the
    component's highest root. Every chain is strongly orthogonal."""

    def grow(chain: Tuple[Coords, ...], pool: List[Coords], depth: int) -> CascadeNode:
        h = OrthogonalSet(system, chain).coroot_sum() if chain else Coweight((0,) * system.rank)
        h_dom, _ = system.dominantize(h)
        node = CascadeNode(chain, h, h_dom)
        if max_depth is not None and depth >= max_depth:
            return node
        for comp in _components(pool, lambda a, b: system.form(a, b) != 0):
            theta = _component_highest(system, comp)
            sub = [v for v in comp if system.form(v, theta) == 0]
            node.children.append(grow(chain + (theta,), sub, depth + 1))
        return node

    return grow((), list(system.roots), 0)


def cascade_chains(root: CascadeNode) -> List[Tuple[Coords, ...]]:
    """All maximal chains of the cascade tree."""
    if not root.children:
        return [root.chain]
    out = []
    for child in root.children:
        out.extend(cascade_chains(child))
    return out


# -- weighted Dynkin diagrams and involutions ---------------------------------


def weighted_dynkin(oset: OrthogonalSet) -> Tuple[int, ...]:
    """Labels alpha_i(h_dom) for h = sum of coroots."""
    h_dom, _ = oset.system.dominantize(oset.coroot_sum())
    return h_dom.coords


def grading_dimensions(system: RootSystem, h: Coweight) -> Dict[int, int]:
    """dim g(i) = #{roots alpha with h(alpha) = i}, plus the rank at i = 0."""
    out: Dict[int, int] = {0: system.rank}
    for alpha in system.roots:
        v = system.coweight_value(h, alpha)
        out[v] = out.get(v, 0) + 1
    return out


@dataclass
class InvolutionReport:
    levi_simple_roots: Tuple[int, ...]
    sigma_action: Dict[int, Coords]
    fixed: Tuple[int, ...]
    negated_swaps: Tuple[Tuple[int, int], ...]
    other: Tuple[int, ...]
    folded_type: Tuple[str, ...]


def _subdiagram_type(system: RootSystem, indices: Sequence[int]) -> str:
    """Cartan type of the subdiagram on the given simple indices (1-based)."""
    idx = sorted(indices)
    n = len(idx)
    if n == 0:
        return ""
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            i, j = idx[a] - 1, idx[b] - 1
            prod = system.cartan[i][j] * system.cartan[j][i]
            if prod:
                edges.append((a, b, prod))
    if any(p == 3 for _, _, p in edges):
        return "G2"
    if any(p == 2 for _, _, p in edges):
        degs = [0] * n
        for a, b, _ in edges:
            degs[a] += 1
            degs[b] += 1
        if max(degs) > 2:
            raise ValueError("not an irreducible finite type")
        if n == 2:
            return "B2"
        dbl = next((a, b) for a, b, p in edges if p == 2)
        if all(degs[x] == 2 for x in dbl):
            return "F4"
        ds = [system.symm[i - 1] for i in idx]
        short = sum(1 for d in ds if d == min(ds))
        return f"B{n}" if short == 1 else f"C{n}"
    degs = [0] * n
    for a, b, _ in edges:
        degs[a] += 1
        degs[b] += 1
    if len(edges) != n - 1:
        raise ValueError("subdiagram is not connected")
    if max(degs, default=0) <= 2:
        return f"A{n}"
    branch = degs.index(3)
    arms = sorted(_arm_lengths(n, edges, branch))
    if arms[0] == 1 and arms[1] == 1:
        return f"D{n}"
    if arms == [1, 2, n - 4]:
        return f"E{n}"
    raise ValueError("unrecognized diagram")


def _arm_lengths(n: int, edges: List[Tuple[int, int, int]], branch: int) -> List[int]:
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for a, b, _ in edges:
        adj[a].append(b)
        adj[b].append(a)
    arms = []
    for start in adj[branch]:
        length = 1
        prev, cur = branch, start
        while True:
            nxt = [x for x in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def involution_element(oset: OrthogonalSet) -> WeylElement:
    """w = s_{theta_1} ... s_{theta_r}; on the span's orthogonal complement it
    acts trivially, so the order of the factors does not matter."""
    w = identity(oset.system)
    for t in oset.thetas:
        w = w * reflection(oset.system, t)
    return w


def levi_and_involution(oset: OrthogonalSet) -> InvolutionReport:
    """Levi simple roots (h = 0 wall), the action of s_{theta_1}...s_{theta_r}
    on them, and the folded type after identifying negated-swapped components."""
    rs = oset.system
    h = oset.coroot_sum()
    levi = tuple(
        i for i in range(1, rs.rank + 1) if rs.coweight_value(h, rs.simple_root(i)) == 0
    )
    w = involution_element(oset)
    action = {i: w.apply(rs.simple_root(i)) for i in levi}
    fixed = []
    swaps = []
    other = []
    neg_simple = {
        tuple(-x for x in rs.simple_root(j)): j for j in levi
    }
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


@dataclass
class ClassificationReport:
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
    cases = []
    seen = set()
    for label in sorted(oset.offenders, key=lambda o: not oset.system.is_positive(o.beta)):
        if label.case not in seen:
            seen.add(label.case)
            cases.append(label)
    reduced = reduce_b2long(oset)
    verdict = is_spherical(oset)
    h = reduced.coroot_sum()
    h_dom, _ = oset.system.dominantize(h)
    return ClassificationReport(
        oset=oset,
        rationally_orthogonal=rat,
        cases=cases,
        reduced_set=reduced,
        h=h,
        h_dominant=h_dom,
        height=verdict.height,
        spherical=verdict.spherical,
        dynkin_labels=h_dom.coords,
        orbit_type_rank=reduced.r,
    )
