"""The quotient W(I,J,K), minimal coset elements, and the order leq_O.

W(I,J,K) = W^{J u K} is a transversal of the cosets w W_K W_{I,J} where
W_{I,J} = {x x* : x in W_I} is the diagonal twisted by the star isomorphism
I -> J. The order w' <=_O w holds iff some member of [w'] is Bruhat-below w;
it is computed through the least-length coset members Min(w').
Canonical representatives, the union M of the Min sets and the Min sets
follow from u = u^L a_I a_J a_K, u^L in W^L, L = I u J u K (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.4.4), without a coset scan.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .roots import Coords, RootSystem, coweight_reflect, strip_descents
from .weyl import WeylElement, bruhat_leq_keys, check_system, from_word, simple_mask, weyl_group


def check_datum(
    rank: int,
    cartan: Callable[[int, int], int],
    I: Iterable[int],
    J: Iterable[int],
    K: Iterable[int] = (),
    star: Optional[Dict[int, int]] = None,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Dict[int, int]]:
    """The sorted I, J, K and the star map of an (I,J,K) datum of a system of
    the given rank, whose Cartan entries are cartan(i, j) (0-based, as
    roots.cartan_entries); ValueError unless they form one. Reads only the
    entries among I u J u K, and needs no roots and no group."""
    I, J, K = (tuple(sorted(set(s))) for s in (I, J, K))
    if star is None:
        if len(I) != len(J):
            raise ValueError("star map required when |I| != |J|")
        star = dict(zip(I, J))
    star = dict(star)
    sets = {"I": set(I), "J": set(J), "K": set(K)}
    for name, s in sets.items():
        for i in s:
            if not 1 <= i <= rank:
                raise ValueError(f"{name} contains invalid simple index {i}")
    if sets["I"] & sets["J"] or sets["I"] & sets["K"] or sets["J"] & sets["K"]:
        raise ValueError("I, J, K must be pairwise disjoint")
    # pairwise disconnected: no bond between distinct parts
    parts = [sets["I"], sets["J"], sets["K"]]
    for a in range(3):
        for b in range(a + 1, 3):
            for i in parts[a]:
                for j in parts[b]:
                    if cartan(i - 1, j - 1) != 0:
                        raise ValueError(f"simple roots {i} and {j} are connected across parts")
    if sorted(star) != list(I) or sorted(star.values()) != list(J):
        raise ValueError("star must be a bijection I -> J")
    # diagram isomorphism: m(s,t) = m(s*,t*), and m(s,t) is fixed by the
    # product a_st a_ts (0, 1, 2, 3 for m = 2, 3, 4, 6)
    def bond(s: int, t: int) -> int:
        return cartan(s - 1, t - 1) * cartan(t - 1, s - 1)

    for s in I:
        for t in I:
            if bond(s, t) != bond(star[s], star[t]):
                raise ValueError("star is not a Coxeter-diagram isomorphism")
    return I, J, K, star


class IJKDatum:
    """The triple (I, J, K) with the star isomorphism W_I -> W_J.

    W_I, W_K, the star images x -> x* and the products x x* are computed
    once here, as elements of the datum's group.
    """

    def __init__(
        self,
        system: RootSystem,
        I: Iterable[int],
        J: Iterable[int],
        K: Iterable[int] = (),
        star: Optional[Dict[int, int]] = None,
    ):
        self.system = system
        self.I, self.J, self.K, self.star_map = check_datum(
            system.rank, lambda i, j: system.cartan[i][j], I, J, K, star
        )
        self.group = weyl_group(system)
        self.L = tuple(sorted(self.I + self.J + self.K))
        g = self.group
        self._jk = self.J + self.K
        self._l_mask = simple_mask(system.rank, self.L)
        self._w_i = g.subgroup_elements(self.I)
        self._w_k = g.subgroup_elements(self.K)
        # a reduced word of x in W_I maps letter by letter to one of x*
        self._star = {
            x: g.element(from_word(system, [self.star_map[i] for i in x.reduced_word()]).x)
            for x in self._w_i
        }
        self._diag = [x.mul(self._star[x]) for x in self._w_i]
        self._unstar = {v: k for k, v in self.star_map.items()}
        self._min_cache: Dict[Coords, List[WeylElement]] = {}

    # -- star and cosets ----------------------------------------------------

    def star_extend(self, x: WeylElement) -> WeylElement:
        """Image of x in W_J under the induced isomorphism."""
        check_system(self.system, x)
        image = self._star.get(x)
        if image is None:
            raise ValueError("element is not in W_I")
        return image

    def w_i_elements(self) -> List[WeylElement]:
        return list(self._w_i)

    def coset(self, w: WeylElement) -> List[WeylElement]:
        """[w] = {w a x x* : a in W_K, x in W_I}; size |W_K| * |W_I|."""
        check_system(self.system, w)
        out = []
        seen = set()
        for a in self._w_k:
            wa = w.mul(a)
            for xx in self._diag:
                u = wa.mul(xx)
                if u not in seen:
                    seen.add(u)
                    out.append(self.group.element(u.x))
        if len(out) != len(self._w_k) * len(self._w_i):
            raise AssertionError("coset size differs from |W_K| * |W_I|")
        return out

    def _rep_key(self, u: Coords) -> Coords:
        """Key of the least member of [u], the one with no right descent in
        J u K: u^L a_I y^{-1} for u = u^L a_I a_J a_K (commuting parts, each
        spelled by its own letters) and y in W_I with y* = a_J."""
        bonds = self.system.bonds
        letters, x = strip_descents(bonds, u, self._l_mask)
        for i in reversed(letters):
            if i in self.star_map:
                x = coweight_reflect(bonds, x, i - 1)
        for j in letters:  # y^{-1} is a_J reversed, unstarred
            if j in self._unstar:
                x = coweight_reflect(bonds, x, self._unstar[j] - 1)
        return x

    def canonical_rep(self, w: WeylElement) -> "QuotientElement":
        """The unique member of [w] with no right descent in J u K."""
        check_system(self.system, w)
        return QuotientElement(self, self.group.element(self._rep_key(w.x)))

    def quotient_elements(self) -> List["QuotientElement"]:
        """All of W(I,J,K) = W^{J u K}, by (length, reduced word)."""
        lengths = self.group.lengths
        reps = self.group.min_coset_reps(self._jk)
        reps.sort(key=lambda w: (lengths[w.x], w.reduced_word()))
        return [QuotientElement(self, w) for w in reps]

    # -- membership in the union of Min sets ---------------------------------

    def member_of_M(self, u: WeylElement) -> bool:
        """True iff u lies in Min(w) for some w: the cosets partition W, so
        iff u is as short as the transversal member of its coset."""
        check_system(self.system, u)
        return self.group.lengths[self._rep_key(u.x)] == u.length()

    def _min_elements(self, w: "QuotientElement") -> List[WeylElement]:
        """Min(w) as the group's own elements, cached per representative."""
        cached = self._min_cache.get(w.rep.x)
        if cached is None:
            g = self.group
            length = g.lengths[w.rep.x]
            products = (w.rep.mul(xx).x for xx in self._diag)
            cached = [g.element(u) for u in products if g.lengths[u] == length]
            self._min_cache[w.rep.x] = cached
        return cached


class QuotientElement:
    """An element of W(I,J,K), held as the group's own element."""

    __slots__ = ("datum", "rep")

    def __init__(self, datum: IJKDatum, rep: WeylElement):
        check_system(datum.system, rep)
        if any(rep.x[i - 1] < 0 for i in datum._jk):
            raise ValueError("representative has a right descent in J u K")
        self.datum = datum
        self.rep = datum.group.element(rep.x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuotientElement) and self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return repr(self.rep)

    def length(self) -> int:
        return self.datum.group.lengths[self.rep.x]


def min_set(w: QuotientElement) -> List[WeylElement]:
    """Min(w) = {w x x* : x in W_I, l(w x x*) = l(w)}, least in [w]."""
    return list(w.datum._min_elements(w))


def leq_O(wp: QuotientElement, w: QuotientElement) -> bool:
    """w' <=_O w iff some element of Min(w') is Bruhat-below w."""
    d1, d2 = wp.datum, w.datum
    if d1 is not d2 and any(
        getattr(d1, a) != getattr(d2, a) for a in ("system", "I", "J", "K", "star_map")
    ):
        raise ValueError("elements from different data")
    if wp.length() >= w.length():  # Min(w') lies at length l(w'): only w itself can be below w
        return wp == w
    bonds, x, lu, lw = d1.system.bonds, w.rep.x, wp.length(), w.length()
    return any(bruhat_leq_keys(bonds, u.x, lu, x, lw) for u in d1._min_elements(wp))


def covers_O_below(w: QuotientElement) -> List[QuotientElement]:
    """All w' covered by w: Bruhat covers below w that lie in some Min set."""
    datum = w.datum
    out = []
    seen = set()
    for u in datum.group.bruhat_covers_below(w.rep):
        wp = datum.canonical_rep(u)
        if wp.length() == datum.group.lengths[u.x] and wp.rep not in seen:
            seen.add(wp.rep)
            out.append(wp)
    if any(wp.length() != w.length() - 1 for wp in out):
        raise AssertionError("a cover below w is not one rank lower")
    return out


class PosetGraph(NamedTuple):
    """Hasse diagram of (W(I,J,K), <=_O); edges are (lower, upper) node indices."""

    nodes: List[QuotientElement]
    edges: List[Tuple[int, int]]

    def rank_profile(self) -> Tuple[int, ...]:
        counts: Dict[int, int] = {}
        for node in self.nodes:
            counts[node.length()] = counts.get(node.length(), 0) + 1
        return tuple(counts[k] for k in sorted(counts))

    def to_json(self) -> str:
        import json

        return json.dumps(
            {
                "nodes": [
                    {"word": list(n.rep.reduced_word()), "length": n.length()}
                    for n in self.nodes
                ],
                "edges": [list(e) for e in self.edges],
            },
            indent=2,
        )

    def to_dot(self) -> str:
        lines = ["digraph poset {", "\trankdir = BT;"]
        by_rank: Dict[int, List[int]] = {}
        for i, node in enumerate(self.nodes):
            by_rank.setdefault(node.length(), []).append(i)
        for rank in sorted(by_rank):
            lines.append("\t{")
            lines.append("\t\trank = same;")
            for i in by_rank[rank]:
                lines.append(f'\t\t"n{i}" [label="{self.nodes[i].rep!r}", rank={rank}];')
            lines.append("\t}")
        for lo, hi in self.edges:
            lines.append(f'\t"n{lo}" -> "n{hi}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(datum: IJKDatum) -> PosetGraph:
    """Nodes = W(I,J,K); edges = all cover pairs of <=_O."""
    nodes = datum.quotient_elements()
    index = {node.rep.x: i for i, node in enumerate(nodes)}
    edges = []
    for i, node in enumerate(nodes):
        for wp in covers_O_below(node):
            edges.append((index[wp.rep.x], i))
    edges.sort()
    return PosetGraph(nodes, edges)
