"""The quotient W(I,J,K), minimal coset elements, and the order leq_O.

W(I,J,K) = W^{J u K} is a transversal of the cosets w W_K W_{I,J} where
W_{I,J} = {x x* : x in W_I} is the diagonal twisted by the star isomorphism
I -> J. The order w' <=_O w holds iff some member of [w'] is Bruhat-below w;
it is computed through the least-length coset members Min(w').
Canonical representatives, the union M of the Min sets and the Min sets
follow from u = u^L a_I a_J a_K, u^L in W^L, L = I u J u K (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.4.4), without a coset scan, and
W^{J u K} is enumerated as an orbit on its own, so W is never enumerated.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .roots import Coords, RootSystem, coweight_reflect, strip_descents
from .weyl import (
    WeylElement,
    WeylGroup,
    bruhat_leq_keys,
    check_system,
    from_word,
    parabolic_elements,
    quotient_words,
    shorter_reflections,
    simple_indices,
    weyl_group,
)


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

    The datum works on keys and enumerates no group: W_I (and W_K, for a
    coset) is the orbit of rho^vee under its own generators. The datum's
    elements are kept in one map by key, each with its length.
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
        self.L = tuple(sorted(self.I + self.J + self.K))
        self._jk = self.J + self.K
        self._l_idx = simple_indices(system.rank, self.L)
        self._w_i = parabolic_elements(system, self.I)
        self._own: Dict[Coords, WeylElement] = {w.x: w for w in self._w_i}
        self._unstar = {v: k for k, v in self.star_map.items()}
        self._min_cache: Dict[Coords, List[WeylElement]] = {}

    @property
    def group(self) -> WeylGroup:
        """The whole Weyl group of the system (weyl_group), for callers that
        enumerate it; the datum never reads it."""
        return weyl_group(self.system)

    def _element(
        self, x: Coords, length: Optional[int] = None, word: Optional[Tuple[int, ...]] = None
    ) -> WeylElement:
        """The datum's own element with key x, with any known length and word."""
        w = self._own.get(x)
        if w is None:
            w = self._own[x] = WeylElement(self.system, x, length, word)
        return w

    # -- star and cosets ----------------------------------------------------

    def star_extend(self, x: WeylElement) -> WeylElement:
        """Image of x in W_J under the induced isomorphism: a reduced word of
        x in W_I maps letter by letter to one of x*."""
        check_system(self.system, x)
        word = x.reduced_word()
        if not set(word) <= set(self.I):
            raise ValueError("element is not in W_I")
        return self._element(from_word(self.system, [self.star_map[i] for i in word]).x, len(word))

    def coset(self, w: WeylElement) -> List[WeylElement]:
        """[w] = {w a x x* : a in W_K, x in W_I}; size |W_K| * |W_I|."""
        check_system(self.system, w)
        w_k = parabolic_elements(self.system, self.K)
        diag = [x.mul(self.star_extend(x)) for x in self._w_i]
        out = []
        seen = set()
        for a in w_k:
            wa = w.mul(a)
            for xx in diag:
                u = wa.mul(xx)
                if u not in seen:
                    seen.add(u)
                    out.append(self._element(u.x))
        if len(out) != len(w_k) * len(self._w_i):
            raise AssertionError("coset size differs from |W_K| * |W_I|")
        return out

    def _rep_key(self, u: Coords) -> Coords:
        """Key of the least member of [u], the one with no right descent in
        J u K: u^L a_I y^{-1} for u = u^L a_I a_J a_K (commuting parts, each
        spelled by its own letters) and y in W_I with y* = a_J."""
        bonds = self.system.bonds
        letters, x = strip_descents(bonds, u, self._l_idx)
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
        return QuotientElement(self, self._element(self._rep_key(w.x)))

    def quotient_elements(self) -> List["QuotientElement"]:
        """All of W(I,J,K) = W^{J u K}, by (length, reduced word), listed by
        weyl.quotient_words; replaying each lexicographically least reduced
        word from rho^vee gives the key."""
        rs = self.system
        words = quotient_words(rs.bonds, self._jk)
        return [QuotientElement(self, self._element(from_word(rs, w).x, len(w), w)) for w, _ in words]

    # -- membership in the union of Min sets ---------------------------------

    def member_of_M(self, u: WeylElement) -> bool:
        """True iff u lies in Min(w) for some w: the cosets partition W, so
        iff u is as short as the transversal member of its coset."""
        check_system(self.system, u)
        return self._element(self._rep_key(u.x)).length() == u.length()

    def _min_elements(self, w: "QuotientElement") -> List[WeylElement]:
        """Min(w) as the datum's own elements, cached per representative.

        w = w^L a with a in W_I, since w has no right descent in J u K, so
        l(w x x*) = l(w x) + l(x) for x in W_I; w is least in [w], so
        w x x* is in Min(w) iff l(w x) = l(w) - l(x), that is, iff each
        letter of a reduced word of x is a right descent in turn."""
        cached = self._min_cache.get(w.rep.x)
        if cached is None:
            bonds, length = self.system.bonds, w.length()
            cached = []
            for x in self._w_i:
                u, word = w.rep.x, x.reduced_word()
                for i in word:
                    if u[i - 1] > 0:
                        break
                    u = coweight_reflect(bonds, u, i - 1)
                else:
                    for i in word:
                        u = coweight_reflect(bonds, u, self.star_map[i] - 1)
                    cached.append(self._element(u, length))
            self._min_cache[w.rep.x] = cached
        return cached


class QuotientElement:
    """An element of W(I,J,K), held as the datum's own element."""

    __slots__ = ("datum", "rep")

    def __init__(self, datum: IJKDatum, rep: WeylElement):
        check_system(datum.system, rep)
        if any(rep.x[i - 1] < 0 for i in datum._jk):
            raise ValueError("representative has a right descent in J u K")
        self.datum = datum
        self.rep = datum._element(rep.x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuotientElement) and self.rep == other.rep

    def __hash__(self) -> int:
        return hash(self.rep)

    def __repr__(self) -> str:
        return repr(self.rep)

    def length(self) -> int:
        return self.rep.length()


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
    """All w' covered by w: the Bruhat covers u below w that lie in some
    Min set. The candidates are the u = w s_beta shorter than w (beta > 0,
    see shorter_reflections). Since l(rep(u)) <= l(u) < l(w), u is such a
    cover exactly when the member rep(u) of W(I,J,K) in its coset has
    length l(w) - 1."""
    datum = w.datum
    x, target = w.rep.x, w.length() - 1
    out = []
    seen = set()
    for u in shorter_reflections(datum.system, x):
        r = datum._rep_key(u)
        if r not in seen:
            seen.add(r)
            rep = datum._element(r)
            if rep.length() == target:
                out.append(QuotientElement(datum, rep))
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
