"""Finite crystallographic root systems with exact arithmetic.

Roots are integer vectors in the simple-root basis. Coweights are integer
vectors in the fundamental-coweight basis (entry i is the value on alpha_i).
Simple roots are numbered as in Bourbaki for every family; in particular the
branch node of E6/E7/E8 is alpha_4 with alpha_2 hanging off it, B_n has the
short simple root last and C_n the long simple root last. The simple
reflection kernel on coweights (coweight_reflect, strip_descents) is shared
with weyl, which keys group elements by coweights, and with quotient.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from fractions import Fraction

Coords = Tuple[int, ...]

# Degrees of the exceptional Weyl groups (Humphreys, Reflection Groups and
# Coxeter Groups, 3.7, Table 1).
_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


class InvalidRankError(ValueError):
    """Unsupported (family, rank) combination."""


class CapExceededError(RuntimeError):
    """The group is larger than the configured enumeration cap."""

    def __init__(self, partial_size: int):
        super().__init__(f"enumeration cap exceeded; partial size {partial_size}")
        self.partial_size = partial_size


# The cap on |W| when none is given (weyl.WeylGroup) or set (WEYLORBITS_CAP).
DEFAULT_CAP = 1_000_000


def degrees(family: str, rank: int) -> Tuple[int, ...]:
    """Degrees of the basic invariants of the Weyl group: |W| is their
    product and the number of positive roots is the sum of d - 1.
    InvalidRankError for an unsupported system."""
    if family == "A" and rank >= 1:
        return tuple(range(2, rank + 2))
    if family in ("B", "C") and rank >= 2:
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D" and rank >= 3:
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    if (family, rank) in _EXCEPTIONAL_DEGREES:
        return _EXCEPTIONAL_DEGREES[family, rank]
    raise InvalidRankError(f"unsupported root system {family}{rank}")


def capped_order(family: str, rank: int, cap: int) -> int:
    """|W|, the product of the degrees, if it is at most cap; CapExceededError
    otherwise, without forming the degrees when rank > cap.bit_length(), since
    |W| >= 2^rank. InvalidRankError for an unsupported system."""
    if rank > cap.bit_length():
        raise CapExceededError(cap)
    order = math.prod(degrees(family, rank))
    if order > cap:
        raise CapExceededError(cap)
    return order


def _diagram_edges(family: str, rank: int) -> List[Tuple[int, int, int, int]]:
    """Edges (i, j, a_ij, a_ji) of the Dynkin diagram, 0-based indices.

    a_ij is the Cartan entry <alpha_j, alpha_i^vee>.
    """
    n = rank
    chain = [(i, i + 1, -1, -1) for i in range(n - 1)]
    if family == "A":
        return chain
    if family == "B":
        # alpha_n short: <alpha_n, alpha_{n-1}^vee> = -1, reverse -2
        chain[-1] = (n - 2, n - 1, -1, -2)
        return chain
    if family == "C":
        chain[-1] = (n - 2, n - 1, -2, -1)
        return chain
    if family == "D":
        chain = [(i, i + 1, -1, -1) for i in range(n - 2)]
        chain.append((n - 3, n - 1, -1, -1))
        return chain
    if family == "E":
        edges = [(0, 2, -1, -1), (1, 3, -1, -1)]
        edges += [(i, i + 1, -1, -1) for i in range(2, n - 1)]
        return edges
    if family == "F":
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    if family == "G":
        # alpha_1 short, alpha_2 long: <alpha_2, alpha_1^vee> = -3
        return [(0, 1, -3, -1)]
    raise InvalidRankError(f"unsupported family {family!r}")


def cartan_entries(family: str, rank: int) -> Callable[[int, int], int]:
    """The Cartan entry a(i, j) = <alpha_j, alpha_i^vee>, 0-based, read from
    the diagram edges without a rank x rank table; InvalidRankError for an
    unsupported system."""
    degrees(family, rank)
    off = {}
    for i, j, aij, aji in _diagram_edges(family, rank):
        off[i, j] = aij
        off[j, i] = aji
    return lambda i, j: 2 if i == j else off.get((i, j), 0)


def cartan_matrix(family: str, rank: int) -> Tuple[Coords, ...]:
    """Cartan matrix with a[i][j] = <alpha_j, alpha_i^vee>; InvalidRankError
    for an unsupported system. Builds no roots."""
    a = cartan_entries(family, rank)
    return tuple(tuple(a(i, j) for j in range(rank)) for i in range(rank))


def symmetrizer(family: str, rank: int) -> Coords:
    """Positive integers d_i with d_i * a_ij symmetric; d_i = (alpha_i, alpha_i)/2."""
    if family == "B":
        return tuple([2] * (rank - 1) + [1])
    if family == "C":
        return tuple([1] * (rank - 1) + [2])
    if family == "F":
        return (2, 2, 1, 1)
    if family == "G":
        return (1, 3)
    return tuple([1] * rank)


Bonds = Sequence[Sequence[Tuple[int, int]]]


def coweight_reflect(bonds: Bonds, x: Coords, i: int) -> Coords:
    """s_{alpha_i}(x) = x - x_i (a_i1, ..., a_in) for a coweight x, 0-based i."""
    xi = x[i]
    y = list(x)
    y[i] = -xi
    for j, a in bonds[i]:
        y[j] -= a * xi
    return tuple(y)


def strip_descents(
    bonds: Bonds, x: Coords, indices: Optional[Sequence[int]] = None
) -> Tuple[List[int], Coords]:
    """Reflect at the smallest 0-based index i with x_i < 0 (only among the
    ascending `indices`, if given) until there is none.

    Returns the 1-based letters in application order and the final coweight.
    For a Weyl group key x = w^{-1}(rho^vee) the letters p_1..p_k are right
    descents removed in turn: w = u s_{p_k} ... s_{p_1} where u has the final key.
    """
    idx = range(len(x)) if indices is None else indices
    letters: List[int] = []
    while True:
        for i in idx:  # a plain loop: a generator per step costs twice as much
            if x[i] < 0:
                break
        else:
            return letters, x
        letters.append(i + 1)
        x = coweight_reflect(bonds, x, i)


class Coweight(NamedTuple):
    """Coweight in the fundamental-coweight basis: coords[i] = value on alpha_i."""

    coords: Coords

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


class RootSystem:
    """Immutable root system built by reflection closure from the simple roots."""

    def __init__(self, family: str, rank: int):
        expected = 2 * sum(d - 1 for d in degrees(family, rank))
        self.family = family
        self.rank = rank
        self.cartan = cartan_matrix(family, rank)
        self.symm = symmetrizer(family, rank)
        # B = D A, the symmetrized Cartan matrix: (u, v) = u . B v
        self.gram = tuple(tuple(d * a for a in row) for d, row in zip(self.symm, self.cartan))
        # bonds[i]: the (j, a_ij) with j != i and a_ij != 0, 0-based
        self.bonds: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple((j, a) for j, a in enumerate(row) if a and j != i)
            for i, row in enumerate(self.cartan)
        )
        self._simple_roots = tuple(tuple(int(j == i) for j in range(rank)) for i in range(rank))
        # norms[b] = (b, b) for every root b: one value per root length
        self.norms: Dict[Coords, int] = self._generate()
        self.roots: Tuple[Coords, ...] = tuple(sorted(self.norms))
        self.root_set = frozenset(self.roots)
        if len(self.roots) != expected:
            raise AssertionError(f"{family}{rank} has {len(self.roots)} roots, expected {expected}")
        self.positive_roots: Tuple[Coords, ...] = tuple(
            r for r in self.roots if self.is_positive(r)
        )
        # the highest root of an irreducible system is its one root of
        # greatest height, and it is long
        self.highest_root: Coords = max(self.positive_roots, key=sum)
        self.long_norm = self.norms[self.highest_root]
        # filled on first use, one entry per root at most (see _row, coroot
        # and _column)
        self._rows: Dict[Coords, Coords] = {}
        self._coroots: Dict[Coords, Coweight] = {}
        self._columns: Dict[Coords, Tuple[Tuple[int, ...], int, int, int, int]] = {}

    # -- construction -----------------------------------------------------

    def _generate(self) -> Dict[Coords, int]:
        """Every root with its norm, by reflection closure from the simple
        roots: s_i preserves the form, so a root keeps the norm
        (alpha_i, alpha_i) = 2 d_i of the simple root it came from. The
        closure runs over the positive roots, which s_i permutes apart from
        alpha_i -> -alpha_i; the negatives are added at the end."""
        norms = {a: 2 * d for a, d in zip(self._simple_roots, self.symm)}
        frontier = list(norms)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(self.rank):
                    w = self.reflect_simple(v, i)
                    if w[i] >= 0 and w not in norms:
                        norms[w] = norms[v]
                        nxt.append(w)
            frontier = nxt
        norms.update({tuple(-x for x in v): m for v, m in list(norms.items())})
        return norms

    # -- basic predicates ---------------------------------------------------

    def is_root(self, v: Coords) -> bool:
        return tuple(v) in self.root_set

    def is_positive(self, v: Coords) -> bool:
        return all(x >= 0 for x in v)

    def simple_root(self, i: int) -> Coords:
        """Simple root alpha_i, 1-based index."""
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple index {i} out of range")
        return self._simple_roots[i - 1]

    # -- bilinear form and pairings ----------------------------------------

    def _row(self, b: Coords) -> Coords:
        """B b, so that (u, b) = u . B b: kept on first use when b is a root,
        computed afresh from the Gram matrix for any other vector."""
        b = tuple(b)
        row = self._rows.get(b)
        if row is None:
            row = tuple(sum(map(mul, g, b)) for g in self.gram)
            if b in self.root_set:
                self._rows[b] = row
        return row

    def form(self, u: Coords, v: Coords) -> int:
        """(u, v) with (alpha_i, alpha_j) = d_i * a_ij; integer on the root lattice."""
        return sum(map(mul, u, self._rows.get(tuple(v)) or self._row(v)))

    def norm(self, b: Coords) -> int:
        """(b, b), read from the root norms when b is a root."""
        m = self.norms.get(tuple(b))
        return self.form(b, b) if m is None else m

    def pairing(self, a: Coords, b: Coords) -> int:
        """<a, b^vee> = 2(a,b)/(b,b): the coroot's values summed over a when
        b is a root."""
        b = tuple(b)
        if b in self.root_set:
            return sum(map(mul, a, self.coroot(b).coords))
        num = 2 * self.form(a, b)
        den = self.norm(b)
        q, r = divmod(num, den)
        if r:
            raise ValueError("pairing is not integral; b is not a root")
        return q

    def reflect(self, a: Coords, b: Coords) -> Coords:
        """s_b(a) = a - <a, b^vee> b."""
        c = self.pairing(a, b)
        return tuple(x - c * y for x, y in zip(a, b))

    def reflect_simple(self, v: Coords, i: int) -> Coords:
        """s_{alpha_i}(v) = v - (A v)_i alpha_i, 0-based i, with (A v)_i read from the bonds of i."""
        c = 2 * v[i] + sum(a * v[j] for j, a in self.bonds[i])
        return v[:i] + (v[i] - c,) + v[i + 1:] if c else v

    # -- coweights -----------------------------------------------------------

    def coroot(self, b: Coords) -> Coweight:
        """b^vee as a coweight, kept per root b: value on alpha_i is
        <alpha_i, b^vee> = 2 (B b)_i / (b, b)."""
        b = tuple(b)
        h = self._coroots.get(b)
        if h is None:
            n = self.norm(b)
            values = [divmod(2 * x, n) for x in self._row(b)]
            if any(r for _, r in values):
                raise ValueError("pairing is not integral; b is not a root")
            h = Coweight(tuple(q for q, _ in values))
            if b in self.root_set:
                self._coroots[b] = h
        return h

    @cached_property
    def positive_coroots(self) -> List[Tuple[Coords, Coords]]:
        """The pairs (beta, beta^vee) over the positive roots, the coroot as
        its values on the simple roots."""
        return [(beta, self.coroot(beta).coords) for beta in self.positive_roots]

    def coweight_value(self, h: Coweight, v: Coords) -> int:
        """Value of h on a root-lattice element v."""
        return sum(map(mul, h.coords, v))

    def reflect_coweight(self, h: Coweight, i: int) -> Coweight:
        """s_{alpha_i} acting on a coweight, 0-based i."""
        return Coweight(coweight_reflect(self.bonds, h.coords, i))

    def dominantize(self, h: Coweight) -> Tuple[Coweight, Tuple[int, ...]]:
        """Dominant W-conjugate of h and the word of simple reflections applied.

        Each step reflects at the smallest simple index where h is negative;
        the word is returned in application order (1-based indices).
        """
        letters, x = strip_descents(self.bonds, h.coords)
        return Coweight(x), tuple(letters)

    # -- rational span --------------------------------------------------------

    def span_membership(
        self, roots: Sequence[Coords], gamma: Coords
    ) -> Optional[Tuple[Fraction, ...]]:
        """Coefficients (q_i) with gamma = sum q_i beta_i, or None if outside the
        span of the pairwise orthogonal roots (ValueError otherwise): the
        projections q_i = p_i / n_i, p_i = (gamma, beta_i), n_i = (beta_i, beta_i).
        gamma is in the span iff L (gamma, gamma) = sum p_i^2 (L / n_i), L =
        lcm(n_i), by Bessel's equality."""
        if any(self.form(a, b) for a, b in combinations(roots, 2)):
            raise ValueError("input roots are not pairwise orthogonal")
        forms = [self._row(b) for b in roots]
        norms = [sum(map(mul, b, f)) for b, f in zip(roots, forms)]
        lcm = math.lcm(*norms)
        proj = [sum(map(mul, gamma, f)) for f in forms]
        if lcm * self.norm(gamma) != sum(p * p * (lcm // m) for p, m in zip(proj, norms)):
            return None
        from fractions import Fraction  # only members need it; a miss returned above
        return tuple(Fraction(p, m) for p, m in zip(proj, norms))

    def _span_lanes(self, thetas: Sequence[Coords]) -> int:
        """0x80 in byte k iff roots[k] is in the rational span of thetas, pairwise
        orthogonal as the caller has checked: byte k of D = L * norms - sum (L / n_i)
        * squares_i is the Bessel defect, in [0, L * long_norm], 0 exactly on the span."""
        norms = [self.norms[t] for t in thetas]
        lcm = math.lcm(*norms)
        squares = sum(lcm // n * self._column(t)[1] for t, n in zip(thetas, norms))
        return self._lanes_at(lcm * self._packed[0] - squares, 0)

    def _lanes_at(self, x: int, c: int) -> int:
        """0x80 in each byte of x that equals c, the bytes of x and c below 128:
        x ^ c.. is 0 in exactly those bytes, and adding 0x7f sets a byte's high
        bit iff the byte is not 0, and carries no further."""
        _, high, low = self._packed
        return high & ~((x ^ c * (high >> 7)) + low)

    def _lanes_in_order(self, mask: int) -> Iterator[int]:
        """The k with byte k of mask set, in root order but the positive roots
        (the upper half of the sorted roots) first."""
        split = len(self.positive_roots)
        for part, base in ((mask >> 8 * split, split), (mask & ((1 << 8 * split) - 1), 0)):
            while part:
                bit = part & -part
                yield base + bit.bit_length() // 8 - 1
                part ^= bit

    def _column(self, theta: Coords) -> Tuple[Tuple[int, ...], int, int, int, int]:
        """(p, p^2, nonzero, half, whole), kept per root theta of norm n: the projections
        p = (gamma, theta) over the roots gamma, then one byte per root of p^2 (|p| <= 6)
        and of the lanes, 1 in a byte, where p != 0, where 2 |p| = n and where |p| = n."""
        col = self._columns.get(theta)
        if col is None:
            proj = [0] * len(self.roots)
            for coords, b in zip(self._by_coordinate, self._row(theta)):
                if b:  # (gamma, theta) = sum_j gamma_j (B theta)_j over the few j
                    proj = list(map(add, proj, map(mul, coords, repeat(b))))
            _, high, low = self._packed
            sq, n = int.from_bytes(bytes(map(mul, proj, proj)), "little"), self.norms[theta]
            half, whole = (self._lanes_at(sq, c * c) >> 7 for c in (n // 2, n))
            col = self._columns[theta] = (tuple(proj), sq, ((sq + low) & high) >> 7, half, whole)
        return col

    _by_coordinate = cached_property(lambda self: tuple(zip(*self.roots)))  # coordinate j of each root

    @cached_property
    def _packed(self) -> Tuple[int, ...]:
        """The root norms packed one byte per root, and the masks 0x80.., 0x7f.."""
        if math.lcm(*self.norms.values()) * self.long_norm >= 128:
            raise AssertionError(f"{self.family}{self.rank}: Bessel defects do not fit in 7 bits")
        n = len(self.roots)
        packed = (bytes(self.norms[b] for b in self.roots), b"\x80" * n, b"\x7f" * n)
        return tuple(int.from_bytes(x, "little") for x in packed)

    # 0x80 in the byte of each long root
    _long_lanes = cached_property(lambda self: self._lanes_at(self._packed[0], self.long_norm))

    @cached_property
    def _negated_simple(self) -> Dict[Coords, int]:
        """-alpha_j -> j (1-based) for every simple root alpha_j."""
        return {tuple(-x for x in a): j for j, a in enumerate(self._simple_roots, 1)}


# One RootSystem per (family, rank) and process; weyl.weyl_group keeps the
# system's group on it, made only for a caller that asks for the group.
_SYSTEMS: Dict[Tuple[str, int], RootSystem] = {}


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of the given family and rank, built once per process."""
    family = family.upper()
    rs = _SYSTEMS.get((family, rank))
    if rs is None:
        rs = _SYSTEMS[(family, rank)] = RootSystem(family, rank)
    return rs
