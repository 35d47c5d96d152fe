"""Weyl group elements keyed by regular coweights, and their enumerated groups.

An element w is stored as the coweight x = w^{-1}(rho^vee) in the
fundamental-coweight basis, so x_i = <w(alpha_i), rho^vee> is the height of
w(alpha_i). The key is defined without enumerating the group:

- right multiplication by s_i is the simple reflection x -> s_i(x);
- the right descents of w are the indices i with x_i < 0;
- removing right descents until x is dominant spells a reduced word of w.

WeylGroup knows its order from the degrees (roots.capped_order, the one cap
check) and enumerates the orbit of rho^vee breadth-first only when its
elements or its length table are read. Bruhat order is decided on keys by
the lifting property (bruhat_leq_keys), without a group, tables or a memo;
the quotient and the CLI use it on keys alone.

The convention is that a word w = s_{i_1} ... s_{i_k} acts with the rightmost
letter first (standard composition), so in type A the word s_2 s_1 has line
notation 3 1 2.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .roots import Bonds, Coords, RootSystem, capped_order, coweight_reflect, strip_descents
from .roots import DEFAULT_CAP, CapExceededError  # the error is re-exported, as weyl.CapExceededError


class WeylElement:
    """A Weyl group element w, keyed by x = w^{-1}(rho^vee). Its length and
    reduced word are computed once, on first use."""

    __slots__ = ("system", "x", "_hash", "_word", "_length")

    def __init__(self, system: RootSystem, x: Coords):
        self.system = system
        self.x = x
        self._hash = hash(x)
        self._word: Optional[Tuple[int, ...]] = None
        self._length: Optional[int] = None

    def __eq__(self, other: object) -> bool:
        # a key's length is the rank, but A3 and C3 share keys such as s3's
        return isinstance(other, WeylElement) and self.x == other.x and self.system.family == other.system.family

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        word = self.reduced_word()
        return "e" if not word else " ".join(f"s{i}" for i in word)

    def _letters(self) -> List[int]:
        """Letters p_1..p_k with w = s_{p_k} ... s_{p_1}."""
        return strip_descents(self.system.bonds, self.x)[0]

    def apply(self, v: Coords) -> Coords:
        """Image of a root-lattice vector under w."""
        for i in self._letters():
            v = self.system.reflect_simple(v, i - 1)
        return v

    def mul(self, other: "WeylElement") -> "WeylElement":
        check_system(self.system, other)
        bonds = self.system.bonds
        x = self.x
        for i in reversed(other._letters()):
            x = coweight_reflect(bonds, x, i - 1)
        return WeylElement(self.system, x)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.mul(other)

    def inv(self) -> "WeylElement":
        bonds = self.system.bonds
        x = (1,) * self.system.rank
        for i in self._letters():
            x = coweight_reflect(bonds, x, i - 1)
        return WeylElement(self.system, x)

    def is_identity(self) -> bool:
        return all(c == 1 for c in self.x)

    def length(self) -> int:
        """Number of positive roots sent to negative roots."""
        if self._length is None:
            self._length = len(self._letters())
        return self._length

    def right_descents(self) -> List[int]:
        """Simple indices i (1-based) with l(w s_i) < l(w), i.e. w(alpha_i) < 0."""
        return [i + 1 for i, c in enumerate(self.x) if c < 0]

    def reduced_word(self) -> Tuple[int, ...]:
        """Lexicographically smallest reduced word (repeated smallest left descent).

        The left descents of w are the right descents of w^{-1}.
        """
        if self._word is None:
            self._word = tuple(self.inv()._letters())
        return self._word


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    """s_{alpha_i}, 1-based index."""
    return from_word(system, (i,))


def reflection(system: RootSystem, beta: Coords) -> WeylElement:
    """The reflection s_beta for any root beta: s_beta(rho^vee) = rho^vee - ht(beta) beta^vee."""
    height = sum(beta)
    coroot = system.coroot(beta).coords
    return WeylElement(system, tuple(1 - height * c for c in coroot))


def identity(system: RootSystem) -> WeylElement:
    return WeylElement(system, (1,) * system.rank)


def from_word(system: RootSystem, word: Sequence[int]) -> WeylElement:
    """Product s_{i_1} ... s_{i_k}, rightmost letter acting first."""
    simple_indices(system.rank, word)  # IndexError for a letter outside 1..rank
    x = (1,) * system.rank
    for i in word:
        x = coweight_reflect(system.bonds, x, i - 1)
    return WeylElement(system, x)


def right_weak_leq(v: WeylElement, w: WeylElement) -> bool:
    """v <=_R w iff l(w) = l(w v^{-1}) + l(v)."""
    return w.length() == (w * v.inv()).length() + v.length()


def parabolic_decompose(
    w: WeylElement, L: Iterable[int]
) -> Tuple[WeylElement, WeylElement]:
    """Unique factorization w = w_upper * w_lower with w_lower in W_L, w_upper in W^L."""
    rs = w.system
    letters, x = strip_descents(rs.bonds, w.x, simple_indices(rs.rank, L))
    return WeylElement(rs, x), from_word(rs, letters[::-1])


def to_line_notation(w: WeylElement) -> Tuple[int, ...]:
    """Line notation (w(1),...,w(n)) for type A rank n-1.

    w(alpha_i) = eps_{w(i)} - eps_{w(i+1)} has height w(i+1) - w(i) = x_i.
    """
    if w.system.family != "A":
        raise ValueError("line notation is defined for type A only")
    prefix = [0]
    for c in w.x:
        prefix.append(prefix[-1] + c)
    start = 1 - min(prefix)
    return tuple(start + p for p in prefix)


def from_line_notation(system: RootSystem, seq: Sequence[int]) -> WeylElement:
    """Inverse of to_line_notation."""
    if system.family != "A":
        raise ValueError("line notation is defined for type A only")
    n = system.rank + 1
    if sorted(seq) != list(range(1, n + 1)):
        raise ValueError("input is not a permutation of 1..n")
    return WeylElement(system, tuple(seq[i + 1] - seq[i] for i in range(n - 1)))


def check_system(system: RootSystem, w: WeylElement) -> None:
    """ValueError unless w is an element of the Weyl group of `system`."""
    if (w.system.family, w.system.rank) != (system.family, system.rank):
        raise ValueError("element of another root system")


def _known(
    system: RootSystem, x: Coords, length: Optional[int], word: Optional[Tuple[int, ...]] = None
) -> WeylElement:
    """The element with key x, of a length known from an orbit's depth and
    with its lex-least reduced word, if known; each is computed on first use
    otherwise."""
    w = WeylElement(system, x)
    w._length, w._word = length, word
    return w


def parabolic_elements(system: RootSystem, L: Iterable[int]) -> List[WeylElement]:
    """All elements of the standard parabolic W_L, breadth-first by length."""
    gens = simple_indices(system.rank, L)
    orbit = _orbit(system.bonds, (1,) * system.rank, gens)
    return [_known(system, x, n) for x, n in orbit.items()]


def shorter_reflections(system: RootSystem, x: Coords) -> Iterator[Coords]:
    """Keys of the w s_beta (beta > 0) shorter than the element w with key x:
    the key of w s_beta is s_beta(x) = x - <beta, x> beta^vee, and
    l(w s_beta) < l(w) iff <beta, x> < 0."""
    for beta, coroot in system.positive_coroots:
        c = sum(map(mul, beta, x))
        if c < 0:
            yield tuple(xi - c * h for xi, h in zip(x, coroot))


def _orbit(bonds: Bonds, start: Coords, gens: Iterable[int]) -> Dict[Coords, int]:
    """The orbit of a dominant coweight under W_gens (0-based generators),
    breadth-first, each point v(start) with the length of the shortest such v.

    A point mu = v(start) is reflected only where mu_i > 0: there s_i v is one
    longer than v and still shortest (Deodhar's lemma); mu_i < 0 leads back
    to a point already seen, and mu_i = 0 to mu itself. From start = rho^vee,
    whose stabilizer is trivial, the points are the keys of W_gens: the key of
    w is w^{-1}(rho^vee), and s_i(x) is the key of w s_i.
    """
    points = [start]
    lengths = {start: 0}
    # points grows while it is read: a FIFO queue, so the order is breadth-first
    for x in points:
        length = lengths[x] + 1
        for i in gens:
            if x[i] > 0:
                y = coweight_reflect(bonds, x, i)
                if y not in lengths:
                    lengths[y] = length
                    points.append(y)
    return lengths


def bruhat_leq_keys(bonds: Bonds, u: Coords, lu: int, w: Coords, lw: int) -> bool:
    """Strong Bruhat order u <= w on keys of lengths lu, lw by the lifting
    property (Bjorner-Brenti, Prop. 2.2.7): for a right descent s of w,
    u <= w iff us <= ws when s is a descent of u too, and iff u <= ws
    otherwise. Once l(u) >= l(w), u <= w iff u = w."""
    while lu < lw:
        if not lu:  # u = e
            return True
        for i, c in enumerate(w):  # the first right descent of w
            if c < 0:
                break
        if u[i] < 0:
            u = coweight_reflect(bonds, u, i)
            lu -= 1
        w = coweight_reflect(bonds, w, i)
        lw -= 1
    return u == w


class WeylGroup:
    """A finite Weyl group, enumerated only when a caller reads it whole.

    Construction checks |W|, the product of the degrees, against the cap
    (roots.capped_order) and enumerates nothing. `lengths` maps each key to
    the length of its element and `elements` lists the group breadth-first
    by length; both are built on first use. Bruhat order and covers need
    no enumeration.
    """

    DEFAULT_CAP = DEFAULT_CAP  # roots.DEFAULT_CAP, the CLI's default too

    def __init__(self, system: RootSystem, cap: int = DEFAULT_CAP):
        self._order = capped_order(system.family, system.rank, cap)
        self.system = system

    def __len__(self) -> int:
        return self._order

    @cached_property
    def lengths(self) -> Dict[Coords, int]:
        rs = self.system
        lengths = _orbit(rs.bonds, (1,) * rs.rank, range(rs.rank))
        if len(lengths) != self._order:
            name = f"{rs.family}{rs.rank}"
            raise AssertionError(f"W({name}) has {len(lengths)} elements, expected {self._order}")
        return lengths

    @cached_property
    def elements(self) -> List[WeylElement]:
        return [_known(self.system, x, n) for x, n in self.lengths.items()]

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Strong Bruhat order via the lifting property (Bjorner-Brenti 2.2),
        with the lengths of the elements themselves."""
        check_system(self.system, u)
        check_system(self.system, w)
        return bruhat_leq_keys(self.system.bonds, u.x, u.length(), w.x, w.length())

    def bruhat_covers_below(self, w: WeylElement) -> List[WeylElement]:
        """All u covered by w: each u = w s_beta (beta > 0) of length l(w) - 1."""
        check_system(self.system, w)
        target = w.length() - 1
        candidates = (WeylElement(self.system, u) for u in shorter_reflections(self.system, w.x))
        return [u for u in candidates if u.length() == target]

    def subgroup_elements(self, L: Iterable[int]) -> List[WeylElement]:
        """All elements of the standard parabolic W_L, breadth-first by length."""
        return parabolic_elements(self.system, L)


def simple_indices(rank: int, indices: Iterable[int]) -> Tuple[int, ...]:
    """The distinct 0-based indices, ascending, of 1-based simple indices of
    a rank-n system; IndexError for an index outside 1..n."""
    out = set()
    for i in indices:
        if not 1 <= i <= rank:
            raise IndexError(f"simple index {i} out of range")
        out.add(i - 1)
    return tuple(sorted(out))


def weyl_group(system: RootSystem, cap: Optional[int] = None) -> WeylGroup:
    """The Weyl group of a root system, made once and kept on it; it is
    enumerated only when its elements or lengths are read.

    With a cap, raises CapExceededError whenever |W|, the product of the
    degrees, is larger than the cap, also when the group was made before.
    Without one, a new group is checked against WeylGroup.DEFAULT_CAP.
    """
    group = getattr(system, "_weyl_group", None)
    if group is None:
        group = system._weyl_group = WeylGroup(system, WeylGroup.DEFAULT_CAP if cap is None else cap)
    elif cap is not None:
        capped_order(system.family, system.rank, cap)
    return group
