"""Weyl group elements keyed by regular coweights, and their enumerated groups.

An element w is stored as the coweight x = w^{-1}(rho^vee) in the
fundamental-coweight basis, so x_i = <w(alpha_i), rho^vee> is the height of
w(alpha_i). The key is defined without enumerating the group:

- right multiplication by s_i is the simple reflection x -> s_i(x);
- the right descents of w are the indices i with x_i < 0;
- removing right descents until x is dominant spells a reduced word of w.

WeylGroup enumerates the orbit of rho^vee breadth-first and keeps only the
list of elements and the length of each key. Bruhat order is decided on keys
by the lifting property, without tables or a memo.

The convention is that a word w = s_{i_1} ... s_{i_k} acts with the rightmost
letter first (standard composition), so in type A the word s_2 s_1 has line
notation 3 1 2.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .roots import Bonds, Coords, RootSystem, coweight_reflect, degrees, strip_descents


class CapExceededError(RuntimeError):
    """The group is larger than the configured enumeration cap."""

    def __init__(self, partial_size: int):
        super().__init__(f"enumeration cap exceeded; partial size {partial_size}")
        self.partial_size = partial_size


class WeylElement:
    """A Weyl group element w, keyed by x = w^{-1}(rho^vee)."""

    __slots__ = ("system", "x", "_hash", "_word")

    def __init__(self, system: RootSystem, x: Coords):
        self.system = system
        self.x = x
        self._hash = hash(x)
        self._word: Optional[Tuple[int, ...]] = None

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
        if self._word is not None:
            return len(self._word)
        return len(self._letters())

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
    simple_mask(system.rank, word)  # IndexError for a letter outside 1..rank
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
    letters, x = strip_descents(rs.bonds, w.x, simple_mask(rs.rank, L))
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


def _orbit(bonds: Bonds, rank: int, gens: Iterable[int]) -> Dict[Coords, int]:
    """Keys of W_gens (0-based generators) with their lengths, breadth-first.

    A key is reflected only at its ascents (x_i > 0): there w s_i is one
    longer than w, and a descent leads back to a key already seen.
    """
    start = (1,) * rank
    keys = [start]
    lengths = {start: 0}
    # keys grows while it is read: a FIFO queue, so the order is breadth-first
    for x in keys:
        length = lengths[x] + 1
        for i in gens:
            if x[i] > 0:
                y = coweight_reflect(bonds, x, i)
                if y not in lengths:
                    lengths[y] = length
                    keys.append(y)
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
    """Full enumeration of a finite Weyl group.

    `elements` lists the group breadth-first by length, and `lengths` maps
    each key to the length of its element. `element(x)` returns the group's
    own element for a key, which computes its reduced word once.
    """

    DEFAULT_CAP = 1_000_000

    def __init__(self, system: RootSystem, cap: int = DEFAULT_CAP):
        order = math.prod(degrees(system.family, system.rank))
        if order > cap:
            raise CapExceededError(cap)
        self.system = system
        self.lengths = _orbit(system.bonds, system.rank, range(system.rank))
        if len(self.lengths) != order:
            name = f"{system.family}{system.rank}"
            raise AssertionError(f"W({name}) has {len(self.lengths)} elements, expected {order}")
        self.elements = [WeylElement(system, x) for x in self.lengths]
        self._own = {w.x: w for w in self.elements}
        self._coroots = [(beta, system.coroot(beta).coords) for beta in system.positive_roots]

    def __len__(self) -> int:
        return len(self.elements)

    def element(self, x: Coords) -> WeylElement:
        """The group's own element with key x."""
        return self._own[x]

    def covers_below(self, x: Coords) -> List[Coords]:
        """Keys of the Bruhat covers w s_beta (beta > 0) below the element w
        with key x: (w s_beta)^{-1} rho^vee = s_beta(x) = x - <beta, x> beta^vee,
        and l(w s_beta) < l(w) iff <beta, x> < 0."""
        target = self.lengths[x] - 1
        out = []
        for beta, coroot in self._coroots:
            c = sum(b * xi for b, xi in zip(beta, x))
            if c < 0:
                u = tuple(xi - c * h for xi, h in zip(x, coroot))
                if self.lengths[u] == target:
                    out.append(u)
        return out

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Strong Bruhat order via the lifting property (Bjorner-Brenti 2.2)."""
        check_system(self.system, u)
        check_system(self.system, w)
        lengths = self.lengths
        return bruhat_leq_keys(self.system.bonds, u.x, lengths[u.x], w.x, lengths[w.x])

    def bruhat_covers_below(self, w: WeylElement) -> List[WeylElement]:
        """All u with u covered by w; each u = w * t for a reflection t."""
        check_system(self.system, w)
        return [self._own[u] for u in self.covers_below(w.x)]

    def _gens(self, L: Iterable[int]) -> List[int]:
        mask = simple_mask(self.system.rank, L)
        return [i for i in range(self.system.rank) if mask >> i & 1]

    def subgroup_elements(self, L: Iterable[int]) -> List[WeylElement]:
        """All elements of the standard parabolic W_L, breadth-first by length."""
        rs = self.system
        return [self._own[x] for x in _orbit(rs.bonds, rs.rank, self._gens(L))]

    def min_coset_reps(self, L: Iterable[int]) -> List[WeylElement]:
        """Minimal-length representatives W^L, in enumeration order."""
        gens = self._gens(L)
        return [w for w in self.elements if all(w.x[i] > 0 for i in gens)]


def simple_mask(rank: int, indices: Iterable[int]) -> int:
    """Bit mask of 1-based simple indices (bit i for index i+1) of a rank-n
    system; IndexError for an index outside 1..n."""
    mask = 0
    for i in indices:
        if not 1 <= i <= rank:
            raise IndexError(f"simple index {i} out of range")
        mask |= 1 << (i - 1)
    return mask


def weyl_group(system: RootSystem, cap: Optional[int] = None) -> WeylGroup:
    """The full enumeration for a root system, built once and kept on it.

    With a cap, raises CapExceededError whenever |W|, the product of the
    degrees, is larger than the cap, also when the group was built before.
    Without one, a new enumeration uses WeylGroup.DEFAULT_CAP. Either check
    runs before anything is enumerated.
    """
    if cap is not None and math.prod(degrees(system.family, system.rank)) > cap:
        raise CapExceededError(cap)
    group = getattr(system, "_weyl_group", None)
    if group is None:
        group = system._weyl_group = WeylGroup(system, WeylGroup.DEFAULT_CAP if cap is None else cap)
    return group
