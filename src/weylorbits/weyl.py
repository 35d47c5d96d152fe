"""Weyl group elements keyed by regular coweights, and table-driven groups.

An element w is stored as the coweight x = w^{-1}(rho^vee) in the
fundamental-coweight basis, so x_i = <w(alpha_i), rho^vee> is the height of
w(alpha_i). The key is defined without enumerating the group:

- right multiplication by s_i is the simple reflection x -> s_i(x);
- the right descents of w are the indices i with x_i < 0;
- removing right descents until x is dominant spells a reduced word of w.

WeylGroup enumerates the orbit of rho^vee breadth-first and keeps integer
tables (index, length, inverse, right multiplication by generators, lex-min
reduced words) for the code that works on many elements of one group
(Casselman, "Machine calculations in Weyl groups", Invent. Math. 117, 1994).

The convention is that a word w = s_{i_1} ... s_{i_k} acts with the rightmost
letter first (standard composition), so in type A the word s_2 s_1 has line
notation 3 1 2.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .roots import Coords, RootSystem, coweight_reflect, strip_descents


class CapExceededError(RuntimeError):
    """Group enumeration exceeded the configured cap."""

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
        return isinstance(other, WeylElement) and self.x == other.x

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


class WeylGroup:
    """Full enumeration of a finite Weyl group as integer tables.

    Element k is `elements[k]`; its key is `elements[k].x`, and `index` maps
    keys back to k. Elements are listed breadth-first by length. The tables
    are `lengths`, `inverse`, `right_mul[k][i]` (k times s_{i+1}),
    `descents` (bit i set iff i+1 is a right descent) and `words`, the
    lexicographically smallest reduced word of each element. Bruhat
    comparisons are memoized in a shared per-group table.
    """

    DEFAULT_CAP = 1_000_000

    def __init__(self, system: RootSystem, cap: int = DEFAULT_CAP):
        self.system = system
        n = system.rank
        bonds = system.bonds
        start = (1,) * n
        keys: List[Coords] = [start]
        index: Dict[Coords, int] = {start: 0}
        lengths = [0]
        right_mul: List[List[int]] = []
        # keys grows while it is read: a FIFO queue, so the order is breadth-first
        for e, x in enumerate(keys):
            row = []
            for i in range(n):
                y = coweight_reflect(bonds, x, i)
                j = index.get(y)
                if j is None:
                    if len(keys) >= cap:
                        raise CapExceededError(len(keys))
                    j = index[y] = len(keys)
                    keys.append(y)
                    lengths.append(lengths[e] + 1)
                row.append(j)
            right_mul.append(row)
        self.index = index
        self.lengths = lengths
        self.right_mul = right_mul
        self.descents = [sum(1 << i for i, c in enumerate(x) if c < 0) for x in keys]
        # lex-min word of k^{-1}: smallest right descent d of k, then that of
        # the parent k s_d, which is shorter and so earlier in the order
        inverse_words: List[Tuple[int, ...]] = [()]
        inverse = [0]
        for k in range(1, len(keys)):
            d = _lowest_bit(self.descents[k])
            inverse_words.append((d + 1,) + inverse_words[right_mul[k][d]])
            inverse.append(self.apply_word(0, inverse_words[k]))
        self.inverse = inverse
        self.words = [inverse_words[inverse[k]] for k in range(len(keys))]
        self.elements = [WeylElement(system, x) for x in keys]
        for w, word in zip(self.elements, self.words):
            w._word = word
        self._coroots = [(beta, system.coroot(beta).coords) for beta in system.positive_roots]
        self._bruhat: Dict[int, bool] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def idx(self, w: WeylElement) -> int:
        return self.index[w.x]

    # -- integer operations ------------------------------------------------

    def apply_word(self, k: int, word: Iterable[int]) -> int:
        """Index of k * s_{i_1} ... s_{i_m} for a word of 1-based letters."""
        right_mul = self.right_mul
        for i in word:
            k = right_mul[k][i - 1]
        return k

    def product(self, u: int, v: int) -> int:
        """Index of u * v."""
        return self.apply_word(u, self.words[v])

    def subgroup_indices(self, L: Iterable[int]) -> List[int]:
        """Indices of the standard parabolic W_L, breadth-first by length."""
        mask = simple_mask(self.system.rank, L)
        gens = [i for i in range(self.system.rank) if mask >> i & 1]
        right_mul = self.right_mul
        out = [0]
        seen = {0}
        for k in out:  # a FIFO queue, as in __init__
            for i in gens:
                j = right_mul[k][i]
                if j not in seen:
                    seen.add(j)
                    out.append(j)
        return out

    def covers_below(self, k: int) -> List[int]:
        """Indices of the Bruhat covers u = k * t below k, t = s_beta for beta > 0.

        (k s_beta)^{-1} rho^vee = s_beta(x) = x - <beta, x> beta^vee, and
        l(k s_beta) < l(k) iff <beta, x> < 0.
        """
        x = self.elements[k].x
        target = self.lengths[k] - 1
        out = []
        for beta, coroot in self._coroots:
            c = sum(b * xi for b, xi in zip(beta, x))
            if c < 0:
                u = self.index[tuple(xi - c * h for xi, h in zip(x, coroot))]
                if self.lengths[u] == target:
                    out.append(u)
        return out

    def bruhat_idx(self, ui: int, wi: int) -> bool:
        """Strong Bruhat order on indices via the lifting property."""
        if ui == wi:
            return True
        lu, lw = self.lengths[ui], self.lengths[wi]
        if lu >= lw:
            return False
        if lu == 0:
            return True
        key = ui * len(self.lengths) + wi
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        s = _lowest_bit(self.descents[wi])
        ws = self.right_mul[wi][s]
        us = self.right_mul[ui][s]
        if self.lengths[us] < lu:
            res = self.bruhat_idx(us, ws)
        else:
            res = self.bruhat_idx(ui, ws)
        self._bruhat[key] = res
        return res

    # -- element operations ------------------------------------------------

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Strong Bruhat order via the lifting property (Bjorner-Brenti 2.2)."""
        return self.bruhat_idx(self.idx(u), self.idx(w))

    def bruhat_covers_below(self, w: WeylElement) -> List[WeylElement]:
        """All u with u covered by w; each u = w * t for a reflection t."""
        return [self.elements[u] for u in self.covers_below(self.idx(w))]

    def subgroup_elements(self, L: Iterable[int]) -> List[WeylElement]:
        """All elements of the standard parabolic W_L, breadth-first by length."""
        return [self.elements[k] for k in self.subgroup_indices(L)]

    def min_coset_reps(self, L: Iterable[int]) -> List[WeylElement]:
        """Minimal-length representatives W^L, in enumeration order."""
        mask = simple_mask(self.system.rank, L)
        return [w for w, d in zip(self.elements, self.descents) if not d & mask]


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


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

    With a cap, raises CapExceededError whenever the group is larger than
    the cap, also when it was built before. Without one, a new enumeration
    uses WeylGroup.DEFAULT_CAP.
    """
    group = getattr(system, "_weyl_group", None)
    if group is None:
        group = WeylGroup(system, WeylGroup.DEFAULT_CAP if cap is None else cap)
        system._weyl_group = group
    elif cap is not None and len(group) > cap:
        raise CapExceededError(cap)
    return group
