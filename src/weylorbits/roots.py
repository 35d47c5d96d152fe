"""Finite crystallographic root systems with exact arithmetic.

Roots are integer vectors in the simple-root basis. Coweights are integer
vectors in the fundamental-coweight basis (entry i is the value on alpha_i).
Simple roots are numbered as in Bourbaki for every family; in particular the
branch node of E6/E7/E8 is alpha_4 with alpha_2 hanging off it, B_n has the
short simple root last and C_n the long simple root last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Coords = Tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

# Number of roots for each supported (family, rank).
CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


class InvalidRankError(ValueError):
    """Unsupported (family, rank) combination."""


def _rank_ok(family: str, rank: int) -> bool:
    if family == "A":
        return rank >= 1
    if family in ("B", "C"):
        return rank >= 2
    if family == "D":
        return rank >= 3
    if family == "E":
        return rank in (6, 7, 8)
    if family == "F":
        return rank == 4
    if family == "G":
        return rank == 2
    return False


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


def cartan_matrix(family: str, rank: int) -> Tuple[Coords, ...]:
    """Cartan matrix with a[i][j] = <alpha_j, alpha_i^vee>."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, aij, aji in _diagram_edges(family, rank):
        a[i][j] = aij
        a[j][i] = aji
    return tuple(tuple(row) for row in a)


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


@dataclass(frozen=True)
class CartanDatum:
    family: str
    rank: int
    cartan: Tuple[Coords, ...]
    symm: Coords

    def __post_init__(self) -> None:
        a, d = self.cartan, self.symm
        n = self.rank
        for i in range(n):
            if a[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            if d[i] <= 0:
                raise ValueError("symmetrizer must be positive")
            for j in range(n):
                if i != j and a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError("D*A must be symmetric")
        if not _positive_definite([[d[i] * a[i][j] for j in range(n)] for i in range(n)]):
            raise ValueError("D*A must be positive definite (finite type)")


def _positive_definite(m: List[List[int]]) -> bool:
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    for k in range(n):
        # leading principal minors positive iff all pivots positive
        if work[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= f * work[k][j]
    return True


@dataclass(frozen=True)
class Coweight:
    """Coweight in the fundamental-coweight basis: coords[i] = value on alpha_i."""

    coords: Coords

    def __add__(self, other: "Coweight") -> "Coweight":
        return Coweight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)


class RootSystem:
    """Immutable root system built by reflection closure from the simple roots."""

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.family = datum.family
        self.rank = datum.rank
        self.cartan = datum.cartan
        self.symm = datum.symm
        # bonds[i]: the (j, a_ij) with j != i and a_ij != 0, 0-based
        self.bonds: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple((j, a) for j, a in enumerate(row) if a and j != i)
            for i, row in enumerate(self.cartan)
        )
        self.roots: Tuple[Coords, ...] = self._generate()
        self.root_set = frozenset(self.roots)
        self.positive_roots: Tuple[Coords, ...] = tuple(
            r for r in self.roots if self.is_positive(r)
        )
        self.highest_root: Coords = self._highest()

    # -- construction -----------------------------------------------------

    def _generate(self) -> Tuple[Coords, ...]:
        simple = [
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        ]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(self.rank):
                    w = self.reflect_simple(v, i)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        seen |= {tuple(-x for x in v) for v in seen}
        return tuple(sorted(seen))

    def _highest(self) -> Coords:
        best = None
        for b in self.positive_roots:
            if all(
                tuple(x + y for x, y in zip(b, a)) not in self.root_set
                for a in (
                    tuple(1 if j == i else 0 for j in range(self.rank))
                    for i in range(self.rank)
                )
            ):
                if best is not None:
                    raise ValueError("reducible system has no unique highest root")
                best = b
        if best is None:
            raise AssertionError("root system has no highest root")
        return best

    # -- basic predicates ---------------------------------------------------

    def is_root(self, v: Coords) -> bool:
        return tuple(v) in self.root_set

    def is_positive(self, v: Coords) -> bool:
        return all(x >= 0 for x in v)

    def simple_root(self, i: int) -> Coords:
        """Simple root alpha_i, 1-based index."""
        if not 1 <= i <= self.rank:
            raise IndexError(f"simple index {i} out of range")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    # -- bilinear form and pairings ----------------------------------------

    def form(self, u: Coords, v: Coords) -> int:
        """(u, v) with (alpha_i, alpha_j) = d_i * a_ij; integer on the root lattice."""
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.cartan[i]
                di = self.symm[i]
                total += ui * di * sum(row[j] * v[j] for j in range(self.rank) if v[j])
        return total

    def pairing(self, a: Coords, b: Coords) -> int:
        """<a, b^vee> = 2(a,b)/(b,b) for b a root."""
        num = 2 * self.form(a, b)
        den = self.form(b, b)
        q, r = divmod(num, den)
        if r:
            raise ValueError("pairing is not integral; b is not a root")
        return q

    def reflect(self, a: Coords, b: Coords) -> Coords:
        """s_b(a) = a - <a, b^vee> b."""
        c = self.pairing(a, b)
        return tuple(x - c * y for x, y in zip(a, b))

    def reflect_simple(self, v: Coords, i: int) -> Coords:
        """s_{alpha_i}(v), 0-based i: uses <v, alpha_i^vee> = (A v)_i."""
        c = sum(self.cartan[i][j] * v[j] for j in range(self.rank) if v[j])
        return tuple(x - c * (1 if j == i else 0) for j, x in enumerate(v))

    # -- coweights -----------------------------------------------------------

    def coroot(self, b: Coords) -> Coweight:
        """b^vee as a coweight: value on alpha_i is <alpha_i, b^vee>."""
        return Coweight(tuple(self.pairing(self.simple_root(i + 1), b) for i in range(self.rank)))

    def fundamental_coweight(self, i: int) -> Coweight:
        """varpi_i^vee, 1-based: value 1 on alpha_i, 0 on the others."""
        return Coweight(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def coweight_value(self, h: Coweight, v: Coords) -> int:
        """Value of h on a root-lattice element v."""
        return sum(c * x for c, x in zip(h.coords, v))

    def reflect_coweight(self, h: Coweight, i: int) -> Coweight:
        """s_{alpha_i} acting on a coweight, 0-based i."""
        hi = h.coords[i]
        return Coweight(
            tuple(h.coords[j] - self.cartan[i][j] * hi for j in range(self.rank))
        )

    def dominantize(self, h: Coweight) -> Tuple[Coweight, Tuple[int, ...]]:
        """Dominant W-conjugate of h and the word of simple reflections applied.

        Each step reflects at the smallest simple index where h is negative;
        the word is returned in application order (1-based indices).
        """
        word: List[int] = []
        cur = h
        while True:
            neg = [i for i, c in enumerate(cur.coords) if c < 0]
            if not neg:
                return cur, tuple(word)
            i = neg[0]
            cur = self.reflect_coweight(cur, i)
            word.append(i + 1)

    def coweight_to_coroot_basis(self, h: Coweight) -> Tuple[Fraction, ...]:
        """Coefficients c with h = sum c_j alpha_j^vee; solves A^T c = coords."""
        n = self.rank
        mat = [
            [Fraction(self.cartan[j][i]) for j in range(n)] + [Fraction(h.coords[i])]
            for i in range(n)
        ]
        sol = _solve_square(mat)
        if sol is None:
            raise ValueError("Cartan matrix is singular")
        return tuple(sol)

    def coweight_from_coroot_basis(self, c: Sequence[Fraction]) -> Coweight:
        n = self.rank
        coords = []
        for i in range(n):
            v = sum(c[j] * self.cartan[j][i] for j in range(n))
            if v.denominator != 1:
                raise ValueError("not an integral coweight")
            coords.append(int(v))
        return Coweight(tuple(coords))

    # -- rational span --------------------------------------------------------

    def span_membership(
        self, roots: Sequence[Coords], gamma: Coords
    ) -> Optional[Tuple[Fraction, ...]]:
        """Coefficients (q_i) with gamma = sum q_i beta_i, or None if outside the span.

        The roots must be pairwise orthogonal (ValueError otherwise); the
        coefficients are the exact projections (gamma, beta_i)/(beta_i, beta_i).
        """
        k = len(roots)
        if any(self.form(roots[i], roots[j]) for i in range(k) for j in range(i + 1, k)):
            raise ValueError("input roots are not pairwise orthogonal")
        coeffs = tuple(Fraction(self.form(gamma, b), self.form(b, b)) for b in roots)
        recon = [Fraction(0)] * self.rank
        for q, b in zip(coeffs, roots):
            for j, x in enumerate(b):
                recon[j] += q * x
        if any(recon[j] != gamma[j] for j in range(self.rank)):
            return None
        return coeffs


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


# One RootSystem per (family, rank) and process; its Weyl group is cached on it.
_SYSTEMS: Dict[Tuple[str, int], RootSystem] = {}


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of the given family and rank, built once per process."""
    family = family.upper()
    rs = _SYSTEMS.get((family, rank))
    if rs is not None:
        return rs
    if not _rank_ok(family, rank):
        raise InvalidRankError(f"unsupported root system {family}{rank}")
    datum = CartanDatum(family, rank, cartan_matrix(family, rank), symmetrizer(family, rank))
    rs = RootSystem(datum)
    expected = CLASSICAL_COUNTS[family](rank)
    if len(rs.roots) != expected:
        raise AssertionError(f"{family}{rank} has {len(rs.roots)} roots, expected {expected}")
    _SYSTEMS[(family, rank)] = rs
    return rs
