"""Weyl-group arithmetic that shares no code with the package under test.

The benchmark checks its answers with this module. An element x is stored as
the vector x(rho), rho = (1, ..., 1) in the basis of fundamental weights.
rho is regular, so x(rho) determines x. The simple reflection s_i acts by
v -> v - v_i * (column i of the Cartan matrix), and i is a left descent of x
exactly when coordinate i of x(rho) is negative. Words are products
s_{i_1} ... s_{i_k} with the rightmost letter acting first, as in the package.
Only the Cartan matrix is taken from outside.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

Vector = Tuple[int, ...]


class WeylOracle:
    def __init__(self, cartan: Sequence[Sequence[int]]):
        n = len(cartan)
        self.rank = n
        self.cols = [tuple(cartan[r][i] for r in range(n)) for i in range(n)]
        self.rho: Vector = (1,) * n

    def reflect(self, v: Vector, i: int) -> Vector:
        """s_i applied to v; i is 1-based."""
        c = v[i - 1]
        return tuple(x - c * a for x, a in zip(v, self.cols[i - 1])) if c else v

    def element(self, word: Iterable[int]) -> Vector:
        v = self.rho
        for i in reversed(list(word)):
            v = self.reflect(v, i)
        return v

    def length(self, v: Vector) -> int:
        steps = 0
        while True:
            i = next((k for k, x in enumerate(v) if x < 0), None)
            if i is None:
                return steps
            v = self.reflect(v, i + 1)
            steps += 1

    def bruhat_leq(self, u: Vector, w: Vector) -> bool:
        """u <= w by the lifting property, peeling left descents of w.

        For s a left descent of w: if s is also a left descent of u then
        u <= w iff su <= sw, otherwise u <= w iff u <= sw.
        """
        while True:
            i = next((k for k, x in enumerate(w) if x < 0), None)
            if i is None:
                return u == self.rho
            if u[i] < 0:
                u = self.reflect(u, i + 1)
            w = self.reflect(w, i + 1)

    def subgroup_words(self, letters: Sequence[int]) -> List[Tuple[int, ...]]:
        """One word for each element of the parabolic subgroup W_letters."""
        words = [()]
        seen = {self.rho}
        frontier = [((), self.rho)]
        while frontier:
            nxt = []
            for word, _ in frontier:
                for i in letters:
                    longer = word + (i,)
                    v = self.element(longer)
                    if v not in seen:
                        seen.add(v)
                        words.append(longer)
                        nxt.append((longer, v))
            frontier = nxt
        return words


class QuotientOracle:
    """The coset [w] = {w a x x* : a in W_K, x in W_I} and the order <=_O."""

    def __init__(
        self,
        cartan: Sequence[Sequence[int]],
        I: Sequence[int],
        J: Sequence[int],
        K: Sequence[int],
        star: Mapping[int, int],
    ):
        self.weyl = WeylOracle(cartan)
        self.jk = tuple(J) + tuple(K)
        self.tails = [
            a + x + tuple(star[i] for i in x)
            for a in self.weyl.subgroup_words(K)
            for x in self.weyl.subgroup_words(I)
        ]

    def coset(self, word: Sequence[int]) -> Dict[Vector, Tuple[int, ...]]:
        """Members of [word], each with a word that reaches it."""
        word = tuple(word)
        return {self.weyl.element(word + t): word + t for t in self.tails}

    def canonical(self, word: Sequence[int]) -> Vector:
        """The member of [word] with no right descent in J u K."""
        # j is a right descent of x iff it is a left descent of x^-1
        hits = []
        for v, w in self.coset(word).items():
            inverse = self.weyl.element(w[::-1])
            if all(inverse[j - 1] >= 0 for j in self.jk):
                hits.append(v)
        if len(hits) != 1:
            raise AssertionError(f"{len(hits)} canonical members in a coset")
        return hits[0]

    def leq(self, lower: Sequence[int], upper: Sequence[int]) -> bool:
        """[lower] <=_O [upper]: some member of [lower] is below upper's rep."""
        top = self.canonical(upper)
        return any(self.weyl.bruhat_leq(u, top) for u in self.coset(lower))
