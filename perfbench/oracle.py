"""Lie-theoretic reference values computed without the qlaplacian package.

The output checks compare the program's reports with these values, so this
module shares no code with the program: simple roots come from a table of
root lengths and bond products (Bourbaki labelling, short roots of squared
length 2), positive roots from root strings, and everything else from the
Gram matrix of the fundamental weights.  A type is a label such as "A2" or
"A1xG2"; a weight is a tuple of ints in the fundamental-weight basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod


def _chain(n: int, first: int = 1) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(first, first + n - 1)]


def _simple_form(family: str, n: int) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Half squared lengths d_i and the nonzero products (a_i, a_j), i < j, 1-based."""
    if family == "A":
        return [1] * n, {e: -1 for e in _chain(n)}
    if family == "B":
        bonds = {e: -2 for e in _chain(n)}
        return [2] * (n - 1) + [1], bonds
    if family == "C":
        bonds = {e: -1 for e in _chain(n - 1)}
        bonds[(n - 1, n)] = -2
        return [1] * (n - 1) + [2], bonds
    if family == "D":
        bonds = {e: -1 for e in _chain(n - 1)}
        bonds[(n - 2, n)] = -1
        return [1] * n, bonds
    if family == "E":
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + _chain(n - 4, 5)
        return [1] * n, {e: -1 for e in edges}
    if family == "F":
        return [2, 2, 1, 1], {(1, 2): -2, (2, 3): -2, (3, 4): -1}
    if family == "G":
        return [1, 3], {(1, 2): -3}
    raise ValueError(f"unknown family {family!r}")


def _inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


class Factor:
    """One simple factor: form on simple roots, positive roots, fundamental Gram."""

    def __init__(self, family: str, n: int):
        self.family, self.rank = family, n
        d, bonds = _simple_form(family, n)
        self.d = d
        b = [[Fraction(2 * d[i] if i == j else 0) for j in range(n)] for i in range(n)]
        for (i, j), v in bonds.items():
            b[i - 1][j - 1] = b[j - 1][i - 1] = Fraction(v)
        # cartan[i][j] = <a_j, a_i-check> = 2 (a_i, a_j) / (a_i, a_i)
        self.cartan = [[int(b[i][j] / d[i]) for j in range(n)] for i in range(n)]
        binv = _inverse(b)
        self.gram = [[d[i] * binv[i][j] * d[j] for j in range(n)] for i in range(n)]
        self.positive_roots = self._positive_roots()
        self.dim_algebra = 2 * len(self.positive_roots) + n

    def _positive_roots(self) -> list[tuple[int, ...]]:
        n = self.rank
        simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        found = set(simple)
        layer = list(simple)
        while layer:
            nxt = []
            for beta in layer:
                for i in range(n):
                    pairing = sum(beta[j] * self.cartan[i][j] for j in range(n))
                    p = 0
                    down = list(beta)
                    while True:
                        down[i] -= 1
                        if tuple(down) not in found:
                            break
                        p += 1
                    if p - pairing > 0:
                        up = tuple(c + (k == i) for k, c in enumerate(beta))
                        if up not in found:
                            found.add(up)
                            nxt.append(up)
            layer = nxt
        return sorted(found)

    def pair(self, x, y) -> Fraction:
        return sum((x[i] * self.gram[i][j] * y[j]
                    for i in range(self.rank) if x[i] for j in range(self.rank) if y[j]), Fraction(0))

    def dim(self, mu) -> int:
        num = den = 1
        for c in self.positive_roots:
            num *= sum(c[k] * self.d[k] * (mu[k] + 1) for k in range(self.rank))
            den *= sum(c[k] * self.d[k] for k in range(self.rank))
        if num % den:
            raise ArithmeticError(f"Weyl dimension of {mu} is not an integer")
        return num // den

    def casimir(self, mu) -> Fraction:
        """(mu, mu + 2 rho) in the normalized form."""
        return self.pair(mu, [m + 2 for m in mu])

    def minus_w0(self, mu) -> tuple[int, ...]:
        mu = tuple(mu)
        if self.family == "A":
            return mu[::-1]
        if self.family == "D" and self.rank % 2:
            return mu[:-2] + (mu[-1], mu[-2])
        if self.family == "E" and self.rank == 6:
            return (mu[5], mu[1], mu[4], mu[3], mu[2], mu[0])
        return mu

    def center_order(self) -> int:
        return {"A": self.rank + 1, "B": 2, "C": 2, "D": 4, "E": 9 - self.rank}.get(self.family, 1)

    def two_torsion(self) -> int:
        """Number of center elements z with 2z = 0."""
        if self.family == "D":
            return 4 if self.rank % 2 == 0 else 2
        return gcd(2, self.center_order())


class LieData:
    """Reference data for a product type, with weights split by factor."""

    def __init__(self, label: str):
        self.factors = [Factor(piece[0], int(piece[1:])) for piece in label.split("x")]
        self.rank = sum(f.rank for f in self.factors)
        lcm = 1
        for f in self.factors:
            for row in f.gram:
                for v in row:
                    lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        self._scale = lcm
        self._igram = [[0] * self.rank for _ in range(self.rank)]
        lo = 0
        for f in self.factors:
            for i in range(f.rank):
                for j in range(f.rank):
                    self._igram[lo + i][lo + j] = int(f.gram[i][j] * lcm)
            lo += f.rank

    def split(self, w):
        out, lo = [], 0
        for f in self.factors:
            out.append(tuple(w[lo:lo + f.rank]))
            lo += f.rank
        return out

    def norm(self, w) -> Fraction:
        return Fraction(self._inorm(w), self._scale)

    def _inorm(self, w) -> int:
        g = self._igram
        return sum(w[i] * g[i][j] * w[j] for i in range(self.rank) if w[i]
                   for j in range(self.rank) if w[j])

    def dim(self, mu) -> int:
        return prod(f.dim(part) for f, part in zip(self.factors, self.split(mu)))

    def center_order(self) -> int:
        return prod(f.center_order() for f in self.factors)

    def two_torsion(self) -> int:
        return prod(f.two_torsion() for f in self.factors)

    def minus_w0(self, mu) -> tuple[int, ...]:
        return sum((f.minus_w0(part) for f, part in zip(self.factors, self.split(mu))), ())

    def classical_eigenvalue(self, terms, lam) -> Fraction:
        """sum_l a_l sum_e mult(e) ((lam+rho, e)^2 - (rho, e)^2) in closed form.

        The weight sum of V(mu) is dim V(mu) * (mu_f, mu_f + 2 rho_f) / dim g_f
        times the form on each factor f (the trace-form identity), so the
        eigenvalue needs only dimensions and norms.
        """
        total = Fraction(0)
        lam_parts = self.split(lam)
        for mu, a in terms:
            dim_mu = self.dim(mu)
            inner = sum(f.casimir(m) / f.dim_algebra * f.casimir(l)
                        for f, m, l in zip(self.factors, self.split(mu), lam_parts))
            total += Fraction(a) * dim_mu * inner
        return total

    def sorted_norms(self, max_rows: int) -> list[tuple[Fraction, tuple[int, ...]]]:
        """The first max_rows dominant weights by norm (ties in graded order)."""
        bound = 1
        while True:
            found = self.ball(Fraction(bound))
            if len(found) >= max_rows:
                break
            bound *= 2
        found.sort(key=lambda w: (self._inorm(w), graded_key(w)))
        return [(self.norm(w), w) for w in found[:max_rows]]

    def ball(self, radius) -> list[tuple[int, ...]]:
        """All dominant weights with (w, w) <= radius, in graded order."""
        limit = Fraction(radius) * self._scale
        out = []
        coords = [0] * self.rank

        def walk(k: int):
            if k == self.rank:
                out.append(tuple(coords))
                return
            while self._inorm(coords) <= limit:
                walk(k + 1)
                coords[k] += 1
            coords[k] = 0

        walk(0)
        out.sort(key=graded_key)
        return out


def graded_key(w):
    return (sum(w), tuple(w))


@lru_cache(maxsize=None)
def lie(label: str) -> LieData:
    return LieData(label)

