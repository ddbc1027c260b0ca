"""Weight systems with multiplicities and dimensions of irreducibles.

Multiplicities come from the Freudenthal recursion

    mult(v) * ((m+r, m+r) - (v+r, v+r)) =
        2 * sum_{a in pos roots} sum_{k >= 1} mult(v + k a) * (v + k a, a)

run over the dominant weights below the highest weight m (r is the Weyl
vector); the rest of the system is filled in by Weyl-orbit closure.  All
arithmetic is exact rational.  Each weight e keeps its integer row D G e
(`RootSystem.row`), from which `pairings` reads D (lam + rho, e) and D (rho, e).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .cartan import RootSystem, Weight, check_dominant_integral, graded_key, inner_product
from .errors import InvariantError


class WeightSystem:
    """The multiset of weights of the irreducible module V(highest).

    `rows` holds (D G e, mult(e)) in the order of `entries`.
    """

    __slots__ = ("highest", "entries", "rows", "_mult")

    def __init__(self, R: RootSystem, highest: Weight, entries):
        self.highest = highest
        self.entries = tuple(sorted(entries, key=lambda e: graded_key(e[0])))
        self.rows = tuple((R.row(w), m) for w, m in self.entries)
        self._mult = dict(self.entries)

    def multiplicity(self, w: Weight) -> int:
        return self._mult.get(w, 0)

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return (isinstance(other, WeightSystem)
                and self.highest == other.highest and self.entries == other.entries)

    def __hash__(self):
        return hash((self.highest, self.entries))

    def __repr__(self):
        return f"WeightSystem(highest={self.highest!r}, size={self.dimension})"


def _dominant_representative(R: RootSystem, x: Weight) -> Weight:
    while True:
        j = next((k + 1 for k in range(R.rank) if x.coords[k] < 0), None)
        if j is None:
            return x
        x = R.reflect(x, j)


def _dominant_candidates(R: RootSystem, mu: Weight) -> list[tuple[Weight, int]]:
    """Dominant weights mu - sum m_j a_j, with the level sum(m_j).

    Every such lattice point is a weight of V(mu); the coefficient m_j equals
    (mu - v, w_j-check), so m_j <= (mu, w_j-check) bounds the search box.
    """
    n = R.rank
    simple_roots = [R.simple_root(j) for j in range(1, n + 1)]
    bounds = []
    for j in range(n):
        wj = Weight.fundamental(n, j + 1)
        bounds.append(int(inner_product(R, mu, wj) / R.d[j]))
    out = []

    def walk(k: int, nu: Weight, level: int):
        if k == n:
            if nu.is_dominant:
                out.append((nu, level))
            return
        cur = nu
        for v in range(bounds[k] + 1):
            walk(k + 1, cur, level + v)
            cur = cur - simple_roots[k]

    walk(0, mu, 0)
    return out


@lru_cache(maxsize=None)
def weight_system(R: RootSystem, mu: Weight) -> WeightSystem:
    """All weights of V(mu) with multiplicities (exact, Weyl-closed)."""
    check_dominant_integral(R, mu)
    if mu.is_zero:
        return WeightSystem(R, mu, [(mu, 1)])

    rho = R.weyl_vector
    top_norm = inner_product(R, mu + rho, mu + rho)
    dominant = sorted(_dominant_candidates(R, mu),
                      key=lambda pair: (pair[1], graded_key(pair[0])))

    mult: dict[Weight, int] = {}
    for nu, level in dominant:
        if level == 0:
            mult[nu] = 1
            continue
        total = Fraction(0)
        for alpha in R.positive_roots:
            k = 1
            while True:
                x = nu + alpha.scaled(k)
                m_x = mult.get(_dominant_representative(R, x), 0)
                if m_x == 0:
                    break
                total += m_x * inner_product(R, x, alpha)
                k += 1
        denom = top_norm - inner_product(R, nu + rho, nu + rho)
        value = 2 * total / denom
        if value.denominator != 1 or value <= 0:
            raise InvariantError(f"Freudenthal recursion produced non-integer multiplicity at {nu.serialize()}")
        mult[nu] = int(value)

    # Close the dominant layer under the Weyl group; mult is Weyl-invariant.
    full: dict[Weight, int] = {}
    for nu, m_nu in mult.items():
        stack = [nu]
        seen = {nu}
        while stack:
            w = stack.pop()
            full[w] = m_nu
            for j in range(1, R.rank + 1):
                w2 = R.reflect(w, j)
                if w2 not in seen:
                    seen.add(w2)
                    stack.append(w2)
    return WeightSystem(R, mu, full.items())


def pairings(R: RootSystem, rows, lam: Weight):
    """(mult, D (lam + rho, e), D (rho, e)) for each (D G e, mult) in `rows`, as integers.

    D is `R.denominator`; `lam` is checked to be dominant integral once, here.
    """
    check_dominant_integral(R, lam)
    # rho is (1, ..., 1) in the fundamental-weight basis
    shifted = [int(c) + 1 for c in lam.coords]
    return ((mult, sum(map(mul, shifted, row)), sum(row)) for row, mult in rows)


@lru_cache(maxsize=None)
def dim_irrep(R: RootSystem, mu: Weight) -> int:
    """Dimension of V(mu): the product of (mu + rho, a) / (rho, a) over positive roots a."""
    num = den = 1
    for _, x, y in pairings(R, ((R.row(alpha), 1) for alpha in R.positive_roots), mu):
        num *= x
        den *= y
    if num % den:
        raise InvariantError("dimension formula did not evaluate to an integer")
    return num // den
