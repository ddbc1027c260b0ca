"""Weight systems with multiplicities and dimensions of irreducibles.

The dominant weights of V(m) are those reached from the highest weight m by
subtracting positive roots while staying dominant: every cover in the
dominance order of dominant weights is a positive root (Stembridge 1998).
Their multiplicities come from the Freudenthal recursion

    mult(v) * ((m+r, m+r) - (v+r, v+r)) =
        2 * sum_{a in pos roots} sum_{k >= 1} mult(v + k a) * (v + k a, a)

(r is the Weyl vector), run over the dominant weights only, in order of
decreasing (v+r, v+r): a dominant weight above v has the larger norm, and
the dominant representative of v + k a lies above v.  The inner sums read
the integer pairings D (x, a) off the row D G a (`RootSystem.row`).  The rest
of the system is filled in by Weyl-orbit closure.  Each weight e keeps its
integer row D G e, from which `pairings` reads D (lam + rho, e) and
D (rho, e).  Weights hold `int` coordinates throughout.
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


def _dominant_weights(R: RootSystem, mu: Weight) -> set[Weight]:
    """The dominant weights of V(mu): mu and all it reaches by dominant descents."""
    found = {mu}
    stack = [mu]
    while stack:
        nu = stack.pop()
        for alpha in R.positive_roots:
            x = nu - alpha
            if x.is_dominant and x not in found:
                found.add(x)
                stack.append(x)
    return found


@lru_cache(maxsize=None)
def weight_system(R: RootSystem, mu: Weight) -> WeightSystem:
    """All weights of V(mu) with multiplicities (exact, Weyl-closed)."""
    check_dominant_integral(R, mu)
    rho = R.weyl_vector
    norms = {nu: inner_product(R, nu + rho, nu + rho) for nu in _dominant_weights(R, mu)}
    roots = []  # each positive root a with its row D G a and D (a, a)
    for alpha in R.positive_roots:
        row = R.row(alpha)
        roots.append((alpha, row, sum(map(mul, alpha.coords, row))))

    mult = {mu: 1}
    for nu in sorted(norms, key=norms.get, reverse=True)[1:]:
        total = 0
        for alpha, row, step in roots:
            x, pair = nu, sum(map(mul, nu.coords, row))
            while True:
                x, pair = x + alpha, pair + step
                m_x = mult.get(_dominant_representative(R, x), 0)
                if m_x == 0:
                    break
                total += m_x * pair
        value = Fraction(2 * total, R.denominator) / (norms[mu] - norms[nu])
        if value.denominator != 1 or value <= 0:
            raise InvariantError(f"Freudenthal recursion produced non-integer multiplicity at {nu.serialize()}")
        mult[nu] = value.numerator

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
    shifted = [c + 1 for c in lam.coords]
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
