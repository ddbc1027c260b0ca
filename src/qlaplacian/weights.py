"""Weight systems with multiplicities and dimensions of irreducibles.

The dominant weights of V(m) are those reached from the highest weight m by
subtracting positive roots while staying dominant: every cover in the
dominance order of dominant weights is a positive root (Stembridge 1998).
One pass over them, in order of decreasing (v+r, v+r) (r is the Weyl
vector), finds each mult(v) by the Freudenthal recursion

    mult(v) * ((m+r, m+r) - (v+r, v+r)) =
        2 * sum_{a in pos roots} sum_{k >= 1} mult(v + k a) * (v + k a, a)

and writes the Weyl orbit of v into the table the later lookups read.  All
of it is integer: D (x, y) is x . R.row(y), and D cancels in the quotient.
Each weight e keeps its row D G e, from which `pairings` reads
D (lam + rho, e) and D (rho, e).
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .cartan import RootSystem, Weight, check_dominant_integral, graded_key, resolve_row_cap
from .cartan import inner_product  # noqa: F401 -- perfbench/tracer.py binds it (COUNTED) until ROADMAP item 1
from .errors import InvariantError, ResourceCapError


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


def _weyl_orbit(R: RootSystem, nu: Weight):
    """The Weyl orbit of the dominant weight nu, each weight once, by the orbit tree.

    A weight x that is not dominant has the one parent s_j x, j its first
    negative coordinate (Snow, "Weyl group orbits", 1993).  So s_j y is a
    child of y iff y_j > 0 and j is the first negative coordinate of s_j y.
    """
    stack = [nu]
    while stack:
        y = stack.pop()
        yield y
        for j, c in enumerate(y.coords):
            if c > 0:
                x = R.reflect(y, j + 1)  # x_j = -c < 0
                if all(a >= 0 for a in x.coords[:j]):
                    stack.append(x)


def _root_table(R: RootSystem) -> list[tuple[Weight, tuple[int, ...], int, int]]:
    """Each positive root a as (a, D G a, D (a, a), ht a).

    D G a_j = D d_j e_j, so the coefficient of a_j in a is row(a)_j // row(a_j)_j.
    """
    unit = [R.row(R.simple_root(j))[j - 1] for j in range(1, R.rank + 1)]
    table = []
    for alpha in R.positive_roots:
        row = R.row(alpha)
        table.append((alpha, row, sum(map(mul, alpha.coords, row)), sum(map(int.__floordiv__, row, unit))))
    return table


def _orbit_size(roots, nu: Weight) -> int:
    """|W nu| for a dominant nu (Macdonald 1972).

    It is the product of (ht a + 1) / ht a over the positive roots a with (nu, a) != 0.
    """
    num = den = 1
    for _, row, _, height in roots:
        if sum(map(mul, nu.coords, row)):
            num, den = num * (height + 1), den * height
    return num // den


def _dominant_weights(R: RootSystem, mu: Weight, roots) -> set[Weight]:
    """The dominant weights of V(mu): mu and all it reaches by dominant descents.

    The descent adds up their orbit sizes as it finds them, and raises
    `ResourceCapError` once the sum passes the row cap.
    """
    cap = resolve_row_cap(None)
    found = {mu}
    stack = [mu]
    size = 0
    while stack:
        nu = stack.pop()
        size += _orbit_size(roots, nu)
        if size > cap:
            raise ResourceCapError(f"the weight system of {mu.serialize()} exceeds the row cap of {cap} weights")
        for alpha, *_ in roots:
            x = nu - alpha
            if x.is_dominant and x not in found:
                found.add(x)
                stack.append(x)
    return found


@lru_cache(maxsize=None)
def weight_system(R: RootSystem, mu: Weight) -> WeightSystem:
    """All weights of V(mu) with multiplicities (exact, Weyl-closed)."""
    check_dominant_integral(R, mu)
    roots = _root_table(R)
    shifted = {nu: nu + R.weyl_vector for nu in _dominant_weights(R, mu, roots)}
    norms = {nu: sum(map(mul, s.coords, R.row(s))) for nu, s in shifted.items()}  # D (nu+rho, nu+rho)

    # A lookup x = nu + k a of nonzero multiplicity has its dominant
    # representative above nu in the dominance order, so of larger norm: it
    # was finished before nu, and its orbit, x included, is in the table.
    full = dict.fromkeys(_weyl_orbit(R, mu), 1)
    for nu in sorted(norms, key=norms.get, reverse=True)[1:]:
        total = 0
        for alpha, row, step, _ in roots:
            x, pair = nu, sum(map(mul, nu.coords, row))
            while True:
                x, pair = x + alpha, pair + step
                m_x = full.get(x, 0)
                if m_x == 0:
                    break
                total += m_x * pair
        m_nu, rest = divmod(2 * total, norms[mu] - norms[nu])
        if rest or m_nu <= 0:
            raise InvariantError(f"Freudenthal recursion produced non-integer multiplicity at {nu.serialize()}")
        full.update(dict.fromkeys(_weyl_orbit(R, nu), m_nu))
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
