"""Independent oracles the tests use to derive expected values.

Nothing here shares an algorithm with the package: positive roots come from
reflection closure, dominant weights from the box walk, Weyl orbits from
the closure under simple reflections with a seen-set, invariant factors
from determinantal divisors, and characters from the alternating Weyl sum
with a brute-forced Weyl group (rank <= 2 only).  The `reference_*`
eigenvalue formulas pair weights with `inner_product` in exact `Fraction`s,
one weight at a time, where the package reads integer pairings over a
common denominator; they keep the package's summation order and per-term
float rounding, so the two must agree exactly.  `reference_witness` is the
witness formula as written, a difference of Casimir values, evaluated in
100-digit `Decimal`s.  `FodcIndex` and `StarReport` are a calculus as a
checked set of pairs and its star verdict with the partner matching, one
calculus at a time on the package's center arithmetic, where the package
reads per-pair tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from qlaplacian.cartan import (
    CenterElement,
    RootSystem,
    Weight,
    center_negate,
    center_reduce,
    inner_product,
    is_half_coroot,
    minus_w0,
)
from qlaplacian.errors import InvariantError
from qlaplacian.weights import dim_irrep, weight_system


def rational_det(matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination over Q."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def reflection_closure_positive_roots(R: RootSystem) -> set[Weight]:
    """Close the simple roots under simple reflections; keep the positive half.

    A root is positive iff its simple-root coefficients (solved exactly from
    the Cartan matrix) are all nonnegative.
    """
    simples = [R.simple_root(j) for j in range(1, R.rank + 1)]
    closure = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for j in range(1, R.rank + 1):
            img = R.reflect(beta, j)
            if img not in closure:
                closure.add(img)
                frontier.append(img)
    positives = set()
    for beta in closure:
        coeffs = _root_coefficients(R, beta)
        if all(c >= 0 for c in coeffs):
            positives.add(beta)
    return positives


def _root_coefficients(R: RootSystem, beta: Weight) -> list[Fraction]:
    """Solve cartan * c = coords (the j-th column of cartan is alpha_j)."""
    n = R.rank
    a = [[Fraction(R.cartan[i][j]) for j in range(n)] + [beta.coords[i]] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [v / pv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def reference_dominant_weights(R: RootSystem, mu: Weight) -> set[Weight]:
    """Dominant weights of V(mu) by the box walk: every dominant mu - sum m_j a_j.

    Every such lattice point is a weight of V(mu).  The coefficient m_j is at
    most the j-th simple-root coordinate of mu (solved from the Cartan matrix),
    so the walk visits the whole box prod (m_j + 1), one point at a time.
    """
    n = R.rank
    bounds = [math.floor(c) for c in _root_coefficients(R, mu)]
    found = set()
    for steps in itertools.product(*(range(b + 1) for b in bounds)):
        nu = Weight.of(mu.coords[i] - sum(m * R.cartan[i][j] for j, m in enumerate(steps))
                       for i in range(n))
        if nu.is_dominant:
            found.add(nu)
    return found


def reference_orbit(R: RootSystem, nu: Weight) -> set[Weight]:
    """The Weyl orbit of nu by closure under the simple reflections, with a seen-set."""
    seen = {nu}
    stack = [nu]
    while stack:
        w = stack.pop()
        for j in range(1, R.rank + 1):
            w2 = R.reflect(w, j)
            if w2 not in seen:
                seen.add(w2)
                stack.append(w2)
    return seen


def invariant_factors_by_minors(matrix) -> tuple[int, ...]:
    """Invariant factors via determinantal divisors: s_k = gcd_k / gcd_{k-1}."""
    n = len(matrix)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                minor = rational_det([[matrix[r][c] for c in cols] for r in rows])
                assert minor.denominator == 1
                g = math.gcd(g, abs(int(minor)))
        divisors.append(g)
    factors = []
    for k in range(1, n + 1):
        if divisors[k] == 0:
            break
        factors.append(divisors[k] // divisors[k - 1])
    return tuple(f for f in factors if f > 1)


def brute_weyl_group(R: RootSystem) -> list[tuple[tuple[tuple[int, ...], ...], int]]:
    """All Weyl elements as integer matrices on w-coordinates, with det signs."""
    n = R.rank
    identity = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    def gen_matrix(j):
        # s_j : x -> x - x_j * alpha_j, acting on coordinate columns
        return tuple(tuple((1 if i == k else 0) - (R.cartan[i][j - 1] if k == j - 1 else 0)
                           for k in range(n)) for i in range(n))

    def mul(m1, m2):
        return tuple(tuple(sum(m1[i][k] * m2[k][j] for k in range(n)) for j in range(n))
                     for i in range(n))

    gens = [gen_matrix(j) for j in range(1, n + 1)]
    elements = {identity: 1}
    frontier = [identity]
    while frontier:
        m = frontier.pop()
        sign = elements[m]
        for g in gens:
            m2 = mul(g, m)
            if m2 not in elements:
                elements[m2] = -sign
                frontier.append(m2)
    return list(elements.items())


def apply_matrix(m, w: Weight) -> Weight:
    n = len(w.coords)
    return Weight(tuple(sum(m[i][k] * w.coords[k] for k in range(n)) for i in range(n)))


def weyl_character_value(R: RootSystem, weyl, mu: Weight, t: Weight) -> float:
    """Alternating-sum character at a generic point t (rank <= 2 use only)."""
    rho = R.weyl_vector
    num = 0.0
    den = 0.0
    for m, sign in weyl:
        num += sign * math.exp(float(inner_product(R, apply_matrix(m, mu + rho), t)))
        den += sign * math.exp(float(inner_product(R, apply_matrix(m, rho), t)))
    return num / den


def direct_character_value(R: RootSystem, system, t: Weight) -> float:
    """sum over the weight multiset of e^{(weight, t)}."""
    return sum(m * math.exp(float(inner_product(R, w, t))) for w, m in system)


# ---------------------------------------------------------------------------
# Eigenvalue formulas from per-weight Fraction pairings
# ---------------------------------------------------------------------------


def _reference_bracket(x: Fraction, h: float) -> float:
    return math.sinh(float(x) * h) / math.sinh(h)


def reference_casimir(R: RootSystem, mu: Weight, lam: Weight, q: float) -> float:
    h = math.log(q)
    shifted = lam + R.weyl_vector
    total = 0.0
    for eps, mult in weight_system(R, mu):
        total += mult * math.exp(-2.0 * float(inner_product(R, shifted, eps)) * h)
    return total


def reference_q_laplacian(R: RootSystem, spec, lam: Weight, q: float) -> float:
    h = math.log(q)
    rho = R.weyl_vector
    shifted = lam + rho

    def term(mu):
        total = 0.0
        for eps, mult in weight_system(R, mu):
            x = inner_product(R, shifted, eps)
            y = inner_product(R, rho, eps)
            total += mult * (_reference_bracket(x, h) ** 2 - _reference_bracket(y, h) ** 2)
        return total

    return sum(float(a) * term(mu) for mu, a in spec.terms)


def reference_classical(R: RootSystem, spec, lam: Weight):
    rho = R.weyl_vector
    shifted = lam + rho
    exact = spec.is_rational
    total = Fraction(0) if exact else 0.0
    for mu, a in spec.terms:
        inner = Fraction(0)
        for eps, mult in weight_system(R, mu):
            x = inner_product(R, shifted, eps)
            y = inner_product(R, rho, eps)
            inner += mult * (x * x - y * y)
        total += (a if exact else float(a)) * (inner if exact else float(inner))
    return total


def reference_lower_bound(R: RootSystem, spec, q: float) -> float:
    h = math.log(q)
    rho = R.weyl_vector
    total = 0.0
    for mu, a in spec.terms:
        for eps, mult in weight_system(R, mu):
            total += float(a) * mult * _reference_bracket(inner_product(R, rho, eps), h) ** 2
    return -total


def reference_dynkin_index(R: RootSystem, mu: Weight, theta: Weight) -> Fraction:
    total = Fraction(0)
    for eps, mult in weight_system(R, mu):
        p = inner_product(R, eps, theta)
        total += mult * p * p
    return total / inner_product(R, theta, theta)


def reference_dim(R: RootSystem, mu: Weight) -> Fraction:
    """Weyl's product over positive roots, as a Fraction (an integer when it is right)."""
    rho = R.weyl_vector
    num = Fraction(1)
    den = Fraction(1)
    for alpha in R.positive_roots:
        num *= inner_product(R, mu + rho, alpha)
        den *= inner_product(R, rho, alpha)
    return num / den


def reference_witness(R: RootSystem, mu: Weight, q: float) -> Decimal:
    """sum_e mult q^{-2 (rho, e)} * sum_g (C_g(-w0 mu) - C_g(0))^2 in 100-digit `Decimal`s.

    C_g(lam) = sum_e mult q^{-2 (lam + rho, e)} over the weights of V(g), g
    each highest root.  The difference of the two Casimir values cancels
    about log10(dim V(g) / difference) digits, which 100 digits absorb for
    every q in float range.
    """
    rho = R.weyl_vector
    zero = Weight.zero(R.rank)
    with localcontext() as ctx:
        ctx.prec = 100
        h = Decimal(q).ln()

        def casimir(highest: Weight, lam: Weight) -> Decimal:
            total = Decimal(0)
            for eps, mult in weight_system(R, highest):
                x = inner_product(R, lam + rho, eps)
                total += mult * (-2 * Decimal(x.numerator) / Decimal(x.denominator) * h).exp()
            return total

        dual = minus_w0(R, mu)
        total = sum((casimir(g, dual) - casimir(g, zero)) ** 2 for g in R.highest_roots)
        return casimir(mu, zero) * total


# ---------------------------------------------------------------------------
# Calculi one at a time
# ---------------------------------------------------------------------------


def _pair_order(pair):
    zeta, mu = pair
    return (sum(zeta.rep), zeta.rep, sum(mu.coords), mu.coords)


@dataclass(frozen=True)
class FodcIndex:
    """A set of distinct (center class, dominant weight) pairs."""

    pairs: tuple

    def __post_init__(self):
        if len(set(self.pairs)) != len(self.pairs):
            raise InvariantError("calculus index contains duplicate (zeta, mu) pairs")
        for zeta, mu in self.pairs:
            if not (mu.is_integral and mu.is_dominant):
                raise InvariantError(f"index weight {mu.serialize()} is not dominant integral")

    @staticmethod
    def of(R: RootSystem, pairs) -> "FodcIndex":
        normalized = tuple(sorted(((center_reduce(R, z.rep if isinstance(z, CenterElement) else z),
                                    mu if isinstance(mu, Weight) else Weight.of(mu))
                                   for z, mu in pairs), key=_pair_order))
        return FodcIndex(normalized)

    @property
    def nonzero_pairs(self) -> tuple:
        return tuple(p for p in self.pairs if not (p[0].is_zero and p[1].is_zero))


def reference_fodc_dimension(R: RootSystem, idx: FodcIndex) -> int:
    """Invariant dimension: sum of dim V(mu)^2 over the nonzero pairs."""
    return sum(dim_irrep(R, mu) ** 2 for _, mu in idx.nonzero_pairs)


@dataclass(frozen=True)
class StarReport:
    """Star-admissibility verdict with the (zeta, mu) <-> (-zeta, mu) matching."""

    admissible: bool
    matching: tuple
    unmatched: tuple


def reference_star_structure(R: RootSystem, idx: FodcIndex) -> StarReport:
    """A star structure exists iff non-half-coroot classes pair with their negatives."""
    pairs = set(idx.pairs)
    matching = []
    unmatched = []
    seen = set()
    for pair in idx.pairs:
        zeta, mu = pair
        if pair in seen or is_half_coroot(R, zeta):
            continue
        partner = (center_negate(R, zeta), mu)
        if partner in pairs:
            matching.append((pair, partner))
            seen.add(pair)
            seen.add(partner)
        else:
            unmatched.append(pair)
    return StarReport(admissible=not unmatched,
                      matching=tuple(matching), unmatched=tuple(unmatched))
