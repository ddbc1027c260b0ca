"""Independent oracles the tests use to derive expected values.

Nothing here shares an algorithm with the package: positive roots come from
reflection closure, dominant weights from the box walk, invariant factors
from determinantal divisors, and characters from the alternating Weyl sum
with a brute-forced Weyl group (rank <= 2 only).  The `reference_*`
eigenvalue formulas pair weights with `inner_product` in exact `Fraction`s,
one weight at a time, where the package reads integer pairings over a
common denominator; they keep the package's summation order and per-term
float rounding, so the two must agree exactly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from qlaplacian.cartan import RootSystem, Weight, inner_product
from qlaplacian.weights import weight_system


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
