"""Independent oracles the tests use to derive expected values.

Nothing here shares an algorithm with the package: positive roots come from
reflection closure, dominant weights from the box walk, Weyl orbits from
the closure under simple reflections with a seen-set, -w0 from the
longest-element word one reflection at a time, root heights from the
simple-root coefficients solved off the Cartan matrix, invariant factors
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
reads per-pair tables.  `reference_root_system` is the whole-matrix build on
the package's per-factor tables: one `Fraction` Gauss-Jordan inversion of
the product's symmetrized Cartan matrix (`rational_inverse`, this module's
own) and a replay of the word prefix for each positive root, where the
package takes an integer determinant and adjugate factor by factor and
carries the prefix images; it imports none of the package's build
arithmetic.  The helpers that only the tests read live here too: `rho`,
`fundamental`, `w0_word` (the longest-element word by greedy descent from
rho), `apply_word`, `apply_w0`, `rational_inner_product` (the form on plain
tuples of rationals, for test points off the weight lattice) and
`center_add`.  `exact_eigenvalue` and `exact_lower_bound` are the q-Laplacian
and its floor at q = s^D for a rational s, where every bracket [X/D]_q is the
rational (s^X - s^-X) / (s^D - s^-D): exact `Fraction`s from the formula,
sharing only the integer pairings of `weights.pairings` with the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from qlaplacian.cartan import (
    CenterElement,
    RootSystem,
    Weight,
    _plate,
    center_negate,
    center_reduce,
    inner_product,
    is_half_coroot,
    minus_w0,
    parse_type_label,
)
from qlaplacian.errors import InvariantError
from qlaplacian.weights import dim_irrep, pairings, weight_system


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


def rational_inverse(matrix) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over Q."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(int(j == i)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
    return [sum(m * b for m, b in zip(row, beta.coords)) for row in rational_inverse(R.cartan)]


def root_height(R: RootSystem, beta: Weight) -> Fraction:
    """The height of beta: the sum of its simple-root coefficients."""
    return sum(_root_coefficients(R, beta))


def rho(R: RootSystem) -> Weight:
    """The Weyl vector: (1, ..., 1) in the fundamental-weight basis."""
    return Weight((1,) * R.rank)


def fundamental(rank: int, j: int) -> Weight:
    """The fundamental weight w_j (1-based index)."""
    return Weight(tuple(int(i == j - 1) for i in range(rank)))


def rational_inner_product(R: RootSystem, x, y) -> Fraction:
    """(x, y) = x^T G y for plain tuples of rational coordinates, from the Gram matrix D G over D."""
    return Fraction(sum(a * sum(g * b for g, b in zip(line, y)) for a, line in zip(x, R.form))) / R.denominator


def w0_word(R: RootSystem) -> tuple[int, ...]:
    """A reduced word of the longest element, by greedy descent from rho (smallest index first).

    Each letter j is a simple reflection that lowers the current image of rho; the
    descent ends at -rho, one reflection at a time.
    """
    word = []
    cur = rho(R)
    while (j := next((k + 1 for k in range(R.rank) if cur.coords[k] > 0), None)) is not None:
        word.append(j)
        cur = R.reflect(cur, j)
    return tuple(word)


def apply_word(R: RootSystem, word, x: Weight) -> Weight:
    """Apply s_{word[0]} s_{word[1]} ... s_{word[-1]} to x (rightmost first)."""
    for j in reversed(word):
        x = R.reflect(x, j)
    return x


def apply_w0(R: RootSystem, x: Weight) -> Weight:
    """w0 x, by the longest-element word."""
    return apply_word(R, w0_word(R), x)


def reference_root_system(labels, scale=1) -> RootSystem:
    """The whole-matrix build: invert the product's symmetrized Cartan matrix in `Fraction`s,
    zero blocks included, and make each positive root by replaying the longest-element word's prefix.

    It reads the per-factor table (`_plate`) that the package reads, and nothing of the
    package's build arithmetic; what it checks is how the package assembles those tables:
    each factor's Gram block from its integer determinant and adjugate, and the roots from
    carried prefix images.
    """
    parsed = tuple(f for label in labels for f in parse_type_label(label))
    scale = Fraction(scale)
    n = sum(f.rank for f in parsed)
    cartan = [[0] * n for _ in range(n)]
    d0, perm, highest = [], [], []
    lo = 0
    for f in parsed:
        block, dblock, _, fperm, top, _ = _plate(f)
        for i in range(f.rank):
            for j in range(f.rank):
                cartan[lo + i][lo + j] = block[i][j]
        d0.extend(dblock)
        perm.extend(lo + j for j in fperm)
        highest.append(Weight((0,) * lo + top + (0,) * (n - lo - f.rank)))
        lo += f.rank
    minv = rational_inverse([[d0[i] * cartan[i][j] for j in range(n)] for i in range(n)])
    gram = [[scale * d0[i] * minv[i][j] * d0[j] for j in range(n)] for i in range(n)]
    denominator = math.lcm(*(g.denominator for line in gram for g in line))
    fields = dict(
        factors=parsed, rank=n, cartan=tuple(tuple(line) for line in cartan),
        d=tuple(scale * Fraction(dj) for dj in d0), positive_roots=(),
        w0_perm=tuple(perm), highest_roots=tuple(highest),
        scale=scale, denominator=denominator,
        form=tuple(tuple(int(g * denominator) for g in line) for line in gram),
    )
    skeleton = RootSystem(**fields)
    word = w0_word(skeleton)
    roots = tuple(apply_word(skeleton, word[:r], skeleton.simple_root(j)) for r, j in enumerate(word))
    return RootSystem(**{**fields, "positive_roots": roots})


def reference_minus_w0(R: RootSystem, x: Weight) -> Weight:
    """-w0 x: apply the word of w0 (rightmost letter first), one simple reflection at a time, then negate."""
    coords = list(x.coords)
    for j in reversed(w0_word(R)):
        c = coords[j - 1]
        coords = [coords[i] - c * R.cartan[i][j - 1] for i in range(R.rank)]
    return Weight.of(-c for c in coords)


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


def integer_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _minors(matrix, k: int):
    """The k x k minors, skipping those with a column that is zero on the chosen rows (they vanish)."""
    n = len(matrix)
    for rows in itertools.combinations(range(n), k):
        support = [c for c in range(n) if any(matrix[r][c] for r in rows)]
        for cols in itertools.combinations(support, k):
            yield integer_det([[matrix[r][c] for c in cols] for r in rows])


def invariant_factors_by_minors(matrix) -> tuple[int, ...]:
    """Invariant factors via determinantal divisors: s_k = gcd_k / gcd_{k-1}.

    gcd_k is the gcd of all k x k minors; the scan over them stops once the
    gcd reaches 1, which no further minor can lower.
    """
    n = len(matrix)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for minor in _minors(matrix, k):
            g = math.gcd(g, minor)
            if g == 1:
                break
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


def weyl_character_value(R: RootSystem, weyl, mu: Weight, t) -> float:
    """Alternating-sum character at a generic point t, a plain tuple of rationals (rank <= 2 use only)."""
    half_sum = rho(R)
    num = 0.0
    den = 0.0
    for m, sign in weyl:
        num += sign * math.exp(float(rational_inner_product(R, apply_matrix(m, mu + half_sum).coords, t)))
        den += sign * math.exp(float(rational_inner_product(R, apply_matrix(m, half_sum).coords, t)))
    return num / den


def direct_character_value(R: RootSystem, system, t) -> float:
    """sum over the weight multiset of e^{(weight, t)}, t a plain tuple of rationals."""
    return sum(m * math.exp(float(rational_inner_product(R, w.coords, t))) for w, m in system)


# ---------------------------------------------------------------------------
# Eigenvalue formulas from per-weight Fraction pairings
# ---------------------------------------------------------------------------


def _reference_bracket(x: Fraction, h: float) -> float:
    return math.sinh(float(x) * h) / math.sinh(h)


def reference_casimir(R: RootSystem, mu: Weight, lam: Weight, q: float) -> float:
    h = math.log(q)
    shifted = lam + rho(R)
    total = 0.0
    for eps, mult in weight_system(R, mu):
        total += mult * math.exp(-2.0 * float(inner_product(R, shifted, eps)) * h)
    return total


def reference_q_laplacian(R: RootSystem, spec, lam: Weight, q: float) -> float:
    h = math.log(q)
    half_sum = rho(R)
    shifted = lam + half_sum

    def term(mu):
        total = 0.0
        for eps, mult in weight_system(R, mu):
            x = inner_product(R, shifted, eps)
            y = inner_product(R, half_sum, eps)
            total += mult * (_reference_bracket(x, h) ** 2 - _reference_bracket(y, h) ** 2)
        return total

    return sum(float(a) * term(mu) for mu, a in spec.terms)


def reference_classical(R: RootSystem, spec, lam: Weight):
    half_sum = rho(R)
    shifted = lam + half_sum
    total = Fraction(0)
    for mu, a in spec.terms:
        for eps, mult in weight_system(R, mu):
            x = inner_product(R, shifted, eps)
            y = inner_product(R, half_sum, eps)
            total += a * mult * (x * x - y * y)
    return total


def reference_lower_bound(R: RootSystem, spec, q: float) -> float:
    h = math.log(q)
    half_sum = rho(R)
    total = 0.0
    for mu, a in spec.terms:
        for eps, mult in weight_system(R, mu):
            total += float(a) * mult * _reference_bracket(inner_product(R, half_sum, eps), h) ** 2
    return -total


def reference_dynkin_index(R: RootSystem, mu: Weight, theta: Weight) -> Fraction:
    total = Fraction(0)
    for eps, mult in weight_system(R, mu):
        p = inner_product(R, eps, theta)
        total += mult * p * p
    return total / inner_product(R, theta, theta)


def reference_dim(R: RootSystem, mu: Weight) -> Fraction:
    """Weyl's product over positive roots, as a Fraction (an integer when it is right)."""
    half_sum = rho(R)
    num = Fraction(1)
    den = Fraction(1)
    for alpha in R.positive_roots:
        num *= inner_product(R, mu + half_sum, alpha)
        den *= inner_product(R, half_sum, alpha)
    return num / den


def reference_witness(R: RootSystem, mu: Weight, q: float) -> Decimal:
    """sum_e mult q^{-2 (rho, e)} * sum_g (C_g(-w0 mu) - C_g(0))^2 in 100-digit `Decimal`s.

    C_g(lam) = sum_e mult q^{-2 (lam + rho, e)} over the weights of V(g), g
    each highest root.  The difference of the two Casimir values cancels
    about log10(dim V(g) / difference) digits, which 100 digits absorb for
    every q in float range.
    """
    half_sum = rho(R)
    zero = Weight.zero(R.rank)
    with localcontext() as ctx:
        ctx.prec = 100
        h = Decimal(q).ln()

        def casimir(highest: Weight, lam: Weight) -> Decimal:
            total = Decimal(0)
            for eps, mult in weight_system(R, highest):
                x = inner_product(R, lam + half_sum, eps)
                total += mult * (-2 * Decimal(x.numerator) / Decimal(x.denominator) * h).exp()
            return total

        dual = minus_w0(R, mu)
        total = sum((casimir(g, dual) - casimir(g, zero)) ** 2 for g in R.highest_roots)
        return casimir(mu, zero) * total


# ---------------------------------------------------------------------------
# Calculi one at a time
# ---------------------------------------------------------------------------


def center_add(R: RootSystem, a: CenterElement, b: CenterElement) -> CenterElement:
    return center_reduce(R, [x + y for x, y in zip(a.rep, b.rep)])


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
            if not mu.is_dominant:
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


def reference_fodc_enumeration(R: RootSystem, calculi) -> list:
    """Each calculus by a rescan of its bitmask: (pairs, dimension, star admissible).

    The pool is read from the program's singleton calculi, pair k from
    `calculi[1 << k]`; calculus `mask` holds the pool pairs of its set bits
    in pool order.
    """
    n = len(calculi).bit_length() - 1
    pool = [calculi[1 << k][0][0] for k in range(n)]
    result = []
    for mask in range(1 << n):
        idx = FodcIndex(tuple(pool[i] for i in range(n) if mask >> i & 1))
        result.append((idx.pairs, reference_fodc_dimension(R, idx), reference_star_structure(R, idx).admissible))
    return result


# ---------------------------------------------------------------------------
# Exact eigenvalues at q = s^D
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def exact_bracket(X: int, D: int, s: Fraction) -> Fraction:
    """[X/D]_q at q = s^D: q^(X/D) = s^X, so (s^X - s^-X) / (s^D - s^-D), a rational."""
    return (s ** X - s ** -X) / (s ** D - s ** -D)


def exact_eigenvalue(R: RootSystem, spec, lam: Weight, s: Fraction) -> Fraction:
    """C_q(lam) = sum_l a_l sum_e mult ([(lam + rho, e)]_q^2 - [(rho, e)]_q^2) at q = s^D, exactly."""
    D = R.denominator
    return sum((a * mult * (exact_bracket(x, D, s) ** 2 - exact_bracket(y, D, s) ** 2)
                for mu, a in spec.terms for mult, x, y in pairings(R, weight_system(R, mu).rows, lam)), Fraction(0))


def exact_lower_bound(R: RootSystem, spec, s: Fraction) -> Fraction:
    """-sum_l a_l sum_e mult [(rho, e)]_q^2 at q = s^D, exactly."""
    D, zero = R.denominator, Weight.zero(R.rank)
    return -sum((a * mult * exact_bracket(y, D, s) ** 2
                 for mu, a in spec.terms for mult, _, y in pairings(R, weight_system(R, mu).rows, zero)), Fraction(0))
