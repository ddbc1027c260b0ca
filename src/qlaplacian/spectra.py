"""Eigenvalue formulas for the q-deformed and classical invariant Laplacians.

The operators act diagonally on Peter-Weyl blocks indexed by dominant
weights.  With [x]_q = (q^x - q^{-x})/(q - q^{-1}) and e running over the
weight multiset of V(mu_l):

    quantum Casimir eigenvalue   C_{z_mu}(l)  = sum_e q^{-2 (l + r, e)}
    q-Laplacian eigenvalue       C(l)         = sum_l a_l sum_e ([ (l+r, e) ]_q^2 - [ (r, e) ]_q^2)
    classical limit (q -> 1)     C_cl(l)      = sum_l a_l sum_e ((l+r, e)^2 - (r, e)^2)

Every family reads the pairings (l + r, e) and (r, e) from `weights.pairings`
as integers p over the root system's denominator D; floats enter only at the
final exp or sinh of p / D, in the squared-bracket form (stable as q -> 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .cartan import (
    CenterElement,
    RootSystem,
    Weight,
    center_reduce,
    coweight_pairing,
    enumerate_dominant,
    inner_product,
    minus_w0,
    resolve_row_cap,
)
from .errors import InvariantError
from .weights import dim_irrep, pairings, weight_system

@dataclass(frozen=True)
class QParam:
    """Deformation parameter, 0 < q < 1, with q = 1 reserved for classical paths."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q <= 1.0):
            raise InvariantError(f"q must satisfy 0 < q <= 1, got {self.q}")


def _qparam(q) -> QParam:
    return q if isinstance(q, QParam) else QParam(float(q))


def _log_q(q) -> float:
    """ln q for the q-dependent formulas, which reject q = 1 (see the classical ones)."""
    q = _qparam(q).q
    if q == 1.0:
        raise InvariantError("q = 1 is rejected here; use the classical-limit formulas")
    return math.log(q)


def _bracket(x: float, h: float) -> float:
    """[x]_q with h = ln q."""
    return math.sinh(x * h) / math.sinh(h)


def _pairings(R: RootSystem, mu: Weight, lam: Weight):
    return pairings(R, weight_system(R, mu).rows, lam)


def _as_coefficient(a):
    """Keep rational coefficients exact; everything else becomes a float."""
    if isinstance(a, bool):
        raise InvariantError("coefficient must be numeric")
    if isinstance(a, Rational):
        return Fraction(a)
    return float(a)


@dataclass(frozen=True)
class LaplacianSpec:
    """The data (mu_1, a_1), ..., (mu_m, a_m) with distinct mu and a_l > 0."""

    terms: tuple[tuple[Weight, Fraction | float], ...]

    def __post_init__(self):
        mus = [mu for mu, _ in self.terms]
        if len(set(mus)) != len(mus):
            raise InvariantError("Laplacian terms must have pairwise distinct weights")
        for mu, a in self.terms:
            if not (mu.is_integral and mu.is_dominant):
                raise InvariantError(f"term weight {mu.serialize()} is not dominant integral")
            if not a > 0:
                raise InvariantError(f"term coefficient {a} is not positive")

    @staticmethod
    def of(pairs) -> "LaplacianSpec":
        return LaplacianSpec(tuple((mu if isinstance(mu, Weight) else Weight.of(mu),
                                    _as_coefficient(a)) for mu, a in pairs))

    @property
    def is_rational(self) -> bool:
        return all(isinstance(a, Fraction) for _, a in self.terms)


@dataclass(frozen=True)
class GeneralFunctionalSpec:
    """Terms (zeta_l, mu_l, a_l) with distinct (zeta, mu) pairs and complex a."""

    terms: tuple[tuple[CenterElement, Weight, complex], ...]

    def __post_init__(self):
        pairs = [(z, mu) for z, mu, _ in self.terms]
        if len(set(pairs)) != len(pairs):
            raise InvariantError("functional terms must have distinct (zeta, mu) pairs")
        for _, mu, _ in self.terms:
            if not (mu.is_integral and mu.is_dominant):
                raise InvariantError(f"term weight {mu.serialize()} is not dominant integral")

    @staticmethod
    def of(triples) -> "GeneralFunctionalSpec":
        return GeneralFunctionalSpec(tuple(
            (z, mu if isinstance(mu, Weight) else Weight.of(mu), complex(a))
            for z, mu, a in triples))


@dataclass(frozen=True)
class SpectrumRow:
    """One Peter-Weyl block: the weight, its block dimension, the eigenvalue."""

    lam: Weight
    dim: int
    eigenvalue: float


def q_number(x, q) -> float:
    """[x]_q = (q^x - q^{-x}) / (q - q^{-1}) = sinh(x ln q) / sinh(ln q)."""
    return _bracket(float(x), _log_q(q))


def casimir_eigenvalue(R: RootSystem, mu: Weight, lam: Weight, q) -> float:
    """Eigenvalue sum_e mult(e) q^{-2 (lam + r, e)} of the Casimir functional."""
    h = _log_q(q)
    total = 0.0
    for mult, x, _ in _pairings(R, mu, lam):
        total += mult * math.exp(-2.0 * (x / R.denominator) * h)
    return total


def q_laplacian_eigenvalue(R: RootSystem, spec: LaplacianSpec, lam: Weight, q) -> float:
    """sum_l a_l sum_e ([(lam+r, e)]_q^2 - [(r, e)]_q^2); exactly 0 at lam = 0."""
    h = _log_q(q)
    D = R.denominator

    def term(mu: Weight) -> float:
        total = 0.0
        for mult, x, y in _pairings(R, mu, lam):
            total += mult * (_bracket(x / D, h) ** 2 - _bracket(y / D, h) ** 2)
        return total

    return sum(float(a) * term(mu) for mu, a in spec.terms)


def classical_laplacian_eigenvalue(R: RootSystem, spec: LaplacianSpec, lam: Weight):
    """The q -> 1 limit, exact rational when all coefficients are rational."""
    exact = spec.is_rational
    total = Fraction(0) if exact else 0.0
    for mu, a in spec.terms:
        inner = Fraction(sum(mult * (x * x - y * y) for mult, x, y in _pairings(R, mu, lam)),
                         R.denominator ** 2)
        total += (a if exact else float(a)) * (inner if exact else float(inner))
    return total


def general_functional_eigenvalue(R: RootSystem, spec: GeneralFunctionalSpec, lam: Weight, q) -> complex:
    """sum_l a_l e^{2 pi i (xi_l, lam)} C_{z_{mu_l}}(lam), phases from exact rationals."""
    total = 0j
    for zeta, mu, a in spec.terms:
        zeta = center_reduce(R, zeta.rep)
        frac = coweight_pairing(R, zeta, lam) % 1
        if frac == 0:
            phase = 1.0 + 0j
        elif frac == Fraction(1, 2):
            phase = -1.0 + 0j
        else:
            phase = cmath.exp(2j * math.pi * float(frac))
        total += a * phase * casimir_eigenvalue(R, mu, lam, q)
    return total


def dynkin_index(R: RootSystem, mu: Weight, theta: Weight | None = None) -> Fraction:
    """The trace-form ratio b_mu = sum_e mult(e) (e, t)^2 / (t, t), exact.

    Only meaningful for a single simple factor (compute per factor for
    products); independence of the test weight t is a checked property, not
    an assumption.  t must be dominant integral: the weight multiset is
    Weyl-invariant, so any integral t has the index of its dominant conjugate.
    """
    if len(R.factors) != 1:
        raise InvariantError("dynkin_index needs a simple root system; handle products per factor")
    if theta is None:
        theta = Weight.fundamental(R.rank, 1)
    if theta.is_zero:
        raise InvariantError("the test weight must be nonzero")
    # D (theta, e) = D (theta + r, e) - D (r, e)
    total = sum(mult * (x - y) ** 2 for mult, x, y in _pairings(R, mu, theta))
    return Fraction(total, R.denominator ** 2) / inner_product(R, theta, theta)


def killing_form_scale(R: RootSystem) -> Fraction:
    """Scale that turns the normalized form into the Killing form (simple types).

    The Killing form is the trace form of the adjoint representation, so the
    right scale is the one making the adjoint index equal to 1.
    """
    if len(R.factors) != 1:
        raise InvariantError("the Killing scale is per simple factor")
    return R.scale / dynkin_index(R, R.highest_roots[0])


def lower_bound(R: RootSystem, spec: LaplacianSpec, q) -> float:
    """-sum_l a_l sum_e [(r, e)]_q^2, a floor for every scan eigenvalue."""
    h = _log_q(q)
    total = 0.0
    for mu, a in spec.terms:
        for mult, _, y in _pairings(R, mu, Weight.zero(R.rank)):
            total += float(a) * mult * _bracket(y / R.denominator, h) ** 2
    return -total


def qms_witness(R: RootSystem, mu: Weight, q) -> float:
    """Conditional-positivity obstruction of the block at mu.

    sum_e mult(e) q^{-2 (r, e)} * sum_factors |C_{z_g}(-w0 mu) - C_{z_g}(0)|^2
    with g the highest root (taken per simple factor and summed for
    products).  Zero only at mu = 0; positivity certifies that the heat
    semigroup is not a quantum Markov semigroup.  V(g) is self-dual, so
    C_{z_g}(l) - C_{z_g}(0) = 2 sinh^2(ln q) * (the q-Laplacian of the one
    term (g, 1) at l), a form that does not cancel as q -> 1.
    """
    zero = Weight.zero(R.rank)
    prefactor = casimir_eigenvalue(R, mu, zero, q)
    dual = minus_w0(R, mu)
    scale = 2.0 * math.sinh(_log_q(q)) ** 2
    total = 0.0
    for gamma in R.highest_roots:
        diff = scale * q_laplacian_eigenvalue(R, LaplacianSpec.of([(gamma, 1)]), dual, q)
        total += diff ** 2
    return prefactor * total


def spectrum_scan(R: RootSystem, spec: LaplacianSpec, q, radius,
                  row_cap: int | None = None) -> list[SpectrumRow]:
    """One row per dominant weight with (lam, lam) <= radius, graded-lex order."""
    qp = _qparam(q)
    lams = enumerate_dominant(R, radius, max_rows=resolve_row_cap(row_cap))
    return [SpectrumRow(lam=lam, dim=dim_irrep(R, lam),
                        eigenvalue=q_laplacian_eigenvalue(R, spec, lam, qp))
            for lam in lams]


def nonnegativity_scan(R: RootSystem, spec: LaplacianSpec, q, radius,
                       row_cap: int | None = None) -> tuple[float, Weight]:
    """Minimum scanned eigenvalue and the first weight attaining it."""
    rows = spectrum_scan(R, spec, q, radius, row_cap=row_cap)
    best = min(rows, key=lambda r: r.eigenvalue)
    return best.eigenvalue, best.lam
