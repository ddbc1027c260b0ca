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
from fractions import Fraction
from typing import NamedTuple

from .cartan import (
    CenterElement,
    RootSystem,
    Weight,
    _Record,
    center_reduce,
    coweight_pairing,
    enumerate_dominant,
    inner_product,  # noqa: F401 -- perfbench/tracer.py binds it (COUNTED) until ROADMAP item 2
    minus_w0,
    read_rational,
)
from .errors import InvariantError
from .weights import dim_irrep, pairings, weight_system


def log_q(q) -> float:
    """ln q, after the one check 0 < q < 1 (NaN fails it); q = 1 takes the classical formulas."""
    q = float(q)
    if not 0.0 < q < 1.0:
        raise InvariantError(f"q must satisfy 0 < q < 1, got {q}")
    return math.log(q)


def _bracket(x: float, h: float) -> float:
    """[x]_q with h = ln q."""
    return math.sinh(x * h) / math.sinh(h)


def _pairings(R: RootSystem, mu: Weight, lam: Weight):
    return pairings(R, weight_system(R, mu).rows, lam)


def _as_coefficient(a, k: int) -> Fraction:
    """The exact value of a finite real coefficient: an int, Fraction, float or Decimal."""
    if not isinstance(a, (bool, str, complex)) and (a := read_rational(a)) is not None:
        return a
    raise InvariantError(f"the coefficient of term {k} is not a finite real number")


def _as_pair(a, k: int) -> tuple[Fraction, ...]:
    """A real a as (a, 0), a `complex` or a tuple part by part, each part through `_as_coefficient`."""
    parts = a if type(a) is tuple else (a.real, a.imag) if isinstance(a, complex) else (a, 0)
    return tuple(_as_coefficient(x, k) for x in parts)


def _check_exact(k: int, parts) -> None:
    """Refuse a coefficient part that is not a `Fraction`, or that is not 0 and has float 0 or no float."""
    for x in parts:
        if type(x) is not Fraction:
            raise InvariantError(f"the coefficient of term {k} is not a Fraction")
        try:
            if x and not float(x):
                raise InvariantError(f"float underflow: a nonzero part of the coefficient of term {k} has float 0")
        except OverflowError:
            raise InvariantError(f"float overflow: the coefficient of term {k} is past the float range") from None


class LaplacianSpec(_Record):
    """The data (mu_1, a_1), ..., (mu_m, a_m) with distinct mu and `Fraction`s a_l > 0 that floats can hold."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Weight, Fraction], ...]):
        if len({mu for mu, _ in terms}) != len(terms):
            raise InvariantError("Laplacian terms must have pairwise distinct weights")
        for k, (mu, a) in enumerate(terms, 1):  # a refusal names a term by its position: digits may not print
            if not mu.is_dominant:
                raise InvariantError(f"the weight of term {k} is not dominant integral")
            _check_exact(k, (a,))
            if not a > 0:
                raise InvariantError(f"the coefficient of term {k} is not positive")
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def of(pairs) -> "LaplacianSpec":
        """Weights through `Weight.of`, coefficients read exactly; any other value raises `InvariantError`."""
        return LaplacianSpec(tuple((mu if isinstance(mu, Weight) else Weight.of(mu), _as_coefficient(a, k))
                                   for k, (mu, a) in enumerate(pairs, 1)))


class GeneralFunctionalSpec(_Record):
    """Terms (zeta_l, mu_l, a_l): distinct (zeta, mu) pairs, zeta a `CenterElement` of `int`s, a_l exact (re, im)."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[CenterElement, Weight, tuple[Fraction, Fraction]], ...]):
        for k, (z, mu, a) in enumerate(terms, 1):
            if type(z) is not CenterElement or type(z.rep) is not tuple or any(type(c) is not int for c in z.rep):
                raise InvariantError(f"the center class of term {k} is not a CenterElement of integers")
            if not mu.is_dominant:
                raise InvariantError(f"the weight of term {k} is not dominant integral")
            if type(a) is not tuple or len(a) != 2:
                raise InvariantError(f"the coefficient of term {k} is not a pair (re, im)")
            _check_exact(k, a)
        if len({(z, mu) for z, mu, _ in terms}) != len(terms):
            raise InvariantError("functional terms must have distinct (zeta, mu) pairs")
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def of(triples) -> "GeneralFunctionalSpec":
        """A tuple or list zeta and each weight through `Weight.of`; a real a is (a, 0), each part read exactly."""
        return GeneralFunctionalSpec(tuple((CenterElement(Weight.of(z).coords) if isinstance(z, (tuple, list)) else z,
                                            mu if isinstance(mu, Weight) else Weight.of(mu), _as_pair(a, k))
                                           for k, (z, mu, a) in enumerate(triples, 1)))


class SpectrumRow(NamedTuple):
    """One Peter-Weyl block: the weight, its block dimension, the eigenvalue."""

    lam: Weight
    dim: int
    eigenvalue: float


def casimir_eigenvalue(R: RootSystem, mu: Weight, lam: Weight, q) -> float:
    """Eigenvalue sum_e mult(e) q^{-2 (lam + r, e)} of the Casimir functional."""
    h = log_q(q)
    total = 0.0
    for mult, x, _ in _pairings(R, mu, lam):
        total += mult * math.exp(-2.0 * (x / R.denominator) * h)
    return total


def q_laplacian_eigenvalue(R: RootSystem, spec: LaplacianSpec, lam: Weight, q) -> float:
    """sum_l a_l sum_e ([(lam+r, e)]_q^2 - [(r, e)]_q^2); exactly 0 at lam = 0."""
    h = log_q(q)
    D = R.denominator

    def term(mu: Weight) -> float:
        total = 0.0
        for mult, x, y in _pairings(R, mu, lam):
            total += mult * (_bracket(x / D, h) ** 2 - _bracket(y / D, h) ** 2)
        return total

    return sum(float(a) * term(mu) for mu, a in spec.terms)


def classical_laplacian_eigenvalue(R: RootSystem, spec: LaplacianSpec, lam: Weight) -> Fraction:
    """The q -> 1 limit sum_l a_l sum_e ((lam+r, e)^2 - (r, e)^2), exactly."""
    total = Fraction(0)
    for mu, a in spec.terms:
        total += a * Fraction(sum(mult * (x * x - y * y) for mult, x, y in _pairings(R, mu, lam)),
                              R.denominator ** 2)
    return total


def general_functional_eigenvalue(R: RootSystem, spec: GeneralFunctionalSpec, lam: Weight, q) -> complex:
    """sum_l a_l e^{2 pi i (xi_l, lam)} C_{z_{mu_l}}(lam), phases from exact rationals."""
    log_q(q)
    total = 0j
    for zeta, mu, (re, im) in spec.terms:
        zeta = center_reduce(R, zeta.rep)
        frac = coweight_pairing(R, zeta, lam) % 1
        if frac == 0:
            phase = 1.0 + 0j
        elif frac == Fraction(1, 2):
            phase = -1.0 + 0j
        else:
            phase = cmath.exp(2j * math.pi * float(frac))
        total += complex(re, im) * phase * casimir_eigenvalue(R, mu, lam, q)
    return total


def lower_bound(R: RootSystem, spec: LaplacianSpec, q) -> float:
    """-sum_l a_l sum_e [(r, e)]_q^2, a floor for every scan eigenvalue."""
    h = log_q(q)
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
    scale = 2.0 * math.sinh(log_q(q)) ** 2
    total = 0.0
    for gamma in R.highest_roots:
        diff = scale * q_laplacian_eigenvalue(R, LaplacianSpec.of([(gamma, 1)]), dual, q)
        total += diff ** 2
    return prefactor * total


def spectrum_scan(R: RootSystem, spec: LaplacianSpec, q, radius) -> list[SpectrumRow]:
    """One row per dominant weight with (lam, lam) <= radius, graded-lex order."""
    log_q(q)
    return [SpectrumRow(lam=lam, dim=dim_irrep(R, lam),
                        eigenvalue=q_laplacian_eigenvalue(R, spec, lam, q))
            for lam in enumerate_dominant(R, radius)]
