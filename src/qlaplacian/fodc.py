"""Finite-dimensional bicovariant (*-)differential calculi as index data.

A calculus is identified by a finite set of distinct pairs (zeta, mu) of a
reduced center class and a dominant weight, other than (0, 0), which names
the zero summand.  The invariant dimension is the sum of n_mu^2 over the
pairs, a star structure exists iff every pair whose center class is not
half-a-coroot is matched by its (-zeta, mu) partner, and the functional
validators below decide which center-valued coefficient data are
self-adjoint, Hermitian, or q-deformed Laplacians.
"""

from __future__ import annotations

from typing import NamedTuple

from .cartan import (
    CenterElement,
    RootSystem,
    Weight,
    center_group,
    center_negate,
    center_order,
    center_reduce,
    graded_key,
    is_half_coroot,
    minus_w0,
    resolve_row_cap,
    untouched_factors,
    walk_dominant,
)
from .errors import InvariantError, ResourceCapError
from .spectra import GeneralFunctionalSpec
from .weights import dim_irrep


class Pair(NamedTuple):
    """One (zeta, mu) summand; equal to, and hashed like, the plain tuple."""

    zeta: CenterElement
    mu: Weight


def _pair_key(pair: Pair):
    return (sum(pair[0].rep), pair[0].rep, graded_key(pair[1]))


def induced_class(R: RootSystem, spec: GeneralFunctionalSpec) -> tuple[Pair, ...]:
    """The pairs of the terms with a != 0, classes reduced, (0, 0) dropped, in `_pair_key` order."""
    pairs = (Pair(center_reduce(R, zeta.rep), mu) for zeta, mu, a in spec.terms if any(a))
    return tuple(sorted((p for p in pairs if not (p.zeta.is_zero and p.mu.is_zero)), key=_pair_key))


def _pair_tables(R: RootSystem, pairs: tuple[Pair, ...]) -> tuple[list[int], list[int]]:
    """Each pair's size dim V(mu)^2, and the bit of the (-zeta, mu) partner it needs.

    Pair i has the bit 1 << i.  The needed bit is 0 when zeta is half a
    coroot and 1 << len(pairs), outside the set, when the partner is missing.
    """
    bits = {pair: 1 << i for i, pair in enumerate(pairs)}
    if len(bits) != len(pairs):
        raise InvariantError("calculus index contains duplicate (zeta, mu) pairs")
    missing = 1 << len(pairs)
    sizes = [dim_irrep(R, mu) ** 2 for _, mu in pairs]
    needs = [0 if is_half_coroot(R, z) else bits.get((center_negate(R, z), mu), missing) for z, mu in pairs]
    return sizes, needs


def fodc_dimension(R: RootSystem, pairs: tuple[Pair, ...]) -> int:
    """Invariant dimension of the calculus on these pairs: sum of dim V(mu)^2."""
    return sum(_pair_tables(R, pairs)[0])


def admits_star_structure(R: RootSystem, pairs: tuple[Pair, ...]) -> bool:
    """Whether every pair whose class is not half a coroot has its (-zeta, mu) partner."""
    full = (1 << len(pairs)) - 1
    return all(full & need == need for need in _pair_tables(R, pairs)[1])


class FunctionalReport(NamedTuple):
    self_adjoint: bool
    hermitian: bool
    q_laplacian: bool
    reasons: tuple[str, ...]


def validate_functional(R: RootSystem, spec: GeneralFunctionalSpec) -> FunctionalReport:
    """Classify a center-functional: self-adjoint, Hermitian, q-deformed Laplacian.

    With coefficients c(zeta, mu) in the canonical basis, self-adjointness is
    conj(c(zeta, mu)) = c(-zeta, mu) and Hermiticity is
    c(zeta, mu) = c(-zeta, -w0 mu); a q-deformed Laplacian additionally needs
    all zeta = 0, positive coefficients, and a weight family touching every
    simple factor.
    """
    coeff = {(center_reduce(R, zeta.rep), mu): a for zeta, mu, a in spec.terms}
    if len(coeff) != len(spec.terms):
        raise InvariantError("calculus index contains duplicate (zeta, mu) pairs")

    reasons = []
    self_adjoint = True
    for (zeta, mu), (re, im) in coeff.items():
        if coeff.get((center_negate(R, zeta), mu), (0, 0)) != (re, -im):
            self_adjoint = False
            reasons.append(f"self-adjointness fails at (zeta={zeta.serialize()}, mu={mu.serialize()}): "
                           "the (-zeta, mu) term must carry the conjugate coefficient")

    hermitian = True
    for (zeta, mu), a in coeff.items():
        if coeff.get((center_negate(R, zeta), minus_w0(R, mu)), (0, 0)) != a:
            hermitian = False
            reasons.append(f"Hermiticity fails at (zeta={zeta.serialize()}, mu={mu.serialize()}): "
                           "the (-zeta, -w0 mu) term must carry the same coefficient")

    q_laplacian = hermitian
    for (zeta, mu), (re, im) in coeff.items():
        if not zeta.is_zero:
            q_laplacian = False
            reasons.append(f"not a q-deformed Laplacian: nonzero center class {zeta.serialize()}")
        if im or re <= 0:
            q_laplacian = False
            reasons.append(f"not a q-deformed Laplacian: the coefficient at (zeta={zeta.serialize()}, "
                           f"mu={mu.serialize()}) is not a positive real")
    if not hermitian:
        reasons.append("not a q-deformed Laplacian: the weight family is not -w0-closed with matched coefficients")
    # faithfulness: every simple factor must carry a nonzero component of some mu
    for k in untouched_factors(R, [mu for _, mu, _ in spec.terms]):
        q_laplacian = False
        reasons.append(f"not a q-deformed Laplacian: no weight touches factor {R.factors[k]}")

    return FunctionalReport(self_adjoint=self_adjoint, hermitian=hermitian,
                            q_laplacian=q_laplacian, reasons=tuple(reasons))


def enumerate_fodc_indices(R: RootSystem, max_height: int,
                           include_center: bool) -> tuple[tuple[tuple[Pair, ...], int, bool], ...]:
    """All calculi built from pairs (zeta, mu) with height(mu) <= max_height.

    Each calculus is a (pairs, dimension, star_admissible) triple.  Subsets of
    the pair pool are emitted in bitmask order, beginning with the zero
    calculus; (0, 0) is excluded from the pool since it only names the zero
    summand.  The weight walk stops as soon as the pool would hold more
    pairs than log2 of the row cap, so the cap is checked before the work.
    """
    try:  # an integer by `Weight.of`'s rule: the walk's `<=` would take NaN, 0.5 or 1/3 as height 0
        (max_height,) = Weight.of([max_height]).coords
    except InvariantError:
        max_height = -1
    if max_height < 0:
        raise InvariantError("max_height must be a nonnegative integer")
    cap = resolve_row_cap()
    # 2^(|zetas| * |mus| - 1) calculi fit under the cap iff |zetas| * |mus| <= its bit length
    max_mus = cap.bit_length() // (center_order(R) if include_center else 1)
    try:
        mus = walk_dominant(R, lambda coords: sum(coords) <= max_height, max_rows=max_mus)
    except ResourceCapError:
        raise ResourceCapError(f"enumeration exceeds the cap of {cap} calculi") from None
    zetas = center_group(R).representatives if include_center else (center_reduce(R, [0] * R.rank),)
    # zetas come sorted by (sum, rep) and mus in graded-lex order, both from zero: their product is
    # in `_pair_key` order with (0, 0) first, which the slice drops
    pool = tuple(Pair(z, mu) for z in zetas for mu in mus)[1:]
    sizes, needs = _pair_tables(R, pool)
    # calculus m | 1 << i is calculus m (m < 1 << i) extended by pair i: (pairs, dimension, needed bits)
    calculi = [((), 0, 0)]
    for pair, size, need in zip(pool, sizes, needs):
        calculi += [(pairs + (pair,), dim + size, reach | need) for pairs, dim, reach in calculi]
    return tuple((pairs, dim, reach | mask == mask) for mask, (pairs, dim, reach) in enumerate(calculi))
