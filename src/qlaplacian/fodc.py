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

from dataclasses import dataclass
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
    untouched_factors,
    walk_dominant,
)
from .errors import InvariantError, ResourceCapError
from .spectra import GeneralFunctionalSpec
from .weights import dim_irrep

DEFAULT_INDEX_CAP = 65536


class Pair(NamedTuple):
    """One (zeta, mu) summand; equal to, and hashed like, the plain tuple."""

    zeta: CenterElement
    mu: Weight


def _pair_key(pair: Pair):
    return (sum(pair[0].rep), pair[0].rep, graded_key(pair[1]))


def _is_zero_pair(pair: Pair) -> bool:
    return pair[0].is_zero and pair[1].is_zero


def induced_class(R: RootSystem, spec: GeneralFunctionalSpec) -> tuple[Pair, ...]:
    """The pairs of the terms with a != 0, classes reduced, (0, 0) dropped, in `_pair_key` order."""
    pairs = (Pair(center_reduce(R, zeta.rep), mu) for zeta, mu, a in spec.terms if a != 0)
    return tuple(sorted((p for p in pairs if not _is_zero_pair(p)), key=_pair_key))


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


@dataclass(frozen=True)
class FunctionalReport:
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
    for (zeta, mu), a in coeff.items():
        partner = coeff.get((center_negate(R, zeta), mu), 0j)
        if a.conjugate() != partner:
            self_adjoint = False
            reasons.append(
                f"self-adjointness fails at (zeta={zeta.serialize()}, mu={mu.serialize()}): "
                f"needs conjugate coefficient {a.conjugate()} on the (-zeta, mu) term"
            )

    hermitian = True
    for (zeta, mu), a in coeff.items():
        partner = coeff.get((center_negate(R, zeta), minus_w0(R, mu)), 0j)
        if a != partner:
            hermitian = False
            reasons.append(
                f"Hermiticity fails at (zeta={zeta.serialize()}, mu={mu.serialize()}): "
                f"the (-zeta, -w0 mu) term must carry the same coefficient"
            )

    q_laplacian = hermitian
    for (zeta, mu), a in coeff.items():
        if not zeta.is_zero:
            q_laplacian = False
            reasons.append(f"not a q-deformed Laplacian: nonzero center class {zeta.serialize()}")
        if a.imag != 0 or a.real <= 0:
            q_laplacian = False
            reasons.append(f"not a q-deformed Laplacian: coefficient {a} is not a positive real")
    if not hermitian:
        reasons.append("not a q-deformed Laplacian: the weight family is not -w0-closed with matched coefficients")
    # faithfulness: every simple factor must carry a nonzero component of some mu
    for k in untouched_factors(R, [mu for _, mu, _ in spec.terms]):
        q_laplacian = False
        reasons.append(f"not a q-deformed Laplacian: no weight touches factor {R.factors[k]}")

    return FunctionalReport(self_adjoint=self_adjoint, hermitian=hermitian,
                            q_laplacian=q_laplacian, reasons=tuple(reasons))


def enumerate_fodc_indices(R: RootSystem, max_height: int, include_center: bool,
                           max_indices: int = DEFAULT_INDEX_CAP) -> tuple[tuple[tuple[Pair, ...], int, bool], ...]:
    """All calculi built from pairs (zeta, mu) with height(mu) <= max_height.

    Each calculus is a (pairs, dimension, star_admissible) triple.  Subsets of
    the pair pool are emitted in bitmask order, beginning with the zero
    calculus; (0, 0) is excluded from the pool since it only names the zero
    summand.  The weight walk stops as soon as the pool would hold more than
    log2(max_indices) pairs, so the cap is checked before the work.
    """
    if max_height < 0:
        raise InvariantError("max_height must be nonnegative")
    # 2^(|zetas| * |mus| - 1) calculi fit under the cap iff |zetas| * |mus| <= its bit length
    max_mus = max(max_indices, 0).bit_length() // (center_order(R) if include_center else 1)
    try:
        mus = walk_dominant(R, lambda coords: sum(coords) <= max_height, max_rows=max_mus)
    except ResourceCapError:
        raise ResourceCapError(f"enumeration exceeds the cap of {max_indices} calculi") from None
    zetas = center_group(R).representatives if include_center else (center_reduce(R, [0] * R.rank),)
    pool = [Pair(z, mu) for z in zetas for mu in mus]
    pool = tuple(sorted((p for p in pool if not _is_zero_pair(p)), key=_pair_key))
    sizes, needs = _pair_tables(R, pool)
    calculi = []
    for mask in range(1 << len(pool)):
        chosen = [i for i in range(len(pool)) if mask >> i & 1]
        calculi.append((tuple(pool[i] for i in chosen), sum(sizes[i] for i in chosen),
                        all(mask & needs[i] == needs[i] for i in chosen)))
    return tuple(calculi)
