"""Finite-dimensional bicovariant (*-)differential calculi as index data.

A calculus is identified by a finite set of distinct pairs (zeta, mu) of a
center class and a dominant weight; the pair (0, 0) is allowed but stands
for the zero summand.  The invariant dimension is sum of n_mu^2 over the
nonzero pairs, a star structure exists iff every pair whose center class is
not half-a-coroot is matched by its (-zeta, mu) partner, and the functional
validators below decide which center-valued coefficient data are
self-adjoint, Hermitian, or q-deformed Laplacians.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import (
    CenterElement,
    RootSystem,
    Weight,
    center_group,
    center_negate,
    center_reduce,
    graded_key,
    is_half_coroot,
    minus_w0,
    walk_dominant,
)
from .errors import InvariantError, ResourceCapError
from .spectra import GeneralFunctionalSpec
from .weights import dim_irrep

DEFAULT_INDEX_CAP = 65536

Pair = tuple[CenterElement, Weight]


def _pair_key(pair: Pair):
    return (sum(pair[0].rep), pair[0].rep, graded_key(pair[1]))


def _is_zero_pair(pair: Pair) -> bool:
    return pair[0].is_zero and pair[1].is_zero


@dataclass(frozen=True)
class FodcIndex:
    """A set of distinct (center class, dominant weight) pairs."""

    pairs: tuple[Pair, ...]

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
                                   for z, mu in pairs), key=_pair_key))
        return FodcIndex(normalized)

    @property
    def nonzero_pairs(self) -> tuple[Pair, ...]:
        return tuple(p for p in self.pairs if not _is_zero_pair(p))


def fodc_dimension(R: RootSystem, idx: FodcIndex) -> int:
    """Invariant dimension: sum of dim V(mu)^2 over the nonzero pairs."""
    return sum(dim_irrep(R, mu) ** 2 for _, mu in idx.nonzero_pairs)


@dataclass(frozen=True)
class StarReport:
    """Star-admissibility verdict with the (zeta, mu) <-> (-zeta, mu) matching."""

    admissible: bool
    matching: tuple[tuple[Pair, Pair], ...]
    unmatched: tuple[Pair, ...]


def admits_star_structure(R: RootSystem, idx: FodcIndex) -> StarReport:
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
    coeff: dict[Pair, complex] = {}
    for zeta, mu, a in spec.terms:
        coeff[(center_reduce(R, zeta.rep), mu)] = a

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
    for (flo, fhi), factor in zip(R.factor_slices(), R.factors):
        if not any(any(mu.coords[k] != 0 for k in range(flo, fhi)) for _, mu, _ in spec.terms):
            q_laplacian = False
            reasons.append(f"not a q-deformed Laplacian: no weight touches factor {factor}")

    return FunctionalReport(self_adjoint=self_adjoint, hermitian=hermitian,
                            q_laplacian=q_laplacian, reasons=tuple(reasons))


@dataclass(frozen=True)
class FodcIndexReport:
    """One enumerated calculus: its index, dimension, star verdict, and the
    class of center functionals inducing it (the nonzero pairs)."""

    index: FodcIndex
    dimension: int
    star: StarReport
    functional_class: tuple[Pair, ...]


def enumerate_fodc_indices(R: RootSystem, max_height: int, include_center: bool,
                           max_indices: int = DEFAULT_INDEX_CAP) -> tuple[FodcIndexReport, ...]:
    """All calculi built from pairs (zeta, mu) with height(mu) <= max_height.

    Subsets of the pair pool are emitted in bitmask order, beginning with the
    zero calculus; (0, 0) is excluded from the pool since it only names the
    zero summand.  The weight walk stops as soon as the pool would hold more
    than log2(max_indices) pairs, so the cap is checked before the work.
    """
    if max_height < 0:
        raise InvariantError("max_height must be nonnegative")
    zetas = center_group(R).representatives if include_center else (center_reduce(R, [0] * R.rank),)
    # 2^(|zetas| * |mus| - 1) calculi fit under the cap iff |zetas| * |mus| <= its bit length
    max_mus = max(max_indices, 0).bit_length() // len(zetas)
    try:
        mus = walk_dominant(R, lambda coords: sum(coords) <= max_height, max_rows=max_mus)
    except ResourceCapError:
        raise ResourceCapError(f"enumeration exceeds the cap of {max_indices} calculi") from None
    pool = [(z, mu) for z in zetas for mu in mus]
    pool = sorted((p for p in pool if not _is_zero_pair(p)), key=_pair_key)
    reports = []
    for mask in range(1 << len(pool)):
        chosen = tuple(pool[i] for i in range(len(pool)) if mask >> i & 1)
        idx = FodcIndex(chosen)
        reports.append(FodcIndexReport(
            index=idx,
            dimension=fodc_dimension(R, idx),
            star=admits_star_structure(R, idx),
            functional_class=idx.nonzero_pairs,
        ))
    return tuple(reports)
