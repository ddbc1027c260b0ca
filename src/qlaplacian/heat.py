"""Diagonal action of the heat semigroup on Peter-Weyl blocks.

The semigroup scales the block at a dominant weight by e^{-t C(lam)}; the
truncated trace sums n_lam^2 e^{-t C(lam)} over a norm ball and tends to 1
as t grows, because the eigenvalues diverge with (lam, lam).
"""

from __future__ import annotations

import cmath
import math
from operator import mul
from typing import NamedTuple, Sequence

from .cartan import RootSystem, Weight, graded_key, untouched_factors
from .errors import InvariantError
from .spectra import (
    LaplacianSpec,
    log_q,
    q_laplacian_eigenvalue,
    qms_witness,
    spectrum_scan,
)
from .weights import dim_irrep

Matrix = tuple[tuple[complex, ...], ...]


class BlockCoefficients(NamedTuple):
    """Finitely many Peter-Weyl blocks: (weight, n_lam x n_lam matrix) pairs."""

    blocks: tuple[tuple[Weight, Matrix], ...]

    @staticmethod
    def of(R: RootSystem, data) -> "BlockCoefficients":
        blocks = []
        for k, (lam, matrix) in enumerate(data.items() if isinstance(data, dict) else data, 1):
            lam = Weight.of(lam.coords if isinstance(lam, Weight) else lam)
            n = dim_irrep(R, lam)
            rows = tuple(tuple(_as_entry(v, k) for v in row) for row in matrix)
            if len(rows) != n or any(len(row) != n for row in rows):  # named by position: n may not print
                raise InvariantError(f"the matrix of block {k} is not dim V(lam) by dim V(lam)")
            blocks.append((lam, rows))
        if len({lam for lam, _ in blocks}) != len(blocks):
            raise InvariantError("duplicate block weight")
        return BlockCoefficients(tuple(sorted(blocks, key=lambda b: graded_key(b[0]))))


def _as_entry(v, k: int) -> complex:
    """A finite entry as a `complex`; a str, bool, None or a value that is not finite raises `InvariantError`."""
    try:
        if not isinstance(v, (bool, str)) and cmath.isfinite(z := complex(v)):
            return z
    except (TypeError, ValueError, OverflowError):  # None, or no number at all
        pass
    raise InvariantError(f"an entry of the matrix of block {k} is not a finite number")


def heat_coefficient(R: RootSystem, spec: LaplacianSpec, lam: Weight, q, t: float) -> float:
    """e^{-t C(lam)}; equals 1 at t = 0 and at lam = 0."""
    if not 0 <= t < math.inf:  # NaN fails it too
        raise InvariantError(f"heat time must be nonnegative and finite, got {t}")
    return math.exp(-t * q_laplacian_eigenvalue(R, spec, lam, q))


def apply_heat(R: RootSystem, spec: LaplacianSpec, coeffs: BlockCoefficients,
               q, t: float) -> BlockCoefficients:
    """Scale every block by its heat coefficient; the support is unchanged."""
    log_q(q)
    heat_coefficient(R, spec, Weight.zero(R.rank), q, t)  # checks t once, even with no block to scale
    out = []
    for lam, matrix in coeffs.blocks:
        c = heat_coefficient(R, spec, lam, q, t)
        out.append((lam, tuple(tuple(c * v for v in row) for row in matrix)))
    return BlockCoefficients(tuple(out))


def heat_trace(R: RootSystem, spec: LaplacianSpec, q, t: float, radius) -> float:
    """Truncated trace sum n_lam^2 e^{-t C(lam)} over (lam, lam) <= radius."""
    return heat_trace_report(R, spec, q, [t], radius)[0][0]


def heat_trace_report(R: RootSystem, spec: LaplacianSpec, q, ts: Sequence[float],
                      radius) -> list[tuple[float, float]]:
    """One (trace, truncation estimate) pair per time in `ts`, from a single scan.

    The estimate is n_max^2 e^{-t C_min} taken on the outermost shell of the
    scan, a single-term proxy for the discarded tail justified by the
    divergence of the eigenvalues.  A family that misses a simple factor has
    infinitely many zero eigenvalues and so an infinite trace: it is rejected.
    """
    for t in ts:
        if not 0 < t < math.inf:
            raise InvariantError(f"heat-trace time must be positive and finite, got {t}")
    missed = untouched_factors(R, [mu for mu, _ in spec.terms])
    if missed:
        raise InvariantError(f"the heat trace is infinite: no term weight touches factor "
                             f"{missed[0] + 1} ({R.factors[missed[0]]})")
    rows = spectrum_scan(R, spec, q, radius)
    norms = [sum(map(mul, r.lam.coords, R.row(r.lam))) for r in rows]  # D (lam, lam), as in the ball test
    boundary_norm = max(norms)
    shell = [r for r, norm in zip(rows, norms) if norm == boundary_norm]
    n_max = max(r.dim for r in shell)
    c_min = min(r.eigenvalue for r in shell)
    return [(sum(r.dim ** 2 * math.exp(-t * r.eigenvalue) for r in rows),
             n_max ** 2 * math.exp(-t * c_min)) for t in ts]


class MarkovVerdict(NamedTuple):
    """Whether the semigroup is quantum Markov, with per-term witnesses."""

    quantum_markov: bool
    witnesses: tuple[tuple[Weight, float], ...]


def markov_verdict(R: RootSystem, spec: LaplacianSpec, q) -> MarkovVerdict:
    """Never quantum Markov once any block witness is positive."""
    log_q(q)
    witnesses = tuple((mu, qms_witness(R, mu, q)) for mu, _ in spec.terms)
    return MarkovVerdict(
        quantum_markov=not any(w > 0 for _, w in witnesses),
        witnesses=witnesses,
    )
