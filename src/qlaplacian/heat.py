"""Diagonal action of the heat semigroup on Peter-Weyl blocks.

The semigroup scales the block at a dominant weight by e^{-t C(lam)}; the
truncated trace sums n_lam^2 e^{-t C(lam)} over a norm ball and tends to 1
as t grows, because the eigenvalues diverge with (lam, lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cartan import RootSystem, Weight, graded_key, norm_squared
from .errors import InvariantError
from .spectra import (
    LaplacianSpec,
    _qparam,
    q_laplacian_eigenvalue,
    qms_witness,
    spectrum_scan,
)
from .weights import dim_irrep

Matrix = tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class BlockCoefficients:
    """Finitely many Peter-Weyl blocks: (weight, n_lam x n_lam matrix) pairs."""

    blocks: tuple[tuple[Weight, Matrix], ...]

    @staticmethod
    def of(R: RootSystem, data) -> "BlockCoefficients":
        blocks = []
        for lam, matrix in (data.items() if isinstance(data, dict) else data):
            lam = lam if isinstance(lam, Weight) else Weight.of(lam)
            n = dim_irrep(R, lam)
            rows = tuple(tuple(complex(v) for v in row) for row in matrix)
            if len(rows) != n or any(len(row) != n for row in rows):
                raise InvariantError(
                    f"block at {lam.serialize()} must be {n}x{n} to match dim V(lam)"
                )
            blocks.append((lam, rows))
        if len({lam for lam, _ in blocks}) != len(blocks):
            raise InvariantError("duplicate block weight")
        return BlockCoefficients(tuple(sorted(blocks, key=lambda b: graded_key(b[0]))))


def blocks_to_json(coeffs: BlockCoefficients) -> list:
    """JSON form: a list of {"lambda": int[], "matrix": [[{"re", "im"}, ...], ...]}."""
    return [{
        "lambda": [int(c) for c in lam.coords],
        "matrix": [[{"re": v.real, "im": v.imag} for v in row] for row in matrix],
    } for lam, matrix in coeffs.blocks]


def blocks_from_json(R: RootSystem, data) -> BlockCoefficients:
    return BlockCoefficients.of(R, [
        (Weight.of(item["lambda"]),
         [[complex(v["re"], v["im"]) for v in row] for row in item["matrix"]])
        for item in data
    ])


def heat_coefficient(R: RootSystem, spec: LaplacianSpec, lam: Weight, q, t: float) -> float:
    """e^{-t C(lam)}; equals 1 at t = 0 and at lam = 0."""
    if t < 0:
        raise InvariantError(f"heat time must be nonnegative, got {t}")
    return math.exp(-t * q_laplacian_eigenvalue(R, spec, lam, q))


def apply_heat(R: RootSystem, spec: LaplacianSpec, coeffs: BlockCoefficients,
               q, t: float) -> BlockCoefficients:
    """Scale every block by its heat coefficient; the support is unchanged."""
    out = []
    for lam, matrix in coeffs.blocks:
        c = heat_coefficient(R, spec, lam, q, t)
        out.append((lam, tuple(tuple(c * v for v in row) for row in matrix)))
    return BlockCoefficients(tuple(out))


def heat_trace(R: RootSystem, spec: LaplacianSpec, q, t: float, radius,
               row_cap: int | None = None) -> float:
    """Truncated trace sum n_lam^2 e^{-t C(lam)} over (lam, lam) <= radius."""
    return heat_trace_report(R, spec, q, [t], radius, row_cap=row_cap)[0][0]


def heat_trace_report(R: RootSystem, spec: LaplacianSpec, q, ts: Sequence[float], radius,
                      row_cap: int | None = None) -> list[tuple[float, float]]:
    """One (trace, truncation estimate) pair per time in `ts`, from a single scan.

    The estimate is n_max^2 e^{-t C_min} taken on the outermost shell of the
    scan, a single-term proxy for the discarded tail justified by the
    divergence of the eigenvalues.
    """
    for t in ts:
        if not 0 < t < math.inf:
            raise InvariantError(f"heat-trace time must be positive and finite, got {t}")
    rows = spectrum_scan(R, spec, q, radius, row_cap=row_cap)
    boundary_norm = max(norm_squared(R, r.lam) for r in rows)
    shell = [r for r in rows if norm_squared(R, r.lam) == boundary_norm]
    n_max = max(r.dim for r in shell)
    c_min = min(r.eigenvalue for r in shell)
    return [(sum(r.dim ** 2 * math.exp(-t * r.eigenvalue) for r in rows),
             n_max ** 2 * math.exp(-t * c_min)) for t in ts]


@dataclass(frozen=True)
class MarkovVerdict:
    """Whether the semigroup is quantum Markov, with per-term witnesses."""

    quantum_markov: bool
    witnesses: tuple[tuple[Weight, float], ...]


def markov_verdict(R: RootSystem, spec: LaplacianSpec, q) -> MarkovVerdict:
    """Never quantum Markov once any block witness is positive."""
    _qparam(q)
    witnesses = tuple((mu, qms_witness(R, mu, q)) for mu, _ in spec.terms)
    return MarkovVerdict(
        quantum_markov=not any(w > 0 for _, w in witnesses),
        witnesses=witnesses,
    )
