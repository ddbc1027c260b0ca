"""The heat semigroup, diagonal on Peter-Weyl blocks.

It scales the block at lam by `heat_coefficient`, e^{-t C(lam)}, so the semigroup
law holds block by block; the truncated trace sums n_lam^2 e^{-t C(lam)} over a norm
ball and tends to 1 as t grows, because the eigenvalues diverge with (lam, lam).
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Sequence

from .cartan import RootSystem, Weight, untouched_factors
from .errors import InvariantError
from .spectra import (
    LaplacianSpec,
    log_q,
    q_laplacian_eigenvalue,
    qms_witness,
    spectrum_scan,
)
from .weights import dim_irrep  # noqa: F401 -- perfbench/tracer.py binds it (CACHED) until ROADMAP item 2


def heat_coefficient(R: RootSystem, spec: LaplacianSpec, lam: Weight, q, t: float) -> float:
    """e^{-t C(lam)}; equals 1 at t = 0 and at lam = 0."""
    if not 0 <= t < math.inf:  # NaN fails it too
        raise InvariantError(f"heat time must be nonnegative and finite, got {t}")
    return math.exp(-t * q_laplacian_eigenvalue(R, spec, lam, q))


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
