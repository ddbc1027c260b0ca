"""The integer pairing table against per-weight Fraction pairings, asserted with ==.

Every eigenvalue family and the dimension formula read D (lam + rho, e) and
D (rho, e) as integers; the references in `oracles.py` pair each weight with
`inner_product` in exact rationals.  Floats come only from the final exp or
sinh of the same rational, so the results must be equal, not just close.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from oracles import (
    fundamental,
    reference_casimir,
    reference_classical,
    reference_dim,
    reference_dynkin_index,
    reference_lower_bound,
    reference_q_laplacian,
    rho,
)
from qlaplacian.cartan import Weight, build_root_system, inner_product
from qlaplacian.spectra import (
    LaplacianSpec,
    casimir_eigenvalue,
    classical_laplacian_eigenvalue,
    dynkin_index,
    lower_bound,
    q_laplacian_eigenvalue,
)
from qlaplacian.weights import dim_irrep

QS = (0.37, 0.9, 0.999)

# (label, form scale): simple and product types, and a rescaled form
SYSTEMS = [("A1", 1), ("A2", 1), ("B2", 1), ("G2", 1), ("C3", 1),
           ("A1xG2", 1), ("B2xA1", 1), ("A2", Fraction(3, 2)), ("G2xA1", Fraction(3, 2))]


def _weights(rank: int, top: int) -> list[Weight]:
    return [Weight.of(c) for c in itertools.product(range(top + 1), repeat=rank)]


def _mus(rank: int) -> list[Weight]:
    """The fundamental weights and twice the first."""
    return [fundamental(rank, j) for j in range(1, rank + 1)] + [fundamental(rank, 1) + fundamental(rank, 1)]


def _specs(R) -> list[LaplacianSpec]:
    """A rational spec, and one that mixes rational and float coefficients (read exactly)."""
    mus = _mus(R.rank)
    rational = LaplacianSpec.of([(mu, Fraction(j + 1, 2)) for j, mu in enumerate(mus)])
    mixed = LaplacianSpec.of([(mu, Fraction(3, 2) if j % 2 else (j + 1) / 7)
                              for j, mu in enumerate(mus)])
    return [rational, mixed]


@pytest.mark.parametrize("label,scale", SYSTEMS, ids=[f"{label}-{scale}" for label, scale in SYSTEMS])
def test_integer_pairings_equal_fraction_pairings(label, scale):
    R = build_root_system([label], scale=scale)
    lams = _weights(R.rank, 2 if R.rank <= 2 else 1)
    specs = _specs(R)
    assert all(type(a) is Fraction for spec in specs for _, a in spec.terms)
    for lam in lams:
        assert dim_irrep(R, lam) == reference_dim(R, lam)
        for spec in specs:
            value = classical_laplacian_eigenvalue(R, spec, lam)
            expected = reference_classical(R, spec, lam)
            assert type(value) is Fraction and value == expected
            for q in QS:
                assert q_laplacian_eigenvalue(R, spec, lam, q) == reference_q_laplacian(R, spec, lam, q)
        for mu in [Weight.zero(R.rank), *_mus(R.rank)]:
            for q in QS:
                assert casimir_eigenvalue(R, mu, lam, q) == reference_casimir(R, mu, lam, q)
    for spec in specs:
        for q in QS:
            assert lower_bound(R, spec, q) == reference_lower_bound(R, spec, q)
    if len(R.factors) == 1:
        for mu in _mus(R.rank):
            for theta in [fundamental(R.rank, 1), *R.highest_roots, *lams[1:4]]:
                assert dynkin_index(R, mu) == reference_dynkin_index(R, mu, theta)


# every simple label of test_cartan.ALL_LABELS, and E6-E8
SIMPLE_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4", "G2", "E6", "E7", "E8"]


@pytest.mark.parametrize("scale", [1, Fraction(3, 2), Fraction(1, 24)], ids=str)
@pytest.mark.parametrize("label", SIMPLE_LABELS)
def test_dynkin_index_equals_the_trace_sum(label, scale):
    """Casimir's closed form against sum_e mult(e) (e, t)^2 / (t, t), for several test weights t."""
    R = build_root_system([label], scale=scale)
    smallest = min((fundamental(R.rank, j) for j in range(1, R.rank + 1)),
                   key=lambda w: dim_irrep(R, w))
    thetas = [fundamental(R.rank, 1), *R.highest_roots, rho(R)]
    for mu in [Weight.zero(R.rank), smallest, *R.highest_roots]:
        for theta in thetas:
            assert dynkin_index(R, mu) == reference_dynkin_index(R, mu, theta)


def test_dynkin_index_builds_no_weight_system():
    """E8 (0,...,0,1,1) has 4,096,000 dimensions, more weights than the row cap allows."""
    R = build_root_system(["E8"])
    mu = Weight.of([0, 0, 0, 0, 0, 0, 1, 1])
    expected = reference_dim(R, mu) * inner_product(R, mu, mu + rho(R) + rho(R)) / 248  # dim e8
    assert dynkin_index(R, mu) == expected == 3072000
