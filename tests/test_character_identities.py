"""The symmetry of the Weyl character formula, checked through `casimir_eigenvalue` at any rank.

With h = ln q and Delta(v) = prod over positive roots a of sinh(h (a, v)),
the Weyl character formula gives (Kac-Peterson 1984; the symmetry of the
quantum S-matrix)

    C_mu(lam) * Delta(lam + rho) = C_lam(mu) * Delta(mu + rho),

where C_mu(lam) = sum_e mult(e) q^{-2 (lam + rho, e)} runs over the weight
multiset of V(mu).  It enumerates no Weyl group, so it checks the
multiplicities of every weight system (and the pairing table) on E6, E7 and
E8 as well.  The test compares C_mu(lam) * prod_a sinh(h (a, lam+rho)) /
sinh(h (a, mu+rho)) with C_lam(mu), so that no product of 120 sinh values
can overflow.
"""

from __future__ import annotations

import math

import pytest

from qlaplacian.cartan import Weight, build_root_system, enumerate_dominant, walk_dominant
from qlaplacian.spectra import casimir_eigenvalue
from qlaplacian.weights import dim_irrep, weight_system

from test_cartan import ALL_LABELS

U = 2.0 ** -53  # unit roundoff of a double
QS = (0.9, 0.6)


def _weights(label):
    """The first 12 dominant weights of norm <= 6 on a test label, every one with dim V <= 5000 on E6-E8.

    dim V grows with each coordinate, so the walk that stops at 5000 is exhaustive.
    """
    r = build_root_system([label])
    if label in ALL_LABELS:
        return r, enumerate_dominant(r, 6)[:12]
    return r, walk_dominant(r, lambda coords: dim_irrep(r, Weight.of(coords)) <= 5000)


def _casimir_error(r, mu, lam, h):
    """Relative error bound of `casimir_eigenvalue`, in units of U.

    A term mult * exp(-2.0 * (x / D) * h) rounds the quotient and the product
    with h (so the argument a errs by 2 |a|), exp errs by at most 2 ulp = 4,
    and the product with mult by 1: 5 + 2 |a|.  A sum of n positive terms adds
    n - 1.  The h both sides read is the same double, and the identity holds
    for every h, so the rounding of ln q itself does not count.
    """
    shifted = [c + 1 for c in lam.coords]
    args = [abs(2 * sum(map(int.__mul__, shifted, r.row(e))) / r.denominator * h)
            for e, _ in weight_system(r, mu)]
    return len(args) + 4 + 2 * max(args)


def _sinh_ratio(r, mu, lam, h):
    """prod_a sinh(h (a, lam+rho)) / sinh(h (a, mu+rho)) and its relative error bound in units of U.

    Each argument rounds the quotient x / D and the product with h, so it
    errs by 2 |y|; sinh errs by at most 2 ulp = 4 and has the condition
    number |y coth y| <= 1 + |y|: 6 + 2 |y| for each sinh.  Each division
    adds 1, and the N - 1 products add N - 1.
    """
    ratio, error = 1.0, -1
    for alpha in r.positive_roots:
        row = r.row(alpha)
        y = h * (sum((c + 1) * a for c, a in zip(lam.coords, row)) / r.denominator)
        z = h * (sum((c + 1) * a for c, a in zip(mu.coords, row)) / r.denominator)
        ratio *= math.sinh(y) / math.sinh(z)
        error += 6 + 2 * abs(y) + 6 + 2 * abs(z) + 1 + 1
    return ratio, error


@pytest.mark.parametrize("label", ALL_LABELS + ["E6", "E7", "E8"])
def test_casimir_values_are_symmetric_under_the_weyl_denominator(label):
    r, weights = _weights(label)
    for q in QS:
        h = math.log(q)
        for i, mu in enumerate(weights):
            for lam in weights[i + 1:]:
                ratio, ratio_error = _sinh_ratio(r, mu, lam, h)
                left = casimir_eigenvalue(r, mu, lam, q) * ratio
                right = casimir_eigenvalue(r, lam, mu, q)
                # first order in U: both Casimir values, the ratio, and the last product
                bound = (_casimir_error(r, mu, lam, h) + _casimir_error(r, lam, mu, h) + ratio_error + 1) * U
                assert abs(left - right) <= bound * right, (label, mu, lam, q)


def test_the_exceptional_weights_are_those_of_small_dimension():
    dims = {label: sorted(dim_irrep(r, w) for w in ws) for label in ("E6", "E7", "E8")
            for r, ws in [_weights(label)]}
    assert dims["E8"] == [1, 248, 3875]
    assert dims["E7"][:4] == [1, 56, 133, 912]
    assert dims["E6"][:4] == [1, 27, 27, 78]
