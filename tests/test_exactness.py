"""The integer pairing table against per-weight Fraction pairings, asserted with ==.

Every eigenvalue family and the dimension formula read D (lam + rho, e) and
D (rho, e) as integers; the references in `oracles.py` pair each weight with
`inner_product` in exact rationals.  Floats come only from the final exp or
sinh of the same rational, so the results must be equal, not just close.
"""

from __future__ import annotations

import itertools
import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest

from oracles import (
    exact_bracket,
    exact_eigenvalue,
    exact_lower_bound,
    fundamental,
    reference_casimir,
    reference_classical,
    reference_dim,
    reference_dynkin_index,
    reference_lower_bound,
    reference_q_laplacian,
    rho,
)
from qlaplacian.cartan import Weight, build_root_system, enumerate_dominant, inner_product, parse_type_label
from qlaplacian.spectra import (
    LaplacianSpec,
    casimir_eigenvalue,
    classical_laplacian_eigenvalue,
    lower_bound,
    q_laplacian_eigenvalue,
)
from qlaplacian.weights import dim_irrep, pairings, weight_system

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


# every simple label of test_cartan.ALL_LABELS, and E6-E8
SIMPLE_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4", "G2", "E6", "E7", "E8"]


@pytest.mark.parametrize("scale", [1, Fraction(3, 2), Fraction(1, 24)], ids=str)
@pytest.mark.parametrize("label", SIMPLE_LABELS)
def test_dynkin_index_equals_the_trace_sum(label, scale):
    """Casimir's closed form dim V(mu) (mu, mu + 2 rho) / dim g against sum_e mult(e) (e, t)^2 / (t, t).

    The Casimir element acts on V(mu) by (mu, mu + 2 rho) and its trace is the index times dim g
    (Humphreys 1972, 6.2 and 22.1), so the weight system's multiplicities and `dim_irrep` must give
    the same index, for every test weight t.
    """
    R = build_root_system([label], scale=scale)
    dim_g = R.rank + 2 * len(R.positive_roots)
    smallest = min((fundamental(R.rank, j) for j in range(1, R.rank + 1)),
                   key=lambda w: dim_irrep(R, w))
    thetas = [fundamental(R.rank, 1), *R.highest_roots, rho(R)]
    for mu in [Weight.zero(R.rank), smallest, *R.highest_roots]:
        closed_form = dim_irrep(R, mu) * inner_product(R, mu, mu + rho(R) + rho(R)) / dim_g
        for theta in thetas:
            assert reference_dynkin_index(R, mu, theta) == closed_form


# ---------------------------------------------------------------------------
# Printed digits against the exact spectrum at q = s^D
# ---------------------------------------------------------------------------

U = 2.0 ** -53  # unit roundoff of a double
EXACT_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4", "G2", "A1xA1", "A1xG2"]  # test_cartan.ALL_LABELS
# q = s^D is an exact float for both: 1/8 on A2 at s = 1/2, and about 0.997 on A2 and 0.999 on G2 at s = 1023/1024
S_VALUES = (Fraction(1, 2), Fraction(1023, 1024))


def _exact_cases():
    """(R, spec, s, q, lams): the first six dominant weights of each system, at both s.

    The spec holds every highest root with coefficient 1 and the first fundamental weight with 1/3,
    whose float is rounded, so a term with a coefficient that floats do not hold is covered too.
    """
    for label in EXACT_LABELS:
        R = build_root_system(parse_type_label(label))
        terms = {gamma: Fraction(1) for gamma in R.highest_roots}
        terms.setdefault(fundamental(R.rank, 1), Fraction(1, 3))
        spec = LaplacianSpec.of(terms.items())
        for s in S_VALUES:
            q = s ** R.denominator
            assert Fraction(float(q)) == q, (label, s)  # the float code reads this very q
            yield R, spec, s, float(q), enumerate_dominant(R, 24)[:6]


def _error_bound(R, spec, lam, s, q, with_x: bool) -> float:
    """A first-order bound on |float - exact| for sum_l a_l sum_e mult ([x]^2 - [y]^2), or for -sum [y]^2.

    In units of U, with h = ln q and t = v h the argument of sinh for a pairing v = x / D or y / D:
    the argument errs by at most 4 (v / D, ln q and the product), which sinh amplifies by at most
    1 + |t|, and sinh errs by at most 2 ulps (4), so [v]_q = sinh(t) / sinh(h) errs by at most
    15 + 4 |t| + 2 |h| and its square by c = 31 + 8 |t| + 4 |h|.  The difference, the product by
    mult and by float(a) (which errs by 1), the recursive sums of n terms (n - 1 each, Higham 2002,
    4.2) and the sum over terms add at most n + m + 4.  All of it is taken on S = sum_l a_l sum_e
    mult ([x]^2 + [y]^2), and 1% covers second-order terms.
    """
    D, h = R.denominator, math.log(q)
    size, worst, count = 0.0, 0.0, 0
    for mu, a in spec.terms:
        for mult, x, y in pairings(R, weight_system(R, mu).rows, lam):
            used = (x, y) if with_x else (y,)
            size += float(a) * mult * sum(float(exact_bracket(v, D, s)) ** 2 for v in used)
            worst = max([worst, *(abs(v / D * h) for v in used)])
            count += 1
    return 1.01 * (31 + 8 * worst + 4 * abs(h) + count + len(spec.terms) + 4) * U * size


def _prints_exactly(got: float, exact: Fraction, margin: float) -> bool:
    """Whether `.12g` of `got` (as `qlap` prints it) shows `exact` correctly rounded to 12 digits.

    The neighbour across a rounding boundary is allowed only when that boundary lies within `margin`
    of the exact value: then |got - exact| <= margin does not decide the side.
    """
    printed = Fraction(Decimal(format(got, ".12g")))
    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 12, ROUND_HALF_EVEN  # one correctly rounded division of exact integers
        want = Fraction(Decimal(exact.numerator) / Decimal(exact.denominator))
    return printed == want or abs(exact - (printed + want) / 2) <= margin


def test_eigenvalues_and_floors_print_the_exact_12_digits():
    """`q_laplacian_eigenvalue` and `lower_bound` against the rational spectrum at q = s^D."""
    rows = 0
    for R, spec, s, q, lams in _exact_cases():
        for lam in lams:
            exact = exact_eigenvalue(R, spec, lam, s)
            got = q_laplacian_eigenvalue(R, spec, lam, q)
            margin = _error_bound(R, spec, lam, s, q, with_x=True)
            assert abs(Fraction(got) - exact) <= margin, (R.label(), lam, s)
            assert _prints_exactly(got, exact, margin), (R.label(), lam, s)
            rows += 1
        exact = exact_lower_bound(R, spec, s)
        got = lower_bound(R, spec, q)
        margin = _error_bound(R, spec, Weight.zero(R.rank), s, q, with_x=False)
        assert abs(Fraction(got) - exact) <= margin, (R.label(), s)
        assert _prints_exactly(got, exact, margin), (R.label(), s)
    assert rows == 2 * 6 * len(EXACT_LABELS)


@pytest.mark.xfail(strict=True, reason="known defect 1: `limit` prints |C_q - C_cl| as a difference of floats "
                                       "that agree to about h^2 of their size, so digits cancel as q -> 1")
def test_limit_errors_print_the_exact_12_digits():
    """`qlap limit`'s err_q = |C_q - C_cl|, as `cli._cmd_limit` computes it, against its exact value.

    A correct err_q may differ from the exact value by a few ulps of itself, so only a boundary within
    8 ulps of the exact value allows the neighbour.
    """
    for R, spec, s, q, lams in _exact_cases():
        for lam in lams:
            classical = classical_laplacian_eigenvalue(R, spec, lam)
            got = abs(q_laplacian_eigenvalue(R, spec, lam, q) - float(classical))
            exact = abs(exact_eigenvalue(R, spec, lam, s) - classical)
            assert _prints_exactly(got, exact, 8 * U * float(exact)), (R.label(), lam, s)
