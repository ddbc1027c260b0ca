import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from oracles import apply_w0, fundamental, reference_dynkin_index, reference_witness, rho
from qlaplacian.cartan import (
    CenterElement,
    Weight,
    build_root_system,
    center_reduce,
    enumerate_dominant,
    inner_product,
    minus_w0,
    parse_type_label,
)
from qlaplacian.errors import InvariantError, ResourceCapError
from qlaplacian.heat import heat_coefficient, heat_trace_report, markov_verdict
from qlaplacian.spectra import (
    GeneralFunctionalSpec,
    LaplacianSpec,
    casimir_eigenvalue,
    classical_laplacian_eigenvalue,
    general_functional_eigenvalue,
    lower_bound,
    q_laplacian_eigenvalue,
    qms_witness,
    spectrum_scan,
)
from qlaplacian.weights import pairings, weight_system


def R(label):
    return build_root_system(parse_type_label(label))


A1 = R("A1")
A2 = R("A2")
G2 = R("G2")
W1 = Weight.of([1])


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


A1_SPEC = LaplacianSpec.of([(W1, 1)])
EMPTY_SPEC = LaplacianSpec(())
# every public q function, called with valid arguments apart from q; the empty spec evaluates
# no q formula, so only the q check itself can reject it
Q_CALLS = {
    "casimir_eigenvalue": lambda q: casimir_eigenvalue(A1, W1, W1, q),
    "q_laplacian_eigenvalue": lambda q: q_laplacian_eigenvalue(A1, A1_SPEC, W1, q),
    "q_laplacian_eigenvalue_empty_spec": lambda q: q_laplacian_eigenvalue(A1, EMPTY_SPEC, W1, q),
    "general_functional_eigenvalue": lambda q: general_functional_eigenvalue(
        A1, GeneralFunctionalSpec.of([(center_reduce(A1, [1]), W1, 1)]), W1, q),
    "general_functional_eigenvalue_empty_spec": lambda q: general_functional_eigenvalue(
        A1, GeneralFunctionalSpec(()), W1, q),
    "lower_bound": lambda q: lower_bound(A1, A1_SPEC, q),
    "lower_bound_empty_spec": lambda q: lower_bound(A1, EMPTY_SPEC, q),
    "qms_witness": lambda q: qms_witness(A1, W1, q),
    "spectrum_scan": lambda q: spectrum_scan(A1, A1_SPEC, q, 2),
    "spectrum_scan_empty_spec": lambda q: spectrum_scan(A1, EMPTY_SPEC, q, 2),
    "heat_coefficient": lambda q: heat_coefficient(A1, A1_SPEC, W1, q, 1.0),
    "heat_trace_report": lambda q: heat_trace_report(A1, A1_SPEC, q, [1.0], 2),
    "markov_verdict": lambda q: markov_verdict(A1, A1_SPEC, q),
    "markov_verdict_empty_spec": lambda q: markov_verdict(A1, EMPTY_SPEC, q),
}


@pytest.mark.parametrize("q", [0.0, -0.5, 1.0, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(Q_CALLS))
def test_every_q_function_takes_only_0_lt_q_lt_1(name, q):
    Q_CALLS[name](0.5)
    with pytest.raises(InvariantError, match="0 < q < 1"):
        Q_CALLS[name](q)


def test_casimir_examples():
    for lam in [Weight.zero(2), Weight.of([3, 1])]:
        assert casimir_eigenvalue(A2, Weight.zero(2), lam, 0.4) == 1.0
    q = 0.5
    assert rel_close(casimir_eigenvalue(A1, W1, Weight.zero(1), q), 1 / q + q)
    assert rel_close(casimir_eigenvalue(A1, W1, W1, q), q ** -2 + q ** 2)
    assert casimir_eigenvalue(A2, Weight.of([1, 1]), Weight.of([2, 0]), 0.3) > 0


def test_q_laplacian_examples():
    spec = LaplacianSpec.of([(W1, 1)])
    assert q_laplacian_eigenvalue(A1, spec, Weight.zero(1), 0.5) == 0.0
    assert rel_close(q_laplacian_eigenvalue(A1, spec, W1, 0.5), 14 / 9)
    assert rel_close(q_laplacian_eigenvalue(A1, spec, Weight.of([2]), 0.5), 5.0)
    with pytest.raises(InvariantError):
        q_laplacian_eigenvalue(A1, spec, W1, 1.0)


def test_laplacian_spec_validation():
    with pytest.raises(InvariantError):
        LaplacianSpec.of([(W1, 1), (W1, 2)])
    with pytest.raises(InvariantError):
        LaplacianSpec.of([(W1, 0)])
    with pytest.raises(InvariantError):
        LaplacianSpec.of([(Weight.of([-1]), 1)])


def test_classical_examples_are_exact():
    spec = LaplacianSpec.of([(W1, 1)])
    assert classical_laplacian_eigenvalue(A1, spec, Weight.zero(1)) == 0
    for n in range(12):
        value = classical_laplacian_eigenvalue(A1, spec, Weight.of([n]))
        assert isinstance(value, Fraction)
        assert value == Fraction(n * (n + 2), 2)
    spec2 = LaplacianSpec.of([(Weight.of([1, 0]), 1), (Weight.of([0, 1]), 1)])
    assert classical_laplacian_eigenvalue(A2, spec2, Weight.of([1, 0])) == Fraction(16, 3)
    # a float coefficient is read exactly, so its limit is exact too
    value = classical_laplacian_eigenvalue(A1, LaplacianSpec.of([(W1, 1.25)]), Weight.of([2]))
    assert type(value) is Fraction and value == Fraction(5)


def test_spec_coefficients_are_read_exactly():
    spec = LaplacianSpec.of([(W1, 1), (Weight.of([2]), 0.1), (Weight.of([3]), Decimal("0.1")),
                             (Weight.of([4]), Fraction(2, 3))])
    assert [a for _, a in spec.terms] == [1, Fraction(0.1), Fraction(1, 10), Fraction(2, 3)]
    assert all(type(a) is Fraction for _, a in spec.terms)
    # a Decimal with a decimal exponent of five digits, or of more than about 1000 digits, is refused as read
    for bad in [math.inf, -math.inf, math.nan, Decimal("NaN"), Decimal("Infinity"), "3/2", 1 + 2j, 1 + 0j,
                True, None, Decimal("1e99999999"), Decimal("1E+9999")]:
        with pytest.raises(InvariantError, match="^the coefficient of term 2 is not a finite real number$"):
            LaplacianSpec.of([(W1, 1), (Weight.of([2]), bad)])
    # a record built past `of` takes no float back
    for bad in [1.25, 1, Decimal("1.25")]:
        with pytest.raises(InvariantError, match="^the coefficient of term 1 is not a Fraction$"):
            LaplacianSpec(((W1, bad),))


@pytest.mark.parametrize("x", [1.25, 0.1, 1 / 3, 2.0 ** -1000, 1e300], ids=float.hex)
def test_a_float_coefficient_gives_the_values_of_its_fraction(x):
    """float(Fraction(x)) == x for every finite float, so the float values do not move."""
    spec, twin = LaplacianSpec.of([(W1, x)]), LaplacianSpec.of([(W1, Fraction(x))])
    assert spec.terms == twin.terms and type(spec.terms[0][1]) is Fraction
    for q in (0.37, 0.9, 0.999):
        assert lower_bound(A1, spec, q).hex() == lower_bound(A1, twin, q).hex()
        for n in range(4):
            lam = Weight.of([n])
            assert (q_laplacian_eigenvalue(A1, spec, lam, q).hex()
                    == q_laplacian_eigenvalue(A1, twin, lam, q).hex())
    assert q_laplacian_eigenvalue(A1, spec, Weight.zero(1), 0.5) == 0


def test_general_functional_examples():
    # all zeta = 0 reduces to a Casimir combination
    z0 = center_reduce(A2, [0, 0])
    spec = GeneralFunctionalSpec.of([(z0, Weight.of([1, 0]), 2), (z0, Weight.of([0, 1]), 1)])
    lam = Weight.of([1, 1])
    via_casimir = (2 * casimir_eigenvalue(A2, Weight.of([1, 0]), lam, 0.6)
                   + casimir_eigenvalue(A2, Weight.of([0, 1]), lam, 0.6))
    got = general_functional_eigenvalue(A2, spec, lam, 0.6)
    assert got.imag == 0 and rel_close(got.real, via_casimir)

    z = center_reduce(A1, [1])
    alternating = GeneralFunctionalSpec.of([(z, Weight.zero(1), 1)])
    for n in range(6):
        got = general_functional_eigenvalue(A1, alternating, Weight.of([n]), 0.5)
        assert rel_close(got.real, (-1) ** n) and got.imag == 0
    # product of the phase (-1) and the Casimir value q^-2 + q^2 at q = 1/2
    twisted = GeneralFunctionalSpec.of([(z, W1, 1)])
    got = general_functional_eigenvalue(A1, twisted, W1, 0.5)
    assert rel_close(got.real, -4.25) and got.imag == 0


def test_general_functional_cube_roots_of_unity():
    z = center_reduce(A2, [1, 0])
    spec = GeneralFunctionalSpec.of([(z, Weight.zero(2), 1)])
    got = general_functional_eigenvalue(A2, spec, Weight.of([1, 0]), 0.5)
    # the canonical class pairs with w1 to 2/3, so the phase is e^{4 pi i / 3}
    expected = complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))
    assert abs(got - expected) < 1e-12


def test_general_functional_spec_validation():
    z0 = center_reduce(A2, [0, 0])
    with pytest.raises(InvariantError):
        GeneralFunctionalSpec.of([(z0, Weight.of([1, 0]), 1), (z0, Weight.of([1, 0]), 2j)])
    with pytest.raises(InvariantError):
        GeneralFunctionalSpec.of([(z0, Weight.of([-1, 0]), 1)])
    with pytest.raises(InvariantError):
        general_functional_eigenvalue(
            A2, GeneralFunctionalSpec.of([(z0, Weight.of([1, 0]), 1)]), Weight.of([1]), 0.5)


def test_general_functional_coefficients_are_read_exactly():
    z0 = center_reduce(A2, [0, 0])
    mu = Weight.of([1, 0])
    for bad in ["1+2j", "x", None, True, complex("nan"), complex(math.inf), complex(1, -math.inf), math.nan,
                (1, "2")]:
        with pytest.raises(InvariantError, match="^the coefficient of term 2 is not a finite real number$"):
            GeneralFunctionalSpec.of([(z0, Weight.of([0, 1]), 1), (z0, mu, bad)])
    # a real a is (a, 0); each part of a complex or of a pair is the Fraction of its value
    spec = GeneralFunctionalSpec.of([(z0, mu, 0.1 - 2.5j), (z0, Weight.of([0, 1]), (Fraction(1, 3), Decimal("0.5"))),
                                     (z0, Weight.of([1, 1]), 2)])
    assert [a for *_, a in spec.terms] == [(Fraction(0.1), Fraction(-5, 2)), (Fraction(1, 3), Fraction(1, 2)),
                                           (Fraction(2), Fraction(0))]
    assert all(type(x) is Fraction for *_, a in spec.terms for x in a)


@pytest.mark.parametrize("a", [1 / 3 + 0.1j, 1e-300 - 1e300j, 0.75 + 0j, -2.5j], ids=repr)
def test_a_float_complex_coefficient_gives_the_values_of_its_parts(a):
    """float(Fraction(x)) == x, so the exact parts give the float value a * phase * C, bit for bit."""
    z0, z = center_reduce(A2, [0, 0]), center_reduce(A2, [1, 0])
    mu = Weight.of([1, 0])
    for zeta in (z0, z):
        spec = GeneralFunctionalSpec.of([(zeta, mu, a)])
        twin = GeneralFunctionalSpec.of([(zeta, mu, (Fraction(a.real), Fraction(a.imag)))])
        assert spec == twin
        for lam in (Weight.of([0, 0]), Weight.of([1, 0]), Weight.of([2, 1])):
            for q in (0.37, 0.9):
                got = general_functional_eigenvalue(A2, spec, lam, q)
                assert got == general_functional_eigenvalue(A2, twin, lam, q)
                if zeta == z0:  # phase 1
                    assert got == a * (1.0 + 0j) * casimir_eigenvalue(A2, mu, lam, q)


def test_general_functional_spec_takes_only_exact_pairs():
    z0 = center_reduce(A2, [0, 0])
    mu = Weight.of([1, 0])
    for bad in [1, Fraction(1), 1 + 2j, (Fraction(1),), (Fraction(1), Fraction(0), Fraction(0)),
                [Fraction(1), Fraction(0)]]:
        with pytest.raises(InvariantError, match=r"^the coefficient of term 1 is not a pair \(re, im\)$"):
            GeneralFunctionalSpec(((z0, mu, bad),))
    for bad in [(Fraction(1), 0), (1.0, Fraction(0)), (Fraction(1), Decimal(0))]:
        with pytest.raises(InvariantError, match="^the coefficient of term 1 is not a Fraction$"):
            GeneralFunctionalSpec(((z0, mu, bad),))
    # a bad weight is refused before a bad coefficient
    with pytest.raises(InvariantError, match="^the weight of term 1 is not dominant integral$"):
        GeneralFunctionalSpec(((z0, Weight((-1, 0)), 1.5),))
    # the check `LaplacianSpec` makes too: no nonzero part whose float is 0 or past the float range
    for make in (lambda a: GeneralFunctionalSpec.of([(z0, mu, a)]), lambda a: GeneralFunctionalSpec(((z0, mu, a),))):
        for bad in [(Fraction(1), Fraction(1, 10**400)), (Fraction(1, 2**1075), Fraction(0))]:
            with pytest.raises(InvariantError, match="^float underflow: a nonzero part of the coefficient of term 1 "):
                make(bad)
        for bad in [(Fraction(10**400), Fraction(0)), (Fraction(0), Fraction(-2**1024))]:
            with pytest.raises(InvariantError, match="^float overflow: the coefficient of term 1 is past the float "):
                make(bad)
        # the least positive float and the largest one are kept
        edge = (Fraction(2**-1074), Fraction(-sys.float_info.max))
        assert make(edge).terms[0][2] == edge
    # the class: a `CenterElement` of ints; these ended in a bare AttributeError once evaluated
    pair = (Fraction(1), Fraction(0))
    for bad in [None, "x", math.nan, (1, 0), [1, 0], CenterElement((0.5, 0)), CenterElement((Fraction(1), 0)),
                CenterElement((True, 0)), CenterElement(None), CenterElement([1, 0])]:
        with pytest.raises(InvariantError, match="^the center class of term 2 is not a CenterElement of integers$"):
            GeneralFunctionalSpec(((z0, mu, pair), (bad, mu, pair)))
        if not isinstance(bad, (tuple, list)):
            with pytest.raises(InvariantError, match="^the center class of term 2 is not a CenterElement of integers$"):
                GeneralFunctionalSpec.of([(z0, mu, 1), (bad, mu, 1)])
    # `of` reads a tuple or list of integers, by `Weight.of`'s rule, as the class it names
    for given in [(1, 0), [1, 0], (Fraction(2, 2), "0"), (1.0, 0)]:
        spec = GeneralFunctionalSpec.of([(given, mu, 1)])
        assert spec == GeneralFunctionalSpec.of([(CenterElement((1, 0)), mu, 1)])
        assert general_functional_eigenvalue(A2, spec, Weight.of([1, 0]), 0.5) == general_functional_eigenvalue(
            A2, GeneralFunctionalSpec.of([(center_reduce(A2, [1, 0]), mu, 1)]), Weight.of([1, 0]), 0.5)


@pytest.mark.parametrize("label", ["A2", "A3", "E6", "D5"])
def test_a_term_and_its_dual_give_one_spectrum(label):
    """C_mu(lam) = C_mu*(lam) for mu* = -w0 mu: the weights of V(mu*) are those of V(mu) negated, and
    [x]_q^2 is even.  So a scan takes any positive family, whether it is -w0-closed or not."""
    r = R(label)
    q, eps = 0.6, sys.float_info.epsilon
    duals = [(mu, minus_w0(r, mu)) for mu in (fundamental(r.rank, j) for j in range(1, r.rank + 1))
             if minus_w0(r, mu) != mu]
    assert duals
    for mu, dual in duals:
        spec, twin = LaplacianSpec.of([(mu, 1)]), LaplacianSpec.of([(dual, 1)])
        for lam in enumerate_dominant(r, 6):
            assert classical_laplacian_eigenvalue(r, spec, lam) == classical_laplacian_eigenvalue(r, twin, lam)
            # both sides add the same n terms t in another order: recursive summation errs by at most
            # (n - 1) (eps / 2) sum |t| on each side (Higham 2002, 4.2); as much again covers a term
            # whose sinh of -x is not exactly -sinh(x)
            D, h = r.denominator, math.log(q)

            def bracket(p):  # [p / D]_q = sinh((p / D) ln q) / sinh(ln q)
                return math.sinh(p / D * h) / math.sinh(h)

            terms = [mult * (bracket(x) ** 2 - bracket(y) ** 2)
                     for mult, x, y in pairings(r, weight_system(r, mu).rows, lam)]
            tol = 2 * (len(terms) - 1) * eps * sum(map(abs, terms))
            assert abs(q_laplacian_eigenvalue(r, spec, lam, q) - q_laplacian_eigenvalue(r, twin, lam, q)) <= tol


def test_lower_bound_examples():
    spec = LaplacianSpec.of([(W1, 1)])
    q = 0.5
    assert rel_close(lower_bound(A1, spec, q), -2 / (q + 1 / q + 2))
    # a mu = 0 term contributes nothing
    with_zero = LaplacianSpec.of([(Weight.zero(1), 3), (W1, 1)])
    assert rel_close(lower_bound(A1, with_zero, q), lower_bound(A1, spec, q))
    # [1/2]_q^2 increases toward 1/4 as q -> 1, so the bound decreases in q
    assert lower_bound(A1, spec, 0.9) < lower_bound(A1, spec, 0.5) < 0


def test_scans_respect_lower_bound():
    rng = random.Random(17)
    for _ in range(50):
        label = rng.choice(["A1", "A2", "G2"])
        r = R(label)
        q = rng.uniform(0.2, 0.95)
        mus = set()
        while not mus:
            mu = Weight.of([rng.randint(0, 2) for _ in range(r.rank)])
            if not mu.is_zero:
                mus.add(mu)
                mus.add(minus_w0(r, mu))
        a = rng.uniform(0.1, 5.0)
        spec = LaplacianSpec.of([(mu, a) for mu in sorted(mus, key=lambda w: w.coords)])
        rows = spectrum_scan(r, spec, q, 8)
        bound = lower_bound(r, spec, q)
        for row in rows:
            assert row.eigenvalue >= bound - 1e-12 * abs(bound)


def test_spectrum_scan_examples(monkeypatch):
    spec = LaplacianSpec.of([(W1, 1)])
    rows = spectrum_scan(A1, spec, 0.5, Fraction(1, 4))
    assert len(rows) == 1 and rows[0].dim == 1 and rows[0].eigenvalue == 0.0
    rows = spectrum_scan(A1, spec, 0.5, 2)
    assert [(r.lam, r.dim) for r in rows] == [
        (Weight.of([0]), 1), (Weight.of([1]), 2), (Weight.of([2]), 3)]
    assert rel_close(rows[1].eigenvalue, 14 / 9)
    assert rel_close(rows[2].eigenvalue, 5.0)
    monkeypatch.setenv("QLAP_ROW_CAP", "7")
    with pytest.raises(ResourceCapError) as err:
        spectrum_scan(A1, spec, 0.5, 100000)
    assert "7" in str(err.value)


def test_nonnegativity_scan_examples():
    """The minimum over a scan, and the first weight attaining it, as `qlap spectrum` reports them."""
    for r, spec, q, radius in [(A2, LaplacianSpec.of([(A2.highest_roots[0], 1)]), 0.5, 6),
                               (A1, LaplacianSpec.of([(Weight.of([3]), 2)]), 0.7, 10),
                               (A1, LaplacianSpec.of([(Weight.zero(1), 1)]), 0.5, 4)]:
        lowest = min(spectrum_scan(r, spec, q, radius), key=lambda row: row.eigenvalue)
        assert lowest.eigenvalue == 0.0 and lowest.lam == Weight.zero(r.rank)


def test_witness_examples():
    assert qms_witness(A1, Weight.zero(1), 0.5) == 0.0
    q = 0.5
    by_hand = (1 / q + q) * (q ** -4 + q ** 4 - q ** -2 - q ** 2) ** 2
    assert rel_close(qms_witness(A1, W1, q), by_hand)
    assert rel_close(qms_witness(A1, W1, q), 348.837890625)
    for q in (0.3, 0.9):
        for a in range(4):
            for b in range(4):
                if 0 < a + b <= 3:
                    assert qms_witness(A2, Weight.of([a, b]), q) > 0


U = 2.0 ** -53  # unit roundoff of a double


def witness_error_bound(r, mu, q):
    """First-order relative error bound of `qms_witness`, counted operation by operation.

    In units of U.  ln q errs by 1.  A prefactor term mult * exp(-2 (x / D) h)
    takes 4 roundings plus the exponent's 3 amplified by its size; a sum of n
    positive terms adds n - 1.  A squared bracket (sinh(x h) / sinh(h))^2 takes
    at most 13 + 6 |x h| (the quotient and the product with h, both sinh with
    their condition numbers 1 + |x h|, the division, the square), so a sum of N
    terms mult ([x]^2 - [y]^2) errs by (c + N + 2) times sum mult ([x]^2 + [y]^2),
    which the condition number turns into a relative error; 2 sinh^2(h) adds 7.
    Squaring doubles that, the sum over highest roots and the product add the rest.
    """
    h = math.log(q)
    half_sum = rho(r)
    args = [abs(2 * float(inner_product(r, half_sum, eps)) * h) for eps, _ in weight_system(r, mu)]
    bound = len(args) + 3 + 3 * max(args)
    dual = minus_w0(r, mu)

    def square(x):
        return (math.sinh(x * h) / math.sinh(h)) ** 2

    worst = 0.0
    for g in r.highest_roots:
        xs = [(float(inner_product(r, dual + half_sum, eps)), float(inner_product(r, half_sum, eps)), mult)
              for eps, mult in weight_system(r, g)]
        size = sum(m * (square(x) + square(y)) for x, y, m in xs)
        value = abs(sum(m * (square(x) - square(y)) for x, y, m in xs))
        c = 13 + 6 * max(abs(v * h) for x, y, _ in xs for v in (x, y))
        worst = max(worst, (c + len(xs) + 2) * size / value + 7)
    return (bound + 2 * worst + len(r.highest_roots) + 2) * U


def test_witness_matches_the_decimal_reference_as_q_tends_to_1():
    # a difference of two Casimir values, each about dim V(g), read 0 here for A1 at q = 0.999999999
    cases = [("A1", [1]), ("A1", [3]), ("A2", [1, 0]), ("A2", [1, 1]), ("B2", [0, 1]), ("G2", [0, 1]),
             ("A1xA2", [1, 0, 1]), ("A1xG2", [1, 1, 0])]
    for label, coords in cases:
        r, mu = R(label), Weight.of(coords)
        for q in (0.3, 0.999, 0.999999999, 1 - 2.0 ** -52):
            got = qms_witness(r, mu, q)
            expected = reference_witness(r, mu, q)
            assert got > 0
            assert abs(Decimal(got) - expected) <= Decimal(witness_error_bound(r, mu, q)) * expected


def test_witness_on_products_sums_factor_terms():
    r = R("A1xA1")
    mu = Weight.of([1, 0])
    assert qms_witness(r, mu, 0.5) > 0
    both = Weight.of([1, 1])
    assert qms_witness(r, both, 0.5) > qms_witness(r, mu, 0.5)


def test_classical_identity_against_dynkin_index():
    rng = random.Random(23)
    for r in (A1, A2, G2):
        rho2 = rho(r) + rho(r)
        for _ in range(10):
            mus = set()
            while len(mus) < 2:
                mu = Weight.of([rng.randint(0, 2) for _ in range(r.rank)])
                if not mu.is_zero:
                    mus.add(mu)
            terms = [(mu, Fraction(rng.randint(1, 9), rng.randint(1, 4))) for mu in
                     sorted(mus, key=lambda w: w.coords)]
            spec = LaplacianSpec.of(terms)
            lam = Weight.of([rng.randint(0, 6) for _ in range(r.rank)])
            # the trace-form index of each term, at one test weight: it is the same at every weight
            expected = sum(a * reference_dynkin_index(r, mu, r.highest_roots[0]) for mu, a in spec.terms) \
                * inner_product(r, lam, lam + rho2)
            assert classical_laplacian_eigenvalue(r, spec, lam) == expected


def test_classical_limit_second_order_rate():
    spec = LaplacianSpec.of([(Weight.of([1, 0]), 1), (Weight.of([0, 1]), 1)])
    for lam in [Weight.of([1, 0]), Weight.of([2, 1]), Weight.of([0, 3])]:
        cl = float(classical_laplacian_eigenvalue(A2, spec, lam))
        e99 = abs(q_laplacian_eigenvalue(A2, spec, lam, 0.99) - cl)
        e999 = abs(q_laplacian_eigenvalue(A2, spec, lam, 0.999) - cl)
        assert 50 <= e99 / e999 <= 200


def test_antipode_symmetry_of_casimir():
    rng = random.Random(29)
    for mu in (Weight.of([1, 0]), Weight.of([0, 1])):
        dual = minus_w0(A2, mu)
        for _ in range(5):
            q = rng.uniform(0.2, 0.95)
            lam = Weight.of([rng.randint(0, 4), rng.randint(0, 4)])
            lhs = casimir_eigenvalue(A2, mu, lam, q)
            w0lam = apply_w0(A2, lam)
            h = math.log(q)
            rhs = sum(m * math.exp(2 * float(inner_product(A2, w0lam - rho(A2), w)) * h)
                      for w, m in weight_system(A2, dual))
            assert rel_close(lhs, rhs)


def test_indefiniteness_witnesses():
    # not conditionally positive, yet some eigenvalue is strictly positive
    for r, spec in [
        (A1, LaplacianSpec.of([(W1, 1)])),
        (A2, LaplacianSpec.of([(Weight.of([1, 0]), 1), (Weight.of([0, 1]), 1)])),
        (G2, LaplacianSpec.of([(G2.highest_roots[0], 1)])),
    ]:
        assert all(qms_witness(r, mu, 0.4) > 0 for mu, _ in spec.terms)
        rows = spectrum_scan(r, spec, 0.4, 6)
        assert any(row.eigenvalue > 0 for row in rows)
