"""Calculi and functionals, checked against the one-calculus-at-a-time reference.

`tests/oracles.py` holds `FodcIndex` (a checked set of pairs),
`reference_fodc_dimension`, `reference_star_structure` (a `StarReport`
with the partner matching) and `reference_fodc_enumeration` (every calculus
of a pool by a rescan of its bitmask).  The examples below pin the reference, and
wherever a calculus appears the program's `fodc_dimension`,
`admits_star_structure` and `induced_class` are compared with it.
"""

import itertools
import math
from fractions import Fraction

import pytest

from oracles import (
    FodcIndex,
    fundamental,
    reference_fodc_dimension,
    reference_fodc_enumeration,
    reference_star_structure,
)
from qlaplacian.cartan import (
    CenterElement,
    Weight,
    build_root_system,
    center_group,
    center_negate,
    center_reduce,
    minus_w0,
    parse_type_label,
)
from qlaplacian.errors import InvariantError, ResourceCapError
from qlaplacian.fodc import (
    admits_star_structure,
    enumerate_fodc_indices,
    fodc_dimension,
    induced_class,
    validate_functional,
)
from qlaplacian.spectra import GeneralFunctionalSpec


def R(label):
    return build_root_system(parse_type_label(label))


A1 = R("A1")
A2 = R("A2")


def zero(r):
    return center_reduce(r, [0] * r.rank)


def assert_program_matches(r, idx):
    """The program reads the calculus without (0, 0), which names the zero summand."""
    assert fodc_dimension(r, idx.nonzero_pairs) == reference_fodc_dimension(r, idx)
    assert admits_star_structure(r, idx.nonzero_pairs) == reference_star_structure(r, idx).admissible


def assert_induced_matches(r, spec):
    expected = FodcIndex.of(r, [(z, mu) for z, mu, a in spec.terms if any(a)]).nonzero_pairs
    assert induced_class(r, spec) == expected


def test_dimension_examples():
    assert reference_fodc_dimension(A2, FodcIndex.of(A2, [(zero(A2), Weight.zero(2))])) == 0
    assert reference_fodc_dimension(A2, FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0]))])) == 9
    both = FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0])), (zero(A2), Weight.of([0, 1]))])
    assert reference_fodc_dimension(A2, both) == 18
    assert_program_matches(A2, both)


def test_duplicate_pairs_rejected():
    with pytest.raises(InvariantError):
        FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0])), ([0, 0], (1, 0))])
    # the classes 1,0 and 4,0 differ as written and are equal once reduced
    spec = GeneralFunctionalSpec.of([(CenterElement((1, 0)), Weight.of([1, 0]), 1),
                                     (CenterElement((4, 0)), Weight.of([1, 0]), 1)])
    for program in (fodc_dimension, admits_star_structure):
        with pytest.raises(InvariantError, match="duplicate"):
            program(A2, induced_class(A2, spec))
    with pytest.raises(InvariantError, match="duplicate"):
        validate_functional(A2, GeneralFunctionalSpec.of([(CenterElement((1, 0)), Weight.of([1, 0]), 1),
                                                          (CenterElement((4, 0)), Weight.of([1, 0]), 2)]))


def test_dimension_is_additive_over_disjoint_unions():
    z = center_reduce(A2, [1, 0])
    left = FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0]))])
    right = FodcIndex.of(A2, [(z, Weight.of([0, 1])), (z, Weight.of([1, 1]))])
    union = FodcIndex.of(A2, left.pairs + right.pairs)
    assert (reference_fodc_dimension(A2, union)
            == reference_fodc_dimension(A2, left) + reference_fodc_dimension(A2, right))
    for idx in (left, right, union):
        assert_program_matches(A2, idx)


def test_star_structure_examples():
    # every zeta = 0 index is star-admissible
    idx = FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0])), (zero(A2), Weight.of([2, 1]))])
    assert reference_star_structure(A2, idx).admissible
    # A1: the nonzero class is half a coroot, so a lone pair is fine
    z1 = center_reduce(A1, [1])
    report = reference_star_structure(A1, FodcIndex.of(A1, [(z1, Weight.of([1]))]))
    assert report.admissible and report.matching == ()
    # A2: the nonzero class is not, so it needs its negative alongside
    z = center_reduce(A2, [1, 0])
    lone = FodcIndex.of(A2, [(z, Weight.of([1, 0]))])
    report = reference_star_structure(A2, lone)
    assert not report.admissible and report.unmatched == lone.pairs
    paired = FodcIndex.of(A2, [(z, Weight.of([1, 0])), (center_negate(A2, z), Weight.of([1, 0]))])
    report = reference_star_structure(A2, paired)
    assert report.admissible
    assert len(report.matching) == 1
    (p, q), = report.matching
    assert {p, q} == set(paired.pairs)
    for r, checked in ((A2, idx), (A2, lone), (A2, paired)):
        assert_program_matches(r, checked)


def test_star_admissible_indices_are_negation_closed():
    for r in (A1, A2, R("A3"), R("D4")):
        classes = center_group(r).representatives
        mus = [Weight.zero(r.rank), fundamental(r.rank, 1)]
        pool = [(z, mu) for z in classes for mu in mus]
        for size in (1, 2):
            for pairs in itertools.combinations(pool, size):
                try:
                    idx = FodcIndex.of(r, pairs)
                except InvariantError:
                    continue
                assert_program_matches(r, idx)
                if reference_star_structure(r, idx).admissible:
                    negated = FodcIndex.of(r, [(center_negate(r, z), mu) for z, mu in idx.pairs])
                    assert set(negated.pairs) == set(idx.pairs)


def test_validate_functional_examples():
    z0 = zero(A2)
    lone = GeneralFunctionalSpec.of([(z0, Weight.of([1, 0]), 1)])
    report = validate_functional(A2, lone)
    assert report.self_adjoint and not report.hermitian and not report.q_laplacian
    assert any("-w0" in reason for reason in report.reasons)

    closed = GeneralFunctionalSpec.of([(z0, Weight.of([1, 0]), 1), (z0, Weight.of([0, 1]), 1)])
    report = validate_functional(A2, closed)
    assert report.self_adjoint and report.hermitian and report.q_laplacian
    assert report.reasons == ()

    negative = GeneralFunctionalSpec.of([(zero(A1), Weight.of([1]), -1)])
    report = validate_functional(A1, negative)
    assert not report.q_laplacian

    # a zero coefficient and the (0, 0) term leave the induced class
    dropped = GeneralFunctionalSpec.of([(z0, Weight.zero(2), 1), (z0, Weight.of([1, 0]), 0),
                                        (center_reduce(A2, [0, 1]), Weight.of([0, 1]), 2)])
    for r, spec in ((A2, lone), (A2, closed), (A1, negative), (A2, dropped)):
        assert_induced_matches(r, spec)


def test_validate_functional_center_terms():
    z = center_reduce(A2, [1, 0])
    zminus = center_negate(A2, z)
    w0pair = minus_w0(A2, Weight.of([1, 0]))
    # conjugates across zeta -> -zeta, equal values across (zeta, mu) -> (-zeta, -w0 mu)
    spec = GeneralFunctionalSpec.of([
        (z, Weight.of([1, 0]), 1 + 2j), (zminus, Weight.of([1, 0]), 1 - 2j),
        (z, w0pair, 1 - 2j), (zminus, w0pair, 1 + 2j),
    ])
    report = validate_functional(A2, spec)
    assert report.self_adjoint
    assert report.hermitian
    assert not report.q_laplacian  # nonzero center classes

    lopsided = GeneralFunctionalSpec.of([(z, Weight.of([1, 0]), 1 + 2j)])
    report = validate_functional(A2, lopsided)
    assert not report.self_adjoint and not report.hermitian
    assert_induced_matches(A2, spec)
    assert_induced_matches(A2, lopsided)


def test_functional_verdicts_compare_exact_coefficients():
    # 1/3 and 0.33333333333333331 differ, though both have the float 0.3333333333333333
    z = center_reduce(A2, [1, 0])
    zminus = center_negate(A2, z)
    mu = Weight.of([1, 0])
    near = GeneralFunctionalSpec.of([(z, mu, Fraction(1, 3)), (zminus, mu, Fraction("0.33333333333333331"))])
    assert float(Fraction("0.33333333333333331")) == 1 / 3
    assert not validate_functional(A2, near).self_adjoint
    exact = GeneralFunctionalSpec.of([(z, mu, Fraction(1, 3)), (zminus, mu, 1 / 3)])
    assert not validate_functional(A2, exact).self_adjoint  # the float 1/3 is not 1/3
    assert validate_functional(A2, GeneralFunctionalSpec.of([(z, mu, (1, 2)), (zminus, mu, 1 - 2j)])).self_adjoint
    # a missing partner is (0, 0): a lone term with a zero coefficient is self-adjoint and leaves the class
    z0 = zero(A2)
    lone = GeneralFunctionalSpec.of([(z, mu, 0j), (z0, Weight.of([0, 1]), 1j), (z0, mu, 2)])
    report = validate_functional(A2, lone)
    assert not report.self_adjoint and not report.q_laplacian
    assert [reason for reason in report.reasons if reason.startswith("self-adjointness")] == [
        "self-adjointness fails at (zeta=0,0, mu=0,1): the (-zeta, mu) term must carry the conjugate coefficient"]
    assert "not a q-deformed Laplacian: the coefficient at (zeta=0,0, mu=0,1) is not a positive real" in report.reasons
    assert induced_class(A2, lone) == ((z0, Weight.of([0, 1])), (z0, mu))


def test_faithfulness_per_factor():
    r = R("A1xA1")
    z0 = zero(r)
    half = GeneralFunctionalSpec.of([(z0, Weight.of([1, 0]), 1)])
    report = validate_functional(r, half)
    assert report.hermitian and not report.q_laplacian
    assert any("factor" in reason for reason in report.reasons)
    full = GeneralFunctionalSpec.of([(z0, Weight.of([1, 0]), 1), (z0, Weight.of([0, 1]), 2)])
    assert validate_functional(r, full).q_laplacian


def test_q_laplacian_implies_hermitian_and_self_adjoint():
    import random

    rng = random.Random(41)
    for label in ["A1", "A2", "G2", "B2"]:
        r = R(label)
        z0 = zero(r)
        for _ in range(10):
            terms = {}
            for _ in range(rng.randint(1, 2)):
                mu = Weight.of([rng.randint(0, 2) for _ in range(r.rank)])
                if mu.is_zero:
                    continue
                a = rng.randint(1, 5)
                terms[mu] = a
                terms[minus_w0(r, mu)] = a
            if not terms:
                continue
            spec = GeneralFunctionalSpec.of(
                [(z0, mu, a) for mu, a in sorted(terms.items(), key=lambda kv: kv[0].coords)])
            report = validate_functional(r, spec)
            assert report.q_laplacian
            assert report.hermitian and report.self_adjoint
            assert_induced_matches(r, spec)


def test_self_dual_types_accept_single_terms():
    for label in ["A1", "B2", "G2", "D4"]:
        r = R(label)
        mu = fundamental(r.rank, 1)
        assert minus_w0(r, mu) == mu
        spec = GeneralFunctionalSpec.of([(zero(r), mu, 2)])
        assert validate_functional(r, spec).q_laplacian


def test_enumeration_examples():
    calculi = enumerate_fodc_indices(A1, 1, include_center=True)
    assert len(calculi) == 8
    assert calculi[0][:2] == ((), 0)
    assert all(star for _, _, star in calculi)  # A1 center is half-coroot
    pool = {pair for pairs, _, _ in calculi for pair in pairs}
    assert len(pool) == 3

    calculi = enumerate_fodc_indices(A2, 1, include_center=False)
    assert len(calculi) == 4
    pool = {pair for pairs, _, _ in calculi for pair in pairs}
    assert pool == {(zero(A2), Weight.of([1, 0])), (zero(A2), Weight.of([0, 1]))}
    dims = sorted(dimension for _, dimension, _ in calculi)
    assert dims == [0, 9, 9, 18]

    calculi = enumerate_fodc_indices(A2, 0, include_center=False)
    assert len(calculi) == 1 and calculi[0][1] == 0


def test_enumeration_annotations_and_cap(monkeypatch):
    monkeypatch.setenv("QLAP_ROW_CAP", str(1 << 9))
    a2 = enumerate_fodc_indices(A2, 1, include_center=True)
    assert len(a2) == 2 ** 8  # 3 classes x 3 weights minus (0,0)
    # A3: the center is Z4, class 2 is half a coroot and classes 1 and 3 are partners
    a3 = enumerate_fodc_indices(R("A3"), 0, include_center=True)
    assert len(a3) == 2 ** 3
    for r, calculi in ((A2, a2), (R("A3"), a3)):
        for pairs, dimension, star_admissible in calculi:
            idx = FodcIndex(pairs)
            assert dimension == reference_fodc_dimension(r, idx)
            assert star_admissible == reference_star_structure(r, idx).admissible
    monkeypatch.setenv("QLAP_ROW_CAP", "100")
    with pytest.raises(ResourceCapError) as err:
        enumerate_fodc_indices(A2, 1, include_center=True)
    assert "100" in str(err.value)
    # the cap is exact (2^8 calculi pass at 256, not at 255) and is hit while
    # the weight pool is collected, before an astronomical count is formed
    monkeypatch.setenv("QLAP_ROW_CAP", "256")
    assert len(enumerate_fodc_indices(A2, 1, include_center=True)) == 256
    for r, height, cap in ((A2, 1, 255), (A1, 20000, 65536), (R("E8"), 60, 65536)):
        monkeypatch.setenv("QLAP_ROW_CAP", str(cap))
        with pytest.raises(ResourceCapError) as err:
            enumerate_fodc_indices(r, height, include_center=True)
        assert str(cap) in str(err.value)
    # a height is a nonnegative integer by `Weight.of`'s rule: NaN, 0.5 and 1/3 gave only the zero calculus,
    # and "x" and None ended in a bare TypeError
    for bad in [-1, math.nan, 0.5, Fraction(1, 3), -math.inf, math.inf, "x", None, "-1"]:
        with pytest.raises(InvariantError, match="^max_height must be a nonnegative integer$"):
            enumerate_fodc_indices(A2, bad, include_center=False)
    for height in [1.0, Fraction(2, 2), "1", True]:
        assert enumerate_fodc_indices(A2, height, include_center=False) == enumerate_fodc_indices(A2, 1, False)


def test_default_cap_admits_2_to_the_16_calculi(monkeypatch):
    # 2^16 <= 100000 < 2^17: the default cap takes the same enumerations as a cap of 65536
    monkeypatch.delenv("QLAP_ROW_CAP", raising=False)
    assert len(enumerate_fodc_indices(A1, 16, False)) == 65536  # 17 weights, 16 pairs besides (0, 0)
    with pytest.raises(ResourceCapError, match="^enumeration exceeds the cap of 100000 calculi$"):
        enumerate_fodc_indices(A1, 17, False)


@pytest.mark.parametrize("label,height,include_center", [
    ("A1", 6, True), ("A1xA1", 1, True), ("B2", 2, True), ("D4", 0, True), ("A2", 1, True), ("A3", 1, False)])
def test_enumeration_matches_bitmask_rescan(label, height, include_center):
    r = R(label)
    calculi = enumerate_fodc_indices(r, height, include_center)
    expected = reference_fodc_enumeration(r, calculi)
    assert len(calculi) == len(expected)
    mask = next((m for m, (got, want) in enumerate(zip(calculi, expected)) if got != want), None)
    assert mask is None, (mask, calculi[mask], expected[mask])  # one calculus, not a diff of thousands
