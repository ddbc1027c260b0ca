"""Calculi and functionals, checked against the one-calculus-at-a-time reference.

`tests/oracles.py` holds `FodcIndex` (a checked set of pairs),
`reference_fodc_dimension` and `reference_star_structure` (a `StarReport`
with the partner matching).  The examples below pin the reference, and
wherever a calculus appears the program's `fodc_dimension`,
`admits_star_structure` and `induced_class` are compared with it.
"""

import itertools

import pytest

from oracles import FodcIndex, reference_fodc_dimension, reference_star_structure
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
    expected = FodcIndex.of(r, [(z, mu) for z, mu, a in spec.terms if a != 0]).nonzero_pairs
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
        mus = [Weight.zero(r.rank), Weight.fundamental(r.rank, 1)]
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
        mu = Weight.fundamental(r.rank, 1)
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


def test_enumeration_annotations_and_cap():
    a2 = enumerate_fodc_indices(A2, 1, include_center=True, max_indices=1 << 9)
    assert len(a2) == 2 ** 8  # 3 classes x 3 weights minus (0,0)
    # A3: the center is Z4, class 2 is half a coroot and classes 1 and 3 are partners
    a3 = enumerate_fodc_indices(R("A3"), 0, include_center=True)
    assert len(a3) == 2 ** 3
    for r, calculi in ((A2, a2), (R("A3"), a3)):
        for pairs, dimension, star_admissible in calculi:
            idx = FodcIndex(pairs)
            assert dimension == reference_fodc_dimension(r, idx)
            assert star_admissible == reference_star_structure(r, idx).admissible
    with pytest.raises(ResourceCapError) as err:
        enumerate_fodc_indices(A2, 1, include_center=True, max_indices=100)
    assert "100" in str(err.value)
    # the cap is exact (2^8 calculi pass at 256, not at 255) and is hit while
    # the weight pool is collected, before an astronomical count is formed
    assert len(enumerate_fodc_indices(A2, 1, include_center=True, max_indices=256)) == 256
    for r, height, cap in ((A2, 1, 255), (A1, 20000, 65536), (R("E8"), 60, 65536)):
        with pytest.raises(ResourceCapError) as err:
            enumerate_fodc_indices(r, height, include_center=True, max_indices=cap)
        assert str(cap) in str(err.value)
    with pytest.raises(InvariantError):
        enumerate_fodc_indices(A2, -1, include_center=False)
