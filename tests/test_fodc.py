import itertools

import pytest

from qlaplacian.cartan import (
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
    FodcIndex,
    admits_star_structure,
    enumerate_fodc_indices,
    fodc_dimension,
    validate_functional,
)
from qlaplacian.spectra import GeneralFunctionalSpec


def R(label):
    return build_root_system(parse_type_label(label))


A1 = R("A1")
A2 = R("A2")


def zero(r):
    return center_reduce(r, [0] * r.rank)


def test_dimension_examples():
    assert fodc_dimension(A2, FodcIndex.of(A2, [(zero(A2), Weight.zero(2))])) == 0
    assert fodc_dimension(A2, FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0]))])) == 9
    both = FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0])), (zero(A2), Weight.of([0, 1]))])
    assert fodc_dimension(A2, both) == 18


def test_duplicate_pairs_rejected():
    with pytest.raises(InvariantError):
        FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0])), ([0, 0], (1, 0))])


def test_dimension_is_additive_over_disjoint_unions():
    z = center_reduce(A2, [1, 0])
    left = FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0]))])
    right = FodcIndex.of(A2, [(z, Weight.of([0, 1])), (z, Weight.of([1, 1]))])
    union = FodcIndex.of(A2, left.pairs + right.pairs)
    assert fodc_dimension(A2, union) == fodc_dimension(A2, left) + fodc_dimension(A2, right)


def test_star_structure_examples():
    # every zeta = 0 index is star-admissible
    idx = FodcIndex.of(A2, [(zero(A2), Weight.of([1, 0])), (zero(A2), Weight.of([2, 1]))])
    assert admits_star_structure(A2, idx).admissible
    # A1: the nonzero class is half a coroot, so a lone pair is fine
    z1 = center_reduce(A1, [1])
    report = admits_star_structure(A1, FodcIndex.of(A1, [(z1, Weight.of([1]))]))
    assert report.admissible and report.matching == ()
    # A2: the nonzero class is not, so it needs its negative alongside
    z = center_reduce(A2, [1, 0])
    lone = FodcIndex.of(A2, [(z, Weight.of([1, 0]))])
    report = admits_star_structure(A2, lone)
    assert not report.admissible and report.unmatched == lone.pairs
    paired = FodcIndex.of(A2, [(z, Weight.of([1, 0])), (center_negate(A2, z), Weight.of([1, 0]))])
    report = admits_star_structure(A2, paired)
    assert report.admissible
    assert len(report.matching) == 1
    (p, q), = report.matching
    assert {p, q} == set(paired.pairs)


def test_star_admissible_indices_are_negation_closed():
    for r in (A1, A2):
        classes = center_group(r).representatives
        mus = [Weight.zero(r.rank), Weight.fundamental(r.rank, 1)]
        pool = [(z, mu) for z in classes for mu in mus]
        for size in (1, 2):
            for pairs in itertools.combinations(pool, size):
                try:
                    idx = FodcIndex.of(r, pairs)
                except InvariantError:
                    continue
                if admits_star_structure(r, idx).admissible:
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


def test_self_dual_types_accept_single_terms():
    for label in ["A1", "B2", "G2", "D4"]:
        r = R(label)
        mu = Weight.fundamental(r.rank, 1)
        assert minus_w0(r, mu) == mu
        spec = GeneralFunctionalSpec.of([(zero(r), mu, 2)])
        assert validate_functional(r, spec).q_laplacian


def test_enumeration_examples():
    reports = enumerate_fodc_indices(A1, 1, include_center=True)
    assert len(reports) == 8
    assert reports[0].index.pairs == () and reports[0].dimension == 0
    assert all(rep.star.admissible for rep in reports)  # A1 center is half-coroot
    pool = {pair for rep in reports for pair in rep.index.pairs}
    assert len(pool) == 3

    reports = enumerate_fodc_indices(A2, 1, include_center=False)
    assert len(reports) == 4
    pool = {pair for rep in reports for pair in rep.index.pairs}
    assert pool == {(zero(A2), Weight.of([1, 0])), (zero(A2), Weight.of([0, 1]))}
    dims = sorted(rep.dimension for rep in reports)
    assert dims == [0, 9, 9, 18]

    reports = enumerate_fodc_indices(A2, 0, include_center=False)
    assert len(reports) == 1 and reports[0].dimension == 0


def test_enumeration_annotations_and_cap():
    reports = enumerate_fodc_indices(A2, 1, include_center=True, max_indices=1 << 9)
    assert len(reports) == 2 ** 8  # 3 classes x 3 weights minus (0,0)
    for rep in reports:
        assert rep.dimension == fodc_dimension(A2, rep.index)
        assert rep.functional_class == rep.index.nonzero_pairs
        assert rep.star.admissible == admits_star_structure(A2, rep.index).admissible
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
