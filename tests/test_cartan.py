from fractions import Fraction

import pytest

from qlaplacian.cartan import (
    Weight,
    apply_w0,
    build_root_system,
    center_add,
    center_group,
    center_negate,
    center_reduce,
    enumerate_dominant,
    inner_product,
    is_half_coroot,
    minus_w0,
    norm_squared,
    parse_type_label,
)
from qlaplacian.errors import InvariantError, ResourceCapError

from oracles import invariant_factors_by_minors, rational_det, reflection_closure_positive_roots

ALL_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4", "G2", "A1xA1", "A1xG2"]


def R(label):
    return build_root_system(parse_type_label(label))


def test_simple_type_labels_are_non_redundant():
    for bad in ["A0", "B1", "C2", "D3", "E5", "E9", "F3", "G3", "H4"]:
        with pytest.raises(InvariantError) as err:
            parse_type_label(bad)
        assert bad in str(err.value) or bad[0] in str(err.value)
    for good in ["A1", "B2", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]:
        parse_type_label(good)


def test_build_rejects_empty_product():
    with pytest.raises(InvariantError):
        build_root_system([])


def test_build_parses_string_factors_with_the_label_grammar():
    assert build_root_system(["a1xG2"]) == build_root_system(parse_type_label("A1xG2"))
    for bad in ["A", "2A", "A1x", "A1 ", "H4"]:
        with pytest.raises(InvariantError):
            build_root_system([bad])


def test_a1_is_forced():
    r = R("A1")
    assert len(r.positive_roots) == 1
    assert r.w0_word == (1,)
    assert r.positive_roots[0] == Weight.of([2])


def test_positive_roots_match_reflection_closure():
    for label in ALL_LABELS:
        r = R(label)
        oracle = reflection_closure_positive_roots(r)
        assert set(r.positive_roots) == oracle, label
        assert len(r.positive_roots) == len(set(r.positive_roots)) == len(r.w0_word)


def test_a2_and_g2_root_counts():
    r = R("A2")
    a1, a2 = r.simple_root(1), r.simple_root(2)
    assert set(r.positive_roots) == {a1, a2, a1 + a2}
    g = R("G2")
    assert len(g.positive_roots) == 6
    long_roots = [b for b in g.positive_roots if norm_squared(g, b) / 2 == 3]
    assert len(long_roots) == 3


def test_inner_product_examples():
    r1 = R("A1")
    w1 = Weight.fundamental(1, 1)
    assert inner_product(r1, w1, w1) == Fraction(1, 2)
    r2 = R("A2")
    assert inner_product(r2, Weight.fundamental(2, 1), Weight.fundamental(2, 2)) == Fraction(1, 3)
    assert inner_product(r2, Weight.zero(2), Weight.of([7, -3])) == 0
    with pytest.raises(InvariantError):
        inner_product(r2, Weight.of([1]), Weight.of([1, 0]))


def test_gram_cartan_identity_and_symmetry():
    for label in ALL_LABELS:
        r = R(label)
        for i in range(r.rank):
            for j in range(r.rank):
                lhs = sum(r.gram[i][k] * r.cartan[k][j] for k in range(r.rank))
                assert lhs == (r.d[j] if i == j else 0), (label, i, j)
                assert r.gram[i][j] == r.gram[j][i]


def test_gram_positive_definite_on_random_vectors():
    import random

    rng = random.Random(7)
    for label in ALL_LABELS:
        r = R(label)
        for _ in range(20):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(r.rank)]
            x = Weight.of(coords)
            if x.is_zero:
                continue
            assert inner_product(r, x, x) > 0


def test_symmetrizers_are_small_integers_at_default_scale():
    for label in ALL_LABELS:
        r = R(label)
        assert all(d in (1, 2, 3) for d in r.d)
        # short roots of every factor have squared length 2
        for lo, hi in r.factor_slices():
            shortest = min(norm_squared(r, b) for b in r.positive_roots
                           if any(b.coords[k] != 0 for k in range(lo, hi)))
            assert shortest == 2


def test_minus_w0_examples_and_involution():
    assert minus_w0(R("A1"), Weight.of([1])) == Weight.of([1])
    r2 = R("A2")
    assert minus_w0(r2, Weight.fundamental(2, 1)) == Weight.fundamental(2, 2)
    d4 = R("D4")
    assert minus_w0(d4, Weight.fundamental(4, 3)) == Weight.fundamental(4, 3)
    for label in ["A2", "A3", "D5", "G2"]:
        r = R(label)
        for j in range(1, r.rank + 1):
            w = Weight.fundamental(r.rank, j)
            image = minus_w0(r, w)
            assert image.is_dominant
            assert minus_w0(r, image) == w
            assert image == Weight.fundamental(r.rank, r.w0_perm[j - 1])


def test_minus_w0_permutes_positive_roots():
    for label in ALL_LABELS:
        r = R(label)
        images = {minus_w0(r, b) for b in r.positive_roots}
        assert images == set(r.positive_roots), label


def test_w0_sends_rho_to_minus_rho():
    for label in ALL_LABELS:
        r = R(label)
        assert apply_w0(r, r.weyl_vector) == -r.weyl_vector


def test_rho_pairs_to_one_with_every_simple_coroot():
    for label in ALL_LABELS:
        r = R(label)
        for j in range(1, r.rank + 1):
            assert inner_product(r, r.weyl_vector, r.simple_root(j)) / r.d[j - 1] == 1


def test_highest_root_dominates_factor_roots():
    for label in ALL_LABELS:
        r = R(label)
        for (lo, hi), gamma in zip(r.factor_slices(), r.highest_roots):
            for beta in r.positive_roots:
                if not any(beta.coords[k] != 0 for k in range(lo, hi)):
                    continue
                diff = gamma - beta
                if diff.is_zero:
                    continue
                # difference must be a nonnegative combination of simple roots
                coeffs = [inner_product(r, diff, Weight.fundamental(r.rank, j + 1)) / r.d[j]
                          for j in range(r.rank)]
                assert all(c >= 0 for c in coeffs), (label, beta)


def test_center_orders_and_invariant_factors():
    assert center_group(R("A2")).invariant_factors == (3,)
    assert center_group(R("D4")).invariant_factors == (2, 2)
    assert center_group(R("D4")).order == 4
    e8 = build_root_system(parse_type_label("E8"))
    assert center_group(e8).order == 1
    assert center_group(e8).invariant_factors == ()
    for label in ALL_LABELS:
        r = R(label)
        grp = center_group(r)
        assert grp.order == abs(int(rational_det(r.cartan)))
        assert grp.invariant_factors == invariant_factors_by_minors(r.cartan)
        assert len(grp.representatives) == grp.order


def test_center_group_law():
    import random

    rng = random.Random(3)
    for label in ["A2", "A3", "D4", "D5", "A1xA1"]:
        r = R(label)
        grp = center_group(r)
        for _ in range(20):
            v = [rng.randint(-8, 8) for _ in range(r.rank)]
            z = center_reduce(r, v)
            assert center_reduce(r, z.rep) == z
            assert z in grp.representatives
            assert center_add(r, z, center_negate(r, z)).is_zero
        for z in grp.representatives:
            acc = center_reduce(r, [0] * r.rank)
            for _ in range(grp.order):
                acc = center_add(r, acc, z)
            assert acc.is_zero


def test_is_half_coroot_examples():
    for label in ALL_LABELS:
        r = R(label)
        assert is_half_coroot(r, center_reduce(r, [0] * r.rank))
    a1 = R("A1")
    assert is_half_coroot(a1, center_reduce(a1, [1]))
    a2 = R("A2")
    for z in center_group(a2).representatives:
        assert is_half_coroot(a2, z) == z.is_zero


def test_enumerate_dominant_examples():
    a1 = R("A1")
    assert enumerate_dominant(a1, 2) == [Weight.of([0]), Weight.of([1]), Weight.of([2])]
    a2 = R("A2")
    assert enumerate_dominant(a2, Fraction(2, 3)) == [
        Weight.of([0, 0]), Weight.of([0, 1]), Weight.of([1, 0])]
    # radius just below the smallest fundamental norm keeps only zero
    for label in ALL_LABELS:
        r = R(label)
        min_norm = min(norm_squared(r, Weight.fundamental(r.rank, j + 1)) for j in range(r.rank))
        assert enumerate_dominant(r, min_norm - Fraction(1, 1000)) == [Weight.zero(r.rank)]


def test_enumerate_dominant_is_exactly_the_norm_ball():
    g2 = R("G2")
    got = enumerate_dominant(g2, 30)
    assert all(norm_squared(g2, w) <= 30 and w.is_dominant for w in got)
    # brute-force box double-check
    brute = [Weight.of([a, b]) for a in range(10) for b in range(10)
             if norm_squared(g2, Weight.of([a, b])) <= 30]
    assert set(got) == set(brute)
    heights = [(w.height, w.coords) for w in got]
    assert heights == sorted(heights)


def test_enumerate_dominant_guards():
    a1 = R("A1")
    with pytest.raises(InvariantError):
        enumerate_dominant(a1, 0)
    with pytest.raises(ResourceCapError) as err:
        enumerate_dominant(a1, 10000, max_rows=5)
    assert "5" in str(err.value)


def test_weight_serialization_round_trip():
    w = Weight.of([Fraction(1, 2), -3, 0])
    assert w.serialize() == "1/2,-3,0"
    assert Weight.parse(w.serialize()) == w


def test_global_scale_knob():
    base = R("G2")
    scaled = build_root_system(parse_type_label("G2"), scale=Fraction(1, 24))
    assert scaled.positive_roots == base.positive_roots
    assert scaled.w0_word == base.w0_word
    assert scaled.highest_roots == base.highest_roots
    w1 = Weight.fundamental(2, 1)
    assert inner_product(scaled, w1, w1) == inner_product(base, w1, w1) / 24
    assert scaled.d == tuple(d / 24 for d in base.d)
    for j in range(1, 3):
        assert inner_product(scaled, scaled.weyl_vector, scaled.simple_root(j)) / scaled.d[j - 1] == 1
    assert center_group(scaled).order == center_group(base).order
    with pytest.raises(InvariantError):
        build_root_system(parse_type_label("A1"), scale=0)


def test_center_element_rejects_bad_length():
    with pytest.raises(InvariantError):
        center_reduce(R("A2"), [1])
