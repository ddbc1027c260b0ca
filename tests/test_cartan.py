import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

import qlaplacian.cartan as cartan
from qlaplacian.cartan import (
    CenterElement,
    RootSystem,
    Weight,
    build_root_system,
    center_group,
    center_negate,
    center_order,
    center_reduce,
    enumerate_dominant,
    inner_product,
    is_half_coroot,
    minus_w0,
    norm_squared,
    parse_type_label,
)
from qlaplacian.errors import InvariantError, ResourceCapError
from qlaplacian.spectra import GeneralFunctionalSpec, LaplacianSpec, q_laplacian_eigenvalue
from qlaplacian.weights import dim_irrep, weight_system

from oracles import (
    apply_w0,
    center_add,
    fundamental,
    invariant_factors_by_minors,
    rational_det,
    rational_inner_product,
    reference_minus_w0,
    reference_root_system,
    reflection_closure_positive_roots,
    rho,
    root_height,
    w0_word,
)

ALL_LABELS = ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "F4", "G2", "A1xA1", "A1xG2"]
# -w0 and the highest roots come from Bourbaki's tables; these labels check them against the w0 word
W0_LABELS = ALL_LABELS + ["A4", "A5", "A6", "A7", "B4", "C4", "D6", "D7", "E6", "E7", "E8",
                          "A3xE6", "D5xB2xA4"]


def R(label):
    return build_root_system(parse_type_label(label))


def test_simple_type_labels_are_non_redundant():
    for bad in ["A0", "B1", "C2", "D3", "E5", "E9", "F3", "G3", "H4"]:
        with pytest.raises(InvariantError) as err:
            parse_type_label(bad)
        assert bad in str(err.value) or bad[0] in str(err.value)
    for good in ["A1", "B2", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]:
        parse_type_label(good)
    # a family outside A-G never passes the label grammar; the record refuses it too
    with pytest.raises(InvariantError, match="^unknown family 'H' in factor H2$"):
        cartan.SimpleType("H", 2)
    # leading zeros do not count towards the digits an int may be read from
    assert parse_type_label("A" + "0" * 5000 + "1xG02") == parse_type_label("A1xG2")
    with pytest.raises(ResourceCapError) as err:
        parse_type_label("A" + "9" * 5000)
    assert "5000 digits" in str(err.value)


def test_build_rejects_empty_product():
    with pytest.raises(InvariantError):
        build_root_system([])


def test_build_parses_string_factors_with_the_label_grammar():
    assert build_root_system(["a1xG2"]) == build_root_system(parse_type_label("A1xG2"))
    for bad in ["A", "2A", "A1x", "A1 ", "H4"]:
        with pytest.raises(InvariantError):
            build_root_system([bad])


def test_weight_of_stores_integral_coordinates_as_int():
    w = Weight.of([1, Fraction(4, 2), "3/3", 2.0])
    assert [type(c) for c in w.coords] == [int, int, int, int]
    assert w == Weight((1, 2, 1, 2))
    assert hash(w) == hash(Weight((1, 2, 1, 2)))
    assert repr(w) == "Weight(1,2,1,2)"
    for bad in [Fraction(1, 2), 0.25, "1/3"]:
        with pytest.raises(InvariantError):
            Weight.of([1, bad])
    r = R("G2")
    built = [*r.positive_roots, *r.highest_roots, r.simple_root(2), Weight.zero(2),
             *enumerate_dominant(r, 10)]
    assert all(type(c) is int for w in built for c in w.coords)


def test_weight_of_refuses_a_coordinate_that_is_no_rational():
    # NaN and an infinity fail Fraction with ValueError and OverflowError, None with TypeError, "1/0" with
    # ZeroDivisionError, and a string of 5000 digits with ValueError (past the 4300 digits an int may be read
    # from); a decimal exponent of five digits, and text of more than about 1000 digits, are refused as read
    for bad in [float("nan"), float("inf"), None, "9" * 5000, "1/0", "1e99999999", Decimal("1e99999999"),
                "9" * 2000]:
        with pytest.raises(InvariantError, match="^weight coordinate 2 is not an integer$"):
            Weight.of([1, bad])


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.25], ids=str)
def test_every_entry_point_refuses_non_integral_weights(bad):
    r = R("A2")
    z0 = center_reduce(r, [0, 0])
    for refuse in (lambda: Weight.of([bad, 0]),
                   lambda: LaplacianSpec.of([((bad, 0), 1)]),
                   lambda: GeneralFunctionalSpec.of([(z0, (bad, 0), 1)]),
                   lambda: GeneralFunctionalSpec.of([((bad, 0), (1, 0), 1)])):  # a center class reads as a weight
        with pytest.raises(InvariantError):
            refuse()
    # a weight built past `of` is refused where it is read
    past = Weight((bad, 0))
    spec = LaplacianSpec.of([((1, 0), 1)])
    one = (Fraction(1), Fraction(0))
    for refuse in (lambda: cartan.check_dominant_integral(r, past),
                   lambda: LaplacianSpec(((past, 1),)),
                   lambda: GeneralFunctionalSpec(((z0, past, 1),)),
                   lambda: GeneralFunctionalSpec.of([(CenterElement((bad, 0)), (1, 0), 1)]),
                   lambda: GeneralFunctionalSpec(((CenterElement((bad, 0)), Weight((1, 0)), one),)),
                   lambda: weight_system(r, past),
                   lambda: dim_irrep(r, past),
                   lambda: q_laplacian_eigenvalue(r, spec, past, 0.5)):
        with pytest.raises(InvariantError):
            refuse()
    assert [type(c) for c in Weight.of([Fraction(2), "3/3", 2.0]).coords] == [int, int, int]


def test_a1_is_forced():
    r = R("A1")
    assert len(r.positive_roots) == 1
    assert w0_word(r) == (1,)
    assert r.positive_roots[0] == Weight.of([2])


def test_positive_roots_match_reflection_closure():
    for label in ALL_LABELS:
        r = R(label)
        oracle = reflection_closure_positive_roots(r)
        assert set(r.positive_roots) == oracle, label
        assert len(r.positive_roots) == len(set(r.positive_roots)) == len(w0_word(r))


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
    w1 = fundamental(1, 1)
    assert inner_product(r1, w1, w1) == Fraction(1, 2)
    r2 = R("A2")
    assert inner_product(r2, fundamental(2, 1), fundamental(2, 2)) == Fraction(1, 3)
    assert inner_product(r2, Weight.zero(2), Weight.of([7, -3])) == 0
    with pytest.raises(InvariantError):
        inner_product(r2, Weight.of([1]), Weight.of([1, 0]))


def test_gram_cartan_identity_and_symmetry():
    for label in ALL_LABELS:
        r = R(label)
        gram = [[Fraction(r.form[i][j], r.denominator) for j in range(r.rank)] for i in range(r.rank)]
        for i in range(r.rank):
            for j in range(r.rank):
                lhs = sum(gram[i][k] * r.cartan[k][j] for k in range(r.rank))
                assert lhs == (r.d[j] if i == j else 0), (label, i, j)
                assert gram[i][j] == gram[j][i]


def test_gram_positive_definite_on_random_vectors():
    import random

    rng = random.Random(7)
    for label in ALL_LABELS:
        r = R(label)
        for _ in range(20):
            coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(r.rank)]
            if not any(coords):
                continue
            assert rational_inner_product(r, coords, coords) > 0


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
    assert minus_w0(r2, fundamental(2, 1)) == fundamental(2, 2)
    d4 = R("D4")
    assert minus_w0(d4, fundamental(4, 3)) == fundamental(4, 3)
    for label in ["A2", "A3", "D5", "G2"]:
        r = R(label)
        for j in range(1, r.rank + 1):
            w = fundamental(r.rank, j)
            image = minus_w0(r, w)
            assert image.is_dominant
            assert minus_w0(r, image) == w
            assert image == fundamental(r.rank, r.w0_perm[j - 1])


def test_minus_w0_permutes_positive_roots():
    for label in ALL_LABELS:
        r = R(label)
        images = {minus_w0(r, b) for b in r.positive_roots}
        assert images == set(r.positive_roots), label


@pytest.mark.parametrize("label", W0_LABELS)
def test_minus_w0_agrees_with_the_w0_word(label):
    r = R(label)
    rng = random.Random(label)
    non_dominant = []
    for _ in range(4):
        coords = [rng.randint(-3, 3) for _ in range(r.rank)]
        coords[rng.randrange(r.rank)] = -rng.randint(1, 3)
        non_dominant.append(Weight.of(coords))
    fundamentals = [fundamental(r.rank, j) for j in range(1, r.rank + 1)]
    for x in [*fundamentals, *r.positive_roots, *non_dominant]:
        expected = reference_minus_w0(r, x)
        assert minus_w0(r, x) == expected, (label, x)
        assert apply_w0(r, x) == -expected, (label, x)


@pytest.mark.parametrize("label", W0_LABELS)
def test_highest_root_is_the_highest_positive_root_of_its_factor(label):
    r = R(label)
    for (lo, hi), gamma in zip(r.factor_slices(), r.highest_roots):
        assert gamma in r.positive_roots, label
        top = root_height(r, gamma)
        others = [b for b in r.positive_roots if b != gamma and any(b.coords[lo:hi])]
        assert all(root_height(r, b) < top for b in others), label


def test_w0_sends_rho_to_minus_rho():
    for label in ALL_LABELS:
        r = R(label)
        assert apply_w0(r, rho(r)) == -rho(r)


def test_rho_pairs_to_one_with_every_simple_coroot():
    for label in ALL_LABELS:
        r = R(label)
        for j in range(1, r.rank + 1):
            assert inner_product(r, rho(r), r.simple_root(j)) / r.d[j - 1] == 1


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
                coeffs = [inner_product(r, diff, fundamental(r.rank, j + 1)) / r.d[j]
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
        assert center_order(r) == grp.order
    # the order comes from the Hermite basis, without listing 2^40 classes
    assert center_order(R("x".join(["A1"] * 40))) == 2 ** 40


def test_center_group_is_capped(monkeypatch):
    # the order is read off the Hermite basis, so the cap refuses before any class is listed
    monkeypatch.delenv("QLAP_ROW_CAP", raising=False)
    with pytest.raises(ResourceCapError, match="^center group of order 131072 exceeds the row cap of 100000$"):
        center_group(R("x".join(["A1"] * 17)))
    monkeypatch.setenv("QLAP_ROW_CAP", "3")
    with pytest.raises(ResourceCapError, match="^center group of order 4 exceeds the row cap of 3$"):
        center_group(R("D4"))


# products whose factors' cyclic orders share primes, with their invariant factors
MERGED_CENTERS = {
    "A1xA1": (2, 2), "A1xA3": (2, 4), "A1xA2": (6,), "A5xA3": (2, 12), "A2xE6": (3, 3),
    "D4xA1": (2, 2, 2), "D5xA3": (4, 4), "B2xC3xD6": (2, 2, 2, 2),
}


@pytest.mark.parametrize("label", sorted(MERGED_CENTERS))
def test_invariant_factors_merge_orders_that_share_primes(label):
    r = R(label)
    assert center_group(r).invariant_factors == MERGED_CENTERS[label]
    assert invariant_factors_by_minors(r.cartan) == MERGED_CENTERS[label]


def test_invariant_factors_multiply_to_the_center_order_on_pairs():
    for a, b in itertools.product(ALL_LABELS, repeat=2):
        r = R(f"{a}x{b}")
        factors = center_group(r).invariant_factors
        assert all(big % small == 0 for small, big in zip(factors, factors[1:])), (a, b)
        assert math.prod(factors) == center_order(r), (a, b)


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


@pytest.mark.parametrize("label", ["A2", "D4", "E6", "A1xG2"])
def test_coweight_pairing_sums_fundamental_weight_pairings(label):
    # (xi, lam) = sum_i zeta_i (w_i, lam) / d_i, for every class and every dominant lam of height <= 3;
    # the form's scale cancels, so the system at scale 7/5 gives the same values
    r, scaled = R(label), build_root_system(parse_type_label(label), scale=Fraction(7, 5))
    lams = [Weight.of(c) for c in itertools.product(range(4), repeat=r.rank) if sum(c) <= 3]
    for z in center_group(r).representatives:
        for lam in lams:
            expected = sum((zi * inner_product(r, fundamental(r.rank, i + 1), lam) / r.d[i]
                            for i, zi in enumerate(z.rep)), Fraction(0))
            assert cartan.coweight_pairing(r, z, lam) == expected == cartan.coweight_pairing(scaled, z, lam)


def test_enumerate_dominant_examples():
    a1 = R("A1")
    assert enumerate_dominant(a1, 2) == [Weight.of([0]), Weight.of([1]), Weight.of([2])]
    a2 = R("A2")
    assert enumerate_dominant(a2, Fraction(2, 3)) == [
        Weight.of([0, 0]), Weight.of([0, 1]), Weight.of([1, 0])]
    # radius just below the smallest fundamental norm keeps only zero
    for label in ALL_LABELS:
        r = R(label)
        min_norm = min(norm_squared(r, fundamental(r.rank, j + 1)) for j in range(r.rank))
        assert enumerate_dominant(r, min_norm - Fraction(1, 1000)) == [Weight.zero(r.rank)]


# (label, scale, radius or a weight whose norm is the radius, amount taken off the radius):
# a plain ball, and a weight on the boundary sphere, on a product and on a form scaled by 7/5
NORM_BALL_CASES = [("G2", 1, 30, 0)] + [
    (label, scale, coords, below) for label, scale, coords in
    [("A1xG2", 1, (1, 1, 1)), ("B2xA2", Fraction(7, 5), (1, 0, 2, 1))] for below in (0, Fraction(1, 10**30))]


def test_enumerate_dominant_is_exactly_the_norm_ball():
    for label, scale, sphere, below in NORM_BALL_CASES:
        r = build_root_system([label], scale)
        lam = Weight.of(sphere) if isinstance(sphere, tuple) else None
        radius = (sphere if lam is None else inner_product(r, lam, lam)) - below
        got = enumerate_dominant(r, radius)
        assert all(norm_squared(r, w) <= radius and w.is_dominant for w in got)
        # brute-force box double-check: every Gram entry is nonnegative,
        # so a dominant x in the ball has x_j^2 (w_j, w_j) <= radius
        box = [math.isqrt(math.floor(radius / norm_squared(r, fundamental(r.rank, j))))
               for j in range(1, r.rank + 1)]
        brute = {w for w in map(Weight.of, itertools.product(*(range(b + 1) for b in box)))
                 if inner_product(r, w, w) <= radius}
        assert len(got) == len(brute) and set(got) == brute, (label, radius)
        heights = [(w.height, w.coords) for w in got]
        assert heights == sorted(heights)
        if lam is not None:
            assert (lam in got) == (below == 0), (label, radius)


def test_enumerate_dominant_guards(monkeypatch):
    a1 = R("A1")
    with pytest.raises(InvariantError):
        enumerate_dominant(a1, 0)
    monkeypatch.setenv("QLAP_ROW_CAP", "5")
    with pytest.raises(ResourceCapError) as err:
        enumerate_dominant(a1, 10000)
    assert "5" in str(err.value)
    # a library call is capped by default too: A1 has 100,001 dominant weights up to norm 5 * 10^9
    monkeypatch.delenv("QLAP_ROW_CAP")
    with pytest.raises(ResourceCapError, match="row cap of 100000$"):
        enumerate_dominant(a1, 5 * 10**9)


# values that are not positive rationals; a string of 5000 digits is past what Python reads as an int, and
# text or a Decimal with a decimal exponent of five digits or more than about 1000 digits is refused as read
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "x", "1/0",
                                   pytest.param("-" + "9" * 5000, id="5000_digits"),
                                   0, -1, Fraction(-1, 3), Decimal("NaN"), Decimal("Infinity"), 1j,
                                   "1e99999999", "1e-99999999", Decimal("1e99999999"),
                                   pytest.param("9" * 2000, id="2000_digits")])
def test_radius_and_scale_must_be_positive_rationals(value):
    with pytest.raises(InvariantError, match="^radius must be a positive rational$"):
        enumerate_dominant(R("A1"), value)
    with pytest.raises(InvariantError, match="^the global form scale must be a positive rational$"):
        build_root_system(["A1"], scale=value)


@pytest.mark.parametrize("value", [8, Fraction(8, 3), 2.5, Decimal("2.5"), "8/3"])
def test_radius_and_scale_read_exactly(value):
    assert enumerate_dominant(R("A1"), value) == enumerate_dominant(R("A1"), Fraction(value))
    assert build_root_system(["A1"], scale=value).scale == Fraction(value)


def test_weight_serialization_round_trip():
    w = Weight((Fraction(1, 2), -3, 0))  # built past `of`, as the refusals of such a weight print it
    assert w.serialize() == "1/2,-3,0"


def test_global_scale_knob():
    base = R("G2")
    scaled = build_root_system(parse_type_label("G2"), scale=Fraction(1, 24))
    assert scaled.positive_roots == base.positive_roots
    assert w0_word(scaled) == w0_word(base)
    assert scaled.highest_roots == base.highest_roots
    w1 = fundamental(2, 1)
    assert inner_product(scaled, w1, w1) == inner_product(base, w1, w1) / 24
    assert scaled.d == tuple(d / 24 for d in base.d)
    for j in range(1, 3):
        assert inner_product(scaled, rho(scaled), scaled.simple_root(j)) / scaled.d[j - 1] == 1
    assert center_group(scaled).order == center_group(base).order
    with pytest.raises(InvariantError):
        build_root_system(parse_type_label("A1"), scale=0)


# the package builds a product factor by factor; the oracle inverts and replays the whole product
BUILD_CASES = [(label, 1) for label in ALL_LABELS] + [
    ("B2xC3xD6", 1), ("A3xE6", 1), ("x".join(["A1"] * 12), 1), ("E8", 1),
    ("G2", Fraction(3, 2)), ("B2xC3xD6", Fraction(3, 2)), ("A1xG2", Fraction(3, 2)),
]


@pytest.mark.parametrize("label,scale", BUILD_CASES, ids=[f"{label}-{float(s)}" for label, s in BUILD_CASES])
def test_build_equals_the_whole_matrix_build(label, scale):
    R = build_root_system([label], scale)
    ref = reference_root_system([label], scale)
    for name in RootSystem.__slots__:
        assert repr(getattr(R, name)) == repr(getattr(ref, name)), name
    assert [list(map(type, w.coords)) for w in R.positive_roots] == \
        [list(map(type, w.coords)) for w in ref.positive_roots]
    assert R == ref


# every simple label the build cap accepts: A1-A44, B2-B31, C3-C31, D4-D32, E6-E8, F4, G2
ACCEPTED_RANKS = {"A": range(1, 45), "B": range(2, 32), "C": range(3, 32), "D": range(4, 33),
                  "E": range(6, 9), "F": [4], "G": [2]}


@pytest.mark.parametrize("family", sorted(ACCEPTED_RANKS))
def test_det_adjugate_of_every_symmetrized_cartan_matrix(family):
    for n in ACCEPTED_RANKS[family]:
        (t,) = parse_type_label(f"{family}{n}")
        a, d, center, *_ = cartan._plate(t)
        m = [[di * x for x in line] for di, line in zip(d, a)]
        det, adj = cartan._det_adjugate(m)
        product = [[sum(x * adj[k][j] for k, x in enumerate(line) if x) for j in range(n)] for line in m]
        assert product == [[det * (i == j) for j in range(n)] for i in range(n)], t
        # det M = prod d_i * det A, and det A = |P/Q|, the order of the center (Bourbaki's plates)
        assert det == math.prod(d) * math.prod(center), t


def test_positive_root_counts_match_the_build():
    families = {"A": range(1, 9), "B": range(2, 8), "C": range(3, 8), "D": range(4, 9),
                "E": range(6, 9), "F": [4], "G": [2]}
    for family, ranks in families.items():
        for n in ranks:
            (t,) = parse_type_label(f"{family}{n}")
            assert cartan._plate(t)[-1] == len(R(str(t)).positive_roots), t


def test_build_cap_refuses_before_building(monkeypatch):
    # a table costs O(rank): none may be read for a label whose rank is past the cap
    plate = cartan._plate

    def capped_plate(t):
        assert t.rank <= cartan.MAX_BUILD_RANK, f"table read for {t.family}{t.rank}"
        return plate(t)

    monkeypatch.setattr(cartan, "_plate", capped_plate)
    for label in ["A160", "D120", "x".join(["A1"] * 300), "A10000000", "A1xA10000000", "E8xD200"]:
        with pytest.raises(ResourceCapError) as err:
            build_root_system([label])
        assert "build cap" in str(err.value)
    assert build_root_system(["x".join(["E8"] * 4)]).rank == 32
    # the caps are inclusive: at 6 positive roots and rank 3, A3 and G2 build, A1xG2 and A4 do not
    monkeypatch.setattr(cartan, "MAX_BUILD_ROOTS", 6)
    monkeypatch.setattr(cartan, "MAX_BUILD_RANK", 3)
    assert len(build_root_system(["A3"]).positive_roots) == 6
    assert build_root_system(["G2"]).rank == 2
    assert build_root_system(["A1xA1xA1"]).rank == 3
    for label in ["A1xG2", "A4", "A1xA1xA1xA1"]:
        with pytest.raises(ResourceCapError):
            build_root_system([label])


def test_center_element_rejects_bad_length():
    with pytest.raises(InvariantError):
        center_reduce(R("A2"), [1])
