import itertools
import random
from fractions import Fraction

import pytest

from qlaplacian.cartan import Weight, build_root_system, minus_w0, parse_type_label
from qlaplacian.errors import InvariantError, ResourceCapError
from qlaplacian.weights import _orbit_size, _root_table, _weyl_orbit, dim_irrep, weight_system

from oracles import (
    apply_w0,
    brute_weyl_group,
    direct_character_value,
    reference_dominant_weights,
    reference_orbit,
    weyl_character_value,
)
from test_cartan import ALL_LABELS


def R(label):
    return build_root_system(parse_type_label(label))


def dominant_up_to(r, height):
    for coords in itertools.product(range(height + 1), repeat=r.rank):
        if sum(coords) <= height:
            yield Weight.of(coords)


def test_a1_two_dimensional():
    r = R("A1")
    ws = weight_system(r, Weight.of([1]))
    assert dict(ws.entries) == {Weight.of([1]): 1, Weight.of([-1]): 1}


def test_a2_vector_representation():
    r = R("A2")
    ws = weight_system(r, Weight.of([1, 0]))
    mu = Weight.of([1, 0])
    expected = {mu, mu - r.simple_root(1), mu - r.simple_root(1) - r.simple_root(2)}
    assert dict(ws.entries) == {w: 1 for w in expected}


def test_a2_adjoint_is_roots_plus_double_zero():
    r = R("A2")
    ws = weight_system(r, Weight.of([1, 1]))
    expected = {b: 1 for b in r.positive_roots}
    expected.update({-b: 1 for b in r.positive_roots})
    expected[Weight.zero(2)] = 2
    assert dict(ws.entries) == expected


def test_zero_weight_is_singleton():
    for label in ["A1", "G2", "A1xA1"]:
        r = R(label)
        ws = weight_system(r, Weight.zero(r.rank))
        assert ws.entries == ((Weight.zero(r.rank), 1),)


def test_dimension_examples():
    r = R("A1")
    for n in range(9):
        assert dim_irrep(r, Weight.of([n])) == n + 1
    assert dim_irrep(R("A2"), Weight.of([1, 1])) == 8
    for label in ["A2", "B3", "G2"]:
        assert dim_irrep(R(label), Weight.zero(R(label).rank)) == 1


def test_multiplicity_sum_matches_dimension():
    cases = {"A2": 3, "B2": 3, "G2": 3, "B3": 2, "A1xA1": 3}
    for label, height in cases.items():
        r = R(label)
        for mu in dominant_up_to(r, height):
            assert weight_system(r, mu).dimension == dim_irrep(r, mu), (label, mu)


def test_adjoint_dimension_is_rank_plus_roots():
    for label in ["A1", "A2", "A3", "B2", "B3", "C3", "D4", "D5", "E6", "E7", "E8", "F4", "G2"]:
        r = R(label)
        gamma = r.highest_roots[0]
        assert dim_irrep(r, gamma) == r.rank + 2 * len(r.positive_roots), label


def test_weyl_invariance_of_multiplicities():
    for label in ["A2", "B2", "G2"]:
        r = R(label)
        ws = weight_system(r, Weight.of([2, 1]))
        mult = dict(ws.entries)
        for w, m in ws:
            for j in range(1, r.rank + 1):
                assert mult.get(r.reflect(w, j), 0) == m


def test_extreme_weights_have_multiplicity_one():
    for label in ["A2", "B2", "G2"]:
        r = R(label)
        for mu in dominant_up_to(r, 3):
            mult = dict(weight_system(r, mu).entries)
            assert mult.get(mu, 0) == 1
            lowest = apply_w0(r, mu)
            assert mult.get(lowest, 0) == 1


def test_dual_weight_system_is_negated():
    for label, mu in [("A2", (1, 0)), ("A2", (2, 1)), ("A3", (1, 0, 0)), ("D5", (0, 0, 0, 1, 0))]:
        r = R(label)
        mu = Weight.of(mu)
        ws = weight_system(r, mu)
        dual = weight_system(r, minus_w0(r, mu))
        assert dict(dual.entries) == {-w: m for w, m in ws}


def test_weights_lie_below_highest():
    r = R("B2")
    for mu in dominant_up_to(r, 3):
        ws = weight_system(r, mu)
        for w, _ in ws:
            diff = mu - w
            # coefficients in the simple-root basis: m_j = (diff, w_j)/d_j
            for j in range(r.rank):
                c = sum(Fraction(r.form[i][j], r.denominator) * diff.coords[i]
                        for i in range(r.rank)) / r.d[j]
                assert c.denominator == 1 and c >= 0


def test_character_oracle_spot_check():
    rng = random.Random(11)
    for label in ["A1", "A2", "B2", "G2"]:
        r = R(label)
        weyl = brute_weyl_group(r)
        for mu in dominant_up_to(r, 3):
            # strictly dominant t keeps the alternating denominator nonzero
            t = tuple(Fraction(rng.randint(1, 9), rng.randint(10, 19)) for _ in range(r.rank))
            direct = direct_character_value(r, weight_system(r, mu), t)
            alternating = weyl_character_value(r, weyl, mu, t)
            assert abs(direct - alternating) <= 1e-8 * max(1.0, abs(direct)), (label, mu)


def test_rejections():
    r = R("A2")
    with pytest.raises(InvariantError):
        weight_system(r, Weight.of([-1, 0]))
    with pytest.raises(InvariantError):
        weight_system(r, Weight((Fraction(1, 2), 0)))
    with pytest.raises(InvariantError):
        dim_irrep(r, Weight.of([1]))


def test_row_cap_is_met_exactly_by_the_distinct_weights(monkeypatch):
    # the descent adds up the orbit sizes, and a weight system has one row per distinct weight
    build = weight_system.__wrapped__  # bypasses the cache
    for label, mu in [("A2", (1, 1)), ("G2", (2, 1)), ("A1xB2", (1, 0, 1)), ("F4", (1, 0, 0, 1))]:
        r, mu = R(label), Weight.of(mu)
        monkeypatch.delenv("QLAP_ROW_CAP", raising=False)
        cached = weight_system(r, mu)
        monkeypatch.setenv("QLAP_ROW_CAP", str(len(cached)))
        assert build(r, mu).entries == cached.entries
        monkeypatch.setenv("QLAP_ROW_CAP", str(len(cached) - 1))
        with pytest.raises(ResourceCapError):
            build(r, mu)
        # a system already built is returned whatever the cap says now
        assert weight_system(r, mu) is cached


def test_cache_is_keyed_by_value():
    a = build_root_system(parse_type_label("A2"))
    b = build_root_system(parse_type_label("A2"))
    assert weight_system(a, Weight.of([1, 1])) is weight_system(b, Weight.of([1, 1]))


@pytest.mark.parametrize("label, scale", [(label, 1) for label in ALL_LABELS]
                         + [("A2xB2", 1), ("A1xA1xA1", 1), ("G2xA1", Fraction(3, 2))])
def test_descent_finds_the_box_walk_dominant_weights(label, scale):
    r = build_root_system([label], scale)
    for mu in dominant_up_to(r, 3 if r.rank <= 2 else 2):
        dominant = {w for w, _ in weight_system(r, mu) if w.is_dominant}
        assert dominant == reference_dominant_weights(r, mu), (label, mu)


@pytest.mark.parametrize("label", ALL_LABELS + ["B2xA1"])
def test_orbit_tree_makes_each_weight_of_the_orbit_once(label):
    r = build_root_system([label])
    roots = _root_table(r)
    for nu in dominant_up_to(r, 2):
        orbit = list(_weyl_orbit(r, nu))
        assert len(set(orbit)) == len(orbit), (label, nu)
        assert set(orbit) == reference_orbit(r, nu), (label, nu)
        assert _orbit_size(roots, nu) == len(orbit), (label, nu)


@pytest.mark.parametrize("label, mu, distinct", [
    ("E6", (0, 0, 1, 0, 0, 0), 243),
    ("E7", (0, 0, 0, 0, 0, 0, 2), 939),
    ("E8", (0, 0, 0, 0, 0, 0, 0, 1), 241),
    # the orbits of 2w8, w7, w1, w8 and 0: 240 + 6720 + 2160 + 240 + 1
    ("E8", (0, 0, 0, 0, 0, 0, 0, 2), 9361),
    ("F4", (1, 1, 0, 0), 1801),
])
def test_large_representations(label, mu, distinct):
    r = R(label)
    ws = weight_system(r, Weight.of(mu))
    assert ws.dimension == dim_irrep(r, Weight.of(mu))
    assert len(ws) == distinct
