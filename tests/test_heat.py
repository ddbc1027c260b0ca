import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from qlaplacian.cartan import Weight, build_root_system, parse_type_label
from qlaplacian.errors import InvariantError
from qlaplacian.heat import (
    BlockCoefficients,
    apply_heat,
    heat_coefficient,
    heat_trace,
    heat_trace_report,
    markov_verdict,
)
from qlaplacian.spectra import LaplacianSpec, q_laplacian_eigenvalue

from oracles import blocks_from_json, blocks_to_json


def R(label):
    return build_root_system(parse_type_label(label))


A1 = R("A1")
SPEC = LaplacianSpec.of([(Weight.of([1]), 1)])


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_heat_coefficient_examples():
    for lam in (Weight.of([0]), Weight.of([3])):
        assert heat_coefficient(A1, SPEC, lam, 0.5, 0.0) == 1.0
    for t in (0.0, 1.0, 12.5):
        assert heat_coefficient(A1, SPEC, Weight.zero(1), 0.5, t) == 1.0
    assert rel_close(heat_coefficient(A1, SPEC, Weight.of([1]), 0.5, 1.0), math.exp(-14 / 9))
    with pytest.raises(InvariantError):
        heat_coefficient(A1, SPEC, Weight.of([1]), 0.5, -0.1)


def test_heat_time_must_be_nonnegative_and_finite():
    # t = inf gave nan at lam = 0, where the value is 1, and t = NaN gave nan at every lam
    for t in (math.inf, math.nan, -math.inf, -0.1):
        for lam in (Weight.zero(1), Weight.of([1])):
            with pytest.raises(InvariantError, match="^heat time must be nonnegative and finite, got "):
                heat_coefficient(A1, SPEC, lam, 0.5, t)
        # with no block to scale too, as a bad q is refused there
        for blocks in (BlockCoefficients.of(A1, {(0,): [[5]]}), BlockCoefficients(())):
            with pytest.raises(InvariantError, match="^heat time must be nonnegative and finite, got "):
                apply_heat(A1, SPEC, blocks, 0.5, t)
    assert heat_coefficient(A1, SPEC, Weight.zero(1), 0.5, sys.float_info.max) == 1.0
    assert apply_heat(A1, SPEC, BlockCoefficients(()), 0.5, 2.0) == BlockCoefficients(())


def test_apply_heat_examples():
    zero_block = BlockCoefficients.of(A1, {(1,): [[0, 0], [0, 0]]})
    out = apply_heat(A1, SPEC, zero_block, 0.5, 3.0)
    assert out.blocks[0][1] == ((0j, 0j), (0j, 0j))

    block = BlockCoefficients.of(A1, {(1,): [[1 + 2j, 3], [0, -1j]], (0,): [[5]]})
    identity = apply_heat(A1, SPEC, block, 0.5, 0.0)
    assert identity == block
    out = apply_heat(A1, SPEC, block, 0.5, 1.0)
    c = math.exp(-14 / 9)
    assert abs(out.blocks[1][1][0][0] - (1 + 2j) * c) < 1e-15
    assert out.blocks[0][1][0][0] == 5  # the trivial block is untouched


def test_apply_heat_semigroup_law():
    rng = random.Random(13)
    blocks = {}
    for lam in [(0,), (1,), (2,)]:
        n = len(blocks) + 1
        blocks[lam] = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
                       for _ in range(n)]
    coeffs = BlockCoefficients.of(A1, blocks)
    for s, t in [(0.3, 0.7), (1.0, 2.5)]:
        once = apply_heat(A1, SPEC, coeffs, 0.5, s + t)
        twice = apply_heat(A1, SPEC, apply_heat(A1, SPEC, coeffs, 0.5, s), 0.5, t)
        for (lam1, m1), (lam2, m2) in zip(once.blocks, twice.blocks):
            assert lam1 == lam2
            for r1, r2 in zip(m1, m2):
                for v1, v2 in zip(r1, r2):
                    assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_block_shape_validation():
    with pytest.raises(InvariantError):
        BlockCoefficients.of(A1, {(1,): [[1]]})  # dim V(w1) = 2
    with pytest.raises(InvariantError):
        BlockCoefficients.of(A1, [((1,), [[1, 0], [0, 1]]), ((1,), [[2, 0], [0, 2]])])


def test_block_entries_are_finite_numbers():
    for bad in ["x", "1+2j", None, True, math.nan, -math.inf, complex(1, math.inf), Decimal("NaN"),
                Fraction(10**400), b"1"]:
        with pytest.raises(InvariantError, match="^an entry of the matrix of block 2 is not a finite number$"):
            BlockCoefficients.of(A1, [((0,), [[1]]), ((1,), [[1, 0], [0, bad]])])
    # entries stay floats
    coeffs = BlockCoefficients.of(A1, [((0,), [[Fraction(1, 2)]]), ((1,), [[1, Decimal("0.25")], [2.5, 1j]])])
    assert coeffs.blocks == ((Weight((0,)), ((0.5 + 0j,),)), (Weight((1,)), ((1 + 0j, 0.25 + 0j), (2.5 + 0j, 1j))))


def test_heat_trace_examples():
    # radius below the smallest fundamental norm leaves only the trivial block
    for t in (0.5, 2.0):
        assert heat_trace(A1, SPEC, 0.5, t, "1/4") == 1.0
    got = heat_trace(A1, SPEC, 0.5, 1.0, 2)
    expected = 1 + 4 * math.exp(-14 / 9) + 9 * math.exp(-5)
    assert rel_close(got, expected)
    assert heat_trace(A1, SPEC, 0.5, 10.0, 2) < heat_trace(A1, SPEC, 0.5, 1.0, 2)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvariantError):
            heat_trace(A1, SPEC, 0.5, bad, 2)
    # every block (0, k) of A1xA1 has eigenvalue 0 when no term touches the second factor
    with pytest.raises(InvariantError, match=r"factor 2 \(A1\)"):
        heat_trace(R("A1xA1"), LaplacianSpec.of([(Weight.of([1, 0]), 1)]), 0.5, 1.0, 8)


def test_heat_trace_monotone_and_limits():
    values = [heat_trace(A1, SPEC, 0.5, t, 8) for t in (0.25, 0.5, 1.0, 2.0, 5.0, 50.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v >= 1.0 for v in values)
    assert abs(values[-1] - 1.0) < 1e-9


def test_heat_trace_report_estimates_boundary():
    (trace, estimate), = heat_trace_report(A1, SPEC, 0.5, [1.0], 2)
    assert rel_close(trace, heat_trace(A1, SPEC, 0.5, 1.0, 2))
    boundary_eigenvalue = q_laplacian_eigenvalue(A1, SPEC, Weight.of([2]), 0.5)
    assert rel_close(estimate, 9 * math.exp(-boundary_eigenvalue))


def test_heat_trace_report_scans_once_per_grid(monkeypatch):
    import qlaplacian.heat as heat

    scans = []
    real_scan = heat.spectrum_scan
    monkeypatch.setattr(heat, "spectrum_scan", lambda *a, **kw: scans.append(a) or real_scan(*a, **kw))
    times = [0.25, 1.0, 4.0]
    pairs = heat_trace_report(A1, SPEC, 0.5, times, 2)
    assert len(scans) == 1
    assert [trace for trace, _ in pairs] == [heat_trace(A1, SPEC, 0.5, t, 2) for t in times]
    with pytest.raises(InvariantError):
        heat_trace_report(A1, SPEC, 0.5, [1.0, math.nan], 2)


def test_block_json_round_trip():
    import json

    coeffs = BlockCoefficients.of(A1, {(0,): [[2]], (1,): [[1 + 1j, 0], [0.5, -3j]]})
    payload = json.dumps(blocks_to_json(coeffs))
    assert blocks_from_json(A1, json.loads(payload)) == coeffs
    # a weight built with Fraction coordinates still renders as JSON integers
    rational = BlockCoefficients.of(A1, [(Weight((Fraction(2),)), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])])
    assert json.dumps(blocks_to_json(rational)).startswith('[{"lambda": [2], ')


def test_markov_verdict_is_negative_for_laplacians():
    for label, spec in [("A1", SPEC),
                        ("A2", LaplacianSpec.of([(Weight.of([1, 0]), 1), (Weight.of([0, 1]), 1)]))]:
        verdict = markov_verdict(R(label), spec, 0.5)
        assert not verdict.quantum_markov
        assert all(w > 0 for mu, w in verdict.witnesses if not mu.is_zero)
