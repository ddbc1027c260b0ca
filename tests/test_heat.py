import math
import sys

import pytest

from qlaplacian.cartan import Weight, build_root_system, parse_type_label
from qlaplacian.errors import InvariantError
from qlaplacian.heat import heat_coefficient, heat_trace_report, markov_verdict
from qlaplacian.spectra import LaplacianSpec, q_laplacian_eigenvalue


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
    assert heat_coefficient(A1, SPEC, Weight.zero(1), 0.5, sys.float_info.max) == 1.0


def test_heat_trace_examples():
    # radius below the smallest fundamental norm leaves only the trivial block
    for t in (0.5, 2.0):
        assert heat_trace_report(A1, SPEC, 0.5, [t], "1/4")[0][0] == 1.0
    got = heat_trace_report(A1, SPEC, 0.5, [1.0], 2)[0][0]
    expected = 1 + 4 * math.exp(-14 / 9) + 9 * math.exp(-5)
    assert rel_close(got, expected)
    assert heat_trace_report(A1, SPEC, 0.5, [10.0], 2)[0][0] < heat_trace_report(A1, SPEC, 0.5, [1.0], 2)[0][0]
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvariantError):
            heat_trace_report(A1, SPEC, 0.5, [bad], 2)
    # every block (0, k) of A1xA1 has eigenvalue 0 when no term touches the second factor
    with pytest.raises(InvariantError, match=r"factor 2 \(A1\)"):
        heat_trace_report(R("A1xA1"), LaplacianSpec.of([(Weight.of([1, 0]), 1)]), 0.5, [1.0], 8)


def test_heat_trace_monotone_and_limits():
    values = [heat_trace_report(A1, SPEC, 0.5, [t], 8)[0][0] for t in (0.25, 0.5, 1.0, 2.0, 5.0, 50.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v >= 1.0 for v in values)
    assert abs(values[-1] - 1.0) < 1e-9


def test_heat_trace_report_estimates_boundary():
    (trace, estimate), = heat_trace_report(A1, SPEC, 0.5, [1.0], 2)
    assert rel_close(trace, 1 + 4 * math.exp(-14 / 9) + 9 * math.exp(-5))
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
    assert [trace for trace, _ in pairs] == [heat_trace_report(A1, SPEC, 0.5, [t], 2)[0][0] for t in times]
    with pytest.raises(InvariantError):
        heat_trace_report(A1, SPEC, 0.5, [1.0, math.nan], 2)


def test_markov_verdict_is_negative_for_laplacians():
    for label, spec in [("A1", SPEC),
                        ("A2", LaplacianSpec.of([(Weight.of([1, 0]), 1), (Weight.of([0, 1]), 1)]))]:
        verdict = markov_verdict(R(label), spec, 0.5)
        assert not verdict.quantum_markov
        assert all(w > 0 for mu, w in verdict.witnesses if not mu.is_zero)
