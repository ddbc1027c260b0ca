"""Hostile values from a library caller end in `InvariantError`, within a time limit.

The seed of one refusal table for the public API: each row is a call that
passes one value the README's reading rules refuse. A center class is read
by `Weight.of`'s integer rule, so 0.5 is no class; a weight is a sequence of
coordinates, so `None`, a bare number and text (which would be read one
character at a time) are refused; q and heat times are read by `float`, so
what `float` cannot read or hold is refused, and NaN by the range check.
Each row used to end in a bare `TypeError`, `ValueError`, `OverflowError` or
`decimal.InvalidOperation`, or returned a truncated class.
"""

from __future__ import annotations

import math
import signal
import time
from decimal import Decimal

import pytest

from qlaplacian import (
    GeneralFunctionalSpec,
    InvariantError,
    LaplacianSpec,
    Weight,
    build_root_system,
    center_reduce,
    heat_coefficient,
    heat_trace_report,
    markov_verdict,
    q_laplacian_eigenvalue,
    spectrum_scan,
)
from qlaplacian.spectra import log_q

LIMIT_S = 5.0  # every row is refused before any work, in well under a millisecond

A2 = build_root_system(["A2"])
SPEC = LaplacianSpec.of([((1, 0), 1), ((0, 1), 1)])
LAM = Weight.of([1, 0])

HOSTILE = {
    # a center class, through `Weight.of`'s integer rule
    "center_reduce-half": lambda: center_reduce(A2, [0.5, 0]),
    "center_reduce-2.7": lambda: center_reduce(A2, [2.7, 0]),
    "center_reduce-nan": lambda: center_reduce(A2, [math.nan, 0]),
    "center_reduce-None-coordinate": lambda: center_reduce(A2, [None, 0]),
    "center_reduce-text-coordinate": lambda: center_reduce(A2, ["1/2", 0]),
    "center_reduce-text": lambda: center_reduce(A2, "12"),
    # a weight is a sequence of coordinates
    "Weight.of-None": lambda: Weight.of(None),
    "Weight.of-int": lambda: Weight.of(5),
    "Weight.of-text": lambda: Weight.of("10"),
    "LaplacianSpec.of-None-weight": lambda: LaplacianSpec.of([(None, 1)]),
    "LaplacianSpec.of-text-weight": lambda: LaplacianSpec.of([("10", 1)]),
    "GeneralFunctionalSpec.of-None-weight": lambda: GeneralFunctionalSpec.of([((0, 0), None, 1)]),
    # q, read by float
    "log_q-None": lambda: log_q(None),
    "log_q-text": lambda: log_q("x"),
    "log_q-list": lambda: log_q([1]),
    "log_q-huge-int": lambda: log_q(10 ** 400),
    "q_laplacian_eigenvalue-None-q": lambda: q_laplacian_eigenvalue(A2, SPEC, LAM, None),
    "spectrum_scan-text-q": lambda: spectrum_scan(A2, SPEC, "x", 2),
    "markov_verdict-list-q": lambda: markov_verdict(A2, SPEC, [0.5]),
    # heat times, read by float
    "heat_coefficient-text-t": lambda: heat_coefficient(A2, SPEC, LAM, 0.5, "x"),
    "heat_coefficient-Decimal-nan-t": lambda: heat_coefficient(A2, SPEC, LAM, 0.5, Decimal("NaN")),
    "heat_coefficient-huge-t": lambda: heat_coefficient(A2, SPEC, LAM, 0.5, 10 ** 400),
    "heat_trace_report-text-t": lambda: heat_trace_report(A2, SPEC, 0.5, ["x"], 2),
    "heat_trace_report-Decimal-nan-t": lambda: heat_trace_report(A2, SPEC, 0.5, [Decimal("NaN")], 2),
}


def _expire(*_):
    raise TimeoutError(f"no refusal within {LIMIT_S} s")


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_value_raises_invariant_error_in_time(name):
    timed = hasattr(signal, "setitimer")  # stops a row that would run without bound, where the OS allows
    if timed:
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    start = time.perf_counter()
    try:
        with pytest.raises(InvariantError):
            HOSTILE[name]()
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < LIMIT_S


def test_accepted_values_keep_their_meaning():
    """The rules refuse only what they name: a bool is its number, and split text is a weight."""
    assert center_reduce(A2, [True, 0]) == center_reduce(A2, [1, 0])
    assert Weight.of("1,0".split(",")) == LAM
    assert log_q(Decimal("0.5")) == math.log(0.5)
    assert heat_coefficient(A2, SPEC, LAM, 0.5, True) == heat_coefficient(A2, SPEC, LAM, 0.5, 1)
    assert heat_coefficient(A2, SPEC, LAM, 0.5, Decimal(2)) == heat_coefficient(A2, SPEC, LAM, 0.5, 2.0)
