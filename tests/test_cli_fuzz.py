"""Grammar fuzz test: every drawn `qlap` invocation ends in a documented exit code.

Draws `spectrum`, `witness`, `heat` and `limit` argument vectors with
extreme q values, coefficients, radii, times and row caps (flag and
$QLAP_ROW_CAP).  Each run must exit 0, 1, 2 or 3, print no traceback, and
on success print strict JSON: `inf` and `nan` are rejected.  The search is
derandomized and bounded, so the test is deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlaplacian.cli import main

ROW_CAP_ENV = "QLAP_ROW_CAP"
TYPES = {"A1": 1, "A2": 2, "B2": 2, "G2": 2, "A1xA1": 2, "A1xG2": 3}

Q_TEXTS = ["0.5", "0.37", "0.999", "0.9999999999999999", "1", "1e-12", "1e-300", "5e-324",
           "0", "-0.5", "1.5", "nan", "inf", "abc"]
COEFF_TEXTS = ["1", "3/2", "0.75", "1e308", "1e400", "1e-400", "1e-5000", "1e999999999",
               "0", "-1", "1/0", "nan", "x", "1+2j"]
RADIUS_TEXTS = ["1", "2", "7/2", "5", "0", "-1", "1e-5000", "1/0", "r"]
CAP_TEXTS = ["-1", "0", "1", "3", "1000000", "x"]
TIME_TEXTS = ["0.5", "2", "1e308", "1e-300", "-1", "0", "nan", "inf", "t"]


def _number(texts):
    return st.one_of(st.sampled_from(texts),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["spectrum", "witness", "heat", "limit"]))
    label = draw(st.sampled_from(sorted(TYPES)))
    rank = draw(st.sampled_from([TYPES[label]] * 4 + [TYPES[label] + 1]))
    weight = st.lists(st.integers(-1, 2), min_size=rank, max_size=rank).map(
        lambda c: ",".join(map(str, c)))
    argv = [command, "--type", label]
    if command == "witness":
        for mu in draw(st.lists(weight, min_size=1, max_size=2)):
            argv += ["--mu", mu]
    else:
        for mu in draw(st.lists(weight, min_size=1, max_size=2, unique=True)):
            argv += ["--term", f"mu={mu}:a={draw(_number(COEFF_TEXTS))}"]
        argv += ["--radius", draw(st.sampled_from(RADIUS_TEXTS))]
        if draw(st.booleans()):
            argv += ["--row-cap", draw(st.sampled_from(CAP_TEXTS))]
    if command != "limit":
        argv += ["--q", draw(_number(Q_TEXTS))]
    if command == "heat":
        argv += ["--t-grid", ",".join(draw(st.lists(st.sampled_from(TIME_TEXTS), min_size=1, max_size=3)))]
    env_cap = draw(st.one_of(st.none(), st.sampled_from(CAP_TEXTS)))
    return argv, env_cap


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_ends_in_a_documented_exit_code(invocation):
    argv, env_cap = invocation
    saved = os.environ.pop(ROW_CAP_ENV, None)
    if env_cap is not None:
        os.environ[ROW_CAP_ENV] = env_cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop(ROW_CAP_ENV, None)
        if saved is not None:
            os.environ[ROW_CAP_ENV] = saved
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
