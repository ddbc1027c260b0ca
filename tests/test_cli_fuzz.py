"""Grammar fuzz test: every drawn `qlap` invocation ends in a documented exit code.

Draws argument vectors for every command: `spectrum`, `witness`, `heat` and
`limit` with extreme q values, coefficients, radii and times; `fodc`
validation with rational and complex coefficients (non-finite ones included)
and enumeration with small heights; `center` on good and bad labels;
`weights` with coordinates in 0..2 on labels of rank at most 4.  Every
invocation sets $QLAP_ROW_CAP to a drawn cap or leaves it unset, and runs in
JSON and in CSV.  Each run must exit 0, 1, 2 or 3 and print no traceback,
and both formats must end in the same exit code.  On success JSON output
must be strict (`inf` and `nan` are rejected) and CSV output must name no
non-finite number.  The search is derandomized and bounded, so the test is
deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qlaplacian.cli import main

ROW_CAP_ENV = "QLAP_ROW_CAP"
TYPES = {"A1": 1, "A2": 2, "B2": 2, "G2": 2, "A1xA1": 2, "A1xG2": 3}
# weights draws coordinates up to 2, and F4 (2,2,2,2) alone has 219,529 weights (seconds
# to build), so the weights labels stop at A4 and D4
WEIGHT_TYPES = {**TYPES, "A3": 3, "B3": 3, "C3": 3, "A4": 4, "D4": 4}
# ranks past the build cap at any length: past a C ssize_t, past the digits an int may be read
# from, and eleven factors whose ranks add up past the digits an int may print
CENTER_TYPES = {**WEIGHT_TYPES, "D5": 5, "E6": 6, "E7": 7, "E8": 8, "F4": 4, "C2": 2, "Q7": 7, "E9": 9,
                "A10000000": 10**7, "A" + "9" * 4000: 10**4000 - 1, "A" + "9" * 5000: 10**5000 - 1,
                "x".join(["A" + "9" * 4299] * 11): 11 * (10**4299 - 1)}

Q_TEXTS = ["0.5", "0.37", "0.999", "0.9999999999999999", "1", "1e-12", "1e-300", "5e-324",
           "0", "-0.5", "1.5", "nan", "inf", "abc"]
COEFF_TEXTS = ["1", "3/2", "0.75", "1e308", "1e400", "1e-400", "1e-5000", "1e999999999",
               "0", "-1", "1/0", "nan", "x", "1+2j"]
COMPLEX_TEXTS = ["1+2j", "1-2j", "2j", "-1j", "1e308+1e308j", "nanj", "infj", "-infj", "1e400j",
                 "1+nanj", "1e-400j", "j", "1+j2"]
RADIUS_TEXTS = ["1", "2", "7/2", "5", "0", "-1", "1e-5000", "1/0", "r"]
CAP_TEXTS = ["-1", "0", "1", "3", "1000000", "x"]
TIME_TEXTS = ["0.5", "2", "1e308", "1e-300", "-1", "0", "nan", "inf", "t"]
NON_FINITE = {"nan", "nanj", "inf", "infj", "infinity"}


def _number(texts):
    return st.one_of(st.sampled_from(texts),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr))


def _vector(draw, rank, lo=-1, hi=2):
    """A comma-separated integer vector, usually of the given rank and sometimes one longer."""
    length = draw(st.sampled_from([rank] * 4 + [rank + 1]))
    return ",".join(map(str, draw(st.lists(st.integers(lo, hi), min_size=length, max_size=length))))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["spectrum", "witness", "heat", "limit"]))
    label = draw(st.sampled_from(sorted(TYPES)))
    rank = TYPES[label]
    argv = [command, "--type", label]
    if command == "witness":
        for _ in range(draw(st.integers(1, 2))):
            argv += ["--mu", _vector(draw, rank)]
    else:
        for mu in sorted({_vector(draw, rank) for _ in range(draw(st.integers(1, 2)))}):
            argv += ["--term", f"mu={mu}:a={draw(_number(COEFF_TEXTS))}"]
        argv += ["--radius", draw(st.sampled_from(RADIUS_TEXTS))]
    if command != "limit":
        argv += ["--q", draw(_number(Q_TEXTS))]
    if command == "heat":
        argv += ["--t-grid", ",".join(draw(st.lists(st.sampled_from(TIME_TEXTS), min_size=1, max_size=3)))]
    env_cap = draw(st.one_of(st.none(), st.sampled_from(CAP_TEXTS)))
    return argv, env_cap


@st.composite
def report_invocations(draw):
    command = draw(st.sampled_from(["fodc", "fodc", "center", "weights"]))
    types = {"fodc": TYPES, "center": CENTER_TYPES, "weights": WEIGHT_TYPES}[command]
    label = draw(st.sampled_from(sorted(types)))
    rank = types[label]
    argv = [command, "--type", label]
    if command == "weights":
        argv += ["--mu", _vector(draw, rank, hi=2)]
    elif command == "fodc" and draw(st.booleans()):
        argv += ["--max-height", str(draw(st.integers(-1, 1)))]
        if draw(st.booleans()):
            argv += ["--include-center"]
    elif command == "fodc":
        for _ in range(draw(st.integers(1, 3))):
            term = f"mu={_vector(draw, rank)}"
            if draw(st.booleans()):
                term += f":a={draw(st.one_of(st.sampled_from(COMPLEX_TEXTS), _number(COEFF_TEXTS)))}"
            if draw(st.booleans()):
                term += f":zeta={_vector(draw, rank, lo=0)}"
            argv += ["--term", term]
    return argv, draw(st.one_of(st.none(), st.sampled_from(CAP_TEXTS)))


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _run(argv, env_cap):
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
    if code != 0:
        assert out.getvalue() == ""
    return code, out.getvalue()


def _check(argv, env_cap):
    json_code, text = _run([*argv, "--format", "json"], env_cap)
    if json_code == 0:
        json.loads(text, parse_constant=_reject_constant)
    csv_code, text = _run([*argv, "--format", "csv"], env_cap)
    assert not NON_FINITE & {word.lower() for word in re.findall(r"[A-Za-z]+", text)}, text
    assert csv_code == json_code


FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=300)
@given(invocations())
def test_every_invocation_ends_in_a_documented_exit_code(invocation):
    _check(*invocation)


@settings(FUZZ, max_examples=200)
@given(report_invocations())
@example((["fodc", "--type", "A2", "--term", "mu=1,0:a=nanj"], None))
@example((["fodc", "--type", "A2", "--term", "mu=1,0:a=1e400j"], None))
@example((["fodc", "--type", "E8", "--term", "mu=" + ",".join([str(10**20)] * 8) + ":a=1"], None))
def test_every_report_invocation_ends_in_a_documented_exit_code(invocation):
    _check(*invocation)
