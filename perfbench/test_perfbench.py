"""Tests of the benchmark itself: seeded generation and the output checks.

    python -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json

import pytest

import run
from checks import check_call, check_cli, strict_json
from oracle import lie
from tracer import TRACE_MARK
from workloads import NAMES, SESSION_ROUND, rounds


def _stream(workload: str, seed: int, n_rounds: int = 2) -> str:
    return json.dumps(list(itertools.islice(rounds(workload, seed), n_rounds)), default=str)


@pytest.mark.parametrize("workload", NAMES)
def test_generator_is_deterministic_per_seed(workload):
    assert _stream(workload, 7) == _stream(workload, 7)
    assert _stream(workload, 7) != _stream(workload, 8)


@pytest.mark.parametrize("workload", ["cli-scan", "cli-reps", "cli-calculi"])
def test_rounds_repeat_the_same_slots(workload):
    def heavy(batch):  # the light cli-calculi slot draws among three kinds
        return sorted(r["cmd"] for r in batch if r["cmd"] not in ("fodc-term", "center", "reject"))

    first, second, third = itertools.islice(rounds(workload, 3), 3)
    assert heavy(second) == heavy(third) and len(second) == len(third)
    assert len(first) >= len(second)


def test_session_rounds_hold_the_same_calls_for_every_seed():
    def calls(seed):
        return [sorted((c["fn"], c["type"]) for c in batch) for batch in itertools.islice(rounds("session", seed), 2)]
    a, b = calls(3), calls(4)
    assert a[0] == a[1] == b[0] and len(a[0]) == SESSION_ROUND


def test_oracle_dimensions():
    assert lie("E8").dim((0, 0, 0, 0, 0, 0, 0, 1)) == 248
    assert lie("F4").dim((1, 1, 0, 0)) == 29172
    assert lie("E7").dim((0, 0, 0, 0, 0, 0, 2)) == 1463
    assert lie("A1xG2").dim((1, 1, 0)) == 2 * 7
    assert [len(f.positive_roots) for f in lie("E6xB3").factors] == [36, 9]


def _qlap(*argv) -> tuple[int, bytes, bytes]:
    res = run.run_child(run.CLI + list(argv), run.child_env())
    return res["code"], res["out"], res["err"]


def _spectrum_request():
    radius = lie("A2").sorted_norms(20)[-1][0]
    argv = ["spectrum", "--type", "A2", "--term", "mu=1,0:a=1", "--term", "mu=0,1:a=3/2",
            "--q", "0.5", "--radius", str(radius)]
    return {"cmd": "spectrum", "type": "A2", "terms": [((0, 1), "3/2"), ((1, 0), "1")], "radius": radius,
            "q": "0.5", "exit": 0, "argv": argv}


def _corrupt(out: bytes, edit) -> bytes:
    report = json.loads(out)
    edit(report)
    return json.dumps(report).encode()


def test_checker_accepts_then_rejects_a_corrupted_spectrum():
    req = _spectrum_request()
    code, out, err = _qlap(*req["argv"])
    assert check_cli(req, code, out, err) == []

    def drop_row(r):
        del r["rows"][3]

    def wrong_dim(r):
        r["rows"][2]["dim"] += 1

    def swap_rows(r):
        r["rows"][1], r["rows"][2] = r["rows"][2], r["rows"][1]

    def nonzero_at_origin(r):
        r["rows"][0]["eigenvalue"] = 1e-9

    def below_bound(r):
        r["rows"][5]["eigenvalue"] = r["lower_bound"] - 1

    for edit in (drop_row, wrong_dim, swap_rows, nonzero_at_origin, below_bound):
        assert check_cli(req, code, _corrupt(out, edit), err), edit.__name__
    assert check_cli(req, code, out.replace(b"\"eigenvalue\":0}", b"\"eigenvalue\":NaN}", 1), err)
    assert check_cli(req, 2, b"", b"invariant violation: x\n")


def test_checker_rejects_wrong_weights_and_fodc_counts():
    weights = {"cmd": "weights", "type": "G2", "mu": (1, 1), "exit": 0,
               "argv": ["weights", "--type", "G2", "--mu=1,1"]}
    code, out, err = _qlap(*weights["argv"])
    assert check_cli(weights, code, out, err) == []
    assert check_cli(weights, code, _corrupt(out, lambda r: r["rows"][0].update(mult=r["rows"][0]["mult"] + 1)),
                     err)

    fodc = {"cmd": "fodc", "type": "A1", "h": 2, "center": True, "exit": 0,
            "argv": ["fodc", "--type", "A1", "--max-height", "2", "--include-center"]}
    code, out, err = _qlap(*fodc["argv"])
    assert check_cli(fodc, code, out, err) == []
    assert check_cli(fodc, code, _corrupt(out, lambda r: r["rows"].pop()), err)
    assert check_cli(fodc, code, _corrupt(out, lambda r: r["rows"][5].update(dimension=0)), err)


def test_checker_rejects_wrong_exit_codes():
    reject = {"cmd": "reject", "exit": 1, "argv": ["center", "--type", "Q3"]}
    code, out, err = _qlap(*reject["argv"])
    assert check_cli(reject, code, out, err) == []
    assert check_cli(dict(reject, exit=2), code, out, err)
    assert check_cli(reject, code, b"{}", err)


def test_session_checks_reject_wrong_results():
    dim = {"fn": "dim_irrep", "type": "B3", "lam": [1, 0, 2]}
    assert check_call(dim, lie("B3").dim((1, 0, 2))) == []
    assert check_call(dim, lie("B3").dim((1, 0, 2)) + 1)
    classical = {"fn": "classical_laplacian_eigenvalue", "type": "A2", "lam": [1, 1], "terms": [[[1, 0], "1"]]}
    exact = lie("A2").classical_eigenvalue([((1, 0), 1)], (1, 1))
    assert check_call(classical, str(exact)) == []
    assert check_call(classical, str(exact + 1))
    terms = [[[1, 0], "1"]]
    assert check_call({"fn": "q_laplacian_eigenvalue", "type": "A2", "lam": [0, 0], "terms": terms}, 1e-12)
    assert check_call({"fn": "q_laplacian_eigenvalue", "type": "A2", "lam": [0, 1], "terms": terms}, 0.0)
    assert check_call({"fn": "heat_coefficient", "type": "A2", "lam": [1, 0], "terms": terms}, 1.5)
    assert check_call({"fn": "qms_witness", "type": "A2", "mu": [1, 0]}, {"error": "boom"})


def test_strict_json_refuses_non_finite_numbers():
    for text in (b"NaN", b"[Infinity]", b'{"x": -Infinity}'):
        with pytest.raises(ValueError):
            strict_json(text)


def test_traced_qlap_keeps_stdout_and_spans_parse_render_emit():
    argv = ["fodc", "--type", "A1", "--max-height", "2", "--include-center"]
    plain = run.run_child(run.CLI + argv, run.child_env())
    traced = run.run_child(run.TRACED_CLI + argv, run.child_env())
    assert traced["out"] == plain["out"] and traced["code"] == plain["code"] == 0
    summary = json.loads(traced["err"].rpartition(TRACE_MARK.encode())[2])
    assert {"cli.parse", "cli.render", "cli.emit", "fodc.enumerate"} <= set(summary["spans"])
    assert not any(name == "cli.main" for name in summary["spans"])
    assert summary["entered"] <= summary["left"]
