import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qlaplacian
from qlaplacian.cartan import Weight, build_root_system, center_reduce
from qlaplacian.cli import _json_value, _render, _Text, main
from qlaplacian.fodc import Pair, enumerate_fodc_indices


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_spectrum_report(capsys):
    report = run_json(capsys, "spectrum", "--type", "A1", "--term", "mu=1:a=1",
                      "--q", "0.5", "--radius", "2")
    assert report["command"] == "spectrum"
    assert report["radius"] == "2"
    rows = report["rows"]
    assert [(r["lambda"], r["dim"]) for r in rows] == [([0], 1), ([1], 2), ([2], 3)]
    assert rows[0]["eigenvalue"] == 0
    assert abs(rows[1]["eigenvalue"] - 14 / 9) < 1e-11
    assert rows[2]["eigenvalue"] == 5
    assert abs(report["lower_bound"] + 4 / 9) < 1e-11
    assert report["argmin"] == [0]


def test_byte_determinism(capsys):
    args = ("spectrum", "--type", "A2", "--term", "mu=1,0:a=1", "--term", "mu=0,1:a=1",
            "--q", "0.37", "--radius", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    _, csv1, _ = run(capsys, *args, "--format", "csv")
    _, csv2, _ = run(capsys, *args, "--format", "csv")
    assert csv1 == csv2


def test_json_round_trip_reproduces_report(capsys):
    args = ("spectrum", "--type", "G2", "--term", "mu=0,1:a=3/2", "--q", "0.45", "--radius", "8")
    _, out, _ = run(capsys, *args)
    report = json.loads(out)
    terms = [f"mu={','.join(str(c) for c in t['mu'])}:a={t['a']}" for t in report["terms"]]
    rebuilt = ["spectrum", "--type", report["type"], "--q", repr(report["q"]),
               "--radius", report["radius"]]
    for t in terms:
        rebuilt.extend(["--term", t])
    _, out2, _ = run(capsys, *rebuilt)
    assert out2 == out


def test_csv_and_json_carry_identical_numbers(capsys):
    args = ("spectrum", "--type", "A1", "--term", "mu=2:a=1/3", "--q", "0.6", "--radius", "6")
    _, out_json, _ = run(capsys, *args)
    _, out_csv, _ = run(capsys, *args, "--format", "csv")
    rows = json.loads(out_json)["rows"]
    lines = [line for line in out_csv.splitlines() if line and not line.startswith("#")]
    header, *data = lines
    assert header == "lambda,dim,eigenvalue"
    assert len(data) == len(rows)
    for line, row in zip(data, rows):
        lam, dim, ev = line.split(",", 2)
        assert [int(lam)] == row["lambda"]
        assert int(dim) == row["dim"]
        assert ev == format(float(row["eigenvalue"]), ".12g")


def test_center_command(capsys):
    report = run_json(capsys, "center", "--type", "A2")
    assert report["order"] == 3
    assert report["invariant_factors"] == [3]
    assert [r["half_coroot"] for r in report["rows"]] == [True, False, False]
    report = run_json(capsys, "center", "--type", "D4")
    assert report["order"] == 4 and report["invariant_factors"] == [2, 2]


def test_witness_command(capsys):
    report = run_json(capsys, "witness", "--type", "A1", "--mu", "1", "--q", "0.5")
    row, = report["rows"]
    assert row["witness"] == 348.837890625
    assert row["verdict"] == "not quantum Markov"
    report = run_json(capsys, "witness", "--type", "A1xA1", "--mu", "1,1", "--q", "0.5")
    assert report["semisimple_convention"] == "per-factor highest roots summed"


def test_weights_command(capsys):
    report = run_json(capsys, "weights", "--type", "A2", "--mu", "1,0")
    assert report["dim"] == 3
    assert {tuple(r["weight"]) for r in report["rows"]} == {(1, 0), (-1, 1), (0, -1)}
    assert report["norm"] == "2/3"


def test_fodc_commands(capsys):
    report = run_json(capsys, "fodc", "--type", "A1", "--max-height", "1", "--include-center")
    assert report["count"] == 8
    assert report["rows"][1]["pairs"] == [{"zeta": [0], "mu": [1]}]
    report = run_json(capsys, "fodc", "--type", "A2",
                      "--term", "mu=1,0:a=1", "--term", "mu=0,1:a=1")
    assert report["q_laplacian"] is True
    assert report["induced_dimension"] == 18
    report = run_json(capsys, "fodc", "--type", "A2", "--term", "mu=1,0:a=1:zeta=1,0")
    assert report["self_adjoint"] is False
    assert report["functional_class"] == [{"zeta": [0, 2], "mu": [1, 0]}]


def test_pair_renders_like_the_dict_it_replaces():
    R = build_root_system(["A2"])
    zeta, mu = center_reduce(R, [1, 0]), Weight.of([1, 1])
    pair = Pair(zeta, mu)
    assert pair == (zeta, mu) and hash(pair) == hash((zeta, mu))
    as_dict = {"zeta": zeta, "mu": mu}
    for fmt in ("json", "csv"):
        as_pairs = _render({"count": 2, "rows": [{"pairs": (pair, pair), "dimension": 8}]}, fmt)
        as_dicts = _render({"count": 2, "rows": [{"pairs": [as_dict, as_dict], "dimension": 8}]}, fmt)
        assert as_pairs == as_dicts
    assert _render({"rows": [{"pairs": [pair]}]}, "csv") == "pairs\nzeta=0;2|mu=1;1\n"


@pytest.mark.parametrize("label", ["A2", "A1xA1"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fodc_pair_text_renders_like_the_pairs(capsys, label, fmt):
    code, out, err = run(capsys, "fodc", "--type", label, "--max-height", "1", "--include-center", "--format", fmt)
    assert (code, err) == (0, "")
    calculi = enumerate_fodc_indices(build_root_system([label]), 1, include_center=True)
    report = {"command": "fodc", "type": label, "max_height": 1, "include_center": True, "count": len(calculi),
              "rows": [{"pairs": pairs, "dimension": dimension, "star_admissible": star}
                       for pairs, dimension, star in calculi]}
    expected = _render(report, fmt)
    if out != expected:  # name the first differing byte: a diff of one long JSON line takes minutes
        at = len(os.path.commonprefix([out, expected]))
        pytest.fail(f"first difference at byte {at}: {out[at - 40:at + 40]!r} != {expected[at - 40:at + 40]!r}")


def test_text_renders_verbatim():
    assert _json_value({"pairs": _Text('[{"a":"\\"}]')}, {}) == '{"pairs":[{"a":"\\"}]}'


class _OtherText(str):
    pass


# a complex value is one too: `fodc --term` writes a coefficient as {"re": p/q, "im": p/q} itself
@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", range(2), _OtherText("text"), 1j])
def test_json_value_rejects_unknown_types(value):
    with pytest.raises(TypeError, match="cannot render"):
        _json_value(value, {})
    with pytest.raises(TypeError, match="cannot render"):
        _json_value({"rows": [value]}, {})


def test_heat_command(capsys):
    report = run_json(capsys, "heat", "--type", "A1", "--term", "mu=1:a=1",
                      "--q", "0.5", "--radius", "2", "--t-grid", "1,50")
    assert report["quantum_markov"] is False
    first, last = report["rows"]
    expected = 1 + 4 * math.exp(-14 / 9) + 9 * math.exp(-5)
    assert abs(first["trace"] - expected) < 1e-11
    assert abs(last["trace"] - 1.0) < 1e-9


def test_limit_command(capsys):
    report = run_json(capsys, "limit", "--type", "A1", "--term", "mu=1:a=1", "--radius", "2")
    zero_row, *rest = report["rows"]
    assert zero_row["classical"] == "0" and zero_row["ratio_0.99_0.999"] is None
    for row in rest:
        assert 50 <= row["ratio_0.99_0.999"] <= 200
        assert row["err_0.999"] < row["err_0.99"] < row["err_0.9"]


def test_exit_codes(capsys, monkeypatch):
    code, _, err = run(capsys, "center", "--type", "Q7")
    assert code == 1 and "malformed" in err
    code, _, err = run(capsys, "center", "--type", "C2")
    assert code == 2 and "invariant" in err
    monkeypatch.setenv("QLAP_ROW_CAP", "3")
    code, _, err = run(capsys, "spectrum", "--type", "A1", "--term", "mu=1:a=1",
                       "--q", "0.5", "--radius", "100000")
    assert code == 3 and "cap" in err
    monkeypatch.delenv("QLAP_ROW_CAP")
    code, _, err = run(capsys, "spectrum", "--type", "A1", "--q", "0.5", "--radius", "2")
    assert code == 1  # missing --term
    code, _, err = run(capsys, "spectrum", "--type", "A1", "--term", "mu=1:a=1",
                       "--q", "1.5", "--radius", "2")
    assert code == 2  # q out of range
    code, _, err = run(capsys, "spectrum", "--type", "A1", "--term", "mu=1:a=-1",
                       "--q", "0.5", "--radius", "2")
    assert code == 2  # invalid coefficient sign
    for grid in ("nan", "inf", "0.5,-inf"):
        code, out, err = run(capsys, "heat", "--type", "A1", "--term", "mu=1:a=1",
                             "--q", "0.5", "--radius", "2", "--t-grid", grid)
        assert (code, out) == (2, "") and err.startswith("invariant violation:")
    for label, height in (("A1", "20000"), ("E8", "60")):  # capped before the pool is built
        code, out, err = run(capsys, "fodc", "--type", label, "--max-height", height)
        assert (code, out) == (3, "") and err.startswith("resource cap:")
    # $QLAP_ROW_CAP is the one way to set the cap: no command takes a cap option
    for argv in (("spectrum", "--type", "A1", "--term", "mu=1:a=1", "--q", "0.5", "--radius", "2"),
                 ("limit", "--type", "A1", "--term", "mu=1:a=1", "--radius", "2"),
                 ("heat", "--type", "A1", "--term", "mu=1:a=1", "--q", "0.5", "--radius", "2"),
                 ("witness", "--type", "A1", "--mu", "1", "--q", "0.5"),
                 ("fodc", "--type", "A2", "--max-height", "1"), ("fodc", "--type", "A2", "--term", "mu=1,0"),
                 ("center", "--type", "A2"), ("weights", "--type", "A2", "--mu", "1,0")):
        assert run(capsys, *argv)[0] == 0
        for flag in ("--row-cap", "--index-cap"):
            code, out, err = run(capsys, *argv, flag, "5")
            assert (code, out) == (1, "") and err.startswith("usage error: unrecognized arguments: " + flag)


def test_row_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("QLAP_ROW_CAP", "2")
    code, _, err = run(capsys, "spectrum", "--type", "A1", "--term", "mu=1:a=1",
                       "--q", "0.5", "--radius", "1000")
    assert code == 3
    monkeypatch.setenv("QLAP_ROW_CAP", "abc")
    for command in (["spectrum", "--q", "0.5"], ["limit"], ["heat", "--q", "0.5"]):
        code, out, err = run(capsys, *command, "--type", "A1", "--term", "mu=1:a=1", "--radius", "2")
        assert (code, out) == (1, "") and err.startswith("usage error:")


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "center", "--type", "A2", "--output", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["order"] == 3
    code, out, err = run(capsys, "center", "--type", "A2", "--output", str(tmp_path / "missing" / "x"))
    assert (code, out) == (1, "") and err.startswith("usage error:")


def test_closed_stdout_is_a_usage_error():
    # with fd 1 closed the interpreter starts with sys.stdout None; the report has nowhere to go
    env = {**os.environ, "PYTHONPATH": str(Path(qlaplacian.__file__).parents[1])}
    proc = subprocess.run(["sh", "-c", '"$0" -m qlaplacian.cli center --type A2 >&-', sys.executable],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "usage error: standard output is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["weights", "--type", "A2", "--mu", "1,1"], ["center", "--type", "A2"],
                                  ["fodc", "--type", "A2", "--max-height", "1"]])
def test_full_stdout_is_a_usage_error(argv):
    # every write to /dev/full fails with ENOSPC; the report is lost, so the run must say so.
    # Buffered stdout, as in a plain shell: the failed report must not be flushed again at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(qlaplacian.__file__).parents[1])
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qlaplacian.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage error: cannot write standard output")
    assert proc.stderr.count("\n") == 1
