"""Golden `qlap` outputs: every command in JSON and CSV, pinned byte for byte.

Each case below runs through `qlaplacian.cli.main` once per format.  The
exit code and the stderr prefix (the text up to the first colon) of every
run are recorded in golden/status.json; a run that exits 0 must print
exactly golden/<case>.<format> and nothing on stderr, and a rejected run
must print nothing on stdout.

To rewrite the corpus after an intended output change:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from qlaplacian.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("json", "csv")
ROW_CAP_ENV = "QLAP_ROW_CAP"

A1_TERM = ["--term", "mu=1:a=1"]
A2_TERMS = ["--term", "mu=1,0:a=1", "--term", "mu=0,1:a=1"]
G2_TERM = ["--term", "mu=0,1:a=3/2"]
EIGHT_TIMES = "0.001,0.01,0.05,0.1,0.5,1,2,10"

# name -> (argv, environment overrides)
CASES = {
    # spectrum
    "spectrum_a1": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "2"], {}),
    "spectrum_a2": (["spectrum", "--type", "A2", *A2_TERMS, "--q", "0.37", "--radius", "4"], {}),
    "spectrum_b2_decimal": (["spectrum", "--type", "B2", "--term", "mu=0,1:a=0.75",
                             "--q", "0.3", "--radius", "5"], {}),
    "spectrum_g2": (["spectrum", "--type", "G2", *G2_TERM, "--q", "0.45", "--radius", "8"], {}),
    "spectrum_a1xg2": (["spectrum", "--type", "A1xG2", "--term", "mu=1,1,0:a=1/2",
                        "--q", "0.6", "--radius", "6"], {}),
    "spectrum_a2xg2_lower": (["spectrum", "--type", "a2xg2", "--term", "mu=1,0,0,1:a=1",
                              "--q", "0.5", "--radius", "4"], {}),
    "spectrum_row_cap_ok": (["spectrum", "--type", "A2", *A2_TERMS, "--q", "0.5",
                             "--radius", "3", "--row-cap", "100"], {}),
    "spectrum_env_cap_ok": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "4"],
                            {ROW_CAP_ENV: "50"}),
    # limit
    "limit_a1": (["limit", "--type", "A1", *A1_TERM, "--radius", "2"], {}),
    "limit_a2": (["limit", "--type", "A2", *A2_TERMS, "--radius", "4"], {}),
    "limit_b2xa1": (["limit", "--type", "B2xA1", "--term", "mu=1,0,1:a=2", "--radius", "3"], {}),
    # witness
    "witness_a1": (["witness", "--type", "A1", "--mu", "1", "--mu", "0", "--q", "0.5"], {}),
    "witness_a1xa1": (["witness", "--type", "A1xA1", "--mu", "1,1", "--q", "0.5"], {}),
    "witness_g2": (["witness", "--type", "G2", "--mu", "0,1", "--mu", "1,0", "--q", "0.3"], {}),
    "witness_d4": (["witness", "--type", "D4", "--mu", "0,1,0,0", "--q", "0.7"], {}),
    # fodc enumeration
    "fodc_a1_h1_center": (["fodc", "--type", "A1", "--max-height", "1", "--include-center"], {}),
    "fodc_a2_h0": (["fodc", "--type", "A2", "--max-height", "0"], {}),
    "fodc_a2_h1": (["fodc", "--type", "A2", "--max-height", "1"], {}),
    "fodc_b2_h1_center": (["fodc", "--type", "B2", "--max-height", "1", "--include-center"], {}),
    "fodc_a1xa1_h1": (["fodc", "--type", "A1xA1", "--max-height", "1"], {}),
    # fodc validation
    "fodc_validate_a2": (["fodc", "--type", "A2", *A2_TERMS], {}),
    "fodc_validate_zeta": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1:zeta=1,0"], {}),
    "fodc_validate_complex": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1+2j:zeta=1,0",
                               "--term", "mu=1,0:a=1-2j:zeta=0,1"], {}),
    "fodc_validate_a1xg2": (["fodc", "--type", "A1xG2", "--term", "mu=1,0,0:a=1"], {}),
    # heat
    "heat_a1": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "2",
                 "--t-grid", "1,50"], {}),
    "heat_a2_default_grid": (["heat", "--type", "A2", *A2_TERMS, "--q", "0.5", "--radius", "4"], {}),
    "heat_g2_eight": (["heat", "--type", "G2", "--term", "mu=1,0:a=1", "--q", "0.9", "--radius", "8",
                       "--t-grid", EIGHT_TIMES], {}),
    "heat_a1xa1": (["heat", "--type", "A1xA1", "--term", "mu=1,1:a=1", "--q", "0.4",
                    "--radius", "3", "--t-grid", "0.5,2", "--row-cap", "100"], {}),
    # center
    "center_a2": (["center", "--type", "A2"], {}),
    "center_d4": (["center", "--type", "D4"], {}),
    "center_e6": (["center", "--type", "E6"], {}),
    "center_a1xg2xb3": (["center", "--type", "A1xG2xB3"], {}),
    "center_a2xg2_lower": (["center", "--type", "a2xg2"], {}),
    # weights
    "weights_a2": (["weights", "--type", "A2", "--mu", "1,0"], {}),
    "weights_g2": (["weights", "--type", "G2", "--mu", "0,1"], {}),
    "weights_b2": (["weights", "--type", "B2", "--mu", "1,1"], {}),
    "weights_f4": (["weights", "--type", "F4", "--mu", "0,0,0,1"], {}),
    "weights_a1xa2": (["weights", "--type", "A1xA2", "--mu", "1,1,0"], {}),
    "weights_a2xg2_lower": (["weights", "--type", "a2xg2", "--mu", "1,1,1,0"], {}),
    # rejections: malformed labels and unknown families exit 1, bad ranks exit 2
    **{f"reject_label_{label}": (["center", "--type", label], {})
       for label in ("Q7", "H4", "A2y", "a", "G", "A1xx", "E9x", "C2", "E9")},
    # rejections: weights
    "reject_weights_non_dominant": (["weights", "--type", "A2", "--mu", "1,-1"], {}),
    "reject_witness_non_dominant": (["witness", "--type", "A1", "--mu", "-1", "--q", "0.5"], {}),
    "reject_weights_rank": (["weights", "--type", "A2", "--mu", "1"], {}),
    "reject_term_rank": (["spectrum", "--type", "A1", "--term", "mu=1,0:a=1",
                          "--q", "0.5", "--radius", "2"], {}),
    "reject_zeta_rank": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1:zeta=1"], {}),
    "reject_fodc_mode": (["fodc", "--type", "A2"], {}),
    # rejections: caps
    "reject_spectrum_row_cap": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5",
                                 "--radius", "100000", "--row-cap", "3"], {}),
    "reject_spectrum_env_cap": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5",
                                 "--radius", "1000"], {ROW_CAP_ENV: "2"}),
    "reject_limit_row_cap": (["limit", "--type", "A2", *A2_TERMS, "--radius", "40",
                              "--row-cap", "3"], {}),
    "reject_limit_env_cap": (["limit", "--type", "A2", *A2_TERMS, "--radius", "40"],
                             {ROW_CAP_ENV: "3"}),
    "reject_heat_row_cap": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "50",
                             "--row-cap", "3"], {}),
    "reject_fodc_index_cap": (["fodc", "--type", "A2", "--max-height", "1", "--include-center",
                               "--index-cap", "100"], {}),
    # rejections: heat times
    "reject_heat_t_negative": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "2",
                                "--t-grid", "-1"], {}),
    "reject_heat_t_text": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "2",
                            "--t-grid", "x"], {}),
}


def _run(argv: list[str], env: dict[str, str]) -> tuple[int, str, str]:
    saved = os.environ.pop(ROW_CAP_ENV, None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop(ROW_CAP_ENV, None)
        if saved is not None:
            os.environ[ROW_CAP_ENV] = saved
    return code, out.getvalue(), err.getvalue()


def _stderr_prefix(err: str) -> str:
    return err.split(":", 1)[0] + ":" if err else ""


def _status() -> dict:
    return json.loads((GOLDEN / "status.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, fmt):
    argv, env = CASES[name]
    code, out, err = _run([*argv, "--format", fmt], env)
    expected_code, expected_prefix = _status()[f"{name}.{fmt}"]
    assert (code, _stderr_prefix(err)) == (expected_code, expected_prefix), err
    if code == 0:
        assert err == ""
        assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    else:
        assert out == ""
        assert err.count("\n") == 1


def test_every_golden_file_belongs_to_a_case():
    expected = {f"{name}.{fmt}" for name in CASES for fmt in FORMATS}
    assert set(_status()) == expected
    files = {p.name for p in GOLDEN.iterdir() if p.name != "status.json"}
    assert files <= expected


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.iterdir():
        path.unlink()
    status = {}
    for name in sorted(CASES):
        argv, env = CASES[name]
        for fmt in FORMATS:
            code, out, err = _run([*argv, "--format", fmt], env)
            status[f"{name}.{fmt}"] = [code, _stderr_prefix(err)]
            if code == 0:
                (GOLDEN / f"{name}.{fmt}").write_text(out, encoding="utf-8")
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(status.items())]
    (GOLDEN / "status.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    _regenerate()
