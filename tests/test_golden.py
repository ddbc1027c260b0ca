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
import hashlib
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
A1_POWER_40 = "x".join(["A1"] * 40)
A1_POWER_300 = "x".join(["A1"] * 300)
# ranks past the build cap at any length: 5000 digits is past the 4300 digits an int may be read
# from, 4000 digits past a C ssize_t, and eleven factors of 4299 digits add up past what may print
RANK_5000_DIGITS = "A" + "9" * 5000
RANK_4000_DIGITS = "A" + "9" * 4000
RANK_SUM_4301_DIGITS = "x".join(["A" + "9" * 4299] * 11)
# every coordinate 10^20: sum of dim V(mu)^2 has about 4800 digits, past Python's int-to-str limit
E8_HUGE_MU = ",".join([str(10**20)] * 8)
# coefficients 1/(10^999 + k), each within the parse limit; a classical value sums them over a
# denominator of about 5000 digits, past the same limit
HUGE_DENOMINATOR_TERMS = [arg for k, mu in zip((1, 3, 7, 9, 11), ("1,0", "0,1", "1,1", "2,0", "0,2"))
                          for arg in ("--term", f"mu={mu}:a=1/{10**999 + k}")]
# each of those coefficients is below the float range; (10^999 + k - 1)/(10^999 + k) is not
NEAR_ONE_TERMS = [arg for k, mu in zip((1, 3, 7, 9, 11), ("1,0", "0,1", "1,1", "2,0", "0,2"))
                  for arg in ("--term", f"mu={mu}:a={10**999 + k - 1}/{10**999 + k}")]

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
    "spectrum_row_cap_ok": (["spectrum", "--type", "A2", *A2_TERMS, "--q", "0.5", "--radius", "3"],
                            {ROW_CAP_ENV: "100"}),
    "spectrum_env_cap_ok": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "4"],
                            {ROW_CAP_ENV: "50"}),
    # a term at mu = 0 has eigenvalue 0 everywhere: lower_bound is 0, not -0
    "spectrum_a1_zero_term": (["spectrum", "--type", "A1", "--term", "mu=0:a=1", "--q", "0.5",
                               "--radius", "2"], {}),
    # limit
    "limit_a1": (["limit", "--type", "A1", *A1_TERM, "--radius", "2"], {}),
    "limit_a2": (["limit", "--type", "A2", *A2_TERMS, "--radius", "4"], {}),
    "limit_b2xa1": (["limit", "--type", "B2xA1", "--term", "mu=1,0,1:a=2", "--radius", "3"], {}),
    # witness
    "witness_a1": (["witness", "--type", "A1", "--mu", "1", "--mu", "0", "--q", "0.5"], {}),
    "witness_a1xa1": (["witness", "--type", "A1xA1", "--mu", "1,1", "--q", "0.5"], {}),
    "witness_g2": (["witness", "--type", "G2", "--mu", "0,1", "--mu", "1,0", "--q", "0.3"], {}),
    "witness_d4": (["witness", "--type", "D4", "--mu", "0,1,0,0", "--q", "0.7"], {}),
    # witness and Markov verdict as q -> 1, where a difference of Casimir values cancels to 0
    "witness_a1_near_1": (["witness", "--type", "A1", "--q", "0.999999999", "--mu", "1"], {}),
    "heat_a1_near_1": (["heat", "--type", "A1", "--term", "mu=1", "--q", "0.99999999999",
                        "--radius", "2", "--t-grid", "1"], {}),
    # fodc enumeration
    "fodc_a1_h1_center": (["fodc", "--type", "A1", "--max-height", "1", "--include-center"], {}),
    "fodc_a2_h0": (["fodc", "--type", "A2", "--max-height", "0"], {}),
    "fodc_a2_h1": (["fodc", "--type", "A2", "--max-height", "1"], {}),
    "fodc_b2_h1_center": (["fodc", "--type", "B2", "--max-height", "1", "--include-center"], {}),
    "fodc_a1xa1_h1": (["fodc", "--type", "A1xA1", "--max-height", "1"], {}),
    # fodc enumeration: classes that are not half coroots need their (-zeta, mu) partner
    "fodc_a3_h0_center": (["fodc", "--type", "A3", "--max-height", "0", "--include-center"], {}),
    "fodc_a2_h1_center": (["fodc", "--type", "A2", "--max-height", "1", "--include-center"], {}),
    # fodc validation
    "fodc_validate_a2": (["fodc", "--type", "A2", *A2_TERMS], {}),
    "fodc_validate_zeta": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1:zeta=1,0"], {}),
    "fodc_validate_complex": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1+2j:zeta=1,0",
                               "--term", "mu=1,0:a=1-2j:zeta=0,1"], {}),
    "fodc_validate_a1xg2": (["fodc", "--type", "A1xG2", "--term", "mu=1,0,0:a=1"], {}),
    # fodc validation: a zero coefficient drops its pair, and so does (0, 0)
    "fodc_validate_zero_coefficient": (["fodc", "--type", "A2", "--term", "mu=1,0:a=0",
                                        "--term", "mu=0,1:a=2"], {}),
    "fodc_validate_zero_pair": (["fodc", "--type", "A2", "--term", "mu=0,0:a=1",
                                 "--term", "mu=1,0:a=1:zeta=1,0"], {}),
    # fodc validation: D4 classes are half coroots; A3 classes 1 and 3 are partners, 2 is half a coroot
    "fodc_validate_d4_half_coroot": (["fodc", "--type", "D4", "--term", "mu=1,0,0,0:a=1:zeta=1,0,0,0"], {}),
    "fodc_validate_a3_unpartnered": (["fodc", "--type", "A3", "--term", "mu=1,0,0:a=1:zeta=1,0,0"], {}),
    "fodc_validate_a3_partners": (["fodc", "--type", "A3", "--term", "mu=1,0,0:a=1:zeta=1,0,0",
                                   "--term", "mu=1,0,0:a=1:zeta=3,0,0"], {}),
    # fodc validation: the coefficients 1/3 and 0.33333333333333331 differ, though their floats are equal
    "fodc_validate_a2_near_third": (["fodc", "--type", "A2", "--term", "mu=1,0:zeta=1,0:a=1/3",
                                     "--term", "mu=1,0:zeta=2,0:a=0.33333333333333331"], {}),
    # heat
    "heat_a1": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "2",
                 "--t-grid", "1,50"], {}),
    "heat_a2_default_grid": (["heat", "--type", "A2", *A2_TERMS, "--q", "0.5", "--radius", "4"], {}),
    "heat_g2_eight": (["heat", "--type", "G2", "--term", "mu=1,0:a=1", "--q", "0.9", "--radius", "8",
                       "--t-grid", EIGHT_TIMES], {}),
    "heat_a1xa1": (["heat", "--type", "A1xA1", "--term", "mu=1,1:a=1", "--q", "0.4",
                    "--radius", "3", "--t-grid", "0.5,2"], {ROW_CAP_ENV: "100"}),
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
    # weights: the heavy representations
    "weights_e8_adjoint": (["weights", "--type", "E8", "--mu", "0,0,0,0,0,0,0,1"], {}),
    "weights_e7_two_w7": (["weights", "--type", "E7", "--mu", "0,0,0,0,0,0,2"], {}),
    "weights_f4_1100": (["weights", "--type", "F4", "--mu", "1,1,0,0"], {}),
    # rejections: malformed labels and unknown families exit 1, bad ranks exit 2
    **{f"reject_label_{label}": (["center", "--type", label], {})
       for label in ("Q7", "H4", "A2y", "a", "G", "A1xx", "E9x", "C2", "E9")},
    # rejections: the label grammar is ASCII, so a non-ASCII digit (ARABIC-INDIC TWO) is malformed
    "reject_label_non_ascii_digit": (["center", "--type", "A\u0662"], {}),
    # rejections: weights
    "reject_weights_non_dominant": (["weights", "--type", "A2", "--mu", "1,-1"], {}),
    "reject_witness_non_dominant": (["witness", "--type", "A1", "--mu", "-1", "--q", "0.5"], {}),
    "reject_weights_rank": (["weights", "--type", "A2", "--mu", "1"], {}),
    "reject_term_rank": (["spectrum", "--type", "A1", "--term", "mu=1,0:a=1",
                          "--q", "0.5", "--radius", "2"], {}),
    "reject_zeta_rank": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1:zeta=1"], {}),
    "reject_fodc_mode": (["fodc", "--type", "A2"], {}),
    # rejections: malformed terms, terms a Laplacian command does not take, and a witness with no weight
    **{f"reject_term_{name}": (["spectrum", "--type", "A1", "--term", term, "--q", "0.5", "--radius", "2"], {})
       for name, term in [("mu_text", "mu=x"), ("field_without_value", "mu=1:a"), ("unknown_field", "mu=1:b=2"),
                          ("duplicate_field", "mu=1:mu=1"), ("missing_mu", "a=1"), ("zeta", "mu=1:zeta=1"),
                          ("complex_coefficient", "mu=1:a=1+2j")]},
    "reject_witness_no_mu": (["witness", "--type", "A1", "--q", "0.5"], {}),
    # rejections: validation takes none of the enumeration flags
    "reject_fodc_term_max_height": (["fodc", "--type", "A2", "--term", "mu=1,0", "--max-height", "1"], {}),
    "reject_fodc_term_include_center": (["fodc", "--type", "A2", "--term", "mu=1,0", "--include-center"], {}),
    # rejections: caps, all set by $QLAP_ROW_CAP
    "reject_spectrum_row_cap": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5",
                                 "--radius", "100000"], {ROW_CAP_ENV: "3"}),
    "reject_spectrum_env_cap": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5",
                                 "--radius", "1000"], {ROW_CAP_ENV: "2"}),
    "reject_limit_env_cap": (["limit", "--type", "A2", *A2_TERMS, "--radius", "40"],
                             {ROW_CAP_ENV: "3"}),
    "reject_heat_row_cap": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "50"],
                            {ROW_CAP_ENV: "3"}),
    "reject_fodc_index_cap": (["fodc", "--type", "A2", "--max-height", "1", "--include-center"],
                              {ROW_CAP_ENV: "100"}),
    # rejections: weight systems whose Weyl orbits pass the row cap, sized before Freudenthal
    "reject_weights_e8_rho": (["weights", "--type", "E8", "--mu", "1,1,1,1,1,1,1,1"], {}),
    "reject_weights_e8_three_rho": (["weights", "--type", "E8", "--mu", "3,3,3,3,3,3,3,3"], {}),
    "reject_spectrum_e8_rho_term": (["spectrum", "--type", "E8", "--term", "mu=1,1,1,1,1,1,1,1",
                                     "--q", "0.5", "--radius", "2"], {}),
    # rejections: a center of order 2^40 is capped before any class is listed
    "reject_center_order": (["center", "--type", A1_POWER_40], {}),
    "reject_center_env_cap": (["center", "--type", "D4"], {ROW_CAP_ENV: "3"}),
    "reject_fodc_center_order": (["fodc", "--type", A1_POWER_40, "--max-height", "0",
                                  "--include-center"], {}),
    # rejections: a root system past the build cap (rank or positive roots) is refused before it is built
    "reject_build_a160": (["center", "--type", "A160"], {}),
    "reject_build_d120": (["center", "--type", "D120"], {}),
    "reject_build_a1_power_300": (["center", "--type", A1_POWER_300], {}),
    "reject_build_rank_5000_digits": (["center", "--type", RANK_5000_DIGITS], {}),
    "reject_build_rank_4000_digits": (["center", "--type", RANK_4000_DIGITS], {}),
    "reject_build_rank_sum_4301_digits": (["center", "--type", RANK_SUM_4301_DIGITS], {}),
    # rejections: negative caps are usage errors (0 stays a valid cap)
    "reject_spectrum_negative_env_cap": (["spectrum", "--type", "A1", *A1_TERM, "--q", "0.5",
                                          "--radius", "2"], {ROW_CAP_ENV: "-1"}),
    "reject_fodc_negative_index_cap": (["fodc", "--type", "A2", "--max-height", "1"], {ROW_CAP_ENV: "-3"}),
    # rejections: every q formula takes 0 < q < 1; q = 1 is the classical limit, which `limit` reports
    "reject_spectrum_q_one": (["spectrum", "--type", "A1", *A1_TERM, "--q", "1", "--radius", "2"], {}),
    "reject_heat_q_one": (["heat", "--type", "A1", *A1_TERM, "--q", "1", "--radius", "2",
                           "--t-grid", "1"], {}),
    # rejections: float overflow and non-finite results
    "reject_spectrum_coefficient_overflow": (["spectrum", "--type", "A1", "--term", "mu=1:a=1e400",
                                              "--q", "0.5", "--radius", "2"], {}),
    "reject_spectrum_tiny_q": (["spectrum", "--type", "A1", *A1_TERM, "--q", "1e-300",
                                "--radius", "2"], {}),
    "reject_witness_tiny_q": (["witness", "--type", "A1", "--mu", "1", "--q", "1e-300"], {}),
    "reject_spectrum_infinite_eigenvalue": (["spectrum", "--type", "A1", "--term", "mu=1:a=1e308",
                                             "--q", "0.5", "--radius", "20"], {}),
    # rejections: a coefficient with a nonzero real or imaginary part whose float is 0 (float underflow)
    "reject_spectrum_coefficient_underflow": (["spectrum", "--type", "A1", "--term", "mu=1:a=1e-400",
                                               "--q", "0.5", "--radius", "2"], {}),
    "reject_limit_coefficient_underflow": (["limit", "--type", "A1", "--term", "mu=1:a=1e-400",
                                            "--radius", "2"], {}),
    "reject_heat_coefficient_underflow": (["heat", "--type", "A1", "--term", "mu=1:a=1e-400", "--q", "0.5",
                                           "--radius", "2", "--t-grid", "1"], {}),
    "reject_fodc_coefficient_underflow": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1e-400"], {}),
    "reject_fodc_coefficient_underflow_imaginary": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1e-400j"], {}),
    "reject_fodc_coefficient_underflow_complex": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1+1e-400j"], {}),
    # rejections: non-finite complex coefficients
    "reject_fodc_coefficient_nanj": (["fodc", "--type", "A2", "--term", "mu=1,0:a=nanj"], {}),
    "reject_fodc_coefficient_1e400j": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1e400j"], {}),
    # rejections: a complex literal that is no Python complex literal
    "reject_coefficient_complex_syntax": (["fodc", "--type", "A2", "--term", "mu=1,0:a=1+2jj"], {}),
    # rejections: rationals too long to expand or to print
    "reject_coefficient_digits": (["spectrum", "--type", "A1", "--term", "mu=1:a=1e-5000",
                                   "--q", "0.5", "--radius", "2"], {}),
    "reject_coefficient_exponent": (["limit", "--type", "A1", "--term", "mu=1:a=1e999999999",
                                     "--radius", "2"], {}),
    # rejections: an integer result too long to print (fodc --term builds no weight system to cap)
    "reject_fodc_dimension_digits": (["fodc", "--type", "E8", "--term", f"mu={E8_HUGE_MU}:a=1"], {}),
    # rejections: an exact rational result too long to print (coefficients 1/(10^999 + k) are refused first,
    # as a float underflow; the near-one coefficients reach the print)
    "reject_limit_classical_digits": (["limit", "--type", "A2", *HUGE_DENOMINATOR_TERMS,
                                       "--radius", "2"], {}),
    "reject_limit_classical_digits_near_one": (["limit", "--type", "A2", *NEAR_ONE_TERMS,
                                                "--radius", "2"], {}),
    # rejections: heat times
    "reject_heat_t_negative": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "2",
                                "--t-grid", "-1"], {}),
    "reject_heat_t_text": (["heat", "--type", "A1", *A1_TERM, "--q", "0.5", "--radius", "2",
                            "--t-grid", "x"], {}),
    # rejections: a family missing a factor has an infinite heat trace
    "reject_heat_untouched_factor": (["heat", "--type", "A1xA1", "--term", "mu=1,0:a=1", "--q", "0.5",
                                      "--radius", "8", "--t-grid", "1,10"], {}),
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


# enumerations too large to commit (up to 1.6 MB), pinned by the sha256 of their stdout
DIGESTS = {
    ("B2", 2, "json"): "269be727817b571883fca3e74eedfdbfa4e36f07db9e086a2e00fa3671e6587b",
    ("B2", 2, "csv"): "dcd96b4fd3aba03d0b0e689745bf0ee2e259d6b78ebbfc01db25bab21c043d9d",
    ("A1", 6, "json"): "93169a7473a7f946bdf993f0ab2888a3f3f18a8981e5df1359e43e8bb60f405a",
    ("A1", 6, "csv"): "15b71e97f9e76deb101b5a97b2d797c155d9da5f5bd12f58407680ee035dd7e6",
}


@pytest.mark.parametrize("label,height,fmt", sorted(DIGESTS))
def test_large_enumeration_digest(label, height, fmt):
    code, out, err = _run(["fodc", "--type", label, "--max-height", str(height), "--include-center",
                           "--format", fmt], {})
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[label, height, fmt]


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
