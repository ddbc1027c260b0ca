"""Output checks for `qlap` reports and library results.

Expected values come from `oracle`, never from the program.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb

from oracle import graded_key, lie

LIMIT_LADDER = ("0.9", "0.99", "0.999")
STDERR_PREFIX = {1: "usage error:", 2: "invariant violation:", 3: "resource cap:"}
REL = 1e-9


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: bytes):
    """Parse a report, refusing NaN and Infinity, which strict JSON lacks."""
    return json.loads(text.decode("utf-8"), parse_constant=_reject_constant)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def fodc_count(req: dict) -> int:
    """2^|pool|: the pool holds pairs (zeta, mu) with height(mu) <= h, less (0, 0)."""
    data = lie(req["type"])
    zetas = data.center_order() if req["center"] else 1
    return 2 ** (zetas * comb(req["h"] + data.rank, data.rank) - 1)


def check_cli(req: dict, code: int, out: bytes, err: bytes) -> list[str]:
    """Problems with one `qlap` run of request `req`."""
    if code != req["exit"]:
        return [f"exit code {code}, expected {req['exit']}: {err[:200]!r}"]
    if code != 0:
        problems = [] if err.decode("utf-8", "replace").startswith(STDERR_PREFIX[code]) else [f"stderr {err[:80]!r}"]
        return problems + ([f"{len(out)} bytes on stdout after a rejection"] if out else [])
    if err:
        return [f"stderr on success: {err[:200]!r}"]
    try:
        report = strict_json(out)
    except ValueError as exc:
        return [f"not strict JSON: {exc}"]
    try:
        return CHECKS[req["cmd"]](req, report)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]


def _check_ball(req, report) -> list[str]:
    data = lie(req["type"])
    expected = data.ball(req["radius"])
    got = [tuple(row["lambda"]) for row in report["rows"]]
    if got != expected:
        return [f"{len(got)} rows, expected the {len(expected)} dominant weights of the ball in graded order"]
    bad = [lam for lam, row in zip(got, report["rows"]) if row["dim"] != data.dim(lam)]
    return [f"wrong dimension at {bad[0]}"] if bad else []


def _check_spectrum(req, report) -> list[str]:
    problems = _check_ball(req, report)
    if problems:
        return problems
    eig = [row["eigenvalue"] for row in report["rows"]]
    floor = report["lower_bound"]
    if not all(map(_finite, eig + [floor])):
        return ["non-finite eigenvalue or bound"]
    if eig[0] != 0:
        problems.append(f"eigenvalue {eig[0]} at lambda = 0")
    if any(e < floor - REL * max(1.0, abs(floor)) for e in eig):
        problems.append("an eigenvalue lies below lower_bound")
    best = min(range(len(eig)), key=eig.__getitem__)
    if report["min_eigenvalue"] != eig[best] or report["argmin"] != report["rows"][best]["lambda"]:
        problems.append("min_eigenvalue/argmin disagree with the rows")
    if report["radius"] != str(req["radius"]):
        problems.append(f"radius {report['radius']!r}")
    return problems


def _check_limit(req, report) -> list[str]:
    problems = _check_ball(req, report)
    if problems:
        return problems
    data = lie(req["type"])
    terms = [(mu, Fraction(a)) for mu, a in req["terms"]]
    for row in report["rows"]:
        lam = tuple(row["lambda"])
        if Fraction(row["classical"]) != data.classical_eigenvalue(terms, lam):
            return [f"classical eigenvalue {row['classical']} at {lam}"]
        errors = [row[f"err_{q}"] for q in LIMIT_LADDER]
        if not all(map(_finite, errors)) or min(errors) < 0:
            return [f"bad error ladder {errors} at {lam}"]
        if not any(lam) and any(errors):
            return [f"nonzero error at lambda = 0: {errors}"]
        if any(b > a * (1 + REL) + 1e-12 for a, b in zip(errors, errors[1:])):
            return [f"error grows as q -> 1 at {lam}: {errors}"]
    return problems


def _check_heat(req, report) -> list[str]:
    rows = report["rows"]
    if [row["t"] for row in rows] != req["grid"]:
        return [f"t grid {[row['t'] for row in rows]}"]
    traces = [row["trace"] for row in rows]
    if not all(map(_finite, traces + [row["truncation_estimate"] for row in rows])):
        return ["non-finite heat trace"]
    problems = []
    if min(traces) < 1 - REL:
        problems.append(f"heat trace below 1: {min(traces)}")
    if any(b > a * (1 + REL) for a, b in zip(traces, traces[1:])):
        problems.append("heat trace increases with t")
    if any(row["truncation_estimate"] < 0 for row in rows):
        problems.append("negative truncation estimate")
    if report["quantum_markov"] is not False:
        problems.append("a nonzero Laplacian reported quantum Markov")
    return problems


def _check_weights(req, report) -> list[str]:
    data = lie(req["type"])
    mu = req["mu"]
    dim = data.dim(mu)
    rows = report["rows"]
    weights = [tuple(row["weight"]) for row in rows]
    mults = {w: row["mult"] for w, row in zip(weights, rows)}
    problems = []
    if report["dim"] != dim or sum(mults.values()) != dim:
        problems.append(f"dim {report['dim']}, multiplicities sum to {sum(mults.values())}, Weyl gives {dim}")
    if any(graded_key(a) >= graded_key(b) for a, b in zip(weights, weights[1:])):
        problems.append("weights not in strict graded order")
    if mults.get(tuple(mu)) != 1:
        problems.append("highest weight missing or not of multiplicity 1")
    if min(mults.values()) < 1:
        problems.append("nonpositive multiplicity")
    top = data.norm(mu)
    if Fraction(report["norm"]) != top:
        problems.append(f"norm {report['norm']}, expected {top}")
    if any(data.norm(w) > top for w in weights):
        problems.append("a weight is longer than the highest weight")
    return problems


def _check_witness(req, report) -> list[str]:
    rows = report["rows"]
    if [tuple(row["mu"]) for row in rows] != [tuple(mu) for mu in req["mus"]]:
        return [f"{len(rows)} rows for {len(req['mus'])} weights"]
    bad = [row for row in rows if not (_finite(row["witness"]) and row["witness"] > 0)
           or row["verdict"] != "not quantum Markov"]
    return [f"witness {bad[0]['witness']} for mu {bad[0]['mu']}"] if bad else []


def _check_fodc(req, report) -> list[str]:
    data = lie(req["type"])
    count = fodc_count(req)
    rows = report["rows"]
    if report["count"] != count or len(rows) != count:
        return [f"count {report['count']} with {len(rows)} rows, expected 2^|pool| = {count}"]
    all_half = data.two_torsion() == data.center_order()
    dims = {}
    for mask, row in enumerate(rows):
        pairs = row["pairs"]
        if len(pairs) != bin(mask).count("1"):
            return [f"row {mask} has {len(pairs)} pairs"]
        for p in pairs:
            mu = tuple(p["mu"])
            if mu not in dims:
                dims[mu] = data.dim(mu)
        if row["dimension"] != sum(dims[tuple(p["mu"])] ** 2 for p in pairs):
            return [f"row {mask} has dimension {row['dimension']}"]
        if all_half and row["star_admissible"] is not True:
            return [f"row {mask} not star admissible though every class is half a coroot"]
    return []


def _check_fodc_term(req, report) -> list[str]:
    data = lie(req["type"])
    coeff = {tuple(mu): Fraction(a) for mu, a in req["terms"]}
    hermitian = all(coeff.get(data.minus_w0(mu)) == a for mu, a in coeff.items())
    touches = all(any(any(data.split(mu)[k]) for mu in coeff) for k in range(len(data.factors)))
    expected = {"self_adjoint": True, "hermitian": hermitian, "q_laplacian": hermitian and touches,
                "induced_dimension": sum(data.dim(mu) ** 2 for mu in coeff)}
    return [f"{key} = {report[key]}, expected {value}" for key, value in expected.items()
            if report[key] != value]


def _check_center(req, report) -> list[str]:
    data = lie(req["type"])
    rows = report["rows"]
    order = data.center_order()
    problems = []
    if report["order"] != order or len(rows) != order or math.prod(report["invariant_factors"]) != order:
        problems.append(f"order {report['order']} with {len(rows)} rows, expected {order}")
    if any(rows[0]["rep"]):
        problems.append("first class is not 0")
    if sum(row["half_coroot"] for row in rows) != data.two_torsion():
        problems.append("wrong number of half-coroot classes")
    return problems


CHECKS = {"spectrum": _check_spectrum, "limit": _check_limit, "heat": _check_heat, "weights": _check_weights,
          "witness": _check_witness, "fodc": _check_fodc, "fodc-term": _check_fodc_term,
          "center": _check_center}


def rows_of(out: bytes) -> int:
    """Length of a successful report's rows array (0 for an empty stdout)."""
    return len(strict_json(out).get("rows", [])) if out else 0


# ---------------------------------------------------------------------------
# library session
# ---------------------------------------------------------------------------


def check_call(call: dict, result) -> list[str]:
    """Problems with one library result (as the session worker encodes it)."""
    if isinstance(result, dict):
        return [f"{call['fn']} raised {result.get('error')}"]
    try:
        ok = _call_ok(call, result)
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"{call['fn']} returned the malformed {result!r}: {exc!r}"]
    return [] if ok else [f"{call['fn']} on {call['type']} returned {result!r}"]


def _call_ok(call: dict, result) -> bool:
    data = lie(call["type"])
    fn = call["fn"]
    lam = tuple(call.get("lam", ()))
    # the Laplacian vanishes exactly where lam is 0 on every factor its terms touch
    mus = [term[-2] for term in call.get("terms", ())]
    touched = [any(any(data.split(mu)[k]) for mu in mus) for k in range(len(data.factors))]
    at_zero = bool(lam) and not any(any(part) for part, t in zip(data.split(lam), touched) if t)
    ok = True
    if fn == "dim_irrep":
        ok = result == data.dim(lam)
    elif fn == "classical_laplacian_eigenvalue":
        terms = [(tuple(mu), Fraction(a)) for mu, a in call["terms"]]
        ok = Fraction(result) == data.classical_eigenvalue(terms, lam)
    elif not all(map(_finite, result if isinstance(result, list) else [result])):
        ok = False
    elif fn == "q_laplacian_eigenvalue":
        ok = result == 0 if at_zero else result > 0
    elif fn == "heat_coefficient":
        ok = result == 1 if at_zero else 0 <= result <= 1
    elif fn == "casimir_eigenvalue":
        # sum_e mult(e) q^{-2 (lam + rho, e)} >= dim V(mu) because the exponents sum to 0
        ok = result >= data.dim(call["mu"]) * (1 - REL)
    elif fn == "general_functional_eigenvalue":
        if all(not any(z) for z, _, _ in call["terms"]):
            floor = sum(Fraction(a) * data.dim(mu) for _, mu, a in call["terms"])
            ok = result[1] == 0 and result[0] >= float(floor) * (1 - REL)
    elif fn == "lower_bound":
        ok = result < 0
    elif fn == "qms_witness":
        ok = result > 0
    return ok
