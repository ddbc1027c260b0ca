"""Command-line reports for spectra, limits, witnesses, calculi, and heat traces.

Every command prints a deterministic machine-readable report (JSON by
default, CSV on request): floats carry 12 significant digits, exact
rationals print as "p/q", and identical inputs produce byte-identical
output.  Exit codes: 0 ok, 1 usage, 2 invariant violation (float overflow
and non-finite results included), 3 resource cap.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from fractions import Fraction

from .cartan import (
    CenterElement,
    RootSystem,
    Weight,
    build_root_system,
    center_group,
    center_order,
    center_reduce,
    enumerate_dominant,
    is_half_coroot,
    norm_squared,
    resolve_row_cap,
)
from .errors import InvariantError, ResourceCapError, UsageError
from .fodc import (
    DEFAULT_INDEX_CAP,
    Pair,
    admits_star_structure,
    enumerate_fodc_indices,
    fodc_dimension,
    induced_class,
    validate_functional,
)
from .heat import heat_trace_report, markov_verdict
from .spectra import (
    GeneralFunctionalSpec,
    LaplacianSpec,
    QParam,
    classical_laplacian_eigenvalue,
    lower_bound,
    q_laplacian_eigenvalue,
    qms_witness,
    spectrum_scan,
)
from .weights import dim_irrep, weight_system

LIMIT_LADDER = (0.9, 0.99, 0.999)
MAX_RATIONAL_BITS = 3322  # about 1000 decimal digits in a numerator or denominator


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _parse_rational(text: str, what: str) -> Fraction:
    # a decimal exponent of 10000 or more would be expanded into digits before any check
    if re.search(r"[eE][-+]?0*[1-9][0-9_]{4}", text):
        raise UsageError(f"{what} {text!r} is out of range")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse {what} {text!r} as a rational") from exc
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > MAX_RATIONAL_BITS:
        raise UsageError(f"{what} {text!r} has more than about 1000 digits")
    return value


def _parse_coeff(text: str):
    if "j" in text or "J" in text:
        try:
            value = complex(text)
        except ValueError as exc:
            raise UsageError(f"cannot parse coefficient {text!r}") from exc
        if not cmath.isfinite(value):
            raise UsageError(f"coefficient {text!r} is not finite")
        return value
    return _parse_rational(text, "coefficient")


def _parse_int_vector(text: str, what: str, rank: int) -> tuple[int, ...]:
    try:
        vector = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r} as comma-separated integers") from exc
    if len(vector) != rank:
        raise UsageError(f"{what}={text} has length {len(vector)}, expected rank {rank}")
    return vector


def _parse_term(text: str, rank: int) -> tuple[tuple[int, ...] | None, tuple[int, ...], object]:
    """Parse one `mu=...:a=...:zeta=...` term; a defaults to 1, zeta to 0."""
    fields = {}
    for piece in text.split(":"):
        if "=" not in piece:
            raise UsageError(f"malformed term field {piece!r} in {text!r}")
        key, value = piece.split("=", 1)
        if key not in ("mu", "a", "zeta"):
            raise UsageError(f"unknown term field {key!r} in {text!r}")
        if key in fields:
            raise UsageError(f"duplicate term field {key!r} in {text!r}")
        fields[key] = value
    if "mu" not in fields:
        raise UsageError(f"term {text!r} is missing mu=")
    mu = _parse_int_vector(fields["mu"], "mu", rank)
    a = _parse_coeff(fields.get("a", "1"))
    zeta = _parse_int_vector(fields["zeta"], "zeta", rank) if "zeta" in fields else None
    return zeta, mu, a


def _laplacian_spec(R: RootSystem, terms: list[str]) -> LaplacianSpec:
    if not terms:
        raise UsageError("at least one --term is required")
    pairs = []
    for text in terms:
        zeta, mu, a = _parse_term(text, R.rank)
        if zeta is not None and any(zeta):
            raise UsageError("this command takes plain Laplacian terms; zeta must be 0")
        if isinstance(a, complex):
            raise UsageError("this command takes real coefficients")
        pairs.append((Weight.of(mu), a))
    return LaplacianSpec.of(pairs)


def _general_spec(R: RootSystem, terms: list[str]) -> GeneralFunctionalSpec:
    if not terms:
        raise UsageError("at least one --term is required")
    triples = []
    for text in terms:
        zeta, mu, a = _parse_term(text, R.rank)
        z = center_reduce(R, zeta if zeta is not None else [0] * R.rank)
        triples.append((z, Weight.of(mu), complex(a)))
    return GeneralFunctionalSpec.of(triples)


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvariantError(f"the result {x} is not finite")
    return format(float(x), ".12g")


def _json_value(value, memo: dict) -> str:
    """JSON text of a report value, dispatched on its exact type; `memo` holds each Pair's text."""
    kind = type(value)
    if kind is dict:
        inner = ",".join(f"{_json_value(k, memo)}:{_json_value(v, memo)}" for k, v in value.items())
        return "{" + inner + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_json_value(v, memo) for v in value]) + "]"
    if kind is Pair:
        text = memo.get(value)
        if text is None:
            text = memo[value] = _json_value({"zeta": value.zeta, "mu": value.mu}, memo)
        return text
    if kind is str:
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if kind is bool or value is None:
        return {True: "true", False: "false", None: "null"}[value]
    if kind is int:
        return str(value)
    if kind is float:
        return _fmt_float(value)
    if kind is Fraction:
        return '"' + str(value) + '"'
    if kind is complex:
        return _json_value({"re": value.real, "im": value.imag}, memo)
    if kind is Weight:
        return _json_value(list(value.coords), memo)
    if kind is CenterElement:
        return _json_value(list(value.rep), memo)
    raise TypeError(f"cannot render {kind!r}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Weight):
        return value.serialize()
    if isinstance(value, CenterElement):
        return value.serialize()
    if isinstance(value, complex):
        return f"{_fmt_float(value.real)}{'+' if value.imag >= 0 else '-'}{_fmt_float(abs(value.imag))}j"
    if isinstance(value, dict):
        return "|".join(f"{k}={_csv_cell(v)}" for k, v in value.items())
    if isinstance(value, Pair):  # before the tuple branch: a Pair is a tuple
        return f"zeta={value.zeta.serialize()}|mu={value.mu.serialize()}"
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_value(report, {}) + "\n"
    meta = [f"# {key}={_csv_cell(value)}" for key, value in report.items()
            if not isinstance(value, (list, tuple, dict))]
    rows = report.get("rows", [])
    lines = list(meta)
    if rows:
        header = list(rows[0].keys())
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_csv_cell(row[k]).replace(",", ";") for k in header))
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None):
    if output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {output!r}: {exc.strerror}") from exc


def _terms_json(spec: LaplacianSpec):
    return [{"mu": mu, "a": a} for mu, a in spec.terms]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args) -> dict:
    R = build_root_system([args.type])
    spec = _laplacian_spec(R, args.term)
    q = QParam(args.q)
    radius = _parse_rational(args.radius, "radius")
    rows = spectrum_scan(R, spec, q, radius, row_cap=args.row_cap)
    bound = lower_bound(R, spec, q)
    best = min(rows, key=lambda r: r.eigenvalue)
    return {
        "command": "spectrum",
        "type": args.type,
        "terms": _terms_json(spec),
        "q": q.q,
        "radius": radius,
        "lower_bound": bound,
        "min_eigenvalue": best.eigenvalue,
        "argmin": best.lam,
        "rows": [{"lambda": r.lam, "dim": r.dim, "eigenvalue": r.eigenvalue} for r in rows],
    }


def _cmd_limit(args) -> dict:
    R = build_root_system([args.type])
    spec = _laplacian_spec(R, args.term)
    radius = _parse_rational(args.radius, "radius")
    rows = []
    for lam in enumerate_dominant(R, radius, max_rows=resolve_row_cap(args.row_cap)):
        classical = classical_laplacian_eigenvalue(R, spec, lam)
        errors = [abs(q_laplacian_eigenvalue(R, spec, lam, q) - float(classical))
                  for q in LIMIT_LADDER]
        ratios = [errors[i] / errors[i + 1] if errors[i + 1] != 0 else None
                  for i in range(len(errors) - 1)]
        row = {"lambda": lam, "dim": dim_irrep(R, lam), "classical": classical}
        for q, err in zip(LIMIT_LADDER, errors):
            row[f"err_{q}"] = err
        row["ratio_0.9_0.99"] = ratios[0]
        row["ratio_0.99_0.999"] = ratios[1]
        rows.append(row)
    return {
        "command": "limit",
        "type": args.type,
        "terms": _terms_json(spec),
        "q_ladder": list(LIMIT_LADDER),
        "radius": radius,
        "rows": rows,
    }


def _cmd_witness(args) -> dict:
    R = build_root_system([args.type])
    q = QParam(args.q)
    if not args.mu:
        raise UsageError("at least one --mu is required")
    rows = []
    for text in args.mu:
        mu = Weight.of(_parse_int_vector(text, "mu", R.rank))
        w = qms_witness(R, mu, q)
        rows.append({
            "mu": mu,
            "witness": w,
            "verdict": "not quantum Markov" if w > 0 else "witness vanishes (mu = 0)",
        })
    report = {
        "command": "witness",
        "type": args.type,
        "q": q.q,
        "rows": rows,
    }
    if len(R.factors) > 1:
        report["semisimple_convention"] = "per-factor highest roots summed"
    return report


def _cmd_fodc(args) -> dict:
    if args.term and (args.max_height, args.include_center, args.index_cap) != (None, False, None):
        raise UsageError("fodc --term (validate) takes no --max-height, --include-center or --index-cap")
    cap = DEFAULT_INDEX_CAP if args.index_cap is None else args.index_cap
    if cap < 0:
        raise UsageError(f"--index-cap must be nonnegative, got {cap}")
    R = build_root_system([args.type])
    if args.term:
        spec = _general_spec(R, args.term)
        verdict = validate_functional(R, spec)
        induced = induced_class(R, spec)
        return {
            "command": "fodc",
            "type": args.type,
            "terms": [{"zeta": z, "mu": mu, "a": a} for z, mu, a in spec.terms],
            "self_adjoint": verdict.self_adjoint,
            "hermitian": verdict.hermitian,
            "q_laplacian": verdict.q_laplacian,
            "reasons": list(verdict.reasons),
            "induced_dimension": fodc_dimension(R, induced),
            "induced_star_admissible": admits_star_structure(R, induced),
            "functional_class": list(induced),
        }
    if args.max_height is None:
        raise UsageError("fodc needs either --term (validate) or --max-height (enumerate)")
    calculi = enumerate_fodc_indices(R, args.max_height, args.include_center, max_indices=cap)
    return {
        "command": "fodc",
        "type": args.type,
        "max_height": args.max_height,
        "include_center": args.include_center,
        "count": len(calculi),
        "rows": [{"pairs": pairs, "dimension": dimension, "star_admissible": star_admissible}
                 for pairs, dimension, star_admissible in calculi],
    }


def _cmd_heat(args) -> dict:
    R = build_root_system([args.type])
    spec = _laplacian_spec(R, args.term)
    q = QParam(args.q)
    radius = _parse_rational(args.radius, "radius")
    try:
        grid = [float(part) for part in args.t_grid.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse t grid {args.t_grid!r}") from exc
    results = heat_trace_report(R, spec, q, grid, radius, row_cap=args.row_cap)
    rows = [{"t": t, "trace": trace, "truncation_estimate": trunc}
            for t, (trace, trunc) in zip(grid, results)]
    verdict = markov_verdict(R, spec, q)
    return {
        "command": "heat",
        "type": args.type,
        "terms": _terms_json(spec),
        "q": q.q,
        "radius": radius,
        "quantum_markov": verdict.quantum_markov,
        "rows": rows,
    }


def _cmd_center(args) -> dict:
    R = build_root_system([args.type])
    order, cap = center_order(R), resolve_row_cap(None)
    if order > cap:
        raise ResourceCapError(f"center group of order {order} exceeds the row cap of {cap}")
    group = center_group(R)
    return {
        "command": "center",
        "type": args.type,
        "order": group.order,
        "invariant_factors": list(group.invariant_factors),
        "rows": [{"rep": z, "half_coroot": is_half_coroot(R, z)}
                 for z in group.representatives],
    }


def _cmd_weights(args) -> dict:
    R = build_root_system([args.type])
    mu = Weight.of(_parse_int_vector(args.mu, "mu", R.rank))
    ws = weight_system(R, mu)
    return {
        "command": "weights",
        "type": args.type,
        "mu": mu,
        "dim": ws.dimension,
        "norm": norm_squared(R, mu),
        "rows": [{"weight": w, "mult": m} for w, m in ws],
    }


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qlap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q=False, terms=False, radius=False):
        p.add_argument("--type", required=True, help="product type label, e.g. A2 or A1xG2")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default="-", help="output path ('-' = stdout)")
        if q:
            p.add_argument("--q", type=float, required=True, help="deformation parameter in (0, 1)")
        if terms:
            p.add_argument("--term", action="append", default=[],
                           help="spec term, e.g. mu=1,0:a=1 or mu=1,0:a=1:zeta=0,0")
        if radius:
            p.add_argument("--radius", required=True, help="norm-ball radius, rational like 2 or 8/3")
            p.add_argument("--row-cap", type=int, default=None, help="override the scan row cap")

    p = sub.add_parser("spectrum", help="eigenvalue scan with lower bound and argmin")
    common(p, q=True, terms=True, radius=True)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("limit", help="classical-limit error ladder at q = 0.9, 0.99, 0.999")
    common(p, terms=True, radius=True)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("witness", help="non-Markovianity witness per weight")
    common(p, q=True)
    p.add_argument("--mu", action="append", default=[], help="dominant weight, e.g. 1,0")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("fodc", help="enumerate calculi or validate a functional")
    common(p, terms=True)
    p.add_argument("--max-height", type=int, default=None)
    p.add_argument("--include-center", action="store_true")
    p.add_argument("--index-cap", type=int, default=None,
                   help=f"at most this many calculi (default {DEFAULT_INDEX_CAP})")
    p.set_defaults(fn=_cmd_fodc)

    p = sub.add_parser("heat", help="truncated heat trace over a time grid")
    common(p, q=True, terms=True, radius=True)
    p.add_argument("--t-grid", default="0.1,1,10", help="comma-separated times")
    p.set_defaults(fn=_cmd_heat)

    p = sub.add_parser("center", help="center group and half-coroot classes")
    common(p)
    p.set_defaults(fn=_cmd_center)

    p = sub.add_parser("weights", help="weight system of one irreducible")
    common(p)
    p.add_argument("--mu", required=True, help="dominant weight, e.g. 1,1")
    p.set_defaults(fn=_cmd_weights)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.fn(args)
        _emit(_render(report, args.format), args.output)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"invariant violation: float overflow: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
