"""Command-line reports for spectra, limits, witnesses, calculi, and heat traces.

Every command prints a deterministic machine-readable report (JSON by
default, CSV on request): floats carry 12 significant digits, exact
rationals print as "p/q", and identical inputs produce byte-identical
output.  Exit codes: 0 ok, 1 usage, 2 invariant violation (float overflow
and non-finite results included), 3 resource cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .cartan import (
    CenterElement,
    RootSystem,
    Weight,
    build_root_system,
    center_group,
    center_reduce,
    enumerate_dominant,
    is_half_coroot,
    norm_squared,
    read_rational,
)
from .errors import InvariantError, ResourceCapError, UsageError
from .fodc import (
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
    classical_laplacian_eigenvalue,
    log_q,
    lower_bound,
    q_laplacian_eigenvalue,
    qms_witness,
    spectrum_scan,
)
from .weights import dim_irrep, weight_system

LIMIT_LADDER = (0.9, 0.99, 0.999)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def _parse_rational(text: str, what: str) -> Fraction:
    if (value := read_rational(text)) is None:
        raise UsageError(f"cannot parse {what} {text!r} as a rational of at most about 1000 digits")
    return value


def _parse_coeff(text: str) -> Fraction | tuple[Fraction, Fraction]:
    """A real literal as its `Fraction`, a complex one as the exact pair (re, im) of its parts."""
    if "j" not in text and "J" not in text:
        return _parse_rational(text, "coefficient")
    try:
        complex(text)  # the literal's syntax only: its parts are read exactly below
    except ValueError as exc:
        raise UsageError(f"cannot parse coefficient {text!r}") from exc
    # split at the last sign that is not an exponent's: 1+1e-400j
    body = text.strip().removeprefix("(").removesuffix(")").strip()[:-1]
    cut = max([k for k, c in enumerate(body) if c in "+-" and (k == 0 or body[k - 1] not in "eE")], default=0)
    parts = [body[:cut] or "0", body[cut:] + "1" if body[cut:] in ("", "+", "-") else body[cut:]]
    return tuple(_parse_rational(part, "coefficient") for part in parts)


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
    triples = [_parse_term(text, R.rank) for text in terms]
    if any(zeta is not None and any(zeta) for zeta, _, _ in triples):
        raise UsageError("this command takes plain Laplacian terms; zeta must be 0")
    if any(isinstance(a, tuple) for _, _, a in triples):
        raise UsageError("this command takes real coefficients")
    return LaplacianSpec.of([(mu, a) for _, mu, a in triples])


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvariantError(f"the result {x} is not finite")
    return format(float(x) + 0.0, ".12g")  # + 0.0 turns -0.0 into 0.0


def _fmt_exact(x: int | Fraction) -> str:
    try:
        return str(x)
    except ValueError as exc:  # a numerator or denominator past sys.get_int_max_str_digits()
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise ResourceCapError(f"an exact result of {bits} bits is too long to print") from exc


class _Text(str):
    """Text already rendered as JSON, which `_json_value` writes verbatim."""


def _json_value(value, memo: dict) -> str:
    """JSON text of a report value, dispatched on its exact type; `memo` holds `"key":` texts."""
    kind = type(value)
    if kind is dict:
        parts = []
        for k, v in value.items():
            key = memo.get(k)
            if key is None:
                key = memo[k] = _json_value(k, memo) + ":"
            parts.append(key + _json_value(v, memo))
        return "{" + ",".join(parts) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_json_value(v, memo) for v in value]) + "]"
    if kind is int:
        return _fmt_exact(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is _Text:
        return value
    if kind is Pair:
        return _json_value({"zeta": value.zeta, "mu": value.mu}, memo)
    if kind is str:
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if value is None:
        return "null"
    if kind is float:
        return _fmt_float(value)
    if kind is Fraction:
        return '"' + _fmt_exact(value) + '"'
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
    if isinstance(value, (int, Fraction)):
        return _fmt_exact(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (Weight, CenterElement)):
        return value.serialize()
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


def _emit(text: str):
    if sys.stdout is None:
        raise UsageError("standard output is closed")
    try:
        print(text, end="", flush=True)
    except OSError as exc:  # drop the buffered report, or the flush at exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write standard output: {exc.strerror}") from exc


def _terms_json(spec: LaplacianSpec):
    return [{"mu": mu, "a": a} for mu, a in spec.terms]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_spectrum(args, R: RootSystem) -> dict:
    spec = _laplacian_spec(R, args.term)
    log_q(args.q)
    radius = _parse_rational(args.radius, "radius")
    rows = spectrum_scan(R, spec, args.q, radius)
    bound = lower_bound(R, spec, args.q)
    best = min(rows, key=lambda r: r.eigenvalue)
    return {
        "terms": _terms_json(spec),
        "q": args.q,
        "radius": radius,
        "lower_bound": bound,
        "min_eigenvalue": best.eigenvalue,
        "argmin": best.lam,
        "rows": [{"lambda": r.lam, "dim": r.dim, "eigenvalue": r.eigenvalue} for r in rows],
    }


def _cmd_limit(args, R: RootSystem) -> dict:
    spec = _laplacian_spec(R, args.term)
    radius = _parse_rational(args.radius, "radius")
    rows = []
    for lam in enumerate_dominant(R, radius):
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
        "terms": _terms_json(spec),
        "q_ladder": list(LIMIT_LADDER),
        "radius": radius,
        "rows": rows,
    }


def _cmd_witness(args, R: RootSystem) -> dict:
    log_q(args.q)
    if not args.mu:
        raise UsageError("at least one --mu is required")
    rows = []
    for text in args.mu:
        mu = Weight.of(_parse_int_vector(text, "mu", R.rank))
        w = qms_witness(R, mu, args.q)
        rows.append({
            "mu": mu,
            "witness": w,
            "verdict": "not quantum Markov" if w > 0 else "witness vanishes (mu = 0)",
        })
    report = {"q": args.q, "rows": rows}
    if len(R.factors) > 1:
        report["semisimple_convention"] = "per-factor highest roots summed"
    return report


def _cmd_fodc(args, R: RootSystem) -> dict:
    if args.term and (args.max_height, args.include_center) != (None, False):
        raise UsageError("fodc --term (validate) takes no --max-height or --include-center")
    if args.term:
        triples = [_parse_term(text, R.rank) for text in args.term]
        spec = GeneralFunctionalSpec.of([(center_reduce(R, zeta or [0] * R.rank), mu, a) for zeta, mu, a in triples])
        verdict = validate_functional(R, spec)
        induced = induced_class(R, spec)
        return {
            "terms": [{"zeta": z, "mu": mu, "a": {"re": re, "im": im}} for z, mu, (re, im) in spec.terms],
            **verdict._asdict(),  # self_adjoint, hermitian, q_laplacian, reasons
            "induced_dimension": fodc_dimension(R, induced),
            "induced_star_admissible": admits_star_structure(R, induced),
            "functional_class": list(induced),
        }
    if args.max_height is None:
        raise UsageError("fodc needs either --term (validate) or --max-height (enumerate)")
    calculi = enumerate_fodc_indices(R, args.max_height, args.include_center)
    # the pair-list text by the enumeration's recurrence: calculus m | 1 << k lists the pairs of
    # calculus m, then pair k, the lone pair of calculus 1 << k (`_render` turns CSV's "," into ";")
    as_json = args.format == "json"
    texts = [""]
    while len(texts) < len(calculi):
        pair = calculi[len(texts)][0][0]
        cell = _json_value(pair, {}) if as_json else _csv_cell(pair)
        texts += [text + "," + cell if text else cell for text in texts]
    return {
        "max_height": args.max_height,
        "include_center": args.include_center,
        "count": len(calculi),
        "rows": [{"pairs": _Text(f"[{text}]") if as_json else text, "dimension": dim, "star_admissible": star}
                 for text, (_, dim, star) in zip(texts, calculi)],
    }


def _cmd_heat(args, R: RootSystem) -> dict:
    spec = _laplacian_spec(R, args.term)
    log_q(args.q)
    radius = _parse_rational(args.radius, "radius")
    try:
        grid = [float(part) for part in args.t_grid.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse t grid {args.t_grid!r}") from exc
    results = heat_trace_report(R, spec, args.q, grid, radius)
    rows = [{"t": t, "trace": trace, "truncation_estimate": trunc}
            for t, (trace, trunc) in zip(grid, results)]
    verdict = markov_verdict(R, spec, args.q)
    return {
        "terms": _terms_json(spec),
        "q": args.q,
        "radius": radius,
        "quantum_markov": verdict.quantum_markov,
        "rows": rows,
    }


def _cmd_center(args, R: RootSystem) -> dict:
    group = center_group(R)
    return {
        "order": group.order,
        "invariant_factors": list(group.invariant_factors),
        "rows": [{"rep": z, "half_coroot": is_half_coroot(R, z)}
                 for z in group.representatives],
    }


def _cmd_weights(args, R: RootSystem) -> dict:
    mu = Weight.of(_parse_int_vector(args.mu, "mu", R.rank))
    ws = weight_system(R, mu)
    return {
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
        if q:
            p.add_argument("--q", type=float, required=True, help="deformation parameter in (0, 1)")
        if terms:
            p.add_argument("--term", action="append", default=[],
                           help="spec term, e.g. mu=1,0:a=1 or mu=1,0:a=1:zeta=0,0")
        if radius:
            p.add_argument("--radius", required=True, help="norm-ball radius, rational like 2 or 8/3")

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
        R = build_root_system([args.type])
        report = {"command": args.command, "type": args.type, **args.fn(args, R)}
        _emit(_render(report, args.format))
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
