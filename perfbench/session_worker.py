"""A long-lived library session that serves benchmark calls.

Protocol, one JSON object per line:

- stdin, first line: {"types": [...], "warm": [[type, mu], ...]}.  The
  worker imports the package, builds the root systems, warms the weight
  systems of the listed pairs and of every highest root, and answers
  {"entered": <monotonic time at start>}.
- stdin, then: {"calls": [call, ...]} -> {"results": [...], "lat": [s, ...],
  "wall": s, "cpu": s}.  Arguments are built before the timed loop.  Each
  call is timed alone by the wall clock; wall and cpu cover the whole
  loop.
- stdin closed -> {"maxrss_kb": n, "trace": summary or null}, then exit.

With --trace the package is traced (see tracer.py) after set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction

entered = time.monotonic()

from qlaplacian import cartan, heat, spectra, weights  # noqa: E402

from tracer import Tracer  # noqa: E402

MODULE = {"q_laplacian_eigenvalue": spectra, "classical_laplacian_eigenvalue": spectra,
          "casimir_eigenvalue": spectra, "general_functional_eigenvalue": spectra,
          "lower_bound": spectra, "qms_witness": spectra, "heat_coefficient": heat, "dim_irrep": weights}


def _arguments(systems: dict, call: dict) -> tuple:
    R = systems[call["type"]]
    lam = cartan.Weight.of(call["lam"]) if "lam" in call else None
    fn = call["fn"]
    if fn == "general_functional_eigenvalue":
        spec = spectra.GeneralFunctionalSpec.of(
            [(cartan.center_reduce(R, z), mu, complex(Fraction(a))) for z, mu, a in call["terms"]])
        return R, spec, lam, call["q"]
    if fn in ("casimir_eigenvalue", "qms_witness"):
        mu = cartan.Weight.of(call["mu"])
        return (R, mu, lam, call["q"]) if fn == "casimir_eigenvalue" else (R, mu, call["q"])
    if fn == "dim_irrep":
        return R, lam
    spec = spectra.LaplacianSpec.of([(mu, Fraction(a)) for mu, a in call["terms"]])
    if fn == "lower_bound":
        return R, spec, call["q"]
    if fn == "classical_laplacian_eigenvalue":
        return R, spec, lam
    if fn == "heat_coefficient":
        return R, spec, lam, call["q"], call["t"]
    return R, spec, lam, call["q"]


def _encode(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def main() -> int:
    setup = json.loads(sys.stdin.readline())
    systems = {label: cartan.build_root_system(label.split("x")) for label in setup["types"]}
    for label, mu in setup["warm"]:
        weights.weight_system(systems[label], cartan.Weight.of(mu))
    for R in systems.values():
        for theta in R.highest_roots:
            weights.weight_system(R, theta)
    tracer = None
    if "--trace" in sys.argv[1:]:
        tracer = Tracer()
        tracer.install()
    print(json.dumps({"entered": entered}), flush=True)

    clock = time.perf_counter
    for line in sys.stdin:
        calls = json.loads(line)["calls"]
        jobs = [(getattr(MODULE[call["fn"]], call["fn"]), _arguments(systems, call)) for call in calls]
        results, lat = [], []
        cpu0, wall0 = time.process_time(), clock()
        for fn, args in jobs:
            t0 = clock()
            try:
                value = fn(*args)
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                value = {"error": repr(exc)}
            lat.append(clock() - t0)
            results.append(value)
        wall, cpu = clock() - wall0, time.process_time() - cpu0
        print(json.dumps({"results": [_encode(v) for v in results], "lat": lat, "wall": wall, "cpu": cpu}),
              flush=True)
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss, "trace": tracer.summary() if tracer else None}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
