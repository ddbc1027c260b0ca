"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` wraps the package's public functions where the calling
module binds them (for example `qlaplacian.cli.spectrum_scan` and
`qlaplacian.spectra.weight_system`), so the program's sources stay as they
are.  Spans are kept in memory with parent links; a span's self time is its
duration less the durations of its child spans.  The hot `inner_product`
gets a counter only.  `summary()` folds the spans into per-name totals that
the benchmark adds up across processes.

Run as a script, this module is a traced `qlap`:

    python perfbench/tracer.py spectrum --type A2 ...

It prints exactly what `python -m qlaplacian.cli` prints, exits with the
same code, and writes one `TRACE_MARK`-prefixed JSON line to stderr last:
the summary, with the monotonic times at which `cli.main` was entered and
left.  No span wraps `cli.main` itself, so program time outside the
wrapped functions is counted by no span and shows as missing coverage.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

TRACE_MARK = "#perfbench-trace "

# span name -> the (module, attribute) bindings it wraps
SPANS = {
    "cartan.build": ["cli.build_root_system"],
    "cartan.enumerate": ["cli.enumerate_dominant", "spectra.enumerate_dominant"],
    "cartan.center": ["cli.center_group", "cli.center_reduce", "cli.is_half_coroot", "fodc.center_group",
                      "fodc.center_negate", "fodc.center_reduce", "fodc.is_half_coroot",
                      "spectra.center_reduce", "spectra.coweight_pairing"],
    "spectra.eigen": ["spectra.q_laplacian_eigenvalue", "cli.q_laplacian_eigenvalue", "heat.q_laplacian_eigenvalue",
                      "spectra.classical_laplacian_eigenvalue", "cli.classical_laplacian_eigenvalue",
                      "spectra.casimir_eigenvalue", "spectra.general_functional_eigenvalue"],
    "spectra.scan": ["cli.spectrum_scan", "heat.spectrum_scan", "spectra.spectrum_scan"],
    "spectra.bound": ["cli.lower_bound", "spectra.lower_bound"],
    "spectra.witness": ["cli.qms_witness", "heat.qms_witness", "spectra.qms_witness"],
    "heat.trace": ["cli.heat_trace_report"],
    "heat.verdict": ["cli.markov_verdict"],
    "heat.coefficient": ["heat.heat_coefficient"],
    "fodc.enumerate": ["cli.enumerate_fodc_indices"],
    "fodc.star": ["cli.admits_star_structure", "fodc.admits_star_structure"],
    "fodc.dimension": ["cli.fodc_dimension", "fodc.fodc_dimension"],
    "fodc.validate": ["cli.validate_functional"],
    "cli.parse": ["cli._build_parser", "cli._Parser.parse_args"],
    "cli.render": ["cli._render"],
    "cli.emit": ["cli._emit"],
}
# lru-cached functions: the span name gets ".hit" or ".miss" from cache_info
CACHED = {
    "weights.system": ["cli.weight_system", "spectra.weight_system"],
    "weights.dim": ["cli.dim_irrep", "spectra.dim_irrep", "fodc.dim_irrep", "heat.dim_irrep", "weights.dim_irrep"],
}
COUNTED = {"cartan.inner_product": ["cartan.inner_product", "spectra.inner_product", "weights.inner_product"]}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.scan_keys: set = set()

    def _open(self, name: str) -> list:
        rec = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[3] = time.perf_counter()
        self.stack.pop()

    def _in_heat(self) -> bool:
        return any(self.spans[i][0].startswith("heat.") for i in self.stack)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "spectra.scan" and self._in_heat():
                self.counters["heat.scans"] += 1
                R, spec, q, radius = args[:4]
                self.scan_keys.add((R.label(), spec, q, radius, kwargs.get("row_cap")))
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name == "spectra.scan":
                self.counters["spectra.rows"] += len(result)
            elif name == "cartan.enumerate":
                self.counters["cartan.enumerate_points"] += len(result)
            elif name == "fodc.enumerate":
                self.counters["fodc.calculi"] += len(result)
            return result
        return traced

    def wrap_cached(self, name: str, fn):
        def traced(*args):
            hits = fn.cache_info().hits
            rec = self._open(name)
            try:
                result = fn(*args)
            finally:
                self._close(rec)
            if fn.cache_info().hits > hits:
                rec[0] = name + ".hit"
            else:
                rec[0] = name + ".miss"
                if name == "weights.system":
                    self.counters["weights.entries_built"] += len(result)
            return result
        return traced

    def wrap_counted(self, name: str, fn):
        counters = self.counters

        def counted(*args):
            counters[name] += 1
            return fn(*args)
        return counted

    def install(self):
        """Wrap every binding in SPANS, CACHED and COUNTED; call once per process."""
        modules = {name: importlib.import_module(f"qlaplacian.{name}")
                   for name in ("cartan", "cli", "fodc", "heat", "spectra", "weights")}
        for table, wrapper in ((SPANS, self.wrap), (CACHED, self.wrap_cached), (COUNTED, self.wrap_counted)):
            for name, bindings in table.items():
                for binding in bindings:
                    *path, attr = binding.split(".")
                    owner = modules[path[0]]
                    for part in path[1:]:
                        owner = getattr(owner, part)
                    setattr(owner, attr, wrapper(name, getattr(owner, attr)))

    def summary(self) -> dict:
        """Per span name: [calls, total duration, total self time]; plus the counters."""
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child_time[i]
        counters = dict(self.counters)
        counters["heat.distinct_scans"] = len(self.scan_keys)
        return {"spans": totals, "counters": counters}


def main(argv: list[str]) -> int:
    import qlaplacian.cli

    tracer = Tracer()
    tracer.install()
    entered = time.monotonic()
    code = qlaplacian.cli.main(argv)
    sys.stdout.flush()
    left = time.monotonic()
    sys.stderr.write(TRACE_MARK + json.dumps({"entered": entered, "left": left, **tracer.summary()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
