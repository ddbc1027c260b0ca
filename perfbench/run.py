"""The qlaplacian benchmark: cold `qlap` reports and a warm library session.

    python3 perfbench/run.py --workload cli-scan --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is this tree's `src`, run in
child processes by one client in a closed loop: each CLI request is a fresh
`python -m qlaplacian.cli`, and the `session` workload sends library calls
to one long-lived worker.  Requests come in rounds (see workloads.py); a
run serves a fixed number of rounds sized from --seconds, and stops early
only once its request time passes MAX_BUSY_FACTOR times --seconds.  Every
output is checked against values the benchmark computes itself.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A human-readable summary, with the
sample counts, the tail percentile, the Python version, the CPU count and
the uncorrected wall-clock figures (see run_child), goes to stderr.  See
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_call, check_cli, rows_of  # noqa: E402
from tracer import TRACE_MARK  # noqa: E402
from workloads import NAMES, round_count, rounds, session_setup  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
# Fixed per workload, so that a faster program does not move the tail to a
# higher percentile; each leaves at least ten samples beyond it at the seed
# and falls where the distribution is dense.
TAIL_PERCENTILE = {"cli-scan": 75, "cli-reps": 80, "cli-calculi": 69, "session": 99}
SETUP_REPEATS = {"cli": 9, "session": 5}
REQUEST_TIMEOUT_S = 120.0
# A run stops after the round in which its request time passes this many
# times --seconds, so that a much slower program still ends in time.
MAX_BUSY_FACTOR = 4
# Stated tolerance for trace.coverage: process start-up and the span self
# times must account for this share of the traced time (spawn to the return
# of cli.main, or a session batch's loop), or the run fails.
COVERAGE_RANGE = (0.95, 1.0)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def steal_share_s() -> float:
    """One CPU's share of the hypervisor steal time accrued so far (0 where there is none).

    /proc/stat sums steal over all CPUs; a single-threaded process loses
    about one CPU's share of it while it runs.
    """
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK") / (os.cpu_count() or 1)
    except (OSError, IndexError, ValueError):
        return 0.0


def run_child(cmd: list[str], env: dict) -> dict:
    """Run one process to completion: its time, rusage and both output streams.

    `raw_wall` is the wall-clock time from spawn to reap; `wall` is that
    less one CPU's share of the steal time the host took meanwhile (see
    README.md).
    """
    spawn = time.monotonic()
    stolen = steal_share_s()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + REQUEST_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
                if not ready:
                    proc.kill()
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    stolen = steal_share_s() - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "out": b"".join(chunks[proc.stdout]), "err": b"".join(chunks[proc.stderr]),
            "wall": max(0.0, wall - stolen), "raw_wall": wall, "spawn": spawn,
            "cpu": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: at least (100 - p)% of the samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p / 100 * len(ordered)) - 1)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

CLI = [sys.executable, "-m", "qlaplacian.cli"]
TRACED_CLI = [sys.executable, str(HERE / "tracer.py")]


def cli_setups(env: dict) -> list[dict]:
    """Fresh interpreters importing qlaplacian.cli; the first, untimed, writes bytecode."""
    cmd = [sys.executable, "-c", "import qlaplacian.cli"]
    runs = []
    for _ in range(SETUP_REPEATS["cli"] + 1):
        res = run_child(cmd, env)
        if res["code"] != 0:
            raise BenchError(f"cannot import qlaplacian.cli: {res['err'].decode(errors='replace')[-500:]}")
        runs.append(res)
    return runs[1:]


def cli_requests(workload: str, seed: int, n_rounds: int, seconds: float, env: dict) -> list[dict]:
    """Serve `n_rounds` rounds, one request at a time, and check each output."""
    done, busy = [], 0.0
    for batch in itertools.islice(rounds(workload, seed), n_rounds):
        if busy >= MAX_BUSY_FACTOR * seconds:
            break
        for req in batch:
            res = run_child(CLI + req["argv"], env)
            busy += res["wall"]
            res["req"] = req
            res["problems"] = check_cli(req, res["code"], res["out"], res["err"])
            res["rows"] = 0 if res["problems"] or res["code"] else rows_of(res["out"])
            done.append(res)
    return done


def cli_end_to_end(workload: str, seed: int, seconds: float, env: dict) -> tuple[list[dict], dict, dict]:
    setup = cli_setups(env)
    done = cli_requests(workload, seed, round_count(workload, seconds), seconds, env)
    lat = [r["wall"] for r in done]
    busy = sum(lat)
    raw = [r["raw_wall"] for r in done]
    return done, {
        "setup_s": metric(statistics.median(r["wall"] for r in setup), "s"),
        "latency_p50_ms": metric(1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": metric(1e3 * percentile(lat, TAIL_PERCENTILE[workload]), "ms"),
        "requests_per_s": metric(len(done) / busy, "1/s"),
        "work_per_s": metric(sum(r["rows"] for r in done) / busy, "1/s"),
        "cpu_ms_per_request": metric(1e3 * sum(r["cpu"] for r in done) / len(done), "ms"),
        "peak_rss_mb": metric(max(r["maxrss_kb"] for r in done) / 1024, "MB"),
    }, {
        "setup_s": statistics.median(r["raw_wall"] for r in setup),
        "latency_p50_ms": 1e3 * statistics.median(raw),
        "latency_tail_ms": 1e3 * percentile(raw, TAIL_PERCENTILE[workload]),
        "requests_per_s": len(done) / sum(raw),
    }


def cli_traced(workload: str, seed: int, seconds: float, env: dict) -> tuple[list[dict], dict, dict]:
    """Half the rounds untraced, then the same requests traced; stdout must not change."""
    done = cli_requests(workload, seed, max(1, round_count(workload, seconds) // 2), seconds, env)
    merged = Totals()
    startup, traced_wall, in_main, covered = [], 0.0, 0.0, 0.0
    for res in done:
        traced = run_child(TRACED_CLI + res["req"]["argv"], env)
        err, _, line = traced["err"].rpartition(TRACE_MARK.encode())
        if traced["out"] != res["out"] or traced["code"] != res["code"] or err != res["err"] or not line:
            res["problems"].append("traced run changed the output")
            continue
        summary = json.loads(line)
        merged.add(summary)
        startup.append(summary["entered"] - traced["spawn"])
        traced_wall += traced["wall"]
        in_main += summary["left"] - traced["spawn"]
        covered += startup[-1] + summary_self(summary)
        merged.add({"spans": {}, "counters": {"cli.output_bytes": len(traced["out"])}})
    untraced_wall = sum(r["wall"] for r in done)
    extra = {"proc.startup_s": metric(statistics.median(startup) if startup else 0.0, "s"),
             "trace.overhead_frac": metric(traced_wall / untraced_wall - 1, "ratio"),
             "trace.coverage": metric(covered / in_main if in_main else 0.0, "ratio")}
    return done, {**merged.metrics(len(done)), **extra}, {}


# ---------------------------------------------------------------------------
# library session
# ---------------------------------------------------------------------------


class Session:
    """One session worker process, talked to over pipes; killed if its block raises."""

    def __init__(self, env: dict, trace: bool):
        cmd = [sys.executable, str(HERE / "session_worker.py")] + (["--trace"] if trace else [])
        self.spawn = time.monotonic()
        stolen = steal_share_s()
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                     text=True)
        with self:
            self.ready = self.request(session_setup())
        self.raw_setup_s = time.perf_counter() - start
        self.setup_s = max(0.0, self.raw_setup_s - (steal_share_s() - stolen))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"session worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def calls(self, batches, seconds: float) -> tuple[list, list[dict]]:
        """Send each batch of calls in turn; the batches sent and the worker's replies.

        A reply's `wall` is its loop's wall-clock time, and `busy` that less
        one CPU's share of the steal (see run_child).
        """
        sent, replies, busy = [], [], 0.0
        for calls in batches:
            if busy >= MAX_BUSY_FACTOR * seconds:
                break
            stolen = steal_share_s()
            reply = self.request({"calls": calls})
            reply["busy"] = max(0.0, reply["wall"] - (steal_share_s() - stolen))
            busy += reply["busy"]
            sent.append(calls)
            replies.append(reply)
        return sent, replies

    def close(self) -> dict:
        """End the session; the worker's final message."""
        self.proc.stdin.close()
        final = json.loads(self.proc.stdout.readline() or "{}")
        self.proc.stdout.close()
        self.proc.wait(timeout=REQUEST_TIMEOUT_S)
        return final


def session_rounds(seed: int, n_rounds: int) -> list:
    return list(itertools.islice(rounds("session", seed), n_rounds))


def session_checked(batches, replies, traced_replies=None) -> list[dict]:
    """Check every result; with traced replies, also that tracing left each result unchanged."""
    done = []
    for i, (calls, reply) in enumerate(zip(batches, replies)):
        traced = traced_replies[i]["results"] if traced_replies else reply["results"]
        for call, result, again, lat in zip(calls, reply["results"], traced, reply["lat"]):
            problems = check_call(call, result)
            if json.dumps(again) != json.dumps(result):
                problems.append("traced run changed the result")
            done.append({"call": call, "wall": lat, "problems": problems})
    return done


def session_end_to_end(seed: int, seconds: float, env: dict) -> tuple[list[dict], dict, dict]:
    sessions = []
    for _ in range(SETUP_REPEATS["session"] - 1):
        with Session(env, False) as session:
            session.close()
        sessions.append(session)
    with Session(env, False) as session:
        batches, replies = session.calls(session_rounds(seed, round_count("session", seconds)), seconds)
        final = session.close()
    sessions.append(session)
    done = session_checked(batches, replies)
    lat = [d["wall"] for d in done]
    busy = sum(r["busy"] for r in replies)
    return done, {
        "setup_s": metric(statistics.median(s.setup_s for s in sessions), "s"),
        "latency_p50_ms": metric(1e3 * statistics.median(lat), "ms"),
        "latency_tail_ms": metric(1e3 * percentile(lat, TAIL_PERCENTILE["session"]), "ms"),
        "requests_per_s": metric(len(done) / busy, "1/s"),
        "work_per_s": metric(len(done) / busy, "1/s"),
        "cpu_ms_per_request": metric(1e3 * sum(r["cpu"] for r in replies) / len(done), "ms"),
        "peak_rss_mb": metric(final["maxrss_kb"] / 1024, "MB"),
    }, {
        "setup_s": statistics.median(s.raw_setup_s for s in sessions),
        "requests_per_s": len(done) / sum(r["wall"] for r in replies),
    }


def session_traced(seed: int, seconds: float, env: dict) -> tuple[list[dict], dict, dict]:
    """Untraced worker for half the batches, then a fresh traced worker replays the same calls."""
    with Session(env, False) as session:
        batches, replies = session.calls(session_rounds(seed, max(1, round_count("session", seconds) // 2)),
                                         seconds)
        session.close()
    with Session(env, True) as traced:
        _, traced_replies = traced.calls(batches, float("inf"))
        summary = traced.close()["trace"]
    done = session_checked(batches, replies, traced_replies)
    merged = Totals()
    merged.add(summary)
    traced_wall = sum(r["wall"] for r in traced_replies)
    overhead = sum(r["busy"] for r in traced_replies) / sum(r["busy"] for r in replies) - 1
    extra = {"proc.startup_s": metric(traced.ready["entered"] - traced.spawn, "s"),
             "trace.overhead_frac": metric(overhead, "ratio"),
             "trace.coverage": metric(summary_self(summary) / traced_wall, "ratio")}
    return done, {**merged.metrics(len(done)), **extra}, {}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def summary_self(summary: dict) -> float:
    return sum(total[2] for total in summary["spans"].values())


class Totals:
    """Span totals and counters added up over traced processes."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def add(self, summary: dict):
        for name, values in summary["spans"].items():
            acc = self.spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, v in summary["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + v

    def calls(self, *names) -> int:
        return sum(self.spans.get(n, [0])[0] for n in names)

    def self_s(self, *names) -> float:
        return sum(self.spans.get(n, [0, 0.0, 0.0])[2] for n in names)

    def layer_self(self, prefix: str) -> float:
        return sum(v[2] for n, v in self.spans.items() if n.startswith(prefix + "."))

    def metrics(self, requests: int) -> dict:
        n = max(requests, 1)
        c = self.counters.get

        def per(value, unit="s/req"):
            return metric(value / n, unit)

        def ratio(a, b):
            return metric(a / b if b else 0.0, "ratio")

        hits, misses = self.calls("weights.system.hit"), self.calls("weights.system.miss")
        dim_hits, dim_calls = self.calls("weights.dim.hit"), self.calls("weights.dim.hit", "weights.dim.miss")
        eigen_calls = self.calls("spectra.eigen")
        return {
            "cartan.self_s": per(self.layer_self("cartan")),
            "cartan.build_s": per(self.self_s("cartan.build")),
            "cartan.build_calls": per(self.calls("cartan.build"), "count/req"),
            "cartan.enumerate_s": per(self.self_s("cartan.enumerate")),
            "cartan.enumerate_points": per(c("cartan.enumerate_points", 0), "count/req"),
            "cartan.inner_product_calls": per(c("cartan.inner_product", 0), "count/req"),
            "cartan.center_s": per(self.self_s("cartan.center")),
            "weights.self_s": per(self.layer_self("weights")),
            "weights.build_s": per(self.self_s("weights.system.miss")),
            "weights.misses": per(misses, "count/req"),
            "weights.entries_built": per(c("weights.entries_built", 0), "count/req"),
            "weights.hits": per(hits, "count/req"),
            "weights.hit_ratio": ratio(hits, hits + misses),
            "weights.hit_s": per(self.self_s("weights.system.hit")),
            "weights.dim_s": per(self.self_s("weights.dim.hit", "weights.dim.miss")),
            "weights.dim_calls": per(dim_calls, "count/req"),
            "weights.dim_hit_ratio": ratio(dim_hits, dim_calls),
            "spectra.self_s": per(self.layer_self("spectra")),
            "spectra.eigen_s": per(self.self_s("spectra.eigen")),
            "spectra.eigen_calls": per(eigen_calls, "count/req"),
            "spectra.us_per_eigen": metric(1e6 * self.self_s("spectra.eigen") / eigen_calls if eigen_calls else 0.0,
                                           "us"),
            "spectra.scan_s": per(self.self_s("spectra.scan")),
            "spectra.rows": per(c("spectra.rows", 0), "count/req"),
            "heat.self_s": per(self.layer_self("heat")),
            "heat.scans": per(c("heat.scans", 0), "count/req"),
            "heat.scan_useful_ratio": ratio(c("heat.distinct_scans", 0), c("heat.scans", 0)),
            "fodc.self_s": per(self.layer_self("fodc")),
            "fodc.enumerate_s": per(self.self_s("fodc.enumerate")),
            "fodc.calculi": per(c("fodc.calculi", 0), "count/req"),
            "fodc.star_s": per(self.self_s("fodc.star")),
            "fodc.dimension_s": per(self.self_s("fodc.dimension")),
            "fodc.validate_s": per(self.self_s("fodc.validate")),
            "cli.self_s": per(self.layer_self("cli")),
            "cli.output_bytes": per(c("cli.output_bytes", 0), "B/req"),
        }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qlaplacian" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'qlaplacian'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        if args.workload == "session":
            run = session_traced if args.trace else session_end_to_end
            done, metrics, raw = run(args.seed, args.seconds, env)
        else:
            run = cli_traced if args.trace else cli_end_to_end
            done, metrics, raw = run(args.workload, args.seed, args.seconds, env)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2
    failed = [d for d in done if d["problems"]]
    report_stderr(args, done, failed, metrics, raw)
    covered = not args.trace or COVERAGE_RANGE[0] <= metrics["trace.coverage"]["value"] <= COVERAGE_RANGE[1]
    if not covered:
        print(f"perfbench: FAILED: trace.coverage outside the stated range {COVERAGE_RANGE}", file=sys.stderr)
    print(json.dumps({"correct": covered and not failed, "attempted": len(done), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def report_stderr(args, done, failed, metrics, raw):
    p = TAIL_PERCENTILE[args.workload]
    beyond = len(done) - ceil(p / 100 * len(done))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(done)} requests, "
          f"{len(failed)} failed; tail = p{p} with {beyond} samples beyond it; "
          f"python {platform.python_version()}, nproc {os.cpu_count()}", file=sys.stderr)
    for d in failed[:10]:
        what = d["req"]["argv"] if "req" in d else d["call"]
        print(f"  FAILED {what}: {d['problems'][:3]}", file=sys.stderr)
    for name, m in metrics.items():
        plain = f" (raw wall-clock {raw[name]:.6g})" if name in raw else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{plain}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
