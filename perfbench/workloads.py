"""Seeded request streams for the four benchmark workloads.

A stream is a sequence of rounds.  Every round holds the same slots (one
request each, with parameters drawn from the seed) in a shuffled order, so
that every run serves the same mix whatever its seed; slots marked `once`
appear only in the first round.  A run serves `round_count` rounds.
Requests are plain data: a CLI request carries the `qlap` argv and the
parameters its checker needs, a session request carries the name of a
library function and its arguments as JSON values.  The same workload and
seed always give the same stream.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import lie

COEFFS = ("1", "2", "1/2", "3/2")


def _fund(rank: int, j: int) -> tuple[int, ...]:
    return tuple(int(k == j) for k in range(rank))


def _wstr(w) -> str:
    return ",".join(str(c) for c in w)


def _q(rng: random.Random) -> str:
    return f"{rng.uniform(0.3, 0.95):.3f}"


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

# Scan slots: (command, type, term weights, row range).  Terms are
# fundamental weights touching every simple factor, fixed per slot, and the
# row ranges are narrow, so that a slot's cost varies little with the seed;
# the seed draws the coefficients, q, the radius, the t grid and the order.
SCAN_SLOTS = (
    ("spectrum", "A2", ((1, 0), (0, 1)), (450, 600)),
    ("spectrum", "A3", ((1, 0, 0), (0, 0, 1)), (110, 160)),
    ("spectrum", "B2", ((1, 0), (0, 1)), (180, 260)),
    ("spectrum", "B3", ((1, 0, 0), (0, 0, 1)), (60, 90)),
    ("spectrum", "C3", ((1, 0, 0), (0, 0, 1)), (60, 90)),
    ("spectrum", "G2", ((1, 0), (0, 1)), (130, 190)),
    ("spectrum", "D4", ((1, 0, 0, 0), (0, 0, 1, 0)), (40, 60)),
    ("spectrum", "A1xG2", ((1, 0, 0), (0, 1, 0)), (350, 450)),
    ("spectrum", "A1xA2", ((1, 0, 0), (0, 0, 1)), (150, 220)),
    ("limit", "A3", ((1, 0, 0), (0, 0, 1)), (40, 60)),
    ("limit", "A1xA2", ((1, 0, 0), (0, 1, 0)), (60, 90)),
    ("heat", "B2", ((1, 0), (0, 1)), (40, 60)),
    ("heat", "G2", ((1, 0), (0, 1)), (40, 60)),
)


def _radius(rng: random.Random, label: str, lo: int, hi: int) -> Fraction:
    """A radius whose ball holds between lo and hi dominant weights."""
    norms = lie(label).sorted_norms(hi)
    return norms[rng.randint(lo, hi) - 1][0]


def _scan_request(rng: random.Random, cmd: str, label: str, mus, rows: tuple[int, int]) -> dict:
    terms = [(mu, rng.choice(COEFFS)) for mu in mus]
    radius = _radius(rng, label, *rows)
    argv = [cmd, "--type", label]
    for mu, a in terms:
        argv += ["--term", f"mu={_wstr(mu)}:a={a}"]
    req = {"cmd": cmd, "type": label, "terms": terms, "radius": radius, "exit": 0}
    if cmd != "limit":
        req["q"] = _q(rng)
        argv += ["--q", req["q"]]
    argv += ["--radius", str(radius)]
    if cmd == "heat":
        grid = set()
        while len(grid) < 8:
            grid.add(float(f"{10 ** rng.uniform(-2, 1):.3g}"))
        req["grid"] = sorted(grid)
        argv += ["--t-grid", ",".join(repr(t) for t in req["grid"])]
    req["argv"] = argv
    return req


def _cli_scan_slots():
    return [(lambda rng, slot=slot: _scan_request(rng, *slot), False) for slot in SCAN_SLOTS]


# Weights slots: each is a list of (type, mu) choices of equal cost, mostly
# a weight and its dual -w0 mu, whose weight systems have the same size.
REPS_SLOTS = (
    [("F4", (1, 1, 0, 0))],
    [("E6", (1, 0, 0, 0, 0, 0)), ("E6", (0, 0, 0, 0, 0, 1))],
    [("E6", (0, 0, 1, 0, 0, 0)), ("E6", (0, 0, 0, 0, 1, 0))],
    [("E7", (0, 0, 0, 0, 0, 0, 1))],
    [("E7", (1, 0, 0, 0, 0, 0, 0))],
    [("A6", (0, 1, 0, 0, 0, 0)), ("A6", (0, 0, 0, 0, 1, 0))],
    [("A7", (2, 0, 0, 0, 0, 0, 0)), ("A7", (0, 0, 0, 0, 0, 0, 2))],
    [("D5", (1, 0, 0, 1, 0)), ("D5", (1, 0, 0, 0, 1))],
    [("D7", (0, 0, 0, 0, 0, 1, 0)), ("D7", (0, 0, 0, 0, 0, 0, 1))],
    [("C6", (0, 0, 0, 0, 0, 1)), ("B6", (1, 0, 0, 0, 0, 1))],
)
# Witness slots: (type, mu) choices; q is drawn from the seed.
WITNESS_SLOTS = (
    [("E6", (1, 0, 0, 0, 0, 0)), ("E6", (0, 0, 0, 0, 0, 1))],
    [("E7", (0, 0, 0, 0, 0, 0, 1))],
)


def _weights_request(label: str, mu) -> dict:
    return {"cmd": "weights", "type": label, "mu": tuple(mu), "exit": 0,
            "argv": ["weights", "--type", label, f"--mu={_wstr(mu)}"]}


def _witness_request(rng: random.Random, choices) -> dict:
    label, mu = rng.choice(choices)
    q = _q(rng)
    return {"cmd": "witness", "type": label, "mus": [mu], "q": q, "exit": 0,
            "argv": ["witness", "--type", label, "--q", q, "--mu", _wstr(mu)]}


def _cli_reps_slots():
    return [
        (lambda rng: _weights_request("E8", (0, 0, 0, 0, 0, 0, 0, 1)), True),
        (lambda rng: _weights_request("E7", (0, 0, 0, 0, 0, 0, 2)), True),
        *[(lambda rng, c=choices: _weights_request(*rng.choice(c)), False) for choices in REPS_SLOTS],
        *[(lambda rng, c=choices: _witness_request(rng, c), False) for choices in WITNESS_SLOTS],
    ]


def _fodc_enumeration(label: str, h: int, center: bool) -> dict:
    argv = ["fodc", "--type", label, "--max-height", str(h)]
    if center:
        argv.append("--include-center")
    return {"cmd": "fodc", "type": label, "h": h, "center": center, "exit": 0, "argv": argv}


def _fodc_validation(rng: random.Random) -> dict:
    label = rng.choice(("A2", "A3", "D5", "E6", "A1xA2", "B3", "A1xG2"))
    data = lie(label)
    n = data.rank
    mus = {_fund(n, j) for j in rng.sample(range(n), k=min(n, 2))}
    if rng.random() < 0.5:
        mus |= {data.minus_w0(mu) for mu in mus}
    terms = [(mu, rng.choice(COEFFS)) for mu in sorted(mus)]
    argv = ["fodc", "--type", label]
    for mu, a in terms:
        argv += ["--term", f"mu={_wstr(mu)}:a={a}"]
    return {"cmd": "fodc-term", "type": label, "terms": terms, "exit": 0, "argv": argv}


def _center_request(rng: random.Random) -> dict:
    pieces = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "D5", "E6", "G2"]
    label = "x".join(rng.sample(pieces, k=rng.choice((2, 3))))
    return {"cmd": "center", "type": label, "exit": 0, "argv": ["center", "--type", label]}


def _rejection(rng: random.Random) -> dict:
    kind = rng.choice(("cap", "label", "dominance"))
    if kind == "cap":
        label, h = rng.choice([("A2", 2), ("B2", 3), ("A1", 16)])
        req = _fodc_enumeration(label, h, True)
        req.update(cmd="reject", exit=3)
        return req
    if kind == "label":
        label = rng.choice(("Q3", "A2y", "a", "G", "A1xx", "E9x"))
        argv = rng.choice((["center", "--type", label], ["weights", "--type", label, "--mu", "1"]))
        return {"cmd": "reject", "exit": 1, "argv": argv}
    label = rng.choice(("A2", "B3", "G2", "D4"))
    n = lie(label).rank
    mu = [rng.randint(0, 2) for _ in range(n)]
    mu[rng.randrange(n)] = -rng.randint(1, 3)
    return {"cmd": "reject", "exit": 2, "argv": ["weights", "--type", label, f"--mu={_wstr(mu)}"]}


def _light_request(rng: random.Random) -> dict:
    return rng.choice((_fodc_validation, _center_request, _rejection))(rng)


def _cli_calculi_slots():
    # The enumerations are most of each round: B2 h<=2 (0.6-0.9 s, 2048
    # calculi, 400 KB of JSON) is six of its eight requests, so that the
    # median and the tail both fall well inside its spread of times; A1 h<=6
    # (2.4 s, 1.6 MB) runs once per run.  One light request per round, a
    # validation, a center report or a rejection, keeps those paths measured.
    return [
        (lambda rng: _fodc_enumeration("A1", 6, True), True),
        *[(lambda rng: _fodc_enumeration("B2", 2, True), False)] * 6,
        (lambda rng: _fodc_enumeration("A2", 1, True), False),
        (_light_request, False),
    ]


# ---------------------------------------------------------------------------
# library session
# ---------------------------------------------------------------------------

# The (type, mu) pairs of the session.  A call draws its pair by Zipf's law
# with exponent 1 (the k-th pair with weight 1/k), the textbook model of
# skewed popularity, over the pairs ranked by dim V(mu), smallest first, so
# the common pairs are the small representations.  The ranking is fixed,
# so that every seed draws the same cost mix.
SESSION_PAIRS = sorted([
    ("A2", (1, 0)), ("B2", (0, 1)), ("A1", (1,)), ("G2", (1, 0)), ("A3", (1, 0, 0)),
    ("A2", (1, 1)), ("B3", (0, 0, 1)), ("A1xG2", (1, 1, 0)), ("C3", (1, 0, 0)), ("D4", (1, 0, 0, 0)),
    ("A1", (2,)), ("B2", (1, 0)), ("G2", (0, 1)), ("A3", (0, 1, 0)), ("F4", (0, 0, 0, 1)),
    ("A2", (0, 1)), ("B3", (1, 0, 0)), ("D4", (0, 1, 0, 0)), ("E6", (1, 0, 0, 0, 0, 0)), ("C3", (0, 1, 0)),
    ("A1", (3,)), ("A3", (1, 0, 1)), ("A2", (2, 0)), ("B3", (0, 1, 0)), ("A1xG2", (0, 0, 1)),
    ("F4", (1, 0, 0, 0)), ("B2", (0, 2)), ("A1xG2", (1, 0, 0)),
], key=lambda pair: (lie(pair[0]).dim(pair[1]), pair))
SESSION_TYPES = tuple(dict.fromkeys(label for label, _ in SESSION_PAIRS))
PAIR_WEIGHTS = [1 / k for k in range(1, len(SESSION_PAIRS) + 1)]
# Every coordinate of a block weight lambda is drawn from 0..LAMBDA_MAX:
# thousands of distinct (type, lambda) over the session, far more than the
# pairs.
LAMBDA_MAX = 6
# The eight library functions, drawn with equal shares.
SESSION_CALLS = ("q_laplacian_eigenvalue", "classical_laplacian_eigenvalue", "casimir_eigenvalue",
                 "general_functional_eigenvalue", "heat_coefficient", "lower_bound", "qms_witness", "dim_irrep")
# The witness pairs every block with the adjoint; above rank 4 one call
# takes over 15 ms, so those draws evaluate a Casimir eigenvalue instead.
WITNESS_MAX_RANK = 4
# A session round is one batch of this many calls.
SESSION_ROUND = 1024


def session_setup() -> dict:
    """What the session worker builds before its first request."""
    return {"types": list(SESSION_TYPES), "warm": [[label, list(mu)] for label, mu in SESSION_PAIRS]}


def _session_slots() -> list[tuple]:
    """The (pair, function) slots of every session round.

    Each pair gets its Zipf share of the round and each function an equal
    part of that, rounded by largest remainder, so that every round of
    every seed holds the same calls; the heaviest calls, which set the
    tail, are too rare for a random draw to give each run the same number.
    """
    total = sum(PAIR_WEIGHTS) * len(SESSION_CALLS)
    quotas = [(SESSION_ROUND * w / total, pair, fn)
              for pair, w in zip(SESSION_PAIRS, PAIR_WEIGHTS) for fn in SESSION_CALLS]
    slots = [(pair, fn) for quota, pair, fn in quotas for _ in range(int(quota))]
    by_remainder = sorted(quotas, key=lambda q: q[0] - int(q[0]), reverse=True)
    return slots + [(pair, fn) for _, pair, fn in by_remainder[:SESSION_ROUND - len(slots)]]


def _session_call(rng: random.Random, pair: tuple, fn: str) -> dict:
    """One call to `fn` on `pair`: the functional is a * Delta_mu."""
    label, mu = pair
    data = lie(label)
    if fn == "qms_witness" and data.rank > WITNESS_MAX_RANK:
        fn = "casimir_eigenvalue"
    lam = [rng.randint(0, LAMBDA_MAX) for _ in range(data.rank)]
    a = rng.choice(COEFFS)
    call = {"fn": fn, "type": label}
    if fn in ("q_laplacian_eigenvalue", "classical_laplacian_eigenvalue", "heat_coefficient", "lower_bound"):
        call["terms"] = [[list(mu), a]]
    if fn != "lower_bound" and fn != "qms_witness":
        call["lam"] = lam
    if fn in ("casimir_eigenvalue", "qms_witness"):
        call["mu"] = list(mu)
    if fn == "general_functional_eigenvalue":
        # zeta: each coordinate in 0..2, reduced to its center class by the worker
        call["terms"] = [[[rng.randint(0, 2) for _ in range(data.rank)], list(mu), a]]
    if fn != "classical_laplacian_eigenvalue" and fn != "dim_irrep":
        call["q"] = float(_q(rng))
    if fn == "heat_coefficient":
        call["t"] = float(f"{10 ** rng.uniform(-3, 0):.3g}")
    return call


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

# Rounds per second of --seconds, measured on the seed code on a 2-CPU
# host.  A run serves a fixed number of rounds, so that every run of a
# workload and seed serves exactly the same requests however fast the
# program is; on the seed code its request time is 0.8 to 1.0 times
# --seconds, which leaves room for set-up and checks.
ROUNDS_PER_S = {"cli-scan": 0.16, "cli-reps": 0.2, "cli-calculi": 0.16, "session": 1.5}

_SLOTS = {"cli-scan": _cli_scan_slots, "cli-reps": _cli_reps_slots, "cli-calculi": _cli_calculi_slots}
NAMES = ("cli-scan", "cli-reps", "cli-calculi", "session")


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_S[workload]))


def rounds(workload: str, seed: int):
    """Yield the rounds of a workload's request stream, forever."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "session":
        slots = _session_slots()
        while True:
            yield [_session_call(rng, *slot) for slot in rng.sample(slots, len(slots))]
    slots = _SLOTS[workload]()
    first = True
    while True:
        batch = [make(rng) for make, once in slots if first or not once]
        rng.shuffle(batch)
        first = False
        yield batch

