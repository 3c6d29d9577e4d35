"""Correctness gate, oracle spot checks and work counts for one batch.

A query fails when it raises out of main, exits with another code than
expected, reports all_checks_passed false, refuses with anything but a
one-line message, or answers differently from the reference digest or
from an oracle.  The last two (and answers that differ between two
workers) are wrong answers: they make the whole run incorrect.

Spot checks rebuild the random sets and subsets with the standard
library (the same Mersenne Twister draws the CLI literals specify) and
compare sampled answers with the library-free oracles in tests/oracles.py.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

SPOT_SEARCHES = 3      # search queries checked per batch
SPOT_ERGODIC = 3       # ergodic queries checked per batch
SPOT_NAIVE_STEPS = 2_000_000   # cap on |space| * |shift| for the measure oracle
SPOT_COUNT_TUPLES = 60_000     # cap on M^(2K) for the mod-N counting oracle
SPOT_GROUPED_TUPLES = 300_000  # cap on M^K for the grouped Tarry oracle


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def key(argv) -> str:
    return " ".join(argv)


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _opt(argv, flag, default=None):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


class _Poly:
    """P(n) = sum c_i n^i from an ascending 'c1,c2,...' literal."""

    def __init__(self, text: str):
        self.coefficients = [int(c) for c in text.split(",")]

    def evaluate(self, n: int) -> int:
        return sum(c * n ** i for i, c in enumerate(self.coefficients, start=1))


def _random_points(spec: str, lo: int, hi: int) -> list[int]:
    """Points of lo..hi-1 kept by a 'random:density:seed' literal."""
    _, density, seed = spec.split(":")
    rng = random.Random(int(seed))
    d = float(density)
    return [x for x in range(lo, hi) if rng.random() < d]


def _set_points(spec: str, n: int) -> list[int]:
    """Points of 1..n in an 'evens', 'ap:start:step' or random set literal."""
    if spec == "evens":
        return list(range(2, n + 1, 2))
    if spec.startswith("ap:"):
        _, start, step = spec.split(":")
        return list(range(int(start), n + 1, int(step)))
    return _random_points(spec, 1, n + 1)


def _system(spec: str) -> list[int]:
    kind, m = spec.split(":")[:2]
    m = int(m)
    if kind == "rotation":
        return [(x + 1) % m for x in range(m)]
    return [((x + 1) % m) * m + (y + x) % m for x in range(m) for y in range(m)]


def _check_search(oracles, argv, results) -> bool:
    n = int(_opt(argv, "--N"))
    elements = _set_points(_opt(argv, "--set"), n)
    if results["density"] != str(Fraction(len(elements), n)):
        return False
    polys = [_Poly(t) for t in _opt(argv, "--poly").split(";")]
    naive = (oracles.naive_intersection_cyclic
             if _opt(argv, "--mode") == "cyclic"
             else oracles.naive_intersection_integer)
    threshold = Fraction(len(elements), n) ** 2 - Fraction(float(_opt(argv, "--eps")))
    good = results["good_shifts"]
    m = results["shift_bound"]
    complete = results["good_count"] == len(good)
    if complete and results["good_count"] > m:
        return False
    samples = {s: True for s in good[:1] + good[-1:]}
    limit = m if complete else (good[-1] if good else 0)
    listed = set(good)
    bad = next((s for s in range(1, limit + 1) if s not in listed), None)
    if bad is not None:
        samples[bad] = False
    for shift_n, want in samples.items():
        got = all(Fraction(naive(elements, n, p.evaluate(shift_n)), n) > threshold
                  for p in polys)
        if got != want:
            return False
    return True


def _check_ergodic(oracles, argv, results) -> bool:
    mapping = _system(_opt(argv, "--system"))
    subset = _random_points(_opt(argv, "--subset"), 0, len(mapping))
    action = _opt(argv, "--action")
    if action == "measure":
        shift = int(_opt(argv, "--shift"))
        return Fraction(results["measure"]) == oracles.naive_recurrence_measure(
            mapping, subset, shift)
    if not results["found"]:
        return False
    measure = oracles.naive_recurrence_measure(mapping, subset, results["n"])
    return (measure == Fraction(results["measure"])
            and measure >= Fraction(results["threshold"]))


def _ergodic_cost(argv) -> int:
    m = int(_opt(argv, "--system").split(":")[1])
    size = m * m if _opt(argv, "--system").startswith("skew") else m
    return size * int(_opt(argv, "--shift", "12"))


def spot_check(oracles, queries, outs, passed) -> tuple[int, list[int]]:
    """Check a deterministic sample of answered queries against oracles.

    Returns (number checked, indices whose answer disagrees).
    """
    wrong, checked = [], 0
    searches = ergodic = 0
    for i, q in enumerate(queries):
        if not passed[i] or q.expect != 0:
            continue
        results = json.loads(outs[i])["results"]
        argv = q.argv
        ok = None
        if q.kind == "search" and searches < SPOT_SEARCHES:
            searches += 1
            ok = _check_search(oracles, argv, results)
        elif (q.kind == "ergodic" and ergodic < SPOT_ERGODIC
              and _opt(argv, "--action") in ("measure", "khintchine")
              and _ergodic_cost(argv) <= SPOT_NAIVE_STEPS):
            ergodic += 1
            ok = _check_ergodic(oracles, argv, results)
        elif q.kind == "weyl" and "count_solutions_mod" in results:
            m, k = int(_opt(argv, "--M")), int(_opt(argv, "--K"))
            if m ** (2 * k) <= SPOT_COUNT_TUPLES:
                ok = results["count_solutions_mod"] == oracles.naive_count_solutions_mod(
                    _Poly(_opt(argv, "--poly")), m, int(_opt(argv, "--N")), k)
        elif q.kind == "tarry":
            k_order, degree, m = (int(_opt(argv, f)) for f in ("--K", "--k", "--M"))
            if m ** k_order <= SPOT_GROUPED_TUPLES:
                ok = results["count"] == oracles.grouped_tarry(k_order, degree, m)
        elif q.kind == "growth":
            k_order, degree = int(_opt(argv, "--K")), int(_opt(argv, "--k"))
            rows = [r for r in results["growth_rows"]
                    if r["m"] ** k_order <= SPOT_GROUPED_TUPLES]
            if rows:
                ok = all(r["count"] == oracles.grouped_tarry(k_order, degree, r["m"])
                         for r in rows)
        if ok is not None:
            checked += 1
            if not ok:
                wrong.append(i)
    return checked, wrong


def classify(query, code, stdout, stderr, raised) -> tuple[bool, str]:
    """(passed, reason) for one answer, before digest and oracle checks."""
    if raised is not None:
        return False, f"raised {raised}"
    if query.expect == 2:
        if code != 2:
            return False, f"exit {code}, expected a refusal"
        if stdout or len(stderr.strip().splitlines()) != 1:
            return False, "refusal is not a one-line message"
        return True, "refused"
    if stdout and not json.loads(stdout).get("all_checks_passed"):
        return False, f"all_checks_passed false, exit {code}"
    if code != 0:
        return False, f"exit {code}"
    return True, "ok"


def work_counts(queries, outs) -> dict:
    """Counts computed from each answered query's inputs and report."""
    counts = {
        "recurrence.shifts_counted": 0,
        "recurrence.shifts_scanned": 0,
        "recurrence.good_shifts": 0,
        "recurrence.decompose.rounds": 0,
        "intset.points_scanned": 0,
        "weyl_tarry.tarry_queries.convolution": 0,
        "weyl_tarry.tarry_queries.mitm": 0,
        "ergodic_lab.khintchine_pairs_scanned": 0,
        "cli.report_bytes": 0,
    }
    for q, out in zip(queries, outs):
        counts["cli.report_bytes"] += len(out.encode())
        if q.expect != 0 or not out:
            continue
        results = json.loads(out)["results"]
        if _opt(q.argv, "--set") is not None:
            counts["intset.points_scanned"] += int(_opt(q.argv, "--N"))
        if q.kind == "search":
            family_size = len(_opt(q.argv, "--poly").split(";"))
            counts["recurrence.shifts_counted"] += family_size * results["shift_bound"]
            counts["recurrence.shifts_scanned"] += results["shift_bound"]
            counts["recurrence.good_shifts"] += results["good_count"]
        elif q.kind == "decompose":
            counts["recurrence.decompose.rounds"] += results["rounds"]
        elif q.kind == "tarry":
            counts[f"weyl_tarry.tarry_queries.{results['method']}"] += 1
        elif q.kind == "ergodic" and "pairs_scanned" in results:
            counts["ergodic_lab.khintchine_pairs_scanned"] += results["pairs_scanned"]
    return counts
