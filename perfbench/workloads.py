"""Seeded query batches for the polyrec benchmark.

Each workload is a fixed grid of ``polyrec`` CLI invocations.  The seed
only picks the random sets, subsets and weights and jitters N and
densities by under a percent, so the work in a batch (and with it every
timing) stays nearly the same from seed to seed while the answers change.
The order is fixed too: peak memory depends on it.  This module uses the
standard library only: the worker imports it during its timed set-up,
and the parent imports it before any polyrec code is on the path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Workload name -> (one-line reason, ROADMAP item it judges).
WORKLOADS = {
    "kernels": (
        "the heavy kernels: per-shift counting in search at N 2e5-1e6 and "
        "M 1e3-1e4, decompose --set, weyl with count_solutions_mod, tarry on "
        "the convolution and meet-in-the-middle routes, growth probes; "
        "ergodic_lab and lattice_dioph idle",
        "ROADMAP 2 (one exact convolution kernel) and 3 (array intersection counts)",
    ),
    "desk-mix": (
        "many small queries where per-query fixed costs dominate: few-shift "
        "searches, ergodic, every dioph action, lift, selftest and refusal "
        "probes",
        "ROADMAP 3 and 4 (ergodic arrays, failure contract)",
    ),
}

#: Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "recurrence.intersection_profile.{self_s,calls}, recurrence.shifts_counted":
        "batch_s, query_tail_s on kernels; small share on desk-mix, must not grow",
    "recurrence.find_good_shifts.self_s, polyfam.shift_range.self_s, recurrence.good_share":
        "batch_s on kernels",
    "recurrence.decompose.{self_s,rounds}, zn_fourier.{dft,inverse_dft,balanced_function}.self_s, "
    "zn_fourier.transform_points":
        "batch_s, peak_rss_mb on kernels",
    "intset.generate_set.{self_s,calls}, intset.points_scanned":
        "query_p50_s on desk-mix, batch_s on kernels",
    "weyl_tarry.weyl_sum.self_s, weyl_tarry.count_solutions_mod.{self_s,calls}":
        "batch_s, query_tail_s on kernels",
    "weyl_tarry.tarry_count.{self_s,calls,mitm_share}, weyl_tarry.growth_probe.self_s":
        "batch_s, query_p50_s on kernels",
    "ergodic_lab.{system_build,cycles,power_map,recurrence_measure,khintchine_search,"
    "griesmer_search}.*, ergodic_lab.measure_reuse":
        "batch_s, query_tail_s on desk-mix",
    "lattice_dioph.*.self_s, lattice_dioph.gaussian_average.calls":
        "query_p50_s on desk-mix",
    "cli.main.self_s, cli.report_bytes": "query_p50_s on desk-mix",
    "<module>.errors": "answered_frac on desk-mix",
    "import time": "setup_s on every workload",
}


@dataclass(frozen=True)
class Query:
    """One CLI invocation and the outcome the gate expects of it."""

    argv: tuple[str, ...]
    kind: str          # query class, e.g. "search" or "probe"
    expect: int = 0    # expected exit code; probes expect 2


def _jitter(rng: random.Random, value: int, share: float = 0.005) -> int:
    return int(round(value * (1 + rng.uniform(-share, share))))


def _density(rng: random.Random, value: float) -> str:
    return f"{value + rng.uniform(-0.003, 0.003):.3f}"


def _random(rng: random.Random, density: float) -> str:
    """A 'random:density:seed' set or subset literal."""
    return f"random:{_density(rng, density)}:{rng.randrange(10**6)}"


def _search(rng, n, density, family, mode, m, step=1, set_spec=None):
    """A search whose shift bound is m for a family of degree `step`.

    eps is set so that floor((eps N)^(1/k)) = m, with a half-unit margin
    against the float rounding of eps.  The set is random with the given
    density unless `set_spec` names another literal.
    """
    n = _jitter(rng, n)
    eps = repr((m ** step + 0.5) / n)
    argv = ("search", "--N", str(n), "--set", set_spec or _random(rng, density),
            "--poly", family, "--eps", eps, "--mode", mode)
    return Query(argv, "search")


def _shift_search(rng: random.Random) -> list[Query]:
    # (N, density, family, mode, shifts): linear and equal-degree linear
    # families.  For '1;2', '2;3' and '1;-3' shift_range cuts M by the
    # largest coefficient.  Most queries sit at the cheap corner so a batch
    # holds enough of them; the rest reach density 0.8, M = 1e4 and N = 1e6.
    grid = [
        (200_000, 0.2, "1", "integer", 1_000),
        (200_000, 0.2, "1", "cyclic", 1_000),
        (200_000, 0.2, "1;2", "integer", 1_000),
        (200_000, 0.2, "1;-3", "cyclic", 3_000),
        (200_000, 0.3, "1", "integer", 1_000),
        (200_000, 0.3, "1", "cyclic", 1_000),
        (200_000, 0.3, "2;3", "integer", 1_500),
        (200_000, 0.4, "1", "integer", 1_000),
        (200_000, 0.5, "1", "integer", 1_000),
        (200_000, 0.8, "1", "integer", 1_000),
        (200_000, 0.2, "1", "integer", 10_000),
        (300_000, 0.2, "1", "integer", 1_000),
        (400_000, 0.2, "1", "cyclic", 1_000),
        (600_000, 0.2, "1;-3", "integer", 3_000),
        (1_000_000, 0.2, "1", "integer", 1_000),
    ]
    # Structured sets come first, so the spot checks see them.  On a random
    # set every scanned shift clears the threshold; here only the shifts
    # that keep the set's period do, so some shifts are bad.
    qs = [_search(rng, 200_000, None, "1", "integer", 1_000, set_spec="evens"),
          _search(rng, 200_000, None, "1;2", "cyclic", 1_500, set_spec="ap:1:3")]
    for n, d, fam, mode, m in grid:
        qs.append(_search(rng, n, d, fam, mode, m))
    # decompose on the same kind of sets: eps 0.1 runs three rounds to the
    # full spectrum, eps 0.25 closes after one round.
    # N stays fixed: FFT cost and memory depend on its prime factors.
    for n, d, eps in [(200_000, 0.5, "0.1"), (400_000, 0.3, "0.25")]:
        qs.append(Query(("decompose", "--N", str(n), "--set", _random(rng, d),
                         "--eps", eps), "decompose"))
    return qs


def _prime_near(n: int) -> int:
    def is_prime(x):
        if x < 2:
            return False
        f = 2
        while f * f <= x:
            if x % f == 0:
                return False
            f += 1
        return True
    while not is_prime(n):
        n += 1
    return n


def _power_sums(rng: random.Random) -> list[Query]:
    qs = []
    # weyl: (N, prime?, poly, M, K, weights).  M^(2K) <= 1e7 keeps
    # count_solutions_mod active; its dense convolution costs O(N^2).
    grid = [
        (20_000, True, "0,1", 40, 2, "unit"),
        (20_000, False, "0,1", 40, 2, "random"),
        (20_000, True, "1,1", 12, 2, "unit"),
        (20_000, True, "0,1", 10, 3, "unit"),
        (22_000, False, "0,0,1", 30, 2, "unit"),
        (25_000, True, "0,1", 14, 2, "random"),
        (30_000, True, "2,1", 40, 2, "unit"),
        (20_000, False, "0,2", 30, 2, "random"),
        (20_000, True, "1,0,1", 20, 2, "unit"),
    ]
    for n, prime, poly, m, k, weights in grid:
        # prime N is jittered; composite N stays a smooth number, since the
        # transform in weyl_sum costs more when N has a large prime factor
        n = _prime_near(_jitter(rng, n)) if prime else n
        qs.append(Query(("--seed", str(rng.randrange(10**6)), "weyl", "--poly",
                         poly, "--M", str(m), "--N", str(n), "--K", str(k),
                         "--weights", weights), "weyl"))
    # tarry on both routes: (K, k, M, method); auto picks the route from
    # the size of the signature box.  M is not jittered: the cost grows
    # like a power of M, and these queries have nothing random to vary.
    tarry = [
        (2, 1, 300, "auto"), (2, 1, 500, "auto"), (3, 1, 150, "auto"),
        (4, 2, 30, "auto"), (4, 2, 36, "auto"), (3, 2, 60, "auto"),
        (3, 2, 60, "mitm"), (2, 2, 200, "auto"), (3, 3, 40, "auto"),
        (3, 3, 30, "auto"), (4, 2, 33, "auto"), (3, 3, 35, "auto"),
        (2, 2, 150, "auto"),
    ]
    for k_order, degree, m, method in tarry:
        qs.append(Query(("tarry", "--K", str(k_order), "--k", str(degree),
                         "--M", str(m), "--method", method), "tarry"))
    for k_order, degree, ms in [(2, 1, (50, 100, 200, 400)),
                                (3, 2, (20, 30, 40))]:
        ms = ",".join(str(m) for m in ms)
        qs.append(Query(("tarry", "--K", str(k_order), "--k", str(degree),
                         "--growth", ms), "growth"))
    return qs


def _real(rng: random.Random) -> str:
    return f"{rng.uniform(0.05, 0.95):.6f}"


def _desk_queries(rng: random.Random) -> list[Query]:
    qs = []
    # few-shift searches at N = 1e6: quadratic and cubic families, M <= 100
    for fam, step, m in [("0,1", 2, 60), ("0,1;0,2", 2, 40),
                         ("0,0,1", 3, 80), ("0,0,1;1,0,1", 3, 50)]:
        qs.append(_search(rng, 1_000_000, 0.5, fam, "integer", m, step))
    # ergodic: measure, khintchine, griesmer on skew products and rotations
    systems = ["skew:300", "skew:400", "skew:500", "rotation:1000",
               "rotation:3000", "rotation:10000"]
    for spec in systems:
        qs.append(Query(("ergodic", "--action", "measure", "--system", spec,
                         "--subset", _random(rng, 0.4),
                         "--shift", str(rng.randrange(1, 12))), "ergodic"))
    for spec in ["skew:300", "skew:400", "skew:600", "rotation:2000",
                 "rotation:5000", "rotation:10000"]:
        qs.append(Query(("ergodic", "--action", "khintchine", "--system", spec,
                         "--subset", _random(rng, 0.5), "--eps", "0.1",
                         "--times", "1..12"), "ergodic"))
    for spec, consts in [("rotation:3000", "1,2,3"), ("rotation:8000", "1,3")]:
        qs.append(Query(("ergodic", "--action", "griesmer", "--system", spec,
                         "--subset", _random(rng, 0.5), "--eps", "0.1",
                         "--times", "1..16", "--constants", consts), "ergodic"))
    # every dioph action
    for lat in ["int:1", "int:1,1", "int:2,1", "scaled:1.5:1,1"]:
        qs.append(Query(("dioph", "--action", "mass", "--lattice", lat), "dioph"))
    for _ in range(3):
        qs.append(Query(("dioph", "--action", "average", "--lattice", "int:1,1",
                         "--alpha", f"{_real(rng)};{_real(rng)}",
                         "--N", str(rng.randrange(190, 211)), "--check-dual"),
                        "dioph"))
    for _ in range(3):
        qs.append(Query(("dioph", "--action", "bounds", "--lattice", "int:1,1",
                         "--alpha", f"{_real(rng)};{_real(rng)}",
                         "--N", str(rng.randrange(380, 421)), "--c", "0.5",
                         "--q", "3"), "dioph"))
    for _ in range(3):
        qs.append(Query(("dioph", "--action", "schmidt", "--lattice", "int:1,1",
                         "--alpha", f"{_real(rng)};{_real(rng)}",
                         "--N", "200", "--q-max", "100"), "dioph"))
    for _ in range(2):
        q = rng.randrange(3, 12)
        qs.append(Query(("dioph", "--action", "goodset",
                         "--alpha", f"{rng.randrange(1, q)}/{q}", "--eps", "0.2",
                         "--N", str(rng.randrange(290, 311))), "dioph"))
        qs.append(Query(("dioph", "--action", "goodset", "--alpha", _real(rng),
                         "--eps", "0.05", "--N", str(rng.randrange(1900, 2101))),
                        "dioph"))
    qs.append(Query(("dioph", "--action", "goodset", "--poly", "0,1;1",
                     "--theta", f"1/{rng.randrange(5, 12)},2/{rng.randrange(5, 12)}",
                     "--eps", "0.2", "--N", "500"), "dioph"))
    for _ in range(3):
        qs.append(Query(("dioph", "--action", "denominator",
                         "--theta", f"{_real(rng)},{_real(rng)}",
                         "--N", "1000", "--q-max", "100"), "dioph"))
    for _ in range(3):
        qs.append(Query(("lift", "--N", "40", "--set", _random(rng, 0.6),
                         "--poly", "1;0,1", "--half-width", "40"), "lift"))
    for _ in range(2):
        qs.append(Query(("--seed", str(rng.randrange(10**6)), "selftest"),
                        "selftest"))
    return qs


def _desk_mix(rng: random.Random) -> list[Query]:
    # a structured set first: n^2 keeps evens only for even n
    qs = [_search(rng, 1_000_000, None, "0,1", "integer", 60, 2, set_spec="evens")]
    for _ in range(2):
        qs.extend(_desk_queries(rng))
    # the two largest systems, once each
    qs.append(Query(("ergodic", "--action", "measure", "--system", "skew:1000",
                     "--subset", _random(rng, 0.4),
                     "--shift", str(rng.randrange(1, 12))), "ergodic"))
    qs.append(Query(("ergodic", "--action", "griesmer", "--system", "skew:300",
                     "--subset", _random(rng, 0.5), "--eps", "0.1",
                     "--times", "1..16", "--constants", "1,2"), "ergodic"))
    # Refusal probes: each must exit 2 with a one-line message.  The first
    # three raise out of main at the time of writing (ROADMAP item 4).
    probes = [
        ("dioph", "--action", "mass"),
        ("tarry", "--K", "2", "--k", "1"),
        ("dioph", "--action", "goodset", "--alpha", "1/0"),
        ("search", "--N", "100", "--set", "primes", "--poly", "0,1",
         "--eps", "0.1"),
        ("search", "--N", "1000", "--set", "evens", "--poly", "1;0,1",
         "--eps", "0.1"),
        ("ergodic", "--action", "khintchine", "--system", "rotation:100",
         "--subset", "all", "--eps", "0.05", "--times", "1..5"),
    ]
    qs.extend(Query(p, "probe", expect=2) for p in probes)
    return qs


def _kernels(rng: random.Random) -> list[Query]:
    # One workload, not two: apart, each ran too briefly per run to stay
    # steady on a machine whose speed drifts over minutes.
    return _shift_search(rng) + _power_sums(rng)


_GENERATORS = {"kernels": _kernels, "desk-mix": _desk_mix}


def build(workload: str, seed: int) -> list[Query]:
    """The batch of `workload` for `seed`: same seed, same queries."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return _GENERATORS[workload](rng)
