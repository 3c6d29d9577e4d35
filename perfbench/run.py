"""polyrec benchmark: seeded batches of CLI queries, end to end and per layer.

    python3 perfbench/run.py --workload kernels|desk-mix --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-reference   (digests for seed 0)

Run it from the root of a checkout; it imports polyrec from ./src.  Each
batch is answered by a fresh worker process calling polyrec.cli.main in
a closed loop (one client, one thread, the next query starts after the
previous report is complete).  Workers are started until --seconds have
passed; each metric is the median over them.  With --trace 0 the last
line carries the end-to-end metrics; with --trace 1 traced and plain
workers take turns (at least two traced) and the last line carries the
per-layer metrics.  Everything printed before the last line is for people: the
machine facts, every metric with its unit, the work counts and failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads
from tracing import MODULES, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_BLOCK = 6            # set-up-only workers before and after each batch
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10           # query_tail_s has this many queries above it
#: Least share of main's time that the spans below it must cover.  Less
#: means some code path has no span: its time falls to cli.main.self_s.
COVERAGE_MIN = {"kernels": 0.95, "desk-mix": 0.85}

END_TO_END = {
    "setup_s": "s", "batch_s": "s", "query_p50_s": "s", "query_tail_s": "s",
    "peak_rss_mb": "MB", "answered_frac": "ratio",
}

_SELF_TIMES = [
    "cli.main", "recurrence.intersection_profile", "recurrence.find_good_shifts",
    "polyfam.shift_range", "recurrence.decompose", "zn_fourier.dft",
    "zn_fourier.inverse_dft", "zn_fourier.balanced_function",
    "intset.generate_set", "weyl_tarry.weyl_sum", "weyl_tarry.count_solutions_mod",
    "weyl_tarry.tarry_count", "weyl_tarry.growth_probe",
    "ergodic_lab.system_build", "ergodic_lab.cycles", "ergodic_lab.power_map",
    "ergodic_lab.recurrence_measure", "ergodic_lab.khintchine_search",
    "ergodic_lab.griesmer_search", "lattice_dioph.gaussian_mass",
    "lattice_dioph.gaussian_average", "lattice_dioph.check_average_bounds",
    "lattice_dioph.schmidt_scan", "lattice_dioph.approx_good_set",
    "lattice_dioph.weyl_denominator",
]
_CALLS = [
    "recurrence.intersection_profile", "intset.generate_set",
    "weyl_tarry.count_solutions_mod", "weyl_tarry.tarry_count",
    "ergodic_lab.cycles", "ergodic_lab.recurrence_measure",
    "lattice_dioph.gaussian_average",
]
PER_LAYER = {
    **{f"{m}.self_s": "s" for m in MODULES},
    **{f"{n}.self_s": "s" for n in _SELF_TIMES},
    **{f"{n}.calls": "count" for n in _CALLS},
    "recurrence.shifts_counted": "count",
    "recurrence.good_share": "ratio",
    "recurrence.decompose.rounds": "count",
    "zn_fourier.transform_points": "count",
    "intset.points_scanned": "count",
    "weyl_tarry.tarry_count.mitm_share": "ratio",
    "ergodic_lab.pairs_scanned": "count",
    "ergodic_lab.measure_reuse": "ratio",
    "cli.report_bytes": "bytes",
    **{f"{m}.errors": "count" for m in MODULES},
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def machine_facts() -> dict:
    import numpy as np
    info = np.finfo(np.longdouble)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_precision_digits": int(info.precision),
        "longdouble_mantissa_bits": int(info.nmant) + 1,
        "git_commit": commit,
        "worker_threads": "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1",
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("POLYREC_CONFIG", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # import as an installed package would
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def spawn(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise BenchError(f"worker {mode} exited {proc.returncode}: {tail[0]}")
    result = json.loads(proc.stdout)
    if not Path(result["polyrec_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"worker imported polyrec from {result['polyrec_file']}")
    return result


def judge(queries, workers, reference, oracles) -> dict:
    """Gate every answer of every worker; returns failures and counts."""
    first = workers[0]
    passed, reasons = [], []
    for i, q in enumerate(queries):
        ok, why = gate.classify(q, first["codes"][i], first["outs"][i],
                                first["errs"][i], first["raised"][i])
        passed.append(ok)
        reasons.append(why)
    wrong = {}
    for w in workers[1:]:
        for i in range(len(queries)):
            if (w["codes"][i], w["outs"][i], w["raised"][i] is None) != \
                    (first["codes"][i], first["outs"][i], first["raised"][i] is None):
                wrong[i] = "answer differs between two workers"
    counts = gate.work_counts(queries, first["outs"])
    if reference is not None:
        for i, q in enumerate(queries):
            if q.expect == 0 and gate.digest(first["codes"][i], first["outs"][i]) \
                    != reference["digests"][gate.key(q.argv)]:
                wrong[i] = "report digest differs from the reference"
        if reference["counts"] != counts:
            wrong[-1] = "work counts differ from the reference"
    checked, bad = gate.spot_check(oracles, queries, first["outs"], passed)
    for i in bad:
        wrong[i] = "answer disagrees with the oracle"
    for i, why in wrong.items():
        if i >= 0:
            passed[i] = False
            reasons[i] = why
    return {"passed": passed, "reasons": reasons, "wrong": wrong,
            "spot_checked": checked, "counts": counts,
            "digests_checked": reference is not None}


def load_reference(name: str, queries) -> dict:
    """The digests recorded for this batch at the reference seed.

    A reference that lacks a query of the batch, or holds one the batch
    no longer has, was recorded for another batch: that is an error.
    """
    ref = json.loads(REFERENCE.read_text()).get(name) if REFERENCE.exists() else None
    keys = {gate.key(q.argv) for q in queries if q.expect == 0}
    if ref is None or set(ref["digests"]) != keys:
        raise BenchError(f"{REFERENCE.name} does not match the {name} batch of "
                         f"seed {REFERENCE_SEED}; run with --record-reference")
    return ref


def trace_metrics(traced: list[dict], plain_batch_s: float,
                  counts: dict) -> tuple[dict, bool]:
    """Per-layer metrics from the traced workers (medians of times), and
    whether every span count repeated exactly between traced workers."""
    per_worker, call_sets = [], []
    for w in traced:
        spans = w["spans"]
        own = self_times(spans)
        self_s, calls, errors = {}, {}, {m: 0 for m in MODULES}
        for s, t in zip(spans, own):
            self_s[s[0]] = self_s.get(s[0], 0.0) + t
            calls[s[0]] = calls.get(s[0], 0) + 1
            errors[s[0].split(".")[0]] += s[5]
        module_s = {m: sum((v for k, v in self_s.items() if k.split(".")[0] == m), 0.0)
                    for m in MODULES}
        tarry = [s[6] for s in spans if s[0] == "weyl_tarry.tarry_count" and not s[5]]
        khint = [i for i, s in enumerate(spans)
                 if s[0] == "ergodic_lab.khintchine_search" and not s[5]]
        # measures computed by khintchine_search itself, against the pairs
        # it scanned; the rest of the pairs reused a cached measure
        khint_set = set(khint)
        computed = sum(1 for s in spans if s[0] == "ergodic_lab.recurrence_measure"
                       and s[3] in khint_set)
        pairs = sum(spans[i][6] for i in khint)
        exact = {
            **{f"{n}.calls": calls.get(n, 0) for n in _CALLS},
            "zn_fourier.transform_points": sum(
                s[6] for s in spans
                if s[0] in ("zn_fourier.dft", "zn_fourier.inverse_dft") and not s[5]),
            "weyl_tarry.tarry_count.mitm_share":
                tarry.count("mitm") / len(tarry) if tarry else 0.0,
            "ergodic_lab.pairs_scanned": pairs,
            "ergodic_lab.measure_reuse": 1 - computed / pairs if pairs else 0.0,
            **{f"{m}.errors": errors[m] for m in MODULES},
        }
        call_sets.append((calls, exact))
        # the share of time inside main that a span below main covers;
        # code without a span of its own counts as main's self time
        inside = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
        timed = {
            **{f"{m}.self_s": module_s[m] for m in MODULES},
            **{f"{n}.self_s": self_s.get(n, 0.0) for n in _SELF_TIMES},
            "trace.coverage_frac": 1 - self_s.get("cli.main", 0.0) / inside,
        }
        per_worker.append((timed, exact))
    out = {k: statistics.median(t[k] for t, _ in per_worker) for k in per_worker[0][0]}
    out.update(per_worker[0][1])
    scanned = counts["recurrence.shifts_scanned"]
    out.update({
        "recurrence.shifts_counted": counts["recurrence.shifts_counted"],
        "recurrence.good_share": counts["recurrence.good_shifts"] / scanned
        if scanned else 0.0,
        "recurrence.decompose.rounds": counts["recurrence.decompose.rounds"],
        "intset.points_scanned": counts["intset.points_scanned"],
        "cli.report_bytes": counts["cli.report_bytes"],
        "trace.overhead_frac":
            statistics.median(w["batch_s"] for w in traced) / plain_batch_s - 1,
    })
    return out, all(c == call_sets[0] for c in call_sets[1:])


def run_workload(name: str, seed: int, seconds: float, trace: bool, oracles) -> dict:
    queries = workloads.build(name, seed)
    reference = load_reference(name, queries) if seed == REFERENCE_SEED else None
    spawn(name, seed, "setup")  # warm the file cache and the bytecode cache
    started = time.perf_counter()
    plain, traced, setups = [], [], []
    # Untraced: blocks of set-up-only workers between the batches, so set-up
    # is sampled across the run.  Traced: traced and plain batches take
    # turns, starting with a traced one, until at least two traced ran.
    modes = ["traced", "plain"] if trace else ["plain"]
    for turn in itertools.count():
        t0 = time.perf_counter()
        if not trace:
            setups += [spawn(name, seed, "setup")["setup_s"] for _ in range(SETUP_BLOCK)]
        mode = modes[turn % len(modes)]
        (traced if mode == "traced" else plain).append(spawn(name, seed, mode))
        if not plain or (trace and len(traced) < 2):
            continue
        # stop unless one more turn, a little slower, still fits
        if time.perf_counter() + 1.1 * (time.perf_counter() - t0) > started + seconds:
            break
    if not trace:
        setups += [spawn(name, seed, "setup")["setup_s"] for _ in range(SETUP_BLOCK)]
    verdict = judge(queries, plain + traced, reference, oracles)
    workers = plain + traced
    attempted = len(queries) * len(workers)
    failed = verdict["passed"].count(False) * len(workers)

    latency = [t for w in plain for t in w["times"]]
    # the same rank in every worker, so the percentile does not depend on
    # how many workers fit in the run
    tail_at = max(len(queries) - TAIL_BEYOND - 1, 0)
    batch_s = statistics.median(w["batch_s"] for w in plain)
    e2e = {
        "setup_s": statistics.median(setups) if setups else None,  # not traced
        "batch_s": batch_s,
        "query_p50_s": statistics.median(latency),
        "query_tail_s": statistics.median(sorted(w["times"])[tail_at] for w in plain),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in plain),
        "answered_frac": verdict["passed"].count(True) / len(queries),
    }
    layers, repeated = (trace_metrics(traced, batch_s, verdict["counts"])
                        if trace else (None, True))
    if not repeated:
        verdict["wrong"][-1] = "span counts differ between two traced workers"
    if layers is not None and layers["trace.coverage_frac"] < COVERAGE_MIN[name]:
        verdict["wrong"][-1] = (f"spans below main cover less than "
                                f"{COVERAGE_MIN[name]} of its time")
    return {
        "workload": name, "queries": queries, "verdict": verdict,
        "workers": len(plain), "traced_workers": len(traced),
        "attempted": attempted, "failed": failed,
        "correct": not verdict["wrong"],
        "end_to_end": e2e, "per_layer": layers,
        "tail_percentile": 100.0 * (tail_at + 1) / len(queries),
        "worker_batch_s": [w["batch_s"] for w in plain],
    }


def report(res: dict) -> None:
    """Human-readable lines for one workload run."""
    name, v = res["workload"], res["verdict"]
    n = len(res["queries"])
    reason, item = workloads.WORKLOADS[name]
    print(f"== {name}: {n} queries per batch, {res['workers']} plain and "
          f"{res['traced_workers']} traced workers, closed loop, one client")
    print(f"  why: {reason}; judges {item}")
    for metric, value in res["end_to_end"].items():
        if value is not None:
            print(f"  {metric:<16} {value:.6g} {END_TO_END[metric]}")
    print(f"  query_tail_s is the median over plain workers of each one's "
          f"p{res['tail_percentile']:.1f} ({TAIL_BEYOND} of {n} queries beyond it); "
          f"failed_frac {res['failed'] / res['attempted']:.4f} "
          f"({res['failed']} of {res['attempted']})")
    print("  batch_s of each plain worker: "
          + " ".join(f"{t:.3f}" for t in res["worker_batch_s"]))
    print(f"  gate: {v['spot_checked']} oracle spot checks, reference digests "
          f"{'checked' if v['digests_checked'] else 'exist only for seed 0'}")
    for i, (ok, why) in enumerate(zip(v["passed"], v["reasons"])):
        if not ok:
            print(f"  FAILED [{' '.join(res['queries'][i].argv)}]: {why}")
    if -1 in v["wrong"]:
        print(f"  WRONG: {v['wrong'][-1]}")
    print("  work counts " + json.dumps(v["counts"], sort_keys=True))
    if res["per_layer"] is not None:
        for metric, value in res["per_layer"].items():
            print(f"  {metric:<44} {value:.6g} {PER_LAYER[metric]}")
        print("  which end-to-end metric each layer metric should move:")
        for layer, target in workloads.LAYER_MAP.items():
            print(f"    {layer} -> {target}")


def record_reference() -> None:
    ref = {}
    for name in workloads.WORKLOADS:
        queries = workloads.build(name, REFERENCE_SEED)
        w = spawn(name, REFERENCE_SEED, "plain")
        ref[name] = {
            "digests": {gate.key(q.argv): gate.digest(w["codes"][i], w["outs"][i])
                        for i, q in enumerate(queries) if q.expect == 0},
            "counts": gate.work_counts(queries, w["outs"]),
        }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)} for seed {REFERENCE_SEED}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/polyrec/cli.py", "tests/oracles.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    try:
        if args.record_reference:
            record_reference()
            return 0
        oracles = gate.load_oracles(ROOT)
        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        if args.workload != "all":
            res = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), oracles)
            report(res)
            metrics = res["per_layer"] if args.trace else res["end_to_end"]
            units = PER_LAYER if args.trace else END_TO_END
            results = [res]
        else:
            metrics, units, results = {}, {}, []
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    res = run_workload(name, args.seed, args.seconds, trace, oracles)
                    report(res)
                    results.append(res)
                    layer = res["per_layer"] if trace else res["end_to_end"]
                    table = PER_LAYER if trace else END_TO_END
                    for k, value in layer.items():
                        metrics[f"{name}.{k}"] = value
                        units[f"{name}.{k}"] = table[k]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
