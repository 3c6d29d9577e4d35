"""Run perfbench on a parent revision and on the working tree in alternating
pairs, and write the result as a BENCH_<pr>.json file.

    python3 tools/bench_pairs.py --pr 11 --parent-rev HEAD --seeds 1101-1110 \
        --claim kernels:peak_rss_mb --what "..." [--workloads kernels,desk-mix] \
        [--traced-seeds 1111,1112] [--layers a,b,...]

The parent side is `git archive` of --parent-rev (default HEAD: the
last commit, against uncommitted changes), unpacked into a temporary
directory; the change side is a copy of this checkout's files as they are
on disk (tracked, and untracked but not ignored), in a second temporary
directory whose path has the same length: the heap layout, and with it
the desk-mix peak RSS (72 or 80 MB), moved with the length of the path a
tree ran from.  The revision is resolved to its commit hash, which the
output records, and a run whose tracked files do not differ from that
commit is refused.
perfbench sets the run length.
For each workload and seed, one `perfbench/run.py --trace 0` run per side
makes a pair; the parent runs first on the 1st, 3rd, ... pair and second
on the others.  Each end-to-end metric gets, per side, the median and
quartiles (inclusive method) over the pairs, every run's value, and the
number of pairs in which the change was better (direction from
BENCHMARK.json).  --traced-seeds adds `--trace 1` runs of each side,
keeping the --layers metrics.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_LAYERS = "cli.main.self_s,trace.coverage_frac"
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    """'1101-1105' or '1101,1103' (or a mix) as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _unpack(rev: str, dest: Path) -> None:
    archive = dest / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def _copy_checkout(dest: Path) -> None:
    """This checkout's tracked and untracked, not ignored, files as they are
    on disk, copied under dest / 'tree'."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout
    for name in filter(None, listed.split(b"\0")):
        source = ROOT / os.fsdecode(name)
        if source.is_file():  # a tracked file deleted on disk is left out
            target = dest / "tree" / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _run(side: str, tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its machine facts and its last (result) line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    result = json.loads(lines[-1])
    print(f"  {side:>6} {workload} seed {seed} trace {trace}: "
          f"correct {result['correct']}", file=sys.stderr, flush=True)
    return {"machine": machine, "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _pairs(trees: dict, workload: str, seeds: list[int],
           metrics: list[dict]) -> tuple[dict, dict]:
    runs = {"parent": [], "change": []}
    machine = {}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run = _run(side, trees[side], workload, seed, 0)
            machine = run["machine"]
            runs[side].append(run)
    table = {}
    for metric in metrics:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        table[name] = {
            "unit": metric["unit"],
            "parent": _summary(parent),
            "change": _summary(change),
            "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "tied_pairs": sum(c == p for p, c in zip(parent, change)),
            "parent_runs": parent,
            "change_runs": change,
        }
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "correct_every_run": all(r["correct"] for side in runs.values() for r in side),
        "end_to_end": table,
    }, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", required=True, help="number in the output name")
    parser.add_argument("--parent-rev", default="HEAD")
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--claim", required=True, help="workload:metric")
    parser.add_argument("--what", required=True)
    parser.add_argument("--workloads", default="kernels,desk-mix")
    parser.add_argument("--traced-seeds", type=_seeds, default=[])
    parser.add_argument("--layers", default=DEFAULT_LAYERS)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    claim_workload, _, claim_metric = args.claim.partition(":")
    better = {m["name"]: m["better"] for m in metrics}
    if claim_metric not in better:
        parser.error(f"--claim names no end-to-end metric: {args.claim}")
    workload_names = args.workloads.split(",")
    layers = args.layers.split(",")
    parent = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent_rev}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True)
    if parent.returncode != 0:
        parser.error(f"--parent-rev names no commit: {args.parent_rev}")
    parent = parent.stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", parent, "--"], cwd=ROOT).returncode == 0:
        parser.error(f"the working tree does not differ from {parent}: "
                     "it would be measured against itself")
    out = {
        "what": args.what,
        "how": (f"python3 tools/bench_pairs.py: python3 perfbench/run.py --workload W "
                f"--seed S --trace 0 in a `git archive` of commit {parent} "
                "and in a copy of this checkout, at paths of the same length, "
                "one pair per seed and workload, "
                "the parent first on the 1st, 3rd, ... pair; medians and inclusive "
                "quartiles over the pairs.  Traced layers: --trace 1 runs."),
        "seeds": args.seeds,
        "claim": {"workload": claim_workload, "metric": claim_metric,
                  "better": better[claim_metric]},
        "workloads": {},
        "traced": {},
        "machine": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp, \
            tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp_change:
        _unpack(parent, Path(tmp))
        _copy_checkout(Path(tmp_change))
        trees = {"parent": Path(tmp) / "tree", "change": Path(tmp_change) / "tree"}
        for workload in workload_names:
            out["workloads"][workload], machine = _pairs(
                trees, workload, args.seeds, metrics)
            machine.pop("git_commit", None)
            out["machine"] = {**machine, "arch": platform.machine()}
        for workload in workload_names if args.traced_seeds else ():
            out["traced"][workload] = {side: [] for side in trees}
            for seed in args.traced_seeds:
                for side, tree in trees.items():
                    run = _run(side, tree, workload, seed, 1)
                    out["traced"][workload][side].append(
                        {"seed": seed, "correct": run["correct"],
                         **{k: run["metrics"].get(k) for k in layers}})
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    claimed = out["workloads"].get(claim_workload, {}).get("end_to_end", {}).get(claim_metric)
    if claimed:
        print(f"{args.claim}: parent {claimed['parent']['median']:.6g} -> change "
              f"{claimed['change']['median']:.6g}, change better in "
              f"{claimed['change_better_pairs']} of {len(args.seeds)} pairs")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
