"""Check that the working tree answers every benchmark query as a parent
revision does: the same exit code, stdout and stderr.

    python3 tools/same_answers.py --parent-rev HEAD --seeds 0-5 \
        [--workloads kernels,desk-mix]

The parent side is `git archive` of --parent-rev, unpacked into a
temporary directory; the change side is this checkout as it is on disk.
The queries are those of perfbench/workloads.py in this checkout, for
every workload and seed.  Each side answers all of them in one child
process that imports polyrec from that side's src/ and calls
polyrec.cli.main in process, as the benchmark worker does.  Exit 0 when
every answer matches, 1 (listing each query that differs) otherwise.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, _seeds, _unpack

#: Run in each child: read [[workload, seed], ...] on stdin, answer every
#: query and print one [code, stdout, stderr] per query as JSON.
_CHILD = r"""
import contextlib, io, json, sys
import polyrec.cli
import workloads

def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = polyrec.cli.main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback out of main
            code = f"raised {type(exc).__name__}: {exc}"
    return [code, out.getvalue(), err.getvalue()]

batches = json.load(sys.stdin)
json.dump([answer(q.argv) for w, s in batches for q in workloads.build(w, s)], sys.stdout)
"""


def _answers(tree: Path, batches: list) -> list:
    env = dict(os.environ)
    env.pop("POLYREC_CONFIG", None)
    env.update({"PYTHONPATH": os.pathsep.join([str(tree / "src"), str(ROOT / "perfbench")]),
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    proc = subprocess.run([sys.executable, "-c", _CHILD], cwd=tree, env=env,
                          input=json.dumps(batches), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"answering in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent-rev", default="HEAD")
    parser.add_argument("--seeds", required=True, type=_seeds)
    parser.add_argument("--workloads", default="kernels,desk-mix")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    batches = [[w, s] for w in args.workloads.split(",") for s in args.seeds]
    queries = [(w, s, q.argv) for w, s in batches for q in workloads.build(w, s)]
    with tempfile.TemporaryDirectory(prefix="same_answers_") as tmp:
        _unpack(args.parent_rev, Path(tmp))
        parent = _answers(Path(tmp) / "tree", batches)
    change = _answers(ROOT, batches)
    differ = 0
    for (workload, seed, argv), old, new in zip(queries, parent, change):
        fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                  if a != b]
        if fields:
            differ += 1
            print(f"{workload} seed {seed}: {' '.join(argv)}: {', '.join(fields)} differ "
                  f"(exit {old[0]} -> {new[0]})")
    print(f"{len(queries)} queries, {differ} differ from {args.parent_rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
