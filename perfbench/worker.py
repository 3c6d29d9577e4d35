"""One fresh worker process: set up, answer one batch in a closed loop.

Usage: worker.py WORKLOAD SEED MODE, where MODE is 'setup' (set up and
exit), 'plain' (answer the batch) or 'traced' (answer it with spans).
The worker prints one JSON object on its standard output.  The set-up
time covers importing polyrec.cli (and with it numpy), loading the
default config and building the query list from the seed.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _answer(main, argv):
    """Run one query; returns (exit code or None, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback out of main is a failure
            raised = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), raised


def run(workload: str, seed: int, mode: str) -> dict:
    import polyrec.cli
    from polyrec.config import load_config
    import workloads

    load_config()
    queries = workloads.build(workload, seed)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "polyrec_file": polyrec.cli.__file__}
    if mode == "setup":
        return result

    tracer = None
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    times, codes, outs, errs, raised = [], [], [], [], []
    started = time.perf_counter()
    for qid, query in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        t0 = time.perf_counter()
        code, out, err, exc = _answer(polyrec.cli.main, query.argv)
        times.append(time.perf_counter() - t0)
        codes.append(code)
        outs.append(out)
        errs.append(err)
        raised.append(exc)
    batch_s = time.perf_counter() - started
    result.update({
        "batch_s": batch_s,
        "times": times,
        "codes": codes,
        "outs": outs,
        "errs": errs,
        "raised": raised,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    name, seed_text, mode_name = sys.argv[1:4]
    payload = run(name, int(seed_text), mode_name)
    sys.stdout.write(json.dumps(payload))
