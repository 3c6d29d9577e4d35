"""The contract every CLI invocation keeps, checked in process, and the
source of a child process whose address space is capped.

The fuzz properties of tests/test_properties.py call the contract directly,
and the kernel fuzz calls it in a capped child, which imports this module
alone so that it starts fast.
"""

import contextlib
import io
import json
import warnings

import pytest

from polyrec.cli import main


def assert_cli_contract(argv):
    """main(argv) exits 0, 1 or 2, prints no traceback and strict JSON only,
    and exit 2 prints one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning is a stray stderr line
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses before main's handlers
            code = exc.code
    stderr = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.count("\n") == 1 and out.getvalue() == ""
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=lambda c: pytest.fail(f"non-strict {c}"))


def capped_child(mib: int, imports: str, body: str) -> str:
    """Source for `python -c` that runs `imports`, caps the process's
    address space (RLIMIT_AS) mib MiB above its size after them, and runs
    `body`.  The size is read from /proc/self/statm, so Linux only."""
    return (f"import resource\n{imports}"
            "with open('/proc/self/statm') as fh:\n"
            "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
            f"cap = size + ({mib} << 20)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
            f"{body}")
