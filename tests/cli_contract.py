"""The contract every CLI invocation keeps, checked in process.

The fuzz properties of tests/test_properties.py call it directly, and the
kernel fuzz calls it in a child under RLIMIT_AS, which imports this module
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
