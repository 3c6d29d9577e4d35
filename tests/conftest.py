"""Put the src layout on the path of every Python subprocess a test starts.

pytest's own path comes from `pythonpath` in pyproject.toml; the CLI
tests also run `python -m polyrec.cli` in child processes.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
