#!/usr/bin/env python3
"""Run the acceptance suite with one printed pass line per criterion.

`src` is put first on PYTHONPATH, so the suite runs from a checkout
that is not installed; the CLI subprocesses of the tests inherit it.
"""

import os
import subprocess
import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    raise SystemExit(subprocess.call(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py",
         "-v", "-s", *sys.argv[1:]], cwd=root,
        env={**os.environ, "PYTHONPATH": path}))
