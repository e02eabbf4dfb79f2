"""Importing the package's entry points pulls in no numeric stack.

The package is stdlib-only at runtime. A module-level ``import numpy``
anywhere on the import path costs every process over ten megabytes of
resident memory even when nothing calls into it, so the check runs in
a fresh interpreter, where other tests' imports can neither cause nor
mask a hit.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.core.pipeline",
    "repro.evaluation.harness",
)


def test_entry_points_do_not_import_numpy():
    code = "import sys\n{}\nprint('numpy' in sys.modules)".format(
        "\n".join("import " + module for module in ENTRY_POINTS)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"
