"""What importing the package loads, checked in fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spherecoef

SRC = str(Path(spherecoef.__file__).resolve().parents[1])


def _modules_after(statement):
    """Names in sys.modules after running statement in a new interpreter."""
    code = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.mark.parametrize("statement", ["import spherecoef", "import spherecoef.cli"])
def test_import_leaves_scipy_stats_unloaded(statement):
    loaded = _modules_after(statement)
    assert "scipy.stats" not in loaded
    # The package still imports its CLI; dropping it from __init__ is a
    # separate decision, pinned here so that it is made on purpose.
    assert "spherecoef.cli" in loaded
