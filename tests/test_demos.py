"""Every script in ``demos/`` runs to the end with warnings as errors.

Each demo runs in its own interpreter, as a user would start it, with the
package on ``PYTHONPATH`` and ``TMPDIR`` pointed at the test's own
directory, so a demo that leaves a temporary directory behind is seen.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_clean(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("greedy_eig_demo_*"))
