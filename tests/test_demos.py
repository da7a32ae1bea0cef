"""Smoke test: the fast demos run to completion.

Each demo runs as a script in a fresh interpreter with ``cwd=tmp_path``,
since the demos write relative paths.  ``cli_pipeline.py`` (about 16 s)
and ``hierarchy_strategies.py`` (about 60 s) are left out to keep the
suite's run time down; run them by hand after changing what they use.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["quickstart_linking.py", "discover_parents.py", "rerank_and_threshold.py"]
)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
