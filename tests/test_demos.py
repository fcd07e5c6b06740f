"""Every demo runs standalone and exits 0, and README lists every demo."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # README's Demos list names exactly the files in demos/, in order,
    # numbered 1..k
    readme = (ROOT / "README.md").read_text()
    listed = re.findall(r"^(\d+)\. `(\S+\.py)`", readme, flags=re.M)
    assert listed == [(str(i), d.name) for i, d in enumerate(DEMOS, 1)]
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
