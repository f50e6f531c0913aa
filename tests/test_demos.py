import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# The sha256 of each demo's stdout: the demos are deterministic, so a change
# to what they print is a change to the program's output.
STDOUT_SHA256 = {
    "01_signature_basics.py": "5df260c3154a64ea3b7d88d6ce73e044f684650fb78ce484de8b2482650c9568",
    "02_train_reference.py": "6b05c18d9e172ccb3b12482087d4303f3d4ef9aa3976dd14ff554ccb06fbd097",
    "03_dedup_pipeline.py": "b0b46bf6614808ba2945b3426b70965325714bad34ff8fb176c7e2deff79f0fe",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256.get(demo)
