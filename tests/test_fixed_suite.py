"""The README quick start against the committed fixed-suite manifest."""
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("bash") is None or shutil.which("sha256sum") is None,
                    reason="scripts/fixed_suite.sh needs bash and sha256sum")
def test_quick_start_matches_the_manifest(tmp_path):
    result = subprocess.run(
        ["bash", str(ROOT / "scripts" / "fixed_suite.sh"), "--check-quick",
         str(tmp_path / "suite")],
        env=dict(os.environ, PYTHON=sys.executable), capture_output=True, text=True,
        timeout=600)
    if result.returncode == 3:  # not the environment the manifest was recorded under
        pytest.skip(" ".join(result.stdout.splitlines()[-2:]))
    assert result.returncode == 0, result.stdout + result.stderr
    # an empty or unread manifest must not pass
    assert re.search(r"^0 differences from the [1-9][0-9]* files of ", result.stdout, re.M), result.stdout
