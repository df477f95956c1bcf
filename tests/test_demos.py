"""Each demo script runs to completion as a fresh process and prints
exactly what it printed when its output was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 prefixes of each demo's stdout; a demo whose output changes on
# purpose records its new digest here
STDOUT_DIGESTS = {
    "01_average_spectrum.py": "5814e2bcbb2da991",
    "02_small_code_oracles.py": "406f61caf4af374a",
    "03_low_weight_collector.py": "a1a7b0985e174047",
    "04_pretransform_gallery.py": "6ab2631042516422",
}


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == STDOUT_DIGESTS[script.name]
