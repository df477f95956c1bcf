"""Truncated average spectra at large N, through the CLI.

The N = 2^16 reports are pinned by the sha256 prefix of their bytes,
recorded at commit a8a88e1, before the PW ranking became an integer key
and before the recursion weights were built after the row filter. The
slowest pin (RM at d_max 512, about 1 s) and the N = 2^20 run are opt-in:
set POLARSPEC_ACCEPT_FULL=1.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polarspec
from polarspec.cli import main
from polarspec.construct import construct_pw
from polarspec.dyadic import DyadicRational
from polarspec.spectrum import avg_nmin

FULL = os.environ.get("POLARSPEC_ACCEPT_FULL", "") == "1"
_OPT_IN = pytest.mark.skipif(not FULL, reason="set POLARSPEC_ACCEPT_FULL=1 for slow large-N runs")

# (construction, d_max) -> sha256 prefix of the avg-spectrum JSON report for
# N = 2^16, K = 2^15; d_max is d_min and 2 * d_min
REPORT_DIGESTS = {
    ("pw", 16): "9c2a5c2f0a763ad5",
    ("pw", 32): "0dd0e249919854ec",
    ("rm", 256): "4d8bf4e435a614e7",
    ("rm", 512): "97adb91def604e0c",
}


@pytest.mark.parametrize(
    "construction,d_max",
    [key if key != ("rm", 512) else pytest.param(*key, marks=_OPT_IN) for key in REPORT_DIGESTS],
)
def test_n65536_reports_are_pinned(capsys, construction, d_max):
    rc = main(["avg-spectrum", "--n", "65536", "--k", "32768",
               "--construction", construction, "--dmax", str(d_max)])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == REPORT_DIGESTS[construction, d_max]


@_OPT_IN
def test_pw_n1048576_at_twice_dmin(tmp_path):
    # PW(2^20, 2^19) up to 2 * d_min: exit 0, the d_min entry equals the
    # closed-form avg_nmin, and the child process stays within 500 MB
    n, k = 1 << 20, 1 << 19
    out, err = tmp_path / "report.json", tmp_path / "stderr.txt"
    env = {**os.environ, "PYTHONPATH": str(Path(polarspec.__file__).parents[1])}
    argv = [sys.executable, "-m", "polarspec.cli", "avg-spectrum", "--n", str(n), "--k", str(k),
            "--construction", "pw", "--dmax", "32", "--out", str(out)]
    with open(err, "w") as fh:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=fh, env=env)
    deadline = time.monotonic() + 300
    while not (waited := os.wait4(proc.pid, os.WNOHANG))[0]:  # this child's own usage
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            pytest.fail("PW(2^20, 2^19) did not finish in 300 s")
        time.sleep(0.1)
    _, status, usage = waited
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, err.read_text()
    entries = {e["d"]: e for e in json.loads(out.read_text())["entries"]}
    d_min, nmin = avg_nmin(construct_pw(n, k))
    assert (d_min, nmin) == (16, DyadicRational(196608))
    assert DyadicRational(int(entries[16]["num"]), entries[16]["exp2"]) == nmin
    assert (entries[32]["value"], entries[32]["exp2"]) == ("20406566912.375000", 140599)
    assert usage.ru_maxrss <= 500 * 1024  # kilobytes on Linux
