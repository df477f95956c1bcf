"""Truncated average spectra at large N, through the CLI.

The N = 2^16 reports are pinned by the sha256 prefix of their bytes,
recorded at commit a8a88e1, before the PW ranking became an integer key
and before the recursion weights were built after the row filter. Larger
runs go through a child process, whose own peak RSS is checked too. The
slowest N = 2^16 pin (RM at d_max 512, about 1 s) and the N = 2^20 runs
are opt-in: set POLARSPEC_ACCEPT_FULL=1.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarspec
from polarspec.cli import main
from polarspec.construct import construct_pw, construct_rm
from polarspec.dyadic import DyadicRational, int_text
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


# The child runs the CLI, then writes its own peak RSS to stderr. Linux's
# ru_maxrss (wait4, getrusage) is no use here: it keeps the high-water
# mark of the memory the child held before exec, which is the launcher's.
_CHILD = """import sys, polarspec.cli
rc = polarspec.cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(*(line for line in status if line.startswith("VmHWM:")), end="", file=sys.stderr)
sys.exit(rc)
"""


def _run_cli(tmp_path, n, k, construction, d_max, timeout=300):
    """Run avg-spectrum in a child process and check that it exits 0.

    Returns the sha256 prefix of the JSON report, its entries by weight
    and the child's own peak RSS in MB.
    """
    out = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(polarspec.__file__).parents[1])}
    argv = [sys.executable, "-c", _CHILD, "avg-spectrum", "--n", str(n), "--k", str(k),
            "--construction", construction, "--dmax", str(d_max), "--out", str(out)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{construction.upper()}({n}, {k}) did not finish in {timeout} s")
    assert proc.returncode == 0, proc.stderr
    label, kb, unit = proc.stderr.splitlines()[-1].split()
    assert (label, unit) == ("VmHWM:", "kB"), proc.stderr
    report = out.read_bytes()
    entries = {e["d"]: e for e in json.loads(report)["entries"]}
    return hashlib.sha256(report).hexdigest()[:16], entries, int(kb) / 1024


def test_child_rss_excludes_the_launcher(tmp_path):
    # a launcher holding 200 MB, touched, does not show in the child's
    # peak: ru_maxrss from wait4 read 213.7 MB for a 58 MB child this way
    ballast = b"\x01" * (200 << 20)
    _, entries, rss_mb = _run_cli(tmp_path, 64, 32, "pw", 64)
    del ballast
    assert entries[64]["value"] == "1.000000"
    assert rss_mb <= 150


def test_rm_n262144_at_dmin(tmp_path):
    # RM(2^18, 2^17) at d_max = d_min: the report is pinned (recorded at
    # a0cc74d), the d_min entry equals the closed-form avg_nmin, and the
    # child stays within 150 MB (392 MB at a0cc74d, which built all 2^(i-j)
    # weights before descending). The numerator is compared as text:
    # int() refuses its 26,818 digits.
    n, k = 1 << 18, 1 << 17
    digest, entries, rss_mb = _run_cli(tmp_path, n, k, "rm", 512)
    assert digest == "4d30195cd07c7306"
    d_min, nmin = avg_nmin(construct_rm(n, k))
    assert (d_min, nmin.decimal(6)) == (512, "360222723.281250")
    assert (entries[512]["num"], entries[512]["exp2"]) == (int_text(nmin.num), nmin.exp)
    assert rss_mb <= 150


@_OPT_IN
def test_rm_n1048576_at_dmin(tmp_path):
    # RM(2^20, 2^19) at d_max = d_min = 1024 keeps 92,378 rows whose
    # weights 2^(i-j) take 4.6 GiB in all; formed one at a time, at the
    # leaf that adds each row, they fit in 145 MB. The report digest was
    # recorded with that code.
    n, k = 1 << 20, 1 << 19
    digest, entries, rss_mb = _run_cli(tmp_path, n, k, "rm", 1024)
    assert digest == "9086ab177191b809"
    d_min, nmin = avg_nmin(construct_rm(n, k))
    assert (d_min, nmin.decimal(6)) == (1024, "2872471680.102539")
    assert (entries[1024]["num"], entries[1024]["exp2"]) == (int_text(nmin.num), nmin.exp)
    assert rss_mb <= 500


@_OPT_IN
def test_pw_n1048576_at_twice_dmin(tmp_path):
    # PW(2^20, 2^19) up to 2 * d_min: the d_min entry equals the
    # closed-form avg_nmin, and the child process stays within 500 MB
    n, k = 1 << 20, 1 << 19
    _, entries, rss_mb = _run_cli(tmp_path, n, k, "pw", 32)
    d_min, nmin = avg_nmin(construct_pw(n, k))
    assert (d_min, nmin) == (16, DyadicRational(196608))
    assert DyadicRational(int(entries[16]["num"]), entries[16]["exp2"]) == nmin
    assert (entries[32]["value"], entries[32]["exp2"]) == ("20406566912.375000", 140599)
    assert rss_mb <= 500
