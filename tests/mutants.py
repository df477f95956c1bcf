"""A committed catalog of deliberate faults, each of which a test must catch.

A mutant is one exact text substitution in one file: its anchor must
occur there exactly once, and the run replaces it. Run the catalog from
anywhere, with no flags and no environment variables:

    python tests/mutants.py

For each mutant it copies src/ and tests/ into a fresh temporary
directory (so the repository's .hypothesis and .pytest_cache stay
untouched), applies the mutant there, and runs its test selection with
``python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0``.
Pytest's exit code 1 (a test failed) is a kill; any other exit code is
an error. It prints one line per mutant and exits 1 if an anchor does not
match exactly once, a run errs, or a mutant without a FOUND note
survives. A survivor keeps its place with a FOUND note that names the
test that should catch it; it is never dropped to get a clean run.

The default selection is the route property, tests/test_routes.py. A
change to a kernel adds mutants for its new code here, and a refactor
that moves an anchor carries its mutant along: tests/test_mutants.py
checks every anchor in tier-1. Uses the standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    anchor: str  # exact text, found exactly once
    replacement: str
    tests: str = "tests/test_routes.py"  # pytest arguments, split on spaces
    found: str | None = None  # why it survives, and the test that should catch it


SPECTRUM, ORACLE, SCL = "src/polarspec/spectrum.py", "src/polarspec/oracle.py", "src/polarspec/scl.py"
REPORT, DYADIC = "src/polarspec/report.py", "src/polarspec/dyadic.py"
ORACLE_TESTS, REPORT_TESTS = "tests/test_oracle.py", "tests/test_report_cli.py"

MUTANTS = (
    # the recursion: its mirror, its coset split and the closed-form p_min
    Mutant("mirror-slice-shifted", SPECTRUM, "out[n - d_max : half][::-1]",
           "out[n - d_max + 1 : half + 1][::-1]"),
    Mutant("coset-split-bisect-left", SPECTRUM, "mid = bisect_right(", "mid = bisect_left("),
    Mutant("p-min-off-at-level-3", SPECTRUM, "e += half - (1 << (idx - 1).bit_count())",
           "e += half - (1 << (idx - 1).bit_count()) + (level == 3)"),
    # the enumeration walk: Gray steps, in-block entries, pairing, the zero word
    Mutant("gray-phase-entry-flip", ORACLE, "(step ^ step >> 1) >> (pos - split) & 1",
           "(step ^ step >> 1) >> (pos - split + 1) & 1"),
    Mutant("outer-entry-ignores-gray-bit", ORACLE,
           "elif s == pos or (step ^ step >> 1) >> (pos - split) & 1:", "elif pos >= split:"),
    Mutant("outer-row-word-unpatched", ORACLE, "if s > pos >= split:", "if False:"),
    Mutant("block-entry-wrong-half", ORACLE, "h : 2 * h].reshape(-1, 2 << pos, words)[:, 1 << pos :]",
           "h : 2 * h].reshape(-1, 2 << pos, words)[:, : 1 << pos]"),
    Mutant("first-frozen-entry-dropped", ORACLE, "for j in frozen if j > i]",
           "for j in frozen if j > i][1:]"),
    Mutant("in-block-entry-extra-word", ORACLE, "[:, 1 << pos :] ^= g\n        elif",
           "[:, 1 << pos :] ^= g\n            block[-1] ^= g\n        elif"),
    Mutant("pairing-dropped-at-n2", ORACLE, "return hist + hist[::-1] if paired else hist",
           "return hist + hist[::-1] if paired and n > 2 else hist"),
    Mutant("ensemble-zero-word-dropped", ORACLE, '    return WeightHistogram("exhaustive-ensemble"',
           '    counts[0] = 0\n    return WeightHistogram("exhaustive-ensemble"'),
    Mutant("brute-extra-weight", ORACLE, "counts = _walk(generator_rows(config, transform), config.n)",
           "counts = np.append(_walk(generator_rows(config, transform), config.n), 0)"),
    # the block histogram: N = 256 and the bincount's memory lie outside the property
    Mutant("uint8-weights-at-256", ORACLE, "if n >= 256:", "if n > 256:", ORACLE_TESTS),
    Mutant("unchunked-bincount", ORACLE, "_CHUNK = 1 << 16", "_CHUNK = 1 << 40", ORACLE_TESTS),
    Mutant("odd-length-fallback-missing", ORACLE, "if weights.dtype == np.uint16 or len(weights) % 2:",
           "if weights.dtype == np.uint16:"),
    # Monte Carlo's running totals
    Mutant("mc-squares-of-totals", ORACLE, "map(mul, hist.counts, hist.counts)", "hist.counts", ORACLE_TESTS),
    Mutant("mc-saturation-and", ORACLE, "map(or_, sat, hist.saturated)", "map(min, sat, hist.saturated)",
           ORACLE_TESTS),
    # the collector, its prune bound, its messages and its pinned tie order
    Mutant("collector-metric-skew", SCL, "np.bincount(metric, minlength=n + 1)",
           "np.bincount(metric + (metric == 3), minlength=n + 1)"),
    Mutant("collector-zero-word-counted", SCL, "    counts[0] = 0\n    sat", "    sat"),
    Mutant("full-list-flags-weight-n", SCL,
           "counts[0] = 0\n    sat = tuple(d >= prune_bound for",
           "counts[0] = counts[n] = 0\n    sat = tuple(d >= prune_bound or d == n for"),
    Mutant("prune-bound-one-high", SCL, "return np.flatnonzero(keep), thr\n",
           "return np.flatnonzero(keep), thr + 1\n"),
    Mutant("select-bound-at-full-tie", SCL, "if need < counts[thr]:", "if need <= counts[thr]:",
           "tests/test_scl.py"),
    Mutant("messages-skip-next", SCL, "range(p + 1, len(info))", "range(p + 2, len(info))",
           "tests/test_scl.py"),
    Mutant("select-keeps-last-ties", SCL, "(cand == thr)[:need]", "(cand == thr)[::-1][:need]",
           "tests/test_scl.py::test_pruned_regime_is_pinned"),
    # verify_average's odd-weight check: d = 1 is also below every minimum
    # weight without row 1, so verify still fails, one problem short
    Mutant("verify-odd-skips-d1", SPECTRUM, "odd = range(1, n + 1, 2)", "odd = range(3, n + 1, 2)",
           "tests/test_spectrum.py::TestVerifyAverage",
           "no test puts mass at d = 1; TestVerifyAverage::test_reports_each_violation should, and "
           "count its two problems there"),
    # transforms the routes agree on whatever their entries: only the
    # constructors' own tests see a wrong one (the route property cannot)
    Mutant("pac-taps-unreversed", "src/polarspec/pretransform.py", 'int(f"{poly:b}"[::-1], 2)',
           'int(f"{poly:b}", 2)', "tests/test_pretransform.py"),
    # a transform whose diagonal sits one column late: the span check sees it
    Mutant("diagonal-one-column-late", "src/polarspec/pretransform.py", "return (1 << (i - 1)) | self.rows",
           "return (1 << i) | self.rows", "tests/test_acceptance.py::test_coset_invariance_under_transforms"),
    # serialization and exact rendering
    Mutant("canonical-indent-at-depth-2", REPORT, '"  " * (depth + 1)', '"  " * (depth + 1 + (depth == 2))',
           REPORT_TESTS),
    Mutant("exp2-quoted", REPORT, '_QUOTED = {"num", "value", "variance"}',
           '_QUOTED = {"num", "value", "variance", "exp2"}', REPORT_TESTS),
    Mutant("saturated-as-python-bool", REPORT, '"true" if r[at] else "false"', '"True" if r[at] else "false"',
           REPORT_TESTS),
    Mutant("transform-freeze-shallow", REPORT, "MappingProxyType({k: _frozen(v) for k, v in value.items()})",
           "MappingProxyType(dict(value))", REPORT_TESTS),
    Mutant("lowest-terms-shift-short", DYADIC, "(num & -num).bit_length() - 1)",
           "(num & -num).bit_length() - 2)", "tests/test_dyadic.py"),
    Mutant("half-even-tie-rounds-up", DYADIC, "if twice > (1 << exp) or (twice == (1 << exp) and q & 1):",
           "if twice >= (1 << exp):", "tests/test_dyadic.py"),
)


def anchor_count(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.anchor)


def run(mutant: Mutant) -> str:
    """The mutant's verdict on its selection: killed, survived or an error."""
    with tempfile.TemporaryDirectory(prefix="polarspec-mutant-") as tmp:
        work = Path(tmp)
        for folder in ("src", "tests"):
            shutil.copytree(ROOT / folder, work / folder,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"))
        path = work / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.anchor, mutant.replacement),
                        encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if not k.startswith("POLARSPEC_")}
        env["PYTHONPATH"] = str(work / "src")
        try:
            proc = subprocess.run([sys.executable, *PYTEST, *mutant.tests.split()], cwd=work, env=env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error (timeout {TIMEOUT_S} s)"
    return {0: "survived", 1: "killed"}.get(proc.returncode, f"error (exit {proc.returncode})")


def main() -> int:
    failed = False
    print(f"{'mutant':30} {'selection':58} verdict", flush=True)
    for m in MUTANTS:
        count = anchor_count(m)
        t0 = time.perf_counter()
        verdict = run(m) if count == 1 else f"error (anchor found {count} times)"
        ok = verdict == "killed" or verdict == "survived" and m.found is not None
        failed |= not ok
        note = f"  FOUND: {m.found}" if m.found and verdict == "survived" else ""
        print(f"{m.name:30} {m.tests:58} {verdict} in {time.perf_counter() - t0:.1f} s{note}", flush=True)
    print("every mutant killed or FOUND" if not failed else "FAIL: a mutant survived unrecorded or erred")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
