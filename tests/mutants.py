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
checks every anchor in tier-1, and that every library module but
__init__.py has a mutant. Uses the standard library only.
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
CLI, CONSTRUCT, KERNEL = "src/polarspec/cli.py", "src/polarspec/construct.py", "src/polarspec/kernel.py"
ORACLE_TESTS, REPORT_TESTS = "tests/test_oracle.py", "tests/test_report_cli.py"
CONSTRUCT_TESTS, KERNEL_TESTS = "tests/test_construct.py", "tests/test_kernel.py"
COLD_START_TESTS = "tests/test_package.py::TestColdStart"

MUTANTS = (
    # the recursion: its mirror, its coset split and the closed-form p_min
    Mutant("mirror-slice-shifted", SPECTRUM, "out[n - d_max : half][::-1]",
           "out[n - d_max + 1 : half + 1][::-1]"),
    Mutant("coset-split-bisect-left", SPECTRUM, "mid = bisect_right(", "mid = bisect_left("),
    # the light-row filter and the table leaf's reach: rows of weight d_max
    # count, and a leaf holding coset 1 sums its odd columns
    Mutant("light-filter-strict", SPECTRUM, "(i - 1).bit_count() <= cap]", "(i - 1).bit_count() < cap]"),
    Mutant("leaf-skips-odd-columns", SPECTRUM, "2 if at[0] else 1", "2"),
    Mutant("leaf-starts-at-heaviest-row", SPECTRUM, "1 << min(map(int.bit_count, at))",
           "1 << max(map(int.bit_count, at))"),
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
    Mutant("prune-bound-one-high", SCL, "int(ranked[list_size])", "int(ranked[list_size - 1])",
           "tests/test_scl.py"),
    Mutant("select-bound-at-full-tie", SCL, '"right")) - list_size', '"right")) - list_size - 1',
           "tests/test_scl.py"),
    Mutant("messages-skip-next", SCL, "range(p + 1, len(info))", "range(p + 2, len(info))",
           "tests/test_scl.py"),
    Mutant("select-keeps-last-ties", SCL, "(cand == thr)[-extra:]", "(cand == thr)[:extra]",
           "tests/test_scl.py::test_pruned_regime_is_pinned"),
    # the decoder's narrow types and its pending values: an int8 depth 7
    # wraps the all-zero path's leaf LLR of 128 at N = 128
    Mutant("depth-7-int8", SCL, "np.int8 if d <= 6 else wide", "np.int8 if d <= 7 else wide",
           "tests/test_scl.py::test_pruned_regime_is_pinned"),
    Mutant("acc-dropped-at-last-frozen", SCL, "if t + 1 > last_frozen:", "if t + 1 >= last_frozen:"),
    Mutant("pending-gathered-twice", SCL, "(bit ^ acc[0] >> (t & 63) & 1)",
           "(bit ^ np.take(acc[0] >> (t & 63) & 1, parent))"),
    # verify_average's odd-weight check: d = 1 is also below every minimum
    # weight without row 1, so verify still fails, one problem short
    Mutant("verify-odd-skips-d1", SPECTRUM, "odd = range(1, n + 1, 2)", "odd = range(3, n + 1, 2)",
           "tests/test_spectrum.py::TestVerifyAverage"),
    # transforms the routes agree on whatever their entries: only the
    # constructors' own tests see a wrong one (the route property cannot)
    Mutant("pac-taps-unreversed", "src/polarspec/pretransform.py", 'int(f"{poly:b}"[::-1], 2)',
           'int(f"{poly:b}", 2)', "tests/test_pretransform.py"),
    # a transform whose diagonal sits one column late: the span check sees it
    Mutant("diagonal-one-column-late", "src/polarspec/pretransform.py", "return (1 << (i - 1)) | self.rows",
           "return (1 << i) | self.rows", "tests/test_acceptance.py::test_coset_invariance_under_transforms"),
    # serialization and exact rendering
    Mutant("info-set-item-indent", REPORT, r'separators=(",\n      ", ": ")',
           r'separators=(",\n     ", ": ")', REPORT_TESTS),
    Mutant("metadata-unsorted", REPORT, "json.dumps(self._metadata(), sort_keys=True, indent=2)",
           "json.dumps(self._metadata(), indent=2)", REPORT_TESTS),
    Mutant("exp2-quoted", REPORT, '_QUOTED = {"num", "value", "variance"}',
           '_QUOTED = {"num", "value", "variance", "exp2"}', REPORT_TESTS),
    Mutant("saturated-as-python-bool", REPORT, '"true" if r[at] else "false"', '"True" if r[at] else "false"',
           REPORT_TESTS),
    Mutant("transform-freeze-shallow", REPORT, "MappingProxyType({k: _frozen(v) for k, v in value.items()})",
           "MappingProxyType(dict(value))", REPORT_TESTS),
    Mutant("lowest-terms-shift-short", DYADIC, "(num & -num).bit_length() - 1)",
           "(num & -num).bit_length() - 2)", "tests/test_dyadic.py"),
    Mutant("half-even-tie-rounds-up", DYADIC, "(q & 1 or scaled &", "(1 or scaled &", "tests/test_dyadic.py"),
    Mutant("sticky-bit-ignored", DYADIC, "(q & 1 or scaled & ((1 << (exp - 1)) - 1))", "q & 1",
           "tests/test_dyadic.py"),
    Mutant("half-bit-one-high", DYADIC, "scaled >> (exp - 1) & 1", "scaled >> exp & 1",
           "tests/test_dyadic.py"),
    Mutant("digit-limit-error-raised", DYADIC, "    except ValueError:\n        pass",
           "    except ValueError:\n        raise", "tests/test_dyadic.py"),
    # numpy's code runs only once a route that uses it starts, a numpy
    # imported before is shared, and a missing numpy still fails the import
    Mutant("numpy-eager", ORACLE, 'np = _lazy_module("numpy")', "import numpy as np", COLD_START_TESTS),
    Mutant("imported-numpy-replaced", ORACLE, "if sys.modules.get(name) is not None:", "if False:",
           COLD_START_TESTS),
    Mutant("missing-numpy-unchecked", ORACLE, "    if spec is None:", "    if False:", COLD_START_TESTS),
    # the CLI: each flag reaches its library call, and each refusal its exit code
    Mutant("pac-builds-identity", CLI, 'transform = pac_transform(config, desc["poly"])',
           "transform = identity_transform(config)", REPORT_TESTS),
    Mutant("exact-round-ignored", CLI, "hist, args.round,\n                                   transform=desc",
           "hist, 6,\n                                   transform=desc", REPORT_TESTS),
    Mutant("ensemble-round-ignored", CLI,
           'hist, args.round,\n                                   transform={"kind"',
           'hist, 6,\n                                   transform={"kind"', REPORT_TESTS),
    Mutant("out-ignored", CLI, "    if args.out:", "    if False:", REPORT_TESTS),
    Mutant("usage-error-exits-1", CLI, "        args.parser.error(str(exc))",
           '        print(f"error: {exc}", file=sys.stderr)\n        return 1', REPORT_TESTS),
    Mutant("usage-error-names-no-command", CLI, "args.parser.error(str(exc))", "parser.error(str(exc))",
           REPORT_TESTS),
    Mutant("unknown-flag-names-no-command", CLI, 'args.parser.error(f"unrecognized',
           'parser.error(f"unrecognized', REPORT_TESTS),
    Mutant("budget-hint-dropped", CLI,
           'raise BudgetError(f"{exc}; use --method scl:LIST_SIZE instead") from None', "raise",
           REPORT_TESTS),
    Mutant("samples-accepts-zero", CLI, "type=_int_at_least(1), required=True",
           "type=_int_at_least(0), required=True", REPORT_TESTS),
    Mutant("file-k-mismatch-unchecked", CLI, "if k is not None and config.k != k:", "if False:",
           REPORT_TESTS),
    Mutant("verify-dmax-unchecked", CLI, "if args.verify and dmax != config.n:", "if False:", REPORT_TESTS),
    Mutant("dmax-range-unchecked", CLI, "if not 1 <= dmax <= config.n:", "if False:", REPORT_TESTS),
    Mutant("command-parser-given-its-name", CLI, "commands[argv[0]].parse_known_args(argv[1:])",
           "commands[argv[0]].parse_known_args(argv)", REPORT_TESTS),
    # construction: the PW key, RM's tie order, and what a config or a file may hold
    Mutant("pw-score-base-2", CONSTRUCT, "term = math.isqrt(math.isqrt(1 << (j + 4 * p)))",
           "term = 1 << (j + p)", CONSTRUCT_TESTS),
    Mutant("rm-ties-in-reverse-pw-order", CONSTRUCT, "sorted(_pw_rank(m), key=",
           "sorted(_pw_rank(m)[::-1], key=", CONSTRUCT_TESTS),
    Mutant("caller-config-unchecked", CONSTRUCT, "_ranked: InitVar[bool] = False",
           "_ranked: InitVar[bool] = True", CONSTRUCT_TESTS),
    Mutant("config-accepts-repeats", CONSTRUCT, "all(map(lt, info, info[1:]))",
           "all(map(lambda a, b: a <= b, info, info[1:]))", CONSTRUCT_TESTS),
    # numpy integers must become Python ints, and floats be refused, at construction
    Mutant("config-index-pass-dropped", CONSTRUCT, "info = tuple(map(index, self.info_set))",
           "info = tuple(self.info_set)", CONSTRUCT_TESTS),
    Mutant("transform-index-pass-dropped", "src/polarspec/pretransform.py",
           "rows = {index(i): index(mask) for i, mask in self.rows.items()}", "rows = dict(self.rows)",
           "tests/test_pretransform.py"),
    # CodeConfig refuses both in other words: only load_info_set's own
    # messages name the file and line
    Mutant("load-duplicate-accepted", CONSTRUCT, "if idx in seen:", "if False:", CONSTRUCT_TESTS),
    Mutant("load-index-range-unchecked", CONSTRUCT, "if not 1 <= idx <= n:", "if False:", CONSTRUCT_TESTS),
    # the kernel: row indices, butterfly stages, frozen bits and stray rows
    Mutant("row-index-bound-loose", KERNEL, "if not 1 <= i <= (1 << m):", "if not 1 <= i <= (2 << m):",
           KERNEL_TESTS),
    Mutant("stage-mask-short-at-2", KERNEL, "* ((1 << (1 << s)) - 1) for s in range(m))",
           "* ((1 << (1 << s)) - 1 - (s == 2)) for s in range(m))", KERNEL_TESTS),
    Mutant("encode-frozen-bit-unchecked", KERNEL, "if i not in transform.rows:", "if False:", KERNEL_TESTS),
    Mutant("stray-row-unchecked", KERNEL, "    if stray:", "    if False:",
           "tests/test_scl.py::TestCollectLowWeight::test_transform_of_another_information_set_is_rejected"),
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
