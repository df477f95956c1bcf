import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polarspec

MODULES = ("construct", "dyadic", "kernel", "oracle", "pretransform", "report", "scl", "spectrum")

PUBLIC_NAMES = [
    "AverageSpectrum",
    "BudgetError",
    "CodeConfig",
    "DecoderPath",
    "DyadicRational",
    "PreTransform",
    "SpectrumReport",
    "SplitMix64",
    "WeightHistogram",
    "avg_nmin",
    "avg_spectrum",
    "collect_low_weight",
    "construct_pw",
    "construct_rm",
    "coset_spectrum",
    "crc_transform",
    "derive_seeds",
    "encode",
    "ensemble_average_exact",
    "ensemble_average_mc",
    "exact_spectrum",
    "free_entry_count",
    "identity_transform",
    "load_info_set",
    "min_row_weight",
    "p_exact",
    "p_min",
    "pac_transform",
    "parse_poly",
    "random_transform",
    "report_from_average",
    "report_from_histogram",
    "row_bits",
    "row_weight",
    "scl_decode",
    "transform_from_bits",
    "verify_average",
]


class TestPublicNames:
    def test_names_are_pinned(self):
        assert sorted(polarspec.__all__) == PUBLIC_NAMES

    def test_each_name_is_its_modules_object(self):
        homes = {}
        for name in MODULES:
            module = importlib.import_module(f"polarspec.{name}")
            for public in module.__all__:
                assert public not in homes, f"{public} exported by {homes[public]} and {name}"
                homes[public] = name
                assert getattr(polarspec, public) is getattr(module, public)
        assert sorted(homes) == PUBLIC_NAMES

    def test_version(self):
        assert polarspec.__version__ == "1.0.0"


# the tree under test, so that a mutated copy runs its own code
SRC = str(Path(polarspec.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).parent / "golden"
# runs the CLI, then prints every numpy submodule loaded: numpy's own
# code imports them, while the lazy numpy module alone stays in
# sys.modules until an attribute of it is read
_CLI = ("import sys; from polarspec.cli import main; rc = main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.startswith('numpy.')), file=sys.stderr); sys.exit(rc)")


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """A new interpreter, run with argv, that imports polarspec from SRC."""
    return subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)


class TestColdStart:
    """numpy's code runs only once a route that uses it touches numpy."""

    def test_recursion_run_loads_no_numpy_code(self):
        proc = fresh("-c", _CLI, *"avg-spectrum --n 16 --k 8 --construction rm --round 4 --verify".split())
        assert (proc.returncode, proc.stderr) == (0, "[]\n")
        assert proc.stdout == (GOLDEN / "avg_rm16_8.json").read_text(encoding="utf-8")

    def test_brute_force_run_loads_numpy(self):
        proc = fresh("-c", _CLI, *"exact-spectrum --n 16 --k 8 --construction pw --transform random:3".split())
        assert proc.returncode == 0 and "'numpy._core'" in proc.stderr, proc.stderr
        assert proc.stdout == (GOLDEN / "exact_pw16_8_brute.json").read_text(encoding="utf-8")

    def test_numpy_imported_after_polarspec_works(self):
        proc = fresh("-c", "import sys, polarspec, numpy; assert sys.modules['numpy'] is numpy; "
                           "print(int(numpy.arange(5).sum()), numpy.bitwise_count(numpy.uint64(7)))")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "10 3\n", "")

    def test_numpy_imported_before_polarspec_is_shared(self):
        proc = fresh("-c", "import numpy, polarspec; assert polarspec.oracle.np is numpy is polarspec.scl.np")
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_missing_numpy_fails_the_import(self):
        # -S leaves site-packages, where numpy is installed, off the path
        proc = fresh("-S", "-c", "import importlib.util, sys\n"
                                 "if importlib.util.find_spec('numpy'): sys.exit(3)\n"
                                 "import polarspec")
        if proc.returncode == 3:
            pytest.skip("numpy is importable without site-packages")
        assert proc.returncode == 1
        assert proc.stderr.endswith("ModuleNotFoundError: No module named 'numpy'\n"), proc.stderr
