import importlib

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
