"""Exact ensemble-average weight spectra of pre-transformed polar codes."""

from .construct import CodeConfig, construct_pw, construct_rm, load_info_set, min_row_weight
from .dyadic import DyadicRational
from .kernel import encode, row_bits, row_weight
from .oracle import (
    BudgetError,
    WeightHistogram,
    ensemble_average_exact,
    ensemble_average_mc,
    exact_spectrum,
)
from .pretransform import (
    PreTransform,
    SplitMix64,
    crc_transform,
    derive_seeds,
    free_entry_count,
    identity_transform,
    pac_transform,
    parse_poly,
    random_transform,
    transform_from_bits,
)
from .report import SpectrumReport, report_from_average, report_from_histogram
from .scl import DecoderPath, collect_low_weight, path_metric_update, scl_decode
from .spectrum import (
    AverageSpectrum,
    avg_nmin,
    avg_spectrum,
    coset_spectrum,
    p_exact,
    p_min,
    verify_average,
)

__version__ = "1.0.0"

__all__ = [
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
    "coset_spectrum",
    "construct_pw",
    "construct_rm",
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
    "path_metric_update",
    "random_transform",
    "report_from_average",
    "report_from_histogram",
    "row_bits",
    "row_weight",
    "scl_decode",
    "transform_from_bits",
    "verify_average",
]
