"""Machine-readable spectrum reports: canonical JSON and CSV.

The JSON form is canonical (sorted keys, two-space indent, trailing
newline) so byte-identical round-trips can be asserted by golden tests.
Exact values are carried as {"num": decimal string, "exp2": int} pairs,
never as floats; decimal renderings are strings produced by the exact
dyadic rounding.

A report keeps its entries as rows of scalars under one tuple of column
names, built straight from the integers. Every histogram's value is
counts[d] / samples. Exact entries have the columns (d, exp2, num,
value); Monte-Carlo entries (d, samples, value, variance) render the
mean and the unbiased variance from the histogram's integer totals and
squares. Saturation flags add "saturated" just before "value": the
sorted key order, so each row is written through one template for its
shape.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import starmap
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .construct import CodeConfig
from .dyadic import decimal_text, int_text, lowest_terms
from .oracle import WeightHistogram
from .spectrum import AverageSpectrum

__all__ = ["SpectrumReport", "report_from_average", "report_from_histogram"]

CSV_COLUMNS = ("d", "value_decimal", "num", "exp2", "variance", "samples", "saturated")
_EXACT = ("d", "exp2", "num", "value")
_MONTE_CARLO = ("d", "samples", "value", "variance")
_QUOTED = {"num", "value", "variance"}  # decimal strings: digits, "." and "-" only


@dataclass(frozen=True, slots=True)
class SpectrumReport:
    """One spectrum computation, ready for serialization.

    ``rows`` holds one tuple per entry, its values under ``columns``.
    Nothing a report writes can change after it is built: ``code`` and
    ``entries`` are fresh dicts built on access from the frozen
    ``config``, ``construction`` and rows, and ``transform`` is a
    read-only copy of the mapping passed in (a shallow one: the CLI's
    values are scalars).
    """

    config: CodeConfig
    construction: str
    method: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    transform: Mapping | None = None
    samples: int | None = None
    seed: int | None = None
    list_size: int | None = None

    def __post_init__(self):
        if self.transform is not None:
            object.__setattr__(self, "transform", MappingProxyType(dict(self.transform)))

    @property
    def code(self) -> dict:
        """The code block, a fresh dict on each access: n, k, construction
        and info_set."""
        return {"n": self.config.n, "k": self.config.k, "construction": self.construction,
                "info_set": list(self.config.info_set)}

    @property
    def entries(self) -> list[dict]:
        """One fresh dict per entry, keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def _metadata(self) -> dict:
        """The method and every other field that is set, beside code and entries."""
        transform = None if self.transform is None else dict(self.transform)
        optional = {"transform": transform, "samples": self.samples, "seed": self.seed,
                    "list_size": self.list_size}
        return {"method": self.method, **{k: v for k, v in optional.items() if v is not None}}

    def to_dict(self) -> dict:
        return {"code": self.code, "entries": self.entries, **self._metadata()}

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\\n"."""
        rows = self.rows
        if "saturated" in self.columns:  # json's true/false, not str(bool)
            at = self.columns.index("saturated")
            rows = [(*r[:at], "true" if r[at] else "false", *r[at + 1:]) for r in rows]
        fields = ",\n      ".join(f'"{c}": ' + ('"{}"' if c in _QUOTED else "{}")
                                   for c in self.columns)
        template = "    {{\n      " + fields + "\n    }}"
        entries = "[\n" + ",\n".join(starmap(template.format, rows)) + "\n  ]" if rows else "[]"
        # "code" and "entries" sort before every metadata key
        metadata = _canonical(self._metadata(), 0)[2:]  # without its opening "{\n"
        return f'{{\n  "code": {_canonical(self.code, 1)},\n  "entries": {entries},\n{metadata}\n'

    def to_csv(self) -> str:
        """Each CSV column holds the entry's value of that name, and
        value_decimal its value; an absent value is left empty."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for e in self.entries:
            if "saturated" in e:
                e["saturated"] = "true" if e["saturated"] else "false"
            writer.writerow(e.get("value" if c == "value_decimal" else c, "") for c in CSV_COLUMNS)
        return buf.getvalue()


_SCALARS = {str, int, float, bool, type(None)}


def _canonical(obj, depth: int) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) at ``depth``,
    for objects whose nested dicts have string keys.

    With an indent, json falls back to its pure-Python encoder. Without
    one it takes the C path, so a container of scalars is encoded in one
    call with ",\n" plus the item indent as separator; encoded strings
    escape newlines, so every raw newline in its output is a separator.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)  # a scalar, [] or {}
    is_dict = isinstance(obj, dict)
    pad, inner = "  " * depth, "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        body = json.JSONEncoder(sort_keys=True, separators=(f",\n{inner}", ": ")).encode(obj)[1:-1]
    elif is_dict:
        body = f",\n{inner}".join(
            f"{encode_basestring_ascii(k)}: {_canonical(v, depth + 1)}" for k, v in sorted(obj.items())
        )
    else:
        body = f",\n{inner}".join(_canonical(v, depth + 1) for v in obj)
    left, right = ("{", "}") if is_dict else ("[", "]")
    return f"{left}\n{inner}{body}\n{pad}{right}"


def _exact(num: int, exp: int, digits: int) -> tuple[int, str, str]:
    """num / 2^exp as the report's exp2, num and value, in lowest terms."""
    low, low_exp = lowest_terms(num, exp)
    return low_exp, int_text(low), decimal_text(num, exp, digits)


def _fmt(x: float, digits: int) -> str:
    if digits < 0:
        raise ValueError("digits must be >= 0")
    return f"{x:.{digits}f}" if digits > 0 else str(round(x))


def report_from_average(
    config: CodeConfig,
    construction: str,
    spec: AverageSpectrum,
    digits: int = 6,
) -> SpectrumReport:
    """Report for the exact recursion output, one entry per weight."""
    rows = tuple((d, *_exact(x, spec.exp, digits)) for d, x in enumerate(spec.nums, start=1))
    return SpectrumReport(config, construction, "recursion", _EXACT, rows)


def report_from_histogram(
    config: CodeConfig,
    construction: str,
    hist: WeightHistogram,
    digits: int = 6,
    transform: dict | None = None,
    list_size: int | None = None,
) -> SpectrumReport:
    """Report for an enumerated or sampled histogram.

    Every value is counts[d] / samples. Exact sources carry its num/exp2
    pair (WeightHistogram checks that samples is a power of two);
    Monte-Carlo entries carry the decimal mean t/s, the unbiased variance
    (s*q - t*t) / (s*(s - 1)) of the total t and sum of squares q, 0.0
    when s = 1, and the sample count s instead: exact integers, each
    rounded once to a float.
    """
    s = hist.samples
    exact = hist.source != "monte-carlo"
    if exact:
        columns = _EXACT
        exp = s.bit_length() - 1
        rows = [(d, *_exact(c, exp, digits)) for d, c in enumerate(hist.counts)]
    else:
        columns = _MONTE_CARLO
        div = s * (s - 1)
        rows = [(d, s, _fmt(t / s, digits), _fmt((s * q - t * t) / div if div else 0.0, digits))
                for d, (t, q) in enumerate(zip(hist.counts, hist.squares))]
    if hist.saturated is not None:
        at = columns.index("value")
        columns = (*columns[:at], "saturated", *columns[at:])
        rows = [(*r[:at], hist.saturated[d], *r[at:]) for d, r in enumerate(rows)]
    return SpectrumReport(
        config,
        construction,
        hist.source,
        columns,
        tuple(rows),
        transform=transform,
        samples=None if exact else s,
        seed=hist.seed,
        list_size=list_size,
    )
