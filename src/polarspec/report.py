"""Machine-readable spectrum reports: canonical JSON and CSV.

The JSON form is canonical (sorted keys, two-space indent, trailing
newline) so byte-identical round-trips can be asserted by golden tests.
Exact values are carried as {"num": decimal string, "exp2": int} pairs,
never as floats; decimal renderings are strings produced by the exact
dyadic rounding.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

from .construct import CodeConfig
from .dyadic import DyadicRational, int_text
from .oracle import WeightHistogram
from .spectrum import AverageSpectrum

__all__ = ["SpectrumReport", "report_from_average", "report_from_histogram"]

CSV_COLUMNS = ("d", "value_decimal", "num", "exp2", "variance", "samples", "saturated")


@dataclass(frozen=True, slots=True)
class SpectrumReport:
    """One spectrum computation, ready for serialization."""

    code: dict
    method: str
    entries: list = field(default_factory=list)
    transform: dict | None = None
    samples: int | None = None
    seed: int | None = None
    list_size: int | None = None

    def to_dict(self) -> dict:
        out: dict = {"code": self.code, "method": self.method, "entries": self.entries}
        if self.transform is not None:
            out["transform"] = self.transform
        if self.samples is not None:
            out["samples"] = self.samples
        if self.seed is not None:
            out["seed"] = self.seed
        if self.list_size is not None:
            out["list_size"] = self.list_size
        return out

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\\n"."""
        return _canonical(self.to_dict(), 0) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for e in self.entries:
            sat = e.get("saturated")
            writer.writerow(
                [
                    e["d"],
                    e["value"],
                    e.get("num", ""),
                    e.get("exp2", ""),
                    e.get("variance", ""),
                    e.get("samples", ""),
                    "" if sat is None else ("true" if sat else "false"),
                ]
            )
        return buf.getvalue()


@functools.cache
def _flat_encoder(depth: int):
    """json's one-line encoder, items separated by a newline and depth indents."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


_SCALARS = {str, int, float, bool, type(None)}


def _canonical(obj, depth: int) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2) at ``depth``,
    for objects whose nested dicts have string keys.

    With an indent, json falls back to its pure-Python encoder. Without
    one it takes the C path, so each container of scalars is encoded
    flat with ",\n" plus the item indent as separator; encoded strings
    escape newlines, so every raw newline in its output is a separator.
    A list of non-empty plain dicts of scalars, such as a report's
    entries, is encoded flat in one call at the dicts' item indent; a "}"
    before a separator can only close an item, so each "},\n" + indent +
    "{" is an item boundary, rewritten to the list's own indent.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return _flat_encoder(0)(obj)  # a scalar, [] or {}
    is_dict = isinstance(obj, dict)
    pad, inner = "  " * depth, "  " * (depth + 1)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        body = _flat_encoder(depth + 1)(obj)[1:-1]
    elif is_dict:
        body = f",\n{inner}".join(
            f"{encode_basestring_ascii(k)}: {_canonical(v, depth + 1)}" for k, v in sorted(obj.items())
        )
    elif {dict}.issuperset(map(type, obj)) and all(obj) and _SCALARS.issuperset(
        map(type, chain.from_iterable(map(dict.values, obj)))
    ):
        inner2 = inner + "  "
        flat = _flat_encoder(depth + 2)(obj)[2:-2]  # without the outer "[{" and "}]"
        items = flat.replace(f"}},\n{inner2}{{", f"\n{inner}}},\n{inner}{{\n{inner2}")
        body = f"{{\n{inner2}{items}\n{inner}}}"
    else:
        body = f",\n{inner}".join(_canonical(v, depth + 1) for v in obj)
    left, right = ("{", "}") if is_dict else ("[", "]")
    return f"{left}\n{inner}{body}\n{pad}{right}"


def _code_block(config: CodeConfig, construction: str) -> dict:
    return {
        "n": config.n,
        "k": config.k,
        "construction": construction,
        "info_set": list(config.info_set),
    }


def _exact(num: int, exp: int, digits: int) -> dict:
    """num / 2^exp as the report's num/exp2 pair, in lowest terms, and decimal value."""
    val = DyadicRational(num, exp)
    return {"num": int_text(val.num), "exp2": val.exp, "value": val.decimal(digits)}


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
    entries = [{"d": d, **_exact(x, spec.exp, digits)} for d, x in enumerate(spec.nums, start=1)]
    return SpectrumReport(_code_block(config, construction), "recursion", entries)


def report_from_histogram(
    config: CodeConfig,
    construction: str,
    hist: WeightHistogram,
    digits: int = 6,
    transform: dict | None = None,
    list_size: int | None = None,
) -> SpectrumReport:
    """Report for an enumerated or sampled histogram.

    Exact sources carry the num/exp2 pair of counts[d] / samples, which
    needs samples to be a power of two; Monte-Carlo means carry decimal
    value, variance and the sample count instead.
    """
    exact = hist.source != "monte-carlo"
    if exact and (hist.samples < 1 or hist.samples & (hist.samples - 1)):
        raise ValueError(f"exact {hist.source} histogram needs a power-of-two samples >= 1, "
                         f"got {hist.samples}")
    exp = hist.samples.bit_length() - 1
    entries = []
    for d, c in enumerate(hist.counts):
        e: dict = {"d": d}
        if exact:
            e.update(_exact(c, exp, digits))
        else:
            e["value"] = _fmt(c, digits)
            e["variance"] = _fmt(hist.variance[d], digits)
            e["samples"] = hist.samples
        if hist.saturated is not None:
            e["saturated"] = bool(hist.saturated[d])
        entries.append(e)
    return SpectrumReport(
        _code_block(config, construction),
        hist.source,
        entries,
        transform=transform,
        samples=None if exact else hist.samples,
        seed=hist.seed,
        list_size=list_size,
    )
