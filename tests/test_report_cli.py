import csv
import decimal
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from collections import OrderedDict
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import polarspec
from polarspec.cli import _build_parser, main
from polarspec.construct import CodeConfig, construct_pw, construct_rm, load_info_set
from polarspec.oracle import (
    WeightHistogram,
    ensemble_average_exact,
    ensemble_average_mc,
    exact_spectrum,
)
from polarspec.pretransform import crc_transform, identity_transform, pac_transform, random_transform
from polarspec.report import (
    CSV_COLUMNS,
    SpectrumReport,
    report_from_average,
    report_from_histogram,
)
from polarspec.scl import collect_low_weight
from polarspec.spectrum import AverageSpectrum, avg_spectrum, verify_average

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv: str) -> dict:
    """The JSON report a command that exits 0 prints, parsed."""
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def run_usage_error(capsys, *argv: str) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestReportObjects:
    def test_average_report(self):
        cfg = construct_rm(16, 8)
        rep = report_from_average(cfg, "rm", avg_spectrum(cfg), digits=4)
        assert rep.method == "recursion"
        assert rep.code == {
            "n": 16,
            "k": 8,
            "construction": "rm",
            "info_set": list(cfg.info_set),
        }
        assert [e["d"] for e in rep.entries] == list(range(1, 17))
        e4 = rep.entries[3]
        assert e4 == {"d": 4, "num": "28", "exp2": 0, "value": "28.0000"}

    def test_histogram_report_integer_counts(self):
        cfg = construct_pw(8, 4)
        rep = report_from_histogram(cfg, "pw", exact_spectrum(cfg, identity_transform(cfg)))
        assert rep.method == "brute"
        assert rep.entries[0] == {"d": 0, "num": "1", "exp2": 0, "value": "1.000000"}
        assert all("variance" not in e and "saturated" not in e for e in rep.entries)

    def test_histogram_report_numpy_counts(self):
        cfg = construct_pw(8, 4)
        hist = exact_spectrum(cfg, identity_transform(cfg))
        as_numpy = replace(hist, counts=tuple(np.array(hist.counts, dtype=np.int64)))
        assert report_from_histogram(cfg, "pw", as_numpy) == report_from_histogram(cfg, "pw", hist)
        spec = avg_spectrum(cfg)
        as_numpy = replace(spec, nums=tuple(np.array(spec.nums, dtype=np.int64)))
        assert report_from_average(cfg, "pw", as_numpy) == report_from_average(cfg, "pw", spec)

    def test_exact_histogram_renders_counts_over_samples(self):
        cfg = CodeConfig(1, (1, 2))
        rep = report_from_histogram(cfg, "pw", WeightHistogram("brute", (1, 2, 1), samples=4))
        assert [(e["num"], e["exp2"], e["value"]) for e in rep.entries] == [
            ("1", 2, "0.250000"), ("1", 1, "0.500000"), ("1", 2, "0.250000")]
        for samples in (0, -4, 3, 6):
            with pytest.raises(ValueError, match=f"power-of-two samples >= 1, got {samples}"):
                WeightHistogram("exhaustive-ensemble", (1, 2, 1), samples=samples)

    def test_histogram_report_mc(self):
        cfg = construct_pw(8, 4)
        hist = ensemble_average_mc(cfg, 5, samples=3)
        rep = report_from_histogram(cfg, "pw", hist)
        assert rep.method == "monte-carlo"
        assert rep.samples == 3 and rep.seed == 5
        for e in rep.entries:
            assert set(e) == {"d", "value", "variance", "samples"}

    def test_negative_digits_raise(self):
        # every source rejects a negative precision, like DyadicRational.decimal
        cfg = construct_pw(8, 4)
        hists = [
            ensemble_average_mc(cfg, 0, samples=3),
            exact_spectrum(cfg, identity_transform(cfg)),
        ]
        for hist in hists:
            with pytest.raises(ValueError, match="digits"):
                report_from_histogram(cfg, "pw", hist, -2)
        with pytest.raises(ValueError, match="digits"):
            report_from_average(cfg, "pw", avg_spectrum(cfg), -1)

    def test_negative_counts_raise(self):
        cfg = construct_pw(8, 4)
        with pytest.raises(ValueError, match="negative numerator"):
            report_from_histogram(cfg, "pw", WeightHistogram("brute", (1, -2)))
        with pytest.raises(ValueError, match="negative numerator"):
            AverageSpectrum(cfg, 3, (8, -1))
        with pytest.raises(ValueError, match="negative numerator or exp"):
            AverageSpectrum(cfg, -1, (8, 1))

    def test_spectrum_keeps_a_tuple_of_checked_numerators(self):
        # the caller's list is copied: editing it changes no check and no report
        cfg = construct_pw(8, 4)
        nums = [0, 0, 0, 14, 0, 0, 0, 1]
        spec = AverageSpectrum(cfg, 0, nums)
        text = report_from_average(cfg, "pw", spec).to_json()
        nums[3] = 13
        assert verify_average(spec) == []
        assert report_from_average(cfg, "pw", spec).to_json() == text
        with pytest.raises(TypeError):  # a float is refused
            AverageSpectrum(cfg, 0, (1.0,))
        assert AverageSpectrum(cfg, 0, []).nums == ()  # no entry is no negative one

    def test_histogram_report_scl_saturation(self):
        cfg = construct_pw(16, 8)
        hist = collect_low_weight(cfg, identity_transform(cfg), 4)
        rep = report_from_histogram(cfg, "pw", hist, list_size=4)
        assert rep.list_size == 4
        assert [e["saturated"] for e in rep.entries[:1]] == [False]
        assert any(e["saturated"] for e in rep.entries)

    def test_json_is_canonical(self):
        cfg = construct_pw(8, 4)
        rep = report_from_average(cfg, "pw", avg_spectrum(cfg))
        text = rep.to_json()
        assert text.endswith("\n")
        assert text == rep.to_json()
        parsed = json.loads(text)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text

    def test_to_dict_omits_absent_metadata(self):
        cfg = construct_pw(8, 4)
        rep = report_from_average(cfg, "pw", avg_spectrum(cfg))
        assert set(rep.to_dict()) == {"code", "method", "entries"}

    def test_csv_header_and_rows(self):
        cfg = construct_pw(8, 4)
        rep = report_from_histogram(cfg, "pw", exact_spectrum(cfg, identity_transform(cfg)))
        lines = rep.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 9  # header + d = 0..8
        assert lines[1] == "0,1.000000,1,0,,,"

    def test_editing_entries_leaves_the_report_unchanged(self):
        cfg = construct_pw(16, 8)
        hist = collect_low_weight(cfg, identity_transform(cfg), 4)
        rep = report_from_histogram(cfg, "pw", hist, list_size=4)
        text, table = rep.to_json(), rep.to_csv()
        rep.entries[3]["num"] = "99"
        rep.entries[4]["saturated"] = not rep.entries[4]["saturated"]
        rep.entries.append({"d": 17, "num": "1", "exp2": 0, "value": "1.000000"})
        assert rep.to_json() == text
        assert rep.to_csv() == table

    def test_editing_the_envelope_leaves_the_report_unchanged(self):
        # code is a fresh dict on each access, transform a read-only copy
        # all the way down
        cfg = construct_pw(8, 4)
        desc = {"kind": "pac", "poly": "1011", "t": [{"a": 1}]}
        hist = exact_spectrum(cfg, identity_transform(cfg))
        for rep in (report_from_average(cfg, "pw", avg_spectrum(cfg)),
                    report_from_histogram(cfg, "pw", hist, transform=desc)):
            text, table = rep.to_json(), rep.to_csv()
            rep.code["n"] = 5
            rep.code["info_set"].append(99)
            assert rep.to_json() == text and rep.to_csv() == table
        with pytest.raises(TypeError):
            rep.transform["kind"] = "crc"
        with pytest.raises(TypeError):
            rep.transform["t"][0]["a"] = 2
        desc["poly"] = "11"  # the caller's dict
        desc["t"][0]["a"] = 2  # and a nested object in it
        assert rep.to_json() == text and rep.to_csv() == table


def assert_same_text(got: str, want: str) -> None:
    """Exact string equality that fails in seconds: pytest's diff of two
    ~0.5 MB texts takes minutes, so a mismatch reports the first
    differing offset and a short context instead."""
    if got == want:
        return
    at = len(os.path.commonprefix([got, want]))
    lo = max(0, at - 40)
    raise AssertionError(
        f"texts differ at offset {at} (lengths {len(got)} and {len(want)}): "
        f"got {got[lo:at + 40]!r}, want {want[lo:at + 40]!r}"
    )


# text that stresses a hand-built encoder: separators, escapes, non-ASCII
_TRICKY = st.text(
    st.one_of(st.sampled_from('\n"\\{},:[] \t\u2028é漢\U0001f600'), st.characters()), max_size=12
)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-(1 << 70), 1 << 70), _TRICKY,
    st.floats(allow_nan=False, allow_infinity=False),
)
_TRANSFORM = st.none() | st.dictionaries(_TRICKY, st.one_of(
    _TRICKY, st.integers(), st.lists(st.integers(), max_size=3).map(tuple),
    st.builds(OrderedDict, st.dictionaries(_TRICKY, _SCALAR, max_size=2)),
    st.lists(st.dictionaries(_TRICKY, _SCALAR, max_size=3), min_size=1, max_size=3),
), max_size=4)
_CONFIG = st.integers(1, 5).flatmap(lambda m: st.sets(st.integers(1, 1 << m), min_size=1).map(
    lambda s: CodeConfig(m, tuple(sorted(s)))))
_BIG = 2 * 3**10000 + 1  # 4772 digits, past str()'s default limit of 4300
_NUMS = st.lists(st.integers(0, 1 << 70) | st.sampled_from([0, 1, 3, _BIG]), min_size=1, max_size=6)
_SAMPLE_COUNT = st.integers(0, 1 << 70) | st.sampled_from([0, 1, 3])
_SOURCES = ("recursion", "brute", "exhaustive-ensemble", "scl", "monte-carlo")


@st.composite
def _reports(draw) -> partial:
    """A call that builds a report of any shape, the way the CLI builds
    it; the test makes the call, so a builder's fault fails the test, not
    the module's collection."""
    config, construction, digits = draw(_CONFIG), draw(_TRICKY), draw(st.integers(0, 9))
    source, nums = draw(st.sampled_from(_SOURCES)), tuple(draw(_NUMS))
    if source == "recursion":
        spec = AverageSpectrum(config, draw(st.integers(0, 80)), nums)
        return partial(report_from_average, config, construction, spec, digits)
    flags = st.lists(st.booleans(), min_size=len(nums), max_size=len(nums)).map(tuple)
    if source == "monte-carlo":
        # per-sample counts, summed as ensemble_average_mc sums them
        sample = st.lists(_SAMPLE_COUNT, min_size=len(nums), max_size=len(nums))
        columns = list(zip(*draw(st.lists(sample, min_size=1, max_size=20))))
        hist = WeightHistogram(
            source, tuple(map(sum, columns)), samples=len(columns[0]),
            seed=draw(st.none() | st.integers(0, 1 << 64)),
            squares=tuple(sum(c * c for c in col) for col in columns),
            saturated=draw(st.none() | flags),
        )
    else:
        samples = 1 << draw(st.integers(0, 40)) if source == "exhaustive-ensemble" else 1
        hist = WeightHistogram(source, nums, samples=samples,
                               saturated=draw(flags) if source == "scl" else None)
    return partial(report_from_histogram, config, construction, hist, digits, transform=draw(_TRANSFORM),
                   list_size=draw(st.none() | st.integers(1, 5000)))


def _csv_of(entries: list[dict]) -> str:
    """CSV_COLUMNS over the entries, an absent key empty and a bool in
    json's spelling; value_decimal is the entry's value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        cells = (e.get("value" if col == "value_decimal" else col, "") for col in CSV_COLUMNS)
        writer.writerow(str(c).lower() if isinstance(c, bool) else c for c in cells)
    return buf.getvalue()


_PW = construct_pw(8, 4)


@given(_reports())
@example(partial(
    report_from_histogram, CodeConfig(3, (8,)), 'a,\n  "b": {é}\\', WeightHistogram("brute", (1, 0)),
    transform={"kind": "pac", "poly": '\n},\n  {"漢"', "": "[]", "k_outer": 3},
))
# past ~50000 items json's C encoder hands back several chunks
@example(partial(report_from_average, CodeConfig(17, tuple(range(1, 70_002))), "x",
                 AverageSpectrum(_PW, 0, (1,))))
@example(partial(report_from_histogram, _PW, "x", WeightHistogram("scl", (1, 2), saturated=(0, 1)), 0,
                 transform={"t": [{"a": 1}, {}, {"b": 2}]}))
@example(partial(report_from_average, _PW, "pw", AverageSpectrum(_PW, 7, (_BIG, 0, 5 << 6)), 9))
def test_to_json_matches_json_dumps(build):
    rep = build()
    assert_same_text(rep.to_json(), json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n")
    assert rep.to_csv() == _csv_of(rep.to_dict()["entries"])


def test_to_json_matches_json_dumps_past_the_chunk_size():
    # a long report: json.dumps with an indent takes ~0.4 s here, past
    # hypothesis's deadline, so this is not an @example
    rep = report_from_average(_PW, "x", AverageSpectrum(_PW, 1, tuple(range(50_001))))
    assert_same_text(rep.to_json(), json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n")


@given(_NUMS, st.integers(0, 80), st.integers(0, 9))
@example([1, 3, 5, 2], 1, 0)  # 0.5, 1.5, 2.5: ties, rounded to even; 2/2 is 1/1
@example([1, 3], 3, 1)  # 0.125 and 0.375: ties at one digit
def test_exact_entries_are_lowest_terms_rounded_half_even(nums, exp, digits):
    rep = report_from_average(_PW, "pw", AverageSpectrum(_PW, exp, tuple(nums)), digits)
    for e, num in zip(rep.entries, nums):
        value = Fraction(num, 1 << exp)
        assert (int(decimal.Decimal(e["num"])), 1 << e["exp2"]) == value.as_integer_ratio()
        # round() of a Fraction rounds half to even
        scaled = str(decimal.Decimal(round(value * 10**digits))).rjust(digits + 1, "0")
        assert e["value"] == (f"{scaled[:-digits]}.{scaled[-digits:]}" if digits else scaled)


class TestNumeratorsPastTheDigitLimit:
    """CPython's str() refuses ints past sys.get_int_max_str_digits()
    digits (4300 by default); reports render them all the same."""

    NUM = 2 * 3**10000 + 1  # 4772 digits

    def _report(self):
        cfg = construct_pw(8, 4)
        spec = AverageSpectrum(cfg, 7, (self.NUM, 5 << 6))
        return report_from_average(cfg, "pw", spec)

    def _expected(self):
        # decimal.Decimal converts ints without the limit
        ctx = decimal.Context(prec=6000)
        value = ctx.divide(decimal.Decimal(self.NUM), 128).quantize(decimal.Decimal("1e-6"), context=ctx)
        return str(decimal.Decimal(self.NUM)), str(value)

    def test_json(self):
        doc = json.loads(self._report().to_json())
        num, value = self._expected()
        assert doc["entries"][0] == {"d": 1, "num": num, "exp2": 7, "value": value}
        assert doc["entries"][1] == {"d": 2, "num": "5", "exp2": 1, "value": "2.500000"}

    def test_csv(self):
        rows = list(csv.reader(self._report().to_csv().splitlines()))
        num, value = self._expected()
        assert rows[1] == ["1", value, num, "7", "", "", ""]
        assert rows[2] == ["2", "2.500000", "5", "1", "", "", ""]

    def test_cli_under_a_lower_limit(self, capsys):
        # full N=4096 numerators reach 908 digits: past a 640-digit limit
        argv = ["avg-spectrum", "--n", "4096", "--k", "2048", "--construction", "pw"]
        rc, expected, _ = run(capsys, *argv)
        assert rc == 0
        env = {**os.environ, "PYTHONPATH": str(Path(polarspec.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "polarspec.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected
        assert max(len(e["num"]) for e in json.loads(expected)["entries"]) > 640


class TestGoldenFiles:
    """Byte-for-byte serialization pins; regenerate deliberately if the
    format ever changes on purpose."""

    @pytest.mark.parametrize("golden, argv", [
        ("avg_rm16_8.json", "avg-spectrum --n 16 --k 8 --construction rm --round 4"),
        ("exact_pw16_8_scl8.csv",
         "exact-spectrum --n 16 --k 8 --construction pw --transform random:3 --method scl:8 --format csv"),
        ("ensemble_pw8_4.json", "ensemble --n 8 --k 4 --construction pw --samples 3 --seed 5"),
        ("avg_pw64_16.csv", "avg-spectrum --n 64 --k 16 --construction pw --round 9 --format csv"),
        ("exact_pw16_8_brute.json",
         "exact-spectrum --n 16 --k 8 --construction pw --transform random:3"),
        ("exact_pw32_12_scl128.json",
         "exact-spectrum --n 32 --k 12 --construction pw --transform random:3 --method scl:128"),
        ("ensemble_pw32_12.csv",
         "ensemble --n 32 --k 12 --construction pw --samples 3 --seed 1 --format csv"),
        ("ensemble_pw32_12_scl128.json",
         "ensemble --n 32 --k 12 --construction pw --samples 3 --seed 2 --method scl:128"),
    ])
    def test_every_report_shape(self, capsys, golden, argv):
        rc, out, _ = run(capsys, *argv.split())
        assert rc == 0
        assert out == (GOLDEN / golden).read_text()


# sha256 prefixes of full avg-spectrum reports of (construction, format,
# --round) at N = 1024, K = 512
FULL_REPORT_DIGESTS = {
    ("rm", "json", 0): "821b667e751c321e",
    ("rm", "json", 6): "3aeadbb4cd6884d0",
    ("rm", "json", 9): "fdef39aceba08da5",
    ("rm", "csv", 0): "c8d442831c722c26",
    ("rm", "csv", 6): "50a05e75033cd5d3",
    ("rm", "csv", 9): "3ecb4bbbe5e3463a",
    ("pw", "json", 0): "a7aeda9f292aa29f",
    ("pw", "json", 6): "07ad5916b3040374",
    ("pw", "json", 9): "aadf41efce74a325",
    ("pw", "csv", 0): "04cbd834694e031f",
    ("pw", "csv", 6): "067144845818780f",
    ("pw", "csv", 9): "44ceffafbdd63079",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("construction, fmt, digits", sorted(FULL_REPORT_DIGESTS))
def test_full_report_bytes(capsys, construction, fmt, digits):
    rc, out, _ = run(capsys, "avg-spectrum", "--n", "1024", "--k", "512", "--construction",
                     construction, "--round", str(digits), "--format", fmt)
    assert rc == 0
    assert _digest(out) == FULL_REPORT_DIGESTS[construction, fmt, digits]


def test_exhaustive_report_bytes():
    # the benchmark's exhaustive-ensemble job: N = 16, F = 16, F_red = 6
    cfg = CodeConfig(4, (7, 12, 14, 15, 16))
    text = report_from_histogram(cfg, "exhaustive", ensemble_average_exact(cfg)).to_json()
    assert _digest(text) == "0293bf0a9eaae06d"


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """A fresh working directory holding the info-set files the rows name."""
    monkeypatch.chdir(tmp_path)
    Path("rows.txt").write_text("# picked by hand\n4\n6\n\n7\n8\n")
    Path("dup.txt").write_text("4\n4\n")


def _average(config, construction, d_max=None, digits=6):
    return report_from_average(config, construction, avg_spectrum(config, d_max), digits)


def _fixed(config, transform, desc, list_size=None, digits=6, construction="pw"):
    transform = identity_transform(config) if transform is None else transform
    hist = (exact_spectrum(config, transform) if list_size is None
            else collect_low_weight(config, transform, list_size))
    return report_from_histogram(config, construction, hist, digits, transform=desc, list_size=list_size)


def _sampled(config, seed, samples, list_size=None, digits=6, construction="pw"):
    hist = ensemble_average_mc(config, seed, samples, list_size=list_size)
    return report_from_histogram(config, construction, hist, digits, transform={"kind": "random"},
                                 list_size=list_size)


# random:42 and pac:1011 change the spectrum of PW(32, 12), and the seed
# its Monte-Carlo average; PW(16, 8) and PW(8, 4) keep theirs under every
# transform tried
_PW32 = construct_pw(32, 12)
_IDENTITY = {"kind": "identity"}

# argv -> the report the library calls build for it; rows.txt holds 4, 6, 7, 8
ACCEPTED = {
    "avg-dmax": ("avg-spectrum --n 32 --k 16 --construction pw --dmax 8",
                 lambda: _average(construct_pw(32, 16), "pw", 8)),
    "avg-verify": ("avg-spectrum --n 64 --k 32 --construction rm --verify",
                   lambda: _average(construct_rm(64, 32), "rm")),
    "avg-round-0": ("avg-spectrum --n 16 --k 8 --construction rm --round 0",
                    lambda: _average(construct_rm(16, 8), "rm", digits=0)),
    "avg-file": ("avg-spectrum --n 8 --construction file:rows.txt",
                 lambda: _average(load_info_set("rows.txt", 8), "file:rows.txt")),
    "avg-file-k": ("avg-spectrum --n 8 --k 4 --construction file:rows.txt",
                   lambda: _average(load_info_set("rows.txt", 8), "file:rows.txt")),
    "avg-out": ("avg-spectrum --n 8 --k 4 --construction pw --out report.txt",
                lambda: _average(construct_pw(8, 4), "pw")),
    "exact-identity": ("exact-spectrum --n 16 --k 8 --construction pw",
                       lambda: _fixed(construct_pw(16, 8), None, _IDENTITY)),
    "exact-random": ("exact-spectrum --n 32 --k 12 --construction pw --transform random:42",
                     lambda: _fixed(_PW32, random_transform(_PW32, 42), {"kind": "random", "seed": 42})),
    "exact-pac": ("exact-spectrum --n 32 --k 12 --construction pw --transform pac:1011",
                  lambda: _fixed(_PW32, pac_transform(_PW32, "1011"), {"kind": "pac", "poly": "1011"})),
    "exact-crc": ("exact-spectrum --n 32 --k 8 --construction pw --transform crc:10011,12",
                  lambda: _fixed(*crc_transform(_PW32, 8, "10011"),
                                 {"kind": "crc", "poly": "10011", "k_outer": 12})),
    "exact-scl": ("exact-spectrum --n 32 --k 16 --construction pw --method scl:12",
                  lambda: _fixed(construct_pw(32, 16), None, _IDENTITY, 12)),
    "exact-csv-round-3": ("exact-spectrum --n 16 --k 8 --construction rm --format csv --round 3",
                          lambda: _fixed(construct_rm(16, 8), None, _IDENTITY, digits=3, construction="rm")),
    "ensemble-seed": ("ensemble --n 32 --k 12 --construction pw --samples 4 --seed 9",
                      lambda: _sampled(_PW32, 9, 4)),
    "ensemble-scl": ("ensemble --n 16 --k 8 --construction pw --samples 2 --method scl:4",
                     lambda: _sampled(construct_pw(16, 8), 0, 2, 4)),
    "ensemble-file-round-2": ("ensemble --n 8 --construction file:rows.txt --samples 5 --round 2",
                              lambda: _sampled(load_info_set("rows.txt", 8), 0, 5, digits=2,
                                               construction="file:rows.txt")),
}


@pytest.mark.parametrize("argv, build", ACCEPTED.values(), ids=ACCEPTED)
def test_accepted_argv_prints_the_library_report(capsys, in_tmp, argv, build):
    rc, out, err = run(capsys, *argv.split())
    report = build()
    if "--out" in argv:
        assert out == ""
        out = Path("report.txt").read_text()
    assert (rc, err) == (0, "")
    assert out == (report.to_csv() if "--format csv" in argv else report.to_json())


# argv -> what argparse prints after "error: "
_USAGE_ERRORS = {
    "n-100": ("avg-spectrum --n 100 --k 4 --construction pw", "--n 100 and --k 4: code length 100"),
    "k-0": ("avg-spectrum --n 16 --k 0 --construction pw", "--n 16 and --k 0: k=0 outside"),
    "k-above-n": ("avg-spectrum --n 16 --k 17 --construction rm", "--n 16 and --k 17: k=17 outside"),
    "k-missing": ("avg-spectrum --n 8 --construction pw", "--k is required with --construction pw"),
    "unknown-construction": ("avg-spectrum --n 8 --k 4 --construction magic", "unknown construction 'magic'"),
    # checked before the file is read
    "file-n-100": ("avg-spectrum --n 100 --construction file:nope.txt", "--n 100: code length 100"),
    "dmax-0": ("avg-spectrum --n 16 --k 8 --construction rm --dmax 0", "--dmax must be in [1, 16]"),
    "dmax-above-n": ("avg-spectrum --n 16 --k 8 --construction rm --dmax 17", "--dmax must be in [1, 16]"),
    "verify-dmax": ("avg-spectrum --n 16 --k 8 --construction rm --dmax 4 --verify",
                    "--verify needs the full spectrum: set --dmax to N"),
    "transform-unknown": ("exact-spectrum --n 8 --k 4 --construction pw --transform rot13",
                          "argument --transform: bad transform 'rot13' (expected"),
    "crc-no-kprime": ("exact-spectrum --n 32 --k 8 --construction pw --transform crc:10011",
                      "argument --transform: bad transform 'crc:10011' (expected"),
    "crc-k-missing": ("exact-spectrum --n 32 --construction pw --transform crc:10011,12",
                      "--k (message bits) is required with a crc transform"),
    "crc-kprime-above-n": ("exact-spectrum --n 16 --k 8 --construction pw --transform crc:11,20",
                           "--n 16 and --transform KPRIME 20: k=20 outside"),
    "method-unknown": ("exact-spectrum --n 8 --k 4 --construction pw --method sc",
                       "argument --method: unknown method 'sc'"),
    "method-scl-zero": ("exact-spectrum --n 8 --k 4 --construction pw --method scl:zero",
                        "argument --method: invalid int value: 'zero'"),
    "method-scl-0": ("exact-spectrum --n 8 --k 4 --construction pw --method scl:0",
                     "argument --method: must be >= 1, got 0"),
    "samples-0": ("ensemble --n 8 --k 4 --construction pw --samples 0",
                  "argument --samples: must be >= 1, got 0"),
    # the samples run in one loop: there is no worker count to set
    "threads": ("ensemble --n 8 --k 4 --construction pw --samples 2 --threads 2",
                "unrecognized arguments: --threads 2"),
}
# 1 <= --k < KPRIME, and degree(poly) == KPRIME - --k
_USAGE_ERRORS |= {f"crc-{t}": (f"exact-spectrum --n 16 --k 8 --construction pw --transform crc:{t}",
                               f"--k 8 and --transform crc:{t}: ") for t in ("11,3", "11,8", "10011,10")}
_USAGE_ERRORS |= {f"poly-{t}": (f"exact-spectrum --n 16 --k 8 --construction pw --transform {t}",
                                f"argument --transform: bad transform '{t}': ")
                  for t in ("pac:zz", "pac:", "pac:0", "pac:0xg", "pac:02", "crc:zz,12", "crc:0x,12")}
_USAGE_ERRORS |= {f"round-{c}": (f"{c} --n 8 --k 4 --construction pw{extra} --round -2",
                                 "argument --round: must be >= 0, got -2")
                  for c, extra in (("avg-spectrum", ""), ("exact-spectrum", ""),
                                   ("ensemble", " --samples 2"))}

# argv -> (exit code, text its stderr holds): 2 for a bad flag value,
# 1 for budgets, info-set file contents and I/O; each names its command
_AT_1 = {
    "brute-budget": ("exact-spectrum --n 64 --k 30 --construction pw",
                     "K + F_red = 30 + 0 exceeds enumeration budget 28; use --method scl:LIST_SIZE instead"),
    "file-k-mismatch": ("avg-spectrum --n 8 --k 3 --construction file:rows.txt",
                        "info-set file has 4 indices, --k says 3"),
    "file-duplicate": ("avg-spectrum --n 8 --construction file:dup.txt", "dup.txt:2: duplicate index 4"),
    "file-missing": ("avg-spectrum --n 8 --construction file:nope.txt", "[Errno 2] No such file"),
    "out-unwritable": ("avg-spectrum --n 8 --k 4 --construction pw --out nodir/r.json",
                       "[Errno 2] No such file"),
}
REFUSED = {name: (argv, code, f"polarspec {argv.split()[0]}: error: {msg}")
           for code, rows in ((2, _USAGE_ERRORS), (1, _AT_1)) for name, (argv, msg) in rows.items()}


@pytest.mark.parametrize("argv, code, message", REFUSED.values(), ids=REFUSED)
def test_refused_argv_exits_with_its_code_and_message(capsys, in_tmp, argv, code, message):
    try:
        rc = main(argv.split())
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert (rc, out) == (code, "")
    assert message in err


# what the commandless and help argv print, recorded before main parsed a
# command with that command's own parser, on the interpreters named
DISPATCH = json.loads((GOLDEN / "dispatch.json").read_text())
# argv the pins leave out, on which main must still print what the
# top-level parser prints
_DISPATCH_MORE = {
    "command-help-long": ["ensemble", "--help"],
    "after-double-dash": "avg-spectrum --n 8 --k 4 --construction pw -- x".split(),
    "flag-value-missing": "exact-spectrum --n 8 --k 4 --construction".split(),
    "double-dash-first": "-- avg-spectrum --n 8 --k 4 --construction pw".split(),
}


def _exit(capsys, call, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of a call that parses argv and exits."""
    with pytest.raises(SystemExit) as exc:
        call(argv)
    return exc.value.code, *capsys.readouterr()


def _top_level(argv: list[str]) -> None:
    """main's parse with every argv through the top-level parser."""
    args, unknown = _build_parser()[0].parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")


@pytest.mark.parametrize("argv", [*(p["argv"] for p in DISPATCH["pins"].values()), *_DISPATCH_MORE.values()],
                         ids=[*DISPATCH["pins"], *_DISPATCH_MORE])
def test_dispatch_prints_what_the_top_level_parser_prints(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to it
    got = _exit(capsys, main, argv)
    assert got == _exit(capsys, _top_level, argv)
    pin = next((p for p in DISPATCH["pins"].values() if p["argv"] == argv), None)
    if pin and platform.python_version() in DISPATCH["recorded_on"]:
        assert got == (pin["code"], pin["stdout"], pin["stderr"])


class TestAvgSpectrumCommand:
    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        import polarspec.cli

        def corrupted(config, d_max):
            spec = avg_spectrum(config, d_max)
            return replace(spec, nums=spec.nums[:2] + (1 << spec.exp,) + spec.nums[3:])

        monkeypatch.setattr(polarspec.cli, "avg_spectrum", corrupted)
        rc, out, err = run(
            capsys, "avg-spectrum", "--n", "16", "--k", "8",
            "--construction", "rm", "--verify",
        )
        assert rc == 1 and out == ""
        assert err.splitlines() == [
            "verify: total mass 256 != 2^K - 1 = 255",
            "verify: nonzero mass 1 below minimum weight at d=3",
            "verify: odd-weight mass 1 at d=3 without row 1",
        ]



class TestEnsembleCommand:
    def test_degenerate_ensemble_reproduces_the_average_exactly(self, capsys):
        # every transform of this selection yields the same spectrum, so the
        # sampled means must hit the exhaustive average with zero variance
        doc = run_json(
            capsys, "ensemble", "--n", "8", "--k", "4", "--construction", "pw",
            "--samples", "2000", "--method", "brute", "--seed", "7",
        )
        cfg = construct_pw(8, 4)
        exact = report_from_histogram(cfg, "pw", ensemble_average_exact(cfg)).entries
        for e in doc["entries"]:
            assert float(e["variance"]) == 0.0
            assert e["value"] == exact[e["d"]]["value"]

    def test_mc_means_track_the_exhaustive_average(self, capsys, tmp_path):
        # a selection whose ensemble genuinely varies; the seeded draw sits
        # within four standard errors of the exhaustive average everywhere
        path = tmp_path / "rows.txt"
        path.write_text("3\n5\n7\n8\n")
        doc = run_json(
            capsys, "ensemble", "--n", "8", "--construction", f"file:{path}",
            "--samples", "400", "--method", "brute", "--seed", "7",
        )
        exact = ensemble_average_exact(CodeConfig(3, (3, 5, 7, 8)))
        saw_variance = False
        for e in doc["entries"]:
            mean = float(e["value"])
            var = float(e["variance"])
            target = exact.counts[e["d"]] / exact.samples
            if var:
                saw_variance = True
                assert abs(mean - target) <= 4 * math.sqrt(var / e["samples"])
            else:
                assert mean == target
        assert saw_variance
