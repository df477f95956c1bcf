"""End-to-end acceptance checks for the whole package.

Each test covers one acceptance item and prints a single PASS/FAIL line
(run with ``pytest -s`` to see them on success). Reference numbers are
frozen from independent computations; nothing here is tuned to make a
test green. Set POLARSPEC_ACCEPT_FULL=1 to run the long-form statistics
instead of the CI smoke variant.
"""

import math
import os
import time
from fractions import Fraction

from polarspec import spectrum
from polarspec.construct import CodeConfig, construct_pw, construct_rm
from polarspec.dyadic import DyadicRational
from polarspec.kernel import row_bits, row_weight
from polarspec.oracle import ensemble_average_mc, generator_rows
from polarspec.pretransform import PreTransform, SplitMix64, identity_transform, random_transform
from polarspec.scl import collect_low_weight
from polarspec.spectrum import avg_nmin, avg_spectrum, coset_spectrum
from routes import (agree, brute, collector, coset, enumerated_coset, exhaustive, nmin, recursion,
                    reduced_free_count)

FULL = os.environ.get("POLARSPEC_ACCEPT_FULL", "") == "1"


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_rm128_average_reference_points():
    t0 = time.perf_counter()
    spec = avg_spectrum(construct_rm(128, 64), d_max=20)
    elapsed = time.perf_counter() - t0
    # printed reference values, one unit in the last printed digit
    checks = [
        (16, Fraction("2766.9"), Fraction(1, 10)),
        (18, Fraction("393.5"), Fraction(1, 10)),
        (20, Fraction(80182), Fraction(1)),
    ]
    ok = elapsed < 5.0
    parts = []
    for d, printed, ulp in checks:
        got = spec[d].to_fraction()
        ok = ok and abs(got - printed) <= ulp
        parts.append(f"d{d}={spec[d].decimal(4)}")
    report("rm128-avg-reference", ok, f"{', '.join(parts)} in {elapsed:.2f}s")
    assert ok
    # pinned exact values behind the rounded comparison
    assert spec[16] == DyadicRational(88541, 5)
    assert spec[18] == DyadicRational(787, 1)
    assert spec[20] == DyadicRational(320729, 2)
    assert not any(spec[d] for d in range(1, 16))


def test_pw128_average_reference_points():
    t0 = time.perf_counter()
    spec = avg_spectrum(construct_pw(128, 64), d_max=16)
    elapsed = time.perf_counter() - t0
    d16 = spec[16].to_fraction()
    ok = (
        elapsed < 5.0
        and spec[8] == DyadicRational(272)
        and spec[12] == DyadicRational(896)
        and abs(d16 - 77111) <= 1
        and not spec[10]
        and not spec[14]
    )
    report(
        "pw128-avg-reference",
        ok,
        f"d8={spec[8].decimal(0)}, d12={spec[12].decimal(0)}, "
        f"d16={spec[16].decimal(1)}, d10=d14=0 in {elapsed:.2f}s",
    )
    assert ok
    # pinned exact values behind the rounded comparison
    assert spec[16] == DyadicRational(154221, 1)
    assert avg_nmin(construct_pw(128, 64)) == (8, DyadicRational(272))


def test_rm512_min_weight_average():
    t0 = time.perf_counter()
    cfg = construct_rm(512, 256)
    d_min, value = avg_nmin(cfg)
    agrees = agree(nmin(cfg), recursion(cfg, d_max=32))
    elapsed = time.perf_counter() - t0
    got = value.to_fraction()
    ok = (
        elapsed < 600.0
        and d_min == 32
        and abs(got - 15936) / 15936 <= Fraction(1, 1000)
        and agrees
    )
    report("rm512-nmin", ok, f"d_min={d_min}, value={value.decimal(1)} in {elapsed:.2f}s")
    assert ok
    assert value.decimal(4) == "15936.3378"


# selections at block lengths 8 and 16 whose K + F_red passes 12, the
# exhaustive route's bound in the route property (tests/test_routes.py),
# which draws the codes within it
BEYOND_THE_DRAWN_BUDGET = [
    CodeConfig(3, info) for info in ((1, 2), (1, 3), (1, 2, 8), (1, 3, 7), (1, 4, 6), (2, 3, 6), (2, 4, 5))
] + [
    CodeConfig(4, info) for info in ((4, 15, 16), (3, 16), (2, 15, 16), (1, 16), (5, 10, 15, 16),
                                     (3, 14, 15, 16), (2, 13, 15, 16), (1, 12, 16), (6, 11, 14, 16))
]


def test_recursion_matches_exhaustive_ensemble():
    t0 = time.perf_counter()
    family = BEYOND_THE_DRAWN_BUDGET
    assert all(12 < cfg.k + reduced_free_count(cfg) <= 19 for cfg in family)
    mismatches = [cfg for cfg in family if not agree(exhaustive(cfg), recursion(cfg))]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 600.0
    report(
        "oracle-equivalence",
        ok,
        f"{len(family)} configs, {len(mismatches)} mismatches in {elapsed:.1f}s",
    )
    assert ok, mismatches[:3]


def test_recursion_below_the_table_matches_exhaustive_ensemble(monkeypatch):
    # every family code is at most 2^TABLE_LEVEL long, so at the default
    # level the recursion above only reads the table; at level 0 it runs
    # the maps and the mirror on every branch longer than 1
    monkeypatch.setattr(spectrum, "TABLE_LEVEL", 0)
    test_recursion_matches_exhaustive_ensemble()


def test_coset_invariants_and_average_mass():
    t0 = time.perf_counter()
    bad = []
    for m in range(1, 8):
        n = 1 << m
        for i in range(1, n + 1):
            c = coset_spectrum(m, i)
            w = row_weight(m, i)
            if sum(c) != 1 << (n - i):
                bad.append((m, i, "normalization"))
            if any(c[d] for d in range(w)):
                bad.append((m, i, "mass below row weight"))
            parity_violations = range(0 if i == 1 else 1, n + 1, 2)
            if any(c[d] for d in parity_violations):
                bad.append((m, i, "parity"))
    rows = sum(1 << m for m in range(1, 8))

    configs = [
        build(n, k)
        for build in (construct_rm, construct_pw)
        for n in (16, 32, 64, 128)
        for k in (n // 4, n // 2, 3 * n // 4)
    ]
    assert len(configs) >= 20
    for cfg in configs:
        spec = avg_spectrum(cfg)
        if sum(spec.nums) != ((1 << cfg.k) - 1) << spec.exp:
            bad.append((cfg.n, cfg.k, "average mass"))
    elapsed = time.perf_counter() - t0
    ok = not bad
    report(
        "coset-invariants",
        ok,
        f"{rows} cosets + {len(configs)} mass checks, "
        f"{len(bad)} violations in {elapsed:.1f}s",
    )
    assert ok, bad[:5]


def collector_family() -> list[tuple[CodeConfig, PreTransform]]:
    """Seeded block-length-16 selections of 9 and 10 rows under seeded
    random transforms: past the full-list collector's bound K <= 8 in the
    route property, which draws the codes within it."""
    cases = []
    gen = SplitMix64(2718)
    picked = 0
    while picked < 40:
        bits = gen.next_u64() & 0xFFFF
        if not 4 <= bits.bit_count() <= 10:
            continue
        cfg = CodeConfig(4, tuple(i for i in range(1, 17) if bits >> (i - 1) & 1))
        if cfg.k > 8:
            cases.append((cfg, random_transform(cfg, picked)))
        picked += 1
    return cases


def test_collector_matches_brute_force():
    t0 = time.perf_counter()
    cases = collector_family()
    assert len(cases) == 11
    mismatches = [cfg for cfg, t in cases if not agree(collector(cfg, t, 1 << cfg.k), brute(cfg, t))]

    pw = construct_pw(128, 64)
    h = collect_low_weight(pw, identity_transform(pw), 5000)
    shell_ok = h.counts[8] == 304 and not h.saturated[8]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and shell_ok and elapsed < 60.0
    report(
        "collector-equivalence",
        ok,
        f"{len(cases)} configs, {len(mismatches)} mismatches; "
        f"rate-1/2 length-128 weight-8 count {h.counts[8]} "
        f"(saturated={h.saturated[8]}) in {elapsed:.1f}s",
    )
    assert ok, mismatches[:3]


def test_monte_carlo_statistics():
    samples, tol = (1000, 3.0) if FULL else (100, 5.0)
    t0 = time.perf_counter()
    failures = []
    details = []
    targets = [
        (construct_rm(128, 64), 16, 101),
        (construct_pw(128, 64), 8, 202),
    ]
    for cfg, d, seed in targets:
        exact = avg_spectrum(cfg, d_max=d)[d]
        mc = ensemble_average_mc(cfg, seed, samples, list_size=5000)
        t, q = mc.counts[d], mc.squares[d]
        mean = t / samples
        se = math.sqrt((samples * q - t * t) / (samples * (samples - 1)) / samples)
        dev = abs(mean - float(exact))
        if mc.saturated[d] or (se == 0 and dev != 0) or (se > 0 and dev > tol * se):
            failures.append((cfg.n, cfg.k, d))
        details.append(
            f"n={cfg.n} d={d}: mean {mean:.2f} vs {float(exact):.2f} "
            f"({dev / se if se else 0:.2f} SE)"
        )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 3600.0
    mode = "full" if FULL else "smoke"
    report(
        "mc-statistics",
        ok,
        f"{mode} {samples} samples/{tol:.0f}-SE: {'; '.join(details)} in {elapsed:.0f}s",
    )
    assert ok, failures


def test_coset_invariance_under_transforms():
    # a transform row adds only later rows of F_N to row i, so its coset
    # stays row i + span(rows i+1..N): reduced by rows N..i+1 (row j leads
    # at bit j - 1, highest first), generator row + row i must vanish
    t0 = time.perf_counter()
    bad = []
    swept = 0
    for m in (1, 2, 3, 4):
        n = 1 << m
        for i in range(1, n + 1):
            cfg = CodeConfig(m, (i,))
            later = [row_bits(m, j) for j in range(n, i, -1)]
            for mask_bits in range(1 << (n - i)):
                swept += 1
                g = generator_rows(cfg, PreTransform(n, {i: mask_bits << i}))[0] ^ row_bits(m, i)
                for r in later:
                    if g >> (r.bit_length() - 1) & 1:
                        g ^= r
                if g:
                    bad.append((m, i, mask_bits, "invariance"))
                    break
            if not agree(enumerated_coset(cfg, PreTransform(n, {i: 0})), coset(cfg)):
                bad.append((m, i, "enumeration"))
        # independent doubling identity: the top-half coset repeats the
        # half-length coset with every weight scaled by two
        half = n >> 1
        for i in range(half + 1, n + 1):
            top = enumerated_coset(CodeConfig(m, (i,))).nums  # weights 1..n
            sub = enumerated_coset(CodeConfig(m - 1, (i - half,))).nums if m > 1 else (1,)
            if top[1::2] != sub or any(top[::2]):
                bad.append((m, i, "halving"))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report(
        "transform-invariance",
        ok,
        f"{swept} row-transform masks reduced into the later rows' span, "
        f"{len(bad)} violations in {elapsed:.1f}s",
    )
    assert ok, bad[:5]


def test_average_spectrum_scaling():
    def best_of_three(n: int) -> float:
        cfg = construct_pw(n, n // 2)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            avg_spectrum(cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    times = {n: best_of_three(n) for n in (64, 128, 256)}
    r1 = times[128] / times[64]
    r2 = times[256] / times[128]
    # the recursion is O(N^2), 4x per doubling; the 16x cap is a 2x margin
    # over cubic growth (8x)
    ok = r1 <= 16.0 and r2 <= 16.0
    report(
        "scaling",
        ok,
        f"t(64)={times[64] * 1e3:.1f}ms, ratios {r1:.1f}x and {r2:.1f}x (cap 16x)",
    )
    assert ok
