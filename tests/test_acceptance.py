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
from itertools import combinations

from polarspec import spectrum
from polarspec.construct import CodeConfig, construct_pw, construct_rm
from polarspec.dyadic import DyadicRational
from polarspec.kernel import row_weight
from polarspec.oracle import ensemble_average_mc
from polarspec.pretransform import (
    PreTransform,
    SplitMix64,
    crc_transform,
    free_entry_count,
    identity_transform,
    pac_transform,
    random_transform,
)
from polarspec.scl import collect_low_weight
from polarspec.spectrum import avg_nmin, avg_spectrum, coset_spectrum
from routes import agree, brute, collector, coset, enumerated_coset, exhaustive, nmin, recursion

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


# the block-length-16 selections checked against the exhaustive oracle;
# free-entry counts all lie in [6, 19]
N16_FAMILY = [
    (9, 14, 15, 16),
    (5, 14, 15, 16),
    (8, 13, 15, 16),
    (7, 12, 14, 15, 16),
    (6, 13, 14, 15, 16),
    (11, 12, 13, 14, 15, 16),
    (4, 15, 16),
    (3, 16),
    (2, 15, 16),
    (1, 16),
    (9, 10, 15, 16),
    (12, 13, 14, 15, 16),
    (10, 12, 14, 16),
    (5, 10, 15, 16),
    (3, 14, 15, 16),
    (2, 13, 15, 16),
    (1, 12, 16),
    (6, 11, 14, 16),
]


def oracle_family() -> list[CodeConfig]:
    """Documented equivalence family: every selection at block length 4,
    every selection at block length 8 costing at most 2^13 transforms,
    and the 33 block-length-16 selections above (18 picks plus all
    nonempty subsets of {13..16})."""
    out = [CodeConfig(2, info)
           for r in (1, 2, 3, 4) for info in combinations((1, 2, 3, 4), r)]
    for r in range(1, 9):
        for info in combinations(range(1, 9), r):
            cfg = CodeConfig(3, info)
            if free_entry_count(cfg) <= 13:
                out.append(cfg)
    out += [CodeConfig(4, info)
            for r in (1, 2, 3, 4) for info in combinations((13, 14, 15, 16), r)]
    out += [CodeConfig(4, info) for info in N16_FAMILY]
    return out


def test_recursion_matches_exhaustive_ensemble():
    t0 = time.perf_counter()
    family = oracle_family()
    assert len(family) >= 50
    assert {cfg.n for cfg in family} == {4, 8, 16}
    assert all(free_entry_count(cfg) <= 20 for cfg in family)
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
    """Documented collector family over block lengths 2..16: exhaustive
    selections through length 8 (identity and one seeded transform each),
    every length-16 selection of up to 3 rows, 40 seeded larger
    selections, and structured CRC/convolution cases."""
    cases = []
    for m in (1, 2, 3):
        n = 1 << m
        for r in range(1, n + 1):
            for info in combinations(range(1, n + 1), r):
                cfg = CodeConfig(m, info)
                cases.append((cfg, identity_transform(cfg)))
                cases.append((cfg, random_transform(cfg, 17)))
    for r in (1, 2, 3):
        for info in combinations(range(1, 17), r):
            cfg = CodeConfig(4, info)
            cases.append((cfg, random_transform(cfg, 29)))
    gen = SplitMix64(2718)
    picked = 0
    while picked < 40:
        bits = gen.next_u64() & 0xFFFF
        k = bits.bit_count()
        if not 4 <= k <= 10:
            continue
        cfg = CodeConfig(4, tuple(i for i in range(1, 17) if bits >> (i - 1) & 1))
        cases.append((cfg, random_transform(cfg, picked)))
        picked += 1
    outer = construct_pw(16, 10)
    cases.append(crc_transform(outer, 6, "10011"))
    rm = construct_rm(16, 7)
    cases.append((rm, pac_transform(rm, "1011")))
    return cases


def test_collector_matches_brute_force():
    t0 = time.perf_counter()
    cases = collector_family()
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
    t0 = time.perf_counter()
    bad = []
    swept = 0
    for m in (1, 2, 3, 4):
        n = 1 << m
        for i in range(1, n + 1):
            cfg = CodeConfig(m, (i,))
            ref = coset(cfg)
            for mask_bits in range(1 << (n - i)):
                swept += 1
                if not agree(enumerated_coset(cfg, PreTransform(n, {i: mask_bits << i})), ref):
                    bad.append((m, i, mask_bits, "invariance"))
                    break
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
        f"{swept} exhaustive row-transform sweeps, {len(bad)} violations "
        f"in {elapsed:.1f}s",
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
    # doubling the length may cost at most 2 * 2^3 in time
    ok = r1 <= 16.0 and r2 <= 16.0
    report(
        "cubic-scaling",
        ok,
        f"t(64)={times[64] * 1e3:.1f}ms, ratios {r1:.1f}x and {r2:.1f}x (cap 16x)",
    )
    assert ok
