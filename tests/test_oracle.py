import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarspec.construct import CodeConfig, construct_pw, construct_rm, min_row_weight
from polarspec.kernel import encode
import polarspec.oracle
from polarspec.oracle import (
    BRUTE_MAX_K,
    ENSEMBLE_MAX_FREE,
    BudgetError,
    WeightHistogram,
    _sample_moments,
    _worker_count,
    ensemble_average_exact,
    ensemble_average_mc,
    exact_spectrum,
    generator_rows,
)
from polarspec.pretransform import (
    PreTransform,
    crc_transform,
    free_entry_count,
    identity_transform,
    pac_transform,
    random_transform,
    transform_from_bits,
)
from polarspec.spectrum import avg_spectrum


def naive_spectrum(config: CodeConfig, transform: PreTransform) -> list[int]:
    """Pure-int message sweep through kernel.encode; no numpy."""
    n, k = config.n, config.k
    hist = [0] * (n + 1)
    for msg in range(1 << k):
        u = 0
        for j, i in enumerate(config.info_set):
            u |= (msg >> j & 1) << (i - 1)
        hist[encode(u, transform, config.m).bit_count()] += 1
    return hist


class TestGeneratorRows:
    def test_identity_gives_plain_rows(self):
        cfg = CodeConfig(2, (2, 4))
        rows = generator_rows(cfg, identity_transform(cfg))
        assert rows == [0b0011, 0b1111]

    def test_pretransform_xors_rows(self):
        cfg = CodeConfig(2, (2, 4))
        t = PreTransform(4, {2: 0b1000, 4: 0})
        rows = generator_rows(cfg, t)
        plain = generator_rows(cfg, identity_transform(cfg))
        assert rows[0] == plain[0] ^ plain[1]
        assert rows[1] == plain[1]


class TestExactSpectrum:
    def test_tiny_full_code(self):
        cfg = CodeConfig(1, (1, 2))
        h = exact_spectrum(cfg, identity_transform(cfg))
        assert h.counts == (1, 2, 1)
        assert h.source == "brute" and h.n == 2 and h.samples == 1

    def test_extended_hamming(self):
        cfg = construct_rm(8, 4)
        h = exact_spectrum(cfg, identity_transform(cfg))
        assert h.counts == (1, 0, 0, 0, 14, 0, 0, 0, 1)
        assert h.nonzero() == {0: 1, 4: 14, 8: 1}

    @pytest.mark.parametrize("n,k,seed", [(8, 3, 1), (16, 9, 2), (32, 11, 3)])
    def test_matches_naive_enumeration(self, n, k, seed):
        cfg = construct_pw(n, k)
        t = random_transform(cfg, seed)
        h = exact_spectrum(cfg, t)
        assert list(h.counts) == naive_spectrum(cfg, t)

    def test_mass_and_floor(self):
        cfg = construct_pw(64, 16)
        for seed in (0, 5):
            h = exact_spectrum(cfg, random_transform(cfg, seed))
            assert sum(h.counts) == 1 << 16
            assert h.counts[0] == 1
            # pre-transforms only add later rows, so the minimum row
            # weight of the selection still floors every codeword
            d_min = min_row_weight(cfg)
            assert all(c == 0 for c in h.counts[1:d_min])

    def test_split_boundary(self):
        # K > 20 exercises the outer high-row loop
        cfg = construct_pw(32, 22)
        h = exact_spectrum(cfg, identity_transform(cfg))
        assert sum(h.counts) == 1 << 22
        assert h.counts[0] == 1

    def test_budget(self):
        cfg = construct_pw(64, BRUTE_MAX_K + 1)
        with pytest.raises(BudgetError):
            exact_spectrum(cfg, identity_transform(cfg))


def naive_ensemble_average(config: CodeConfig) -> list[int]:
    # rebuild-from-scratch route: no Gray stepping, no in-place patches;
    # per-weight totals over all 2^F transforms
    total = [0] * (config.n + 1)
    for b in range(1 << free_entry_count(config)):
        h = exact_spectrum(config, transform_from_bits(config, b))
        for d, c in enumerate(h.counts):
            total[d] += c
    return total


def assert_matches_recursion(h: WeightHistogram, s, config: CodeConfig) -> None:
    # totals over 2^F against numerators over 2^(N-K), compared as integers
    f = h.samples.bit_length() - 1
    assert h.counts[0] == h.samples, config
    assert all(c << s.exp == x << f for c, x in zip(h.counts[1:], s.nums)), config


class TestEnsembleAverageExact:
    @pytest.mark.parametrize(
        "m,info",
        [
            (2, (1, 2, 3, 4)),
            (2, (2, 4)),
            (3, (3, 5, 6, 8)),
            (3, (1, 7, 8)),
            (3, (4, 6, 7, 8)),
        ],
    )
    def test_matches_rebuild_route(self, monkeypatch, m, info):
        # 0 and 3 walk most free entries in Gray order; 20 doubles them all
        # into the batch
        cfg = CodeConfig(m, info)
        expected = naive_ensemble_average(cfg)
        for bits in (0, 3, 20):
            monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", bits)
            h = ensemble_average_exact(cfg)
            assert list(h.counts) == expected, bits
            assert h.source == "exhaustive-ensemble"
            assert h.samples == 1 << free_entry_count(cfg)

    def test_matches_recursion_batch(self):
        # oracle vs closed-form recursion, exact integer equality
        cases = [CodeConfig(2, info) for r in (1, 2, 3)
                 for info in combinations((1, 2, 3, 4), r)]
        cases += [
            CodeConfig(3, (2, 6, 7, 8)),
            CodeConfig(3, (5, 6, 7, 8)),
            CodeConfig(3, (4, 8)),
            CodeConfig(4, (12, 14, 15, 16)),
            CodeConfig(4, (8, 13, 15, 16)),
        ]
        for cfg in cases:
            assert_matches_recursion(ensemble_average_exact(cfg), avg_spectrum(cfg), cfg)

    # N <= 16, K = 1..4, F = 0..12: depending on the block size the leading
    # batch spans none, some or all of the free entries
    BATCH_CASES = [
        CodeConfig(2, (1, 2, 3, 4)),
        CodeConfig(3, (1, 7, 8)),
        CodeConfig(4, (16,)),
        CodeConfig(4, (9,)),
        CodeConfig(4, (6, 16)),
        CodeConfig(4, (12, 14, 15, 16)),
        CodeConfig(4, (8, 13, 15, 16)),
    ]

    @pytest.mark.parametrize("bits", [0, 3, 6, 20])
    def test_block_size_never_changes_the_average(self, monkeypatch, bits):
        # 0 is the pure Gray walk over one codebook
        expected = [ensemble_average_exact(cfg) for cfg in self.BATCH_CASES]
        monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", bits)
        assert [ensemble_average_exact(cfg) for cfg in self.BATCH_CASES] == expected
        for cfg in self.BATCH_CASES[:4]:
            assert list(ensemble_average_exact(cfg).counts) == naive_ensemble_average(cfg)

    def test_mass(self):
        cfg = CodeConfig(3, (4, 6, 7, 8))
        h = ensemble_average_exact(cfg)
        assert sum(h.counts) == h.samples << cfg.k

    def test_budget(self):
        with pytest.raises(BudgetError):
            ensemble_average_exact(construct_pw(64, 16))
        assert free_entry_count(construct_pw(64, 16)) > ENSEMBLE_MAX_FREE


def _pairing_case(name: str) -> tuple[CodeConfig, PreTransform]:
    kind, _, rest = name.partition("-")
    if kind == "crc":
        cfg, t = crc_transform(construct_pw(16, 10), 6, "10011")
        if rest == "with-N":
            # the CRC code plus the all-ones word; T leaves row N as e_N
            cfg, t = CodeConfig(4, cfg.info_set + (16,)), PreTransform(16, {**t.rows, 16: 0})
        return cfg, t
    cfg = {
        "with-N": construct_pw(32, 7),
        "without-N": CodeConfig(5, (16, 24, 28, 29, 30, 31)),
        "n128-with-N": construct_pw(128, 8),
        "n128-without-N": CodeConfig(7, (96, 112, 120, 124, 125, 126, 127)),
        "rm-with-N": construct_rm(16, 11),
        "k1-row-N": CodeConfig(3, (8,)),
        "n128-k1-row-N": CodeConfig(7, (128,)),
    }[rest]
    if kind == "identity":
        return cfg, identity_transform(cfg)
    if kind == "pac":
        return cfg, pac_transform(cfg, "1011011")
    return cfg, random_transform(cfg, cfg.n + cfg.k)


PAIRING_CASES = [
    f"{kind}-{rest}"
    for kind in ("identity", "pac", "random")
    for rest in ("with-N", "without-N", "n128-with-N", "n128-without-N", "rm-with-N")
] + ["crc-with-N", "crc-without-N", "identity-k1-row-N", "identity-n128-k1-row-N"]


class TestComplementPairing:
    @pytest.mark.parametrize("bits", [0, 3, 20])
    @pytest.mark.parametrize("name", PAIRING_CASES)
    def test_exact_spectrum_matches_naive(self, monkeypatch, name, bits):
        # 0 and 3 put most rows in the outer Gray walk; 20 none of them
        cfg, t = _pairing_case(name)
        monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", bits)
        assert list(exact_spectrum(cfg, t).counts) == naive_spectrum(cfg, t)

    @pytest.mark.parametrize("name", ["random-with-N", "random-without-N", "crc-with-N"])
    def test_only_half_the_codewords_are_enumerated_with_row_n(self, monkeypatch, name):
        cfg, t = _pairing_case(name)
        seen = []
        real = polarspec.oracle._hist_of_block

        def spy(block, n):
            seen.append(len(block))
            return real(block, n)

        monkeypatch.setattr(polarspec.oracle, "_hist_of_block", spy)
        exact_spectrum(cfg, t)
        paired = cfg.info_set[-1] == cfg.n
        assert sum(seen) == 1 << (cfg.k - paired)
        seen.clear()
        ensemble = CodeConfig(3, (6, 7, 8) if paired else (5, 6, 7))
        ensemble_average_exact(ensemble)
        assert sum(seen) == 1 << (free_entry_count(ensemble) + ensemble.k - paired)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 6),
        extra=st.sets(st.integers(1, 63), max_size=7),
        kind=st.sampled_from(["identity", "pac", "random"]),
        seed=st.integers(0, 1 << 32),
    )
    def test_counts_are_symmetric_with_row_n(self, m, extra, kind, seed):
        n = 1 << m
        cfg = CodeConfig(m, tuple(sorted({i for i in extra if i < n} | {n})))
        if kind == "identity":
            t = identity_transform(cfg)
        elif kind == "pac":
            t = pac_transform(cfg, "1101")
        else:
            t = random_transform(cfg, seed)
        counts = exact_spectrum(cfg, t).counts
        assert all(counts[d] == counts[n - d] for d in range(n + 1))
        assert sum(counts) == 1 << cfg.k

    # information sets that lack row N: the ensemble route enumerates
    # every codeword; two with row N for contrast
    ENSEMBLE_CASES = [
        CodeConfig(1, (1,)),
        CodeConfig(2, (2, 3)),
        CodeConfig(3, (4, 6, 7)),
        CodeConfig(3, (2, 7)),
        CodeConfig(4, (12, 14, 15)),
        CodeConfig(4, (11, 13, 14, 15)),
        CodeConfig(3, (8,)),
        CodeConfig(4, (12, 14, 15, 16)),
    ]

    @pytest.mark.parametrize("bits", [0, 3, 20])
    def test_ensemble_matches_recursion(self, monkeypatch, bits):
        monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", bits)
        for cfg in self.ENSEMBLE_CASES:
            assert_matches_recursion(ensemble_average_exact(cfg), avg_spectrum(cfg), cfg)

    def test_ensemble_needs_the_all_ones_row_last(self, monkeypatch):
        real = generator_rows
        monkeypatch.setattr(
            polarspec.oracle, "generator_rows", lambda c, t: real(c, t)[::-1]
        )
        with pytest.raises(RuntimeError, match="all-ones"):
            ensemble_average_exact(CodeConfig(3, (6, 7, 8)))


class TestEnsembleAverageMC:
    def test_reproducible_and_thread_invariant(self):
        cfg = construct_pw(16, 6)
        a = ensemble_average_mc(cfg, 11, samples=8)
        b = ensemble_average_mc(cfg, 11, samples=8)
        c = ensemble_average_mc(cfg, 11, samples=8, threads=3)
        assert a == b == c
        assert ensemble_average_mc(cfg, 12, samples=8) != a

    def test_worker_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(polarspec.oracle.os, "cpu_count", lambda: 4)
        assert _worker_count(1, 100) == 1
        assert _worker_count(8, 100) == 4
        assert _worker_count(8, 3) == 3
        assert _worker_count(2, 100) == 2
        assert _worker_count(0, 5) == 1
        monkeypatch.setattr(polarspec.oracle.os, "cpu_count", lambda: None)
        assert _worker_count(8, 100) == 1

    def test_source_fields(self):
        cfg = construct_pw(8, 4)
        h = ensemble_average_mc(cfg, 3, samples=5)
        assert h.source == "monte-carlo"
        assert h.samples == 5 and h.seed == 3
        assert h.saturated is None
        assert len(h.variance) == cfg.n + 1
        assert h.counts[0] == 1.0 and h.variance[0] == 0.0

    def test_single_sample_variance_is_zero(self):
        cfg = construct_pw(8, 4)
        h = ensemble_average_mc(cfg, 3, samples=1)
        assert all(v == 0.0 for v in h.variance)

    def test_estimates_exact_average(self):
        # seed-pinned: z-scores are deterministic for this seed
        cfg = CodeConfig(3, (4, 6, 7, 8))
        exact = ensemble_average_exact(cfg)
        mc = ensemble_average_mc(cfg, 2024, samples=400)
        for d in range(cfg.n + 1):
            tf = exact.counts[d] / exact.samples
            if mc.variance[d] == 0.0:
                assert mc.counts[d] == tf
                continue
            se = math.sqrt(mc.variance[d] / mc.samples)
            assert abs(mc.counts[d] - tf) <= 6 * se, d

    def test_scl_with_full_list_matches_brute(self):
        cfg = construct_pw(16, 5)
        a = ensemble_average_mc(cfg, 7, samples=6)
        b = ensemble_average_mc(cfg, 7, samples=6, list_size=1 << 5)
        assert a.counts[1:] == b.counts[1:]
        assert b.saturated is not None and not any(b.saturated)

    def test_argument_errors(self):
        cfg = construct_pw(8, 4)
        with pytest.raises(ValueError):
            ensemble_average_mc(cfg, 0, samples=0)
        with pytest.raises(ValueError):
            ensemble_average_mc(cfg, 0, samples=2, list_size=0)
        with pytest.raises(ValueError, match="threads must be >= 1, got -5"):
            ensemble_average_mc(cfg, 0, samples=3, threads=-5)
        with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
            ensemble_average_mc(cfg, 0, samples=3, threads=0)
        with pytest.raises(BudgetError):
            ensemble_average_mc(construct_pw(64, BRUTE_MAX_K + 1), 0, samples=1)


class TestSampleMoments:
    def test_identical_samples_have_zero_variance(self):
        big = (1 << 22) + 12345
        means, variance = _sample_moments([(0, 7, big, 3)] * 9)
        assert means == (0.0, 7.0, float(big), 3.0)
        assert variance == (0.0, 0.0, 0.0, 0.0)

    def test_near_2_22_matches_exact_fraction(self):
        base = 1 << 22
        samples = [(base, base + 1, 5), (base + 1, base + 1, 6), (base, base, 5)]
        means, variance = _sample_moments(samples)
        s = len(samples)
        for d, col in enumerate(zip(*samples)):
            mean = Fraction(sum(col), s)
            var = sum((Fraction(c) - mean) ** 2 for c in col) / (s - 1)
            assert means[d] == float(mean)
            assert variance[d] == float(var)

    def test_single_sample(self):
        assert _sample_moments([(1, 2)]) == ((1.0, 2.0), (0.0, 0.0))


def test_weight_histogram_nonzero():
    h = WeightHistogram("brute", 4, (1, 0, 3, 0, 0))
    assert h.nonzero() == {0: 1, 2: 3}
