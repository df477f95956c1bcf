import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarspec.construct import CodeConfig, construct_pw, construct_rm, min_row_weight
import polarspec.oracle
from polarspec.oracle import (
    BLOCK_BITS,
    MAX_ENUM_BITS,
    BudgetError,
    WeightHistogram,
    _hist_of_block,
    ensemble_average_exact,
    ensemble_average_mc,
    exact_spectrum,
    generator_rows,
)
from polarspec.pretransform import (
    PreTransform,
    crc_transform,
    derive_seeds,
    identity_transform,
    pac_transform,
    random_transform,
)
from polarspec.report import report_from_histogram
from polarspec.scl import collect_low_weight
from routes import (agree, brute, exhaustive, from_histogram, literal, naive, recursion,
                    reduced_free_count)


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
        assert h.source == "brute" and h.samples == 1

    def test_extended_hamming(self):
        cfg = construct_rm(8, 4)
        h = exact_spectrum(cfg, identity_transform(cfg))
        assert h.counts == (1, 0, 0, 0, 14, 0, 0, 0, 1)
        assert h.nonzero() == {0: 1, 4: 14, 8: 1}

    @pytest.mark.parametrize("n,k,seed", [(8, 3, 1), (16, 9, 2), (32, 11, 3)])
    def test_matches_naive_enumeration(self, n, k, seed):
        cfg = construct_pw(n, k)
        t = random_transform(cfg, seed)
        assert agree(brute(cfg, t), naive(cfg, t))

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
        cfg = construct_pw(64, MAX_ENUM_BITS + 1)
        with pytest.raises(BudgetError):
            exact_spectrum(cfg, identity_transform(cfg))


def _packed(codewords: list[int], n: int) -> np.ndarray:
    words = (n + 63) // 64
    return np.array([[c >> (64 * w) & ((1 << 64) - 1) for w in range(words)]
                     for c in codewords], dtype=np.uint64).reshape(-1, words)


def _bincount_of_popcounts(block: np.ndarray, n: int) -> list[int]:
    weights = np.bitwise_count(block).sum(axis=1, dtype=np.intp)
    return np.bincount(weights, minlength=n + 1).tolist()


@st.composite
def _blocks(draw) -> tuple[int, list[int]]:
    # 1 to 4 words per codeword (n = 192 is no code length, but the only
    # way to get three), odd and even lengths, the all-ones word often
    n = draw(st.sampled_from([2, 64, 128, 192, 256]))
    ones = (1 << n) - 1
    word = st.one_of(st.just(0), st.just(ones), st.integers(0, ones))
    return n, draw(st.lists(word, min_size=1, max_size=9))


class TestHistOfBlock:
    @settings(max_examples=200, deadline=None)
    @given(case=_blocks())
    # weight 256 wraps a uint8 sum to 0
    @example(case=(256, [(1 << 256) - 1]))
    @example(case=(256, [(1 << 256) - 1, 1]))
    # weight 128 in both halves of a uint16 pair index
    @example(case=(128, [(1 << 128) - 1] * 2))
    def test_matches_bincount_of_summed_popcounts(self, case):
        n, codewords = case
        block = _packed(codewords, n)
        assert _hist_of_block(block, n).tolist() == _bincount_of_popcounts(block, n)

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("length", [2 << 16, (2 << 16) + 1, 3 << 16])
    def test_chunk_boundaries(self, n, length):
        # more than one bincount chunk, on the paired and the fallback path
        words = n // 64
        block = np.random.default_rng(n + length).integers(
            0, 1 << 64, (length, words), dtype=np.uint64)
        block[::7] = ~np.uint64(0)
        assert _hist_of_block(block, n).tolist() == _bincount_of_popcounts(block, n)

    @pytest.mark.parametrize("bits", [0, 20])
    def test_n256_with_the_all_ones_word(self, monkeypatch, bits):
        cfg = CodeConfig(8, (128, 192, 256))
        monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", bits)
        assert exact_spectrum(cfg, identity_transform(cfg)).nonzero() == {0: 1, 128: 6, 256: 1}

    @pytest.mark.parametrize("bits,pair_path", [(0, False), (20, True)])
    def test_one_codeword_blocks_take_the_fallback(self, monkeypatch, bits, pair_path):
        cfg = construct_pw(16, 6)
        t = random_transform(cfg, 4)
        lengths = []
        real = polarspec.oracle._chunked_bincount

        def spy(indices, length):
            lengths.append(length)
            return real(indices, length)

        monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", bits)
        monkeypatch.setattr(polarspec.oracle, "_chunked_bincount", spy)
        assert agree(brute(cfg, t), naive(cfg, t))
        # the fallback counts n + 1 weights; the pair path a 256 (n + 1) table
        assert set(lengths) == {256 * 17 if pair_path else 17}

    def test_no_block_length_intp_array(self):
        # block + weights + one chunk's cast; casting the whole block's
        # weights to intp at once peaks at 17 MiB here
        cfg = construct_pw(64, 22)
        t = random_transform(cfg, 3)
        tracemalloc.start()
        try:
            exact_spectrum(cfg, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 << BLOCK_BITS) + (2 << 20), peak / 2**20

    def test_block_is_bounded_in_words(self):
        # sixteen words per codeword: a block of 2^BLOCK_BITS codewords
        # would be 128 MiB
        cfg = construct_pw(1024, 20)
        tracemalloc.start()
        try:
            exact_spectrum(cfg, identity_transform(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 << BLOCK_BITS) + (2 << 20), peak / 2**20

    def test_ensemble_block_is_bounded_in_words(self, monkeypatch):
        # K = 22, F_red = 1: the 21 rows besides row N overflow a 2^16-word
        # block, so most rows are walked outside it (all in it: 16 MiB)
        cfg = CodeConfig(5, (10, *range(12, 33)))
        monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", 16)
        tracemalloc.start()
        try:
            h = ensemble_average_exact(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 << 16) + (2 << 20), peak / 2**20
        assert agree(from_histogram(h, cfg), recursion(cfg))


class TestEnsembleAverageExact:
    @pytest.mark.parametrize(
        "m,info",
        [
            (2, (1, 2, 3, 4)),
            (2, (2, 4)),
            (3, (3, 5, 6, 8)),
            (3, (1, 7, 8)),
            (3, (4, 6, 7, 8)),
            # two words per codeword: the block is bounded in words
            (7, (125, 127, 128)),
            (7, (124, 126)),
        ],
    )
    def test_matches_rebuild_route(self, monkeypatch, m, info):
        # 0 and 3 walk most free entries in Gray order; 20 doubles them all
        # into the batch
        cfg = CodeConfig(m, info)
        for bits in (0, 3, 20):
            monkeypatch.setattr(polarspec.oracle, "BLOCK_BITS", bits)
            assert agree(exhaustive(cfg), literal(cfg))

    @pytest.mark.parametrize(
        "cfg",
        [construct_pw(16, 8), construct_pw(32, 8), construct_rm(16, 11)],
        ids=["pw16-8", "pw32-8", "rm16-11"],
    )
    def test_standard_codes_match_recursion(self, cfg):
        # F = 29, 39 and 60 transform entries, F_red = 1, 11 and 5
        assert agree(exhaustive(cfg), recursion(cfg))

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
            assert agree(exhaustive(cfg), literal(cfg)), cfg

    def test_mass(self):
        cfg = CodeConfig(3, (4, 6, 7, 8))
        h = ensemble_average_exact(cfg)
        assert h.source == "exhaustive-ensemble" and h.samples == 1 << reduced_free_count(cfg)
        assert sum(h.counts) == h.samples << cfg.k

    def test_budget(self):
        cfg = construct_pw(64, 16)
        assert cfg.k + reduced_free_count(cfg) == 72
        with pytest.raises(BudgetError):
            ensemble_average_exact(cfg)

    def test_budget_counts_messages_and_reduced_entries(self, monkeypatch):
        # K + F_red = 8 + 1: accepted at the limit, refused one below it
        cfg = construct_pw(16, 8)
        monkeypatch.setattr(polarspec.oracle, "MAX_ENUM_BITS", 9)
        assert agree(exhaustive(cfg), recursion(cfg))
        monkeypatch.setattr(polarspec.oracle, "MAX_ENUM_BITS", 8)
        with pytest.raises(BudgetError, match=r"8 \+ 1"):
            ensemble_average_exact(cfg)
        # a fixed transform has F_red = 0: K alone is the rule
        t = random_transform(cfg, 1)
        assert agree(brute(cfg, t), naive(cfg, t))
        assert ensemble_average_mc(cfg, 0, samples=2).samples == 2
        monkeypatch.setattr(polarspec.oracle, "MAX_ENUM_BITS", 7)
        with pytest.raises(BudgetError):
            exact_spectrum(cfg, t)
        with pytest.raises(BudgetError):
            ensemble_average_mc(cfg, 0, samples=2)
        # the collector is not an enumeration
        assert ensemble_average_mc(cfg, 0, samples=2, list_size=4).samples == 2

    def test_refused_before_any_walk_or_draw(self, monkeypatch):
        def fail(*args):
            raise AssertionError("ran past the budget check")

        cfg = construct_pw(32, 28)
        assert cfg.k + reduced_free_count(cfg) == MAX_ENUM_BITS + 1
        monkeypatch.setattr(polarspec.oracle, "_walk", fail)
        monkeypatch.setattr(polarspec.oracle, "random_transform", fail)
        with pytest.raises(BudgetError):
            ensemble_average_exact(cfg)
        with pytest.raises(BudgetError):
            ensemble_average_mc(construct_pw(64, MAX_ENUM_BITS + 1), 0, samples=3)


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
        assert agree(brute(cfg, t), naive(cfg, t))

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
        assert sum(seen) == 1 << (reduced_free_count(ensemble) + ensemble.k - paired)

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
            assert agree(exhaustive(cfg), recursion(cfg)), cfg

    def test_ensemble_needs_the_all_ones_row_last(self, monkeypatch):
        real = generator_rows
        monkeypatch.setattr(
            polarspec.oracle, "generator_rows", lambda c, t: real(c, t)[::-1]
        )
        with pytest.raises(RuntimeError, match="all-ones"):
            ensemble_average_exact(CodeConfig(3, (6, 7, 8)))


class TestEnsembleAverageMC:
    def test_reproducible(self):
        cfg = construct_pw(16, 6)
        a = ensemble_average_mc(cfg, 11, samples=8)
        b = ensemble_average_mc(cfg, 11, samples=8)
        assert a == b
        assert ensemble_average_mc(cfg, 12, samples=8) != a

    @pytest.mark.parametrize("list_size", [None, 3])
    def test_result_is_the_moments_of_its_samples(self, list_size):
        # one measurement per derived seed, summed and summed in squares as
        # ints; at list size 3 the collector prunes from d=3 in one sample
        # and from d=4 in the others, so the saturation fold is an OR over
        # samples
        cfg = CodeConfig(4, (1, 4, 9, 12, 14))
        hists = [
            exact_spectrum(cfg, t) if list_size is None else collect_low_weight(cfg, t, list_size)
            for t in (random_transform(cfg, x) for x in derive_seeds(21, 4))
        ]
        totals = tuple(sum(h.counts[d] for h in hists) for d in range(cfg.n + 1))
        squares = tuple(sum(h.counts[d] ** 2 for h in hists) for d in range(cfg.n + 1))
        sat = None
        if list_size is not None:
            sat = tuple(any(h.saturated[d] for h in hists) for d in range(cfg.n + 1))
            assert sat != hists[-1].saturated and sat.index(True) == 3
        mc = ensemble_average_mc(cfg, 21, 4, list_size=list_size)
        assert mc == WeightHistogram(
            "monte-carlo", totals, samples=4, seed=21, squares=squares, saturated=sat
        )
        assert all(type(x) is int for x in (*mc.counts, *mc.squares))

    def test_memory_does_not_grow_with_samples(self):
        # each sample is folded into running totals as it is measured; a
        # list of 1000 per-sample histograms of 257 counts peaks at ~4 MiB
        cfg = construct_pw(256, 6)
        tracemalloc.start()
        try:
            ensemble_average_mc(cfg, 1, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak / 2**20

    def test_source_fields(self):
        cfg = construct_pw(8, 4)
        h = ensemble_average_mc(cfg, 3, samples=5)
        assert h.source == "monte-carlo"
        assert h.samples == 5 and h.seed == 3
        assert h.saturated is None
        assert len(h.squares) == cfg.n + 1
        assert h.counts[0] == 5 and h.squares[0] == 5  # the zero word, once per sample

    def test_single_sample_variance_is_zero(self):
        cfg = construct_pw(8, 4)
        h = ensemble_average_mc(cfg, 3, samples=1)
        assert h.squares == tuple(c * c for c in h.counts)
        assert all(float(e["variance"]) == 0.0 for e in report_from_histogram(cfg, "pw", h).entries)

    def test_estimates_exact_average(self):
        # seed-pinned: z-scores are deterministic for this seed
        cfg = CodeConfig(3, (4, 6, 7, 8))
        exact = ensemble_average_exact(cfg)
        mc = ensemble_average_mc(cfg, 2024, samples=400)
        s = mc.samples
        for d, (t, q) in enumerate(zip(mc.counts, mc.squares)):
            tf = exact.counts[d] / exact.samples
            variance = (s * q - t * t) / (s * (s - 1))
            if variance == 0.0:
                assert t / s == tf
                continue
            se = math.sqrt(variance / s)
            assert abs(t / s - tf) <= 6 * se, d

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
        with pytest.raises(BudgetError):
            ensemble_average_mc(construct_pw(64, MAX_ENUM_BITS + 1), 0, samples=1)


class TestSampleMoments:
    # the report renders a Monte-Carlo histogram's mean t/s and unbiased
    # variance from its integer totals t and squares q; at 40 digits two
    # floats of these sizes render alike only if they are equal
    @staticmethod
    def moments(samples: list[tuple]) -> list[tuple[str, str]]:
        columns = list(zip(*samples))
        hist = WeightHistogram(
            "monte-carlo", tuple(map(sum, columns)), samples=len(samples),
            squares=tuple(sum(c * c for c in col) for col in columns),
        )
        rep = report_from_histogram(construct_pw(8, 4), "pw", hist, 40)
        return [(e["value"], e["variance"]) for e in rep.entries]

    def test_identical_samples_have_zero_variance(self):
        big = (1 << 22) + 12345
        assert self.moments([(0, 7, big, 3)] * 9) == [
            (f"{m:.40f}", f"{0.0:.40f}") for m in (0.0, 7.0, float(big), 3.0)]

    def test_near_2_22_matches_exact_fraction(self):
        base = 1 << 22
        samples = [(base, base + 1, 5), (base + 1, base + 1, 6), (base, base, 5)]
        moments = self.moments(samples)
        s = len(samples)
        for d, col in enumerate(zip(*samples)):
            mean = Fraction(sum(col), s)
            var = sum((Fraction(c) - mean) ** 2 for c in col) / (s - 1)
            assert moments[d] == (f"{float(mean):.40f}", f"{float(var):.40f}")

    def test_single_sample(self):
        assert self.moments([(1, 2)]) == [(f"{m:.40f}", f"{0.0:.40f}") for m in (1.0, 2.0)]


def test_weight_histogram_nonzero():
    h = WeightHistogram("brute", (1, 0, 3, 0, 0))
    assert h.nonzero() == {0: 1, 2: 3}


@pytest.mark.parametrize("source,fields,message", [
    ("scl", {"saturated": (False,) * 2}, "2 saturated for 3 counts"),
    ("scl", {"saturated": (False,) * 5}, "5 saturated for 3 counts"),
    ("monte-carlo", {"squares": (0, 4)}, "2 squares for 3 counts"),
    ("monte-carlo", {"squares": (0, 4, 0), "samples": 0}, "monte-carlo histogram needs samples >= 1, got 0"),
    ("exhaustive-ensemble", {"samples": 3}, "power-of-two samples >= 1, got 3"),
    ("brute", {"squares": (0, 4, 0)}, "squares belong to monte-carlo"),
    ("monte-carlo", {}, "squares belong to monte-carlo"),
    ("brute", {"counts": (0, -2, 0)}, "negative numerator in counts"),
    ("monte-carlo", {"counts": (1, -2, 1), "samples": 2, "squares": (1, 0, 1)}, "negative numerator"),
    # 2 * 1 < 2^2: the rendered variance would be negative
    ("monte-carlo", {"samples": 2, "squares": (0, 1, 0)}, r"needs samples \* squares"),
])
def test_weight_histogram_checks_its_shape(source, fields, message):
    # a mismatched histogram is refused when it is built, not when rendered
    with pytest.raises(ValueError, match=message):
        WeightHistogram(source, **{"counts": (0, 2, 0), **fields})


def test_weight_histogram_keeps_tuples_of_checked_values():
    # the caller's sequences are copied: editing them changes nothing
    counts, flags = [0, 2, 1], [False, False, True]
    h = WeightHistogram("scl", counts, saturated=flags)
    counts.append(5)
    flags[0] = True
    assert h.counts == (0, 2, 1) and h.saturated == (False, False, True)
    assert len(report_from_histogram(construct_pw(2, 1), "pw", h).entries) == 3
    # numpy integers become Python ints and numpy bools bools; a float is refused
    h = WeightHistogram("monte-carlo", np.array([2, 4]), samples=2, squares=np.array([2, 8]),
                        saturated=np.array([False, True]))
    assert [type(x) for x in (*h.counts, *h.squares, *h.saturated)] == [int] * 4 + [bool] * 2
    with pytest.raises(TypeError):
        WeightHistogram("brute", (0, 2.0, 0))
