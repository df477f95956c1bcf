import hashlib
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from polarspec import spectrum
from polarspec.construct import CodeConfig, construct_pw, construct_rm, min_row_weight
from polarspec.dyadic import DyadicRational
from polarspec.kernel import row_weight
from polarspec.spectrum import (
    avg_spectrum,
    coset_spectrum,
    p_exact,
    verify_average,
)
from routes import Values, agree, coset, coset_sum, enumerated_coset, nmin, recursion

FULL = os.environ.get("POLARSPEC_ACCEPT_FULL", "") == "1"


class TestCosetSpectrum:
    def test_base_cases(self):
        assert coset_spectrum(1, 1) == (0, 2, 0)
        assert coset_spectrum(1, 2) == (0, 0, 1)

    def test_small_known_values(self):
        # hand-enumerable: coset 2 of length 8 has 2^6 = 64 members
        assert coset_spectrum(3, 2) == (0, 0, 16, 0, 32, 0, 16, 0, 0)
        assert coset_spectrum(2, 2) == (0, 0, 4, 0, 0)
        assert coset_spectrum(3, 5) == (0, 0, 4, 0, 0, 0, 4, 0, 0)

    def test_truncation(self):
        full = coset_spectrum(4, 3)
        part = coset_spectrum(4, 3, d_max=6)
        assert part == full[:7]
        assert len(part) - 1 == 6

    def test_last_row_is_all_ones_coset(self):
        # single member: the all-ones word
        for m in (1, 2, 3, 4):
            c = coset_spectrum(m, 1 << m)
            assert sum(c) == 1
            assert c[1 << m] == 1

    @pytest.mark.parametrize(
        "m,i", [(0, 1), (2, 0), (2, 5), (3, 9)]
    )
    def test_range_errors(self, m, i):
        with pytest.raises(ValueError):
            coset_spectrum(m, i)

    def test_d_max_range_error(self):
        with pytest.raises(ValueError):
            coset_spectrum(3, 1, d_max=9)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_coset_invariants(m):
    """Normalization, weight parity, and the leading-zero block per row."""
    n = 1 << m
    for i in range(1, n + 1):
        c = coset_spectrum(m, i)
        assert sum(c) == 1 << (n - i)
        w = row_weight(m, i)
        assert all(c[d] == 0 for d in range(w))
        assert c[w] > 0
        # row 1 gives odd weights only, all others even only
        bad_parity = range(0 if i == 1 else 1, n + 1, 2)
        assert all(c[d] == 0 for d in bad_parity)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_upper_half_is_scaled_copy(m):
    half = 1 << (m - 1)
    for i in range(half + 1, (1 << m) + 1):
        c = coset_spectrum(m, i)
        sub = coset_spectrum(m - 1, i - half)
        for d in range(0, (1 << m) + 1):
            expect = sub[d >> 1] if d % 2 == 0 else 0
            assert c[d] == expect


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
def test_pmin_agrees_with_full_recursion(m):
    # two independent code paths for the same quantity, on the single-row code
    for i in range(1, (1 << m) + 1):
        assert agree(nmin(CodeConfig(m, (i,))), coset(CodeConfig(m, (i,)))), i


def test_p_exact_values():
    assert p_exact(3, 2, 2) == DyadicRational(16, 6)
    assert p_exact(3, 2, 3) == DyadicRational(0)
    assert p_exact(1, 1, 1) == DyadicRational(2, 1)  # certain


class TestAverageSpectrum:
    def test_mass_identity_small(self):
        # total average count over all weights is 2^K - 1
        for n, k in ((8, 4), (16, 7), (16, 12), (32, 20)):
            for build in (construct_rm, construct_pw):
                cfg = build(n, k)
                s = avg_spectrum(cfg)
                assert sum(s.nums) == ((1 << k) - 1) << s.exp

    def test_d_max_truncation(self):
        cfg = construct_pw(32, 16)
        part = avg_spectrum(cfg, d_max=10)
        full = avg_spectrum(cfg)
        assert part.d_max == 10
        assert all(part[d] == full[d] for d in range(1, 11))

    def test_equality_compares_entries(self):
        cfg = construct_pw(16, 8)
        assert avg_spectrum(cfg, d_max=5) != avg_spectrum(cfg)
        assert avg_spectrum(cfg, d_max=5) == avg_spectrum(cfg, d_max=5)

    def test_frozen_hashable_and_keyed_1_to_d_max(self):
        spec = avg_spectrum(construct_pw(16, 8))
        assert hash(spec) == hash(avg_spectrum(construct_pw(16, 8)))
        before = spec[4]
        spec.entries[4] = DyadicRational(0)  # a fresh dict: the spectrum is unchanged
        assert spec[4] == before and spec[4]
        assert verify_average(spec) == []
        for d in (-1, 0, spec.d_max + 1):
            with pytest.raises(KeyError):
                spec[d]

    def test_single_row_code(self):
        # K = 1: the one info row alone, no pre-transform freedom above it
        cfg = CodeConfig(3, (8,))
        s = avg_spectrum(cfg)
        assert s[8] == DyadicRational(1)
        assert all(not s[d] for d in range(1, 8))

    def test_full_code(self):
        # K = N: every nonzero word appears exactly once on average
        cfg = CodeConfig(2, (1, 2, 3, 4))
        s = avg_spectrum(cfg)
        assert s[1] == DyadicRational(4)
        assert s[2] == DyadicRational(6)
        assert s[3] == DyadicRational(4)
        assert s[4] == DyadicRational(1)

    def test_bad_d_max(self):
        cfg = construct_rm(8, 4)
        with pytest.raises(ValueError):
            avg_spectrum(cfg, d_max=0)
        with pytest.raises(ValueError):
            avg_spectrum(cfg, d_max=9)


class TestAvgNmin:
    def test_matches_full_spectrum(self):
        # independent accumulation routes must coincide at d_min
        for n, k in ((16, 8), (32, 10), (64, 32), (128, 64)):
            for build in (construct_rm, construct_pw):
                cfg = build(n, k)
                at_dmin = nmin(cfg)
                assert at_dmin.lo == min_row_weight(cfg)
                assert agree(at_dmin, recursion(cfg, d_max=at_dmin.lo))


class TestVerifyAverage:
    def test_clean_spectra_pass(self):
        for cfg in (construct_rm(64, 32), construct_pw(64, 20), CodeConfig(3, (1, 5, 8))):
            assert verify_average(avg_spectrum(cfg)) == []

    def test_reports_each_violation(self):
        cfg = construct_rm(16, 8)  # d_min 4, row 1 frozen
        spec = avg_spectrum(cfg)
        nums = list(spec.nums)
        # E[N_1] = 1, E[N_2] = 1, E[N_3] = 3: d = 1 is both odd and below d_min
        nums[:3] = 1 << spec.exp, 1 << spec.exp, 3 << spec.exp
        problems = verify_average(replace(spec, nums=tuple(nums)))
        assert problems[0].startswith("total mass ")
        assert problems[1:] == [
            "nonzero mass 1 below minimum weight at d=1",
            "nonzero mass 1 below minimum weight at d=2",
            "nonzero mass 3 below minimum weight at d=3",
            "odd-weight mass 1 at d=1 without row 1",
            "odd-weight mass 3 at d=3 without row 1",
        ]

    def test_needs_full_spectrum(self):
        with pytest.raises(ValueError):
            verify_average(avg_spectrum(construct_rm(16, 8), d_max=8))


def _full_reference(n: int, build) -> None:
    cfg = build(n, n // 2)
    spec = avg_spectrum(cfg)
    assert verify_average(spec) == []
    assert agree(nmin(cfg), Values(spec.nums, spec.exp, 1))


@pytest.mark.parametrize("build", [construct_rm, construct_pw])
def test_full_spectrum_reference_2048(build):
    _full_reference(2048, build)


@pytest.mark.skipif(not FULL, reason="set POLARSPEC_ACCEPT_FULL=1 for N=4096")
@pytest.mark.parametrize("build", [construct_rm, construct_pw])
def test_full_spectrum_reference_4096(build):
    _full_reference(4096, build)


@pytest.mark.parametrize("seed", range(12))
def test_average_equals_row_by_row_coset_sum(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 7)
    n = 1 << m
    cfg = CodeConfig(m, tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))))
    assert agree(coset_sum(cfg), recursion(cfg))


@pytest.mark.parametrize("build", [construct_rm, construct_pw])
def test_truncation_is_prefix_at_1024(build):
    cfg = build(1024, 512)
    full = avg_spectrum(cfg)
    for d_max in (1, min_row_weight(cfg), 100, 511, 512, 513, 1023):
        part = avg_spectrum(cfg, d_max=d_max)
        assert part.d_max == d_max
        assert all(part[d] == full[d] for d in range(1, d_max + 1))


def _spectrum_digest(spec) -> str:
    text = "\n".join(f"{d} {spec[d].num} {spec[d].exp}" for d in range(1, spec.d_max + 1))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


# sha256 prefixes of full avg_spectrum outputs, recorded from the
# unmirrored, parity-mixed recursion; the kernels must reproduce them
PINNED_FULL = {
    (2048, "rm", 512): "547de368f6d80312be168cf294cd8afd",
    (2048, "rm", 1024): "bbdbb90d0dd2e2cd798bedf068eaa55a",
    (2048, "rm", 1536): "6b5c0f8e0ed9f6964c0f1cf92604dfc1",
    (2048, "pw", 512): "4f69dc17e3d5be2b6f42af9b37139d0d",
    (2048, "pw", 1024): "43b7386d4d456fdc50f029b866ce1646",
    (2048, "pw", 1536): "1382355f9c2f60f7b7309ed4c2c8123b",
    (4096, "rm", 1024): "2ab40924aab692dd4ea5bf9c56c48dd5",
    (4096, "rm", 2048): "679222e7b2133314902c3a0b908db910",
    (4096, "rm", 3072): "1b49a7caab9e53d049a22f4ea7875be5",
    (4096, "pw", 1024): "933d2fea180dd6a9da00c644f65d4188",
    (4096, "pw", 2048): "77be6441c9869e83b9cda731aa12145b",
    (4096, "pw", 3072): "f2d3bf337533d4d5974da81ff5350ffb",
}
BUILDERS = {"rm": construct_rm, "pw": construct_pw}


@pytest.mark.parametrize(
    "n,name,k",
    [
        key if key[0] == 2048 else pytest.param(*key, marks=pytest.mark.skipif(
            not FULL, reason="set POLARSPEC_ACCEPT_FULL=1 for N=4096"))
        for key in PINNED_FULL
    ],
)
def test_full_spectrum_is_pinned(n, name, k):
    spec = avg_spectrum(BUILDERS[name](n, k))
    assert _spectrum_digest(spec) == PINNED_FULL[n, name, k]


# sha256 prefixes of truncated avg_spectrum outputs, keyed (N, code, K,
# d_max), recorded from the recursion that scanned every branch for its
# lightest row: the rate-sweep grid d_max = min(N, 32), and K = N/2 at
# N = 2048, 4096 truncated at d_min
PINNED_TRUNCATED = {
    (64, "rm", 4, 32): "5933e4146575f4987b58ba05878d5581",
    (64, "rm", 32, 32): "a88a2c54d6059f7175fd0fcd6393a62a",
    (64, "rm", 60, 32): "11407db48cf8d33c1fd09313bbf91cac",
    (64, "pw", 4, 32): "5933e4146575f4987b58ba05878d5581",
    (64, "pw", 32, 32): "a88a2c54d6059f7175fd0fcd6393a62a",
    (64, "pw", 60, 32): "11407db48cf8d33c1fd09313bbf91cac",
    (128, "rm", 8, 32): "096f983c6dd1313616b3012c7f81b8ed",
    (128, "rm", 64, 32): "02726a16c03f9946395b4d3389bdae0f",
    (128, "rm", 120, 32): "462244f71efa5ac4ab72bedd1e212c5b",
    (128, "pw", 8, 32): "faf56d2b669adf307feb8377b0995a9d",
    (128, "pw", 64, 32): "8b74c1a095e3aeb0593bd9a322174a52",
    (128, "pw", 120, 32): "c8a6f9aea424db564149c8eb4961cdb7",
    (256, "rm", 16, 32): "096f983c6dd1313616b3012c7f81b8ed",
    (256, "rm", 128, 32): "779c3b293e6ec26ff9b66fbf98c119ea",
    (256, "rm", 240, 32): "2f58834a6630e853c019cef345c03c1b",
    (256, "pw", 16, 32): "096f983c6dd1313616b3012c7f81b8ed",
    (256, "pw", 128, 32): "341aeb4b6e09031013ac05ae59f96d07",
    (256, "pw", 240, 32): "30fc7058710c69d235fc8ccd51f30a3f",
    (512, "rm", 32, 32): "096f983c6dd1313616b3012c7f81b8ed",
    (512, "rm", 256, 32): "6bbe8621d62c0fc878e55c3d5c3f05a9",
    (512, "rm", 480, 32): "0e5ca70158ce8155ffe6584806021e8c",
    (512, "pw", 32, 32): "096f983c6dd1313616b3012c7f81b8ed",
    (512, "pw", 256, 32): "78da0fa8bb53c4c8ac1cc2791ab98bc0",
    (512, "pw", 480, 32): "0ec3825eb6be80971393e922f7d96ed0",
    (2048, "rm", 1024, 64): "2f0e90e1bd9b5f279c9edb8421ac13c7",
    (2048, "pw", 1024, 16): "8cc26b2aed2cdcbc399393cfc990b116",
    (4096, "rm", 2048, 64): "191a830945662a79b3a51d1d12d1fb24",
    (4096, "pw", 2048, 16): "861720cb0114d4153149e6063d369cd9",
}


@pytest.mark.parametrize("n,name,k,d_max", list(PINNED_TRUNCATED))
def test_truncated_spectrum_is_pinned(n, name, k, d_max):
    spec = avg_spectrum(BUILDERS[name](n, k), d_max=d_max)
    assert _spectrum_digest(spec) == PINNED_TRUNCATED[n, name, k, d_max]


# every coset with at most 2^18 members up to N = 64, the top table level
ENUMERATED_COSETS = (
    [(m, i) for m in range(1, 5) for i in range(1, (1 << m) + 1)]
    + [(5, i) for i in range(18, 33)] + [(6, i) for i in range(46, 65)]
)


@pytest.fixture
def below_the_table(monkeypatch):
    """TABLE_LEVEL 0: every branch longer than 1 runs the maps and the
    mirror, which the default level reads from the table up to N = 64."""
    monkeypatch.setattr(spectrum, "TABLE_LEVEL", 0)


@pytest.mark.parametrize("m,i", ENUMERATED_COSETS)
def test_coset_spectrum_matches_enumeration(m, i):
    # an independent count of every member: tests the complement symmetry
    # the recursion mirrors on (counts[d] == counts[N - d], no all-ones
    # word), and the mirrored upper half itself
    enumerated = enumerated_coset(CodeConfig(m, (i,)))
    if i < 1 << m:
        assert enumerated.nums[-1] == 0 and enumerated.nums[:-1] == enumerated.nums[-2::-1]
    assert agree(coset(CodeConfig(m, (i,))), enumerated)


@pytest.mark.parametrize("m,i", ENUMERATED_COSETS)
def test_coset_spectrum_below_the_table_matches_enumeration(m, i, below_the_table):
    test_coset_spectrum_matches_enumeration(m, i)


@given(st.data())
def test_every_table_level_gives_the_same_spectrum(data):
    m = data.draw(st.integers(1, 8))
    info = data.draw(st.sets(st.integers(1, 1 << m), min_size=1))
    cfg = CodeConfig(m, tuple(sorted(info)))
    d_max = data.draw(st.integers(1, 1 << m))
    spectra = []
    with pytest.MonkeyPatch.context() as mp:
        for level in range(8):
            mp.setattr(spectrum, "TABLE_LEVEL", level)
            spectra.append(avg_spectrum(cfg, d_max))
    assert all(s == spectra[0] for s in spectra[1:])


@given(st.data())
def test_coset_spectra_are_symmetric(data):
    # coset i < N holds the complement of each member; coset N is 1^N alone
    m = data.draw(st.integers(1, 7))
    n = 1 << m
    i = data.draw(st.integers(1, n))
    counts = coset_spectrum(m, i)
    if i < n:
        assert counts == counts[::-1]
    else:
        assert counts == (0,) * n + (1,)


@given(st.data())
def test_avg_nmin_equals_the_spectrum_on_any_info_set(data):
    # p_min and the recursion are independent routes to E[N_dmin]
    m = data.draw(st.integers(1, 8))
    info = data.draw(st.sets(st.integers(1, 1 << m), min_size=1))
    cfg = CodeConfig(m, tuple(sorted(info)))
    assert agree(nmin(cfg), recursion(cfg, d_max=min_row_weight(cfg)))


def _mixed_or_open_info_set(rng: random.Random, m: int, with_row_1: bool) -> CodeConfig:
    # with_row_1: row 1 (odd weights) plus another low-half row, so the low
    # branch carries both parities; otherwise a set without row N
    n = 1 << m
    if with_row_1:
        info = {1, rng.randint(2, n // 2)} | set(rng.sample(range(1, n + 1), rng.randint(0, n - 2)))
    else:
        info = set(rng.sample(range(1, n), rng.randint(1, n - 1)))
    return CodeConfig(m, tuple(sorted(info)))


MIRROR_SEEDS = range(11)  # seeds 8-10: N = 8, 16, 32 again


@pytest.mark.parametrize("with_row_1", [True, False])
@pytest.mark.parametrize("seed", MIRROR_SEEDS)
def test_truncation_is_prefix_around_the_mirror(seed, with_row_1):
    rng = random.Random(seed)
    m = 2 + seed % 7  # N = 4 .. 256
    n = 1 << m
    cfg = _mixed_or_open_info_set(rng, m, with_row_1)
    assert 1 in cfg.info_set if with_row_1 else n not in cfg.info_set
    full = avg_spectrum(cfg)
    w = min_row_weight(cfg)  # below w every entry is 0; at w and n/4 rows mix light and heavy
    for d_max in (max(w - 1, 1), w, n // 4, n // 2 - 1, n // 2, n // 2 + 1, n - 1):
        part = avg_spectrum(cfg, d_max=d_max)
        assert [part[d] for d in range(1, d_max + 1)] == [full[d] for d in range(1, d_max + 1)]


@pytest.mark.parametrize("with_row_1", [True, False])
@pytest.mark.parametrize("seed", MIRROR_SEEDS)
def test_truncation_below_the_table_is_prefix_around_the_mirror(seed, with_row_1, below_the_table):
    test_truncation_is_prefix_around_the_mirror(seed, with_row_1)
