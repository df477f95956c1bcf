import re

import numpy as np
import pytest

from polarspec.construct import CodeConfig, construct_pw, construct_rm
from polarspec.oracle import exact_spectrum
from polarspec.pretransform import (
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
from polarspec.scl import collect_low_weight


class TestSplitMix64:
    def test_reference_stream(self):
        # published reference outputs for seed 1234567
        gen = SplitMix64(1234567)
        assert [gen.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_seed_is_masked_to_64_bits(self):
        a = SplitMix64(5)
        b = SplitMix64(5 + (1 << 64))
        assert a.next_u64() == b.next_u64()

    def test_bits_packs_lsb_first(self):
        gen = SplitMix64(99)
        words = [gen.next_u64(), gen.next_u64()]
        assert SplitMix64(99).bits(64) == words[0]
        assert SplitMix64(99).bits(128) == words[0] | words[1] << 64
        assert SplitMix64(99).bits(10) == words[0] & 0x3FF
        assert SplitMix64(99).bits(0) == 0

    def test_derive_seeds(self):
        gen = SplitMix64(42)
        expect = [gen.next_u64() for _ in range(6)]
        assert derive_seeds(42, 6) == expect
        # prefix stability: the first seeds never depend on the count
        assert derive_seeds(42, 3) == expect[:3]


class TestPreTransform:
    def test_entry_and_full_row(self):
        t = PreTransform(4, {1: 0b1010, 3: 0b1000})
        assert t.entry(1, 1) == 1 and t.entry(1, 2) == 1
        assert t.entry(1, 3) == 0 and t.entry(1, 4) == 1
        assert t.entry(3, 4) == 1 and t.entry(3, 3) == 1
        assert t.entry(2, 1) == 0  # below the diagonal
        assert t.full_row(1) == 0b1011
        assert t.full_row(2) == 0b0010  # unstored row: diagonal only
        assert t.full_row(3) == 0b1100

    @pytest.mark.parametrize(
        "n,rows",
        [
            (4, {0: 0}),
            (4, {5: 0}),
            (4, {1: 1 << 4}),
            (4, {2: 0b0010}),  # diagonal bit stored explicitly
            (4, {3: 0b0001}),  # entry left of the diagonal
            (4, {1: -2}),
        ],
    )
    def test_rejects_bad_rows(self, n, rows):
        with pytest.raises(ValueError):
            PreTransform(n, rows)

    def test_rows_cannot_be_assigned(self):
        # T_{8,1} sits left of the diagonal: written in, it would hand the
        # routes a transform its checks refuse
        t = identity_transform(construct_pw(8, 4))
        with pytest.raises(TypeError):
            t.rows[8] = 1
        assert t.rows[8] == 0

    def test_rows_are_a_copy_of_the_given_dict(self):
        cfg = construct_pw(8, 4)
        rows = dict.fromkeys(cfg.info_set, 0)
        t = PreTransform(cfg.n, rows)
        rows[8] = 1
        assert t.rows == dict.fromkeys(cfg.info_set, 0)
        assert t == identity_transform(cfg)

    def test_numpy_ints_become_python_ints_that_decode(self):
        cfg = construct_pw(8, 4)
        plain = PreTransform(8, {4: 0b10100000, 6: 0b10000000, 7: 0, 8: 0})
        t = PreTransform(np.int64(8), {np.int64(i): np.int64(mask) for i, mask in plain.rows.items()})
        assert [type(x) for x in (t.n, *t.rows, *t.rows.values())] == [int] * 9
        assert exact_spectrum(cfg, t) == exact_spectrum(cfg, plain)
        assert collect_low_weight(cfg, t, 16) == collect_low_weight(cfg, plain, 16)

    @pytest.mark.parametrize("n,rows", [(8.0, {8: 0}), (8, {8.0: 0}), (8, {4: 128.0})])
    def test_rejects_floats(self, n, rows):
        with pytest.raises(TypeError):
            PreTransform(n, rows)


def test_free_entry_count():
    assert free_entry_count(CodeConfig(2, (1, 2, 3, 4))) == 3 + 2 + 1 + 0
    assert free_entry_count(CodeConfig(3, (4, 8))) == 4
    assert free_entry_count(construct_rm(16, 5)) == sum(
        16 - i for i in construct_rm(16, 5).info_set
    )


class TestTransformFromBits:
    def test_bit_layout(self):
        # rows ascending, columns ascending within the row, LSB first
        cfg = CodeConfig(2, (2, 3))
        t = transform_from_bits(cfg, 0b001)  # first free entry: T_{2,3}
        assert t.rows == {2: 0b100, 3: 0}
        t = transform_from_bits(cfg, 0b010)  # second: T_{2,4}
        assert t.rows == {2: 0b1000, 3: 0}
        t = transform_from_bits(cfg, 0b100)  # third: T_{3,4}
        assert t.rows == {2: 0, 3: 0b1000}

    def test_enumeration_is_a_bijection(self):
        cfg = CodeConfig(3, (2, 5, 6))
        f = free_entry_count(cfg)
        seen = {tuple(sorted(transform_from_bits(cfg, b).rows.items())) for b in range(1 << f)}
        assert len(seen) == 1 << f

    def test_excess_bits_rejected(self):
        cfg = CodeConfig(2, (3, 4))
        with pytest.raises(ValueError):
            transform_from_bits(cfg, 1 << free_entry_count(cfg))

    def test_negative_bits_rejected(self):
        # a negative int is not read as an overlong one
        with pytest.raises(ValueError, match="must be >= 0"):
            transform_from_bits(construct_pw(4, 2), -1)


def test_identity_transform():
    cfg = construct_pw(8, 3)
    t = identity_transform(cfg)
    assert set(t.rows) == set(cfg.info_set)
    assert all(mask == 0 for mask in t.rows.values())


class TestRandomTransform:
    def test_deterministic_in_seed(self):
        cfg = construct_pw(32, 16)
        assert random_transform(cfg, 7) == random_transform(cfg, 7)
        assert random_transform(cfg, 7) != random_transform(cfg, 8)

    def test_entry_mean_is_near_half(self):
        cfg = construct_pw(128, 40)
        f = free_entry_count(cfg)
        ones = 0
        draws = 0
        for seed in range(4):
            t = random_transform(cfg, 9000 + seed)
            ones += sum(mask.bit_count() for mask in t.rows.values())
            draws += f
        # >10k Bernoulli draws; 3 sigma is well under 0.03
        assert 0.47 < ones / draws < 0.53


class TestParsePoly:
    def test_binary_string(self):
        assert parse_poly("1000011") == 0b1000011  # D^6 + D + 1
        assert parse_poly("1") == 1

    def test_hex_string(self):
        assert parse_poly("0x43") == 0x43
        assert parse_poly("0X5") == 5

    def test_int_passthrough(self):
        assert parse_poly(0b1011) == 0b1011

    @pytest.mark.parametrize("bad", ["", "012", "20", "abc", "0x0", 0, "0x", "0xg1"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match=f"polynomial.*{re.escape(repr(bad))}"):
            parse_poly(bad)


class TestPacTransform:
    def test_toeplitz_layout(self):
        cfg = CodeConfig(3, (1, 2, 6, 8))
        t = pac_transform(cfg, "1011")
        # c = (1, 0, 1, 1): each row carries entries at offsets 2 and 3
        assert t.rows[1] == 0b00001100
        assert t.rows[2] == 0b00011000
        assert t.rows[6] == 0b10000000  # offset 3 falls off the edge
        assert t.rows[8] == 0  # nothing right of the last column

    def test_input_forms_agree(self):
        cfg = construct_pw(16, 8)
        a = pac_transform(cfg, "10111")
        b = pac_transform(cfg, 0b10111)
        assert a == b

    def test_identity_special_case(self):
        cfg = construct_pw(8, 4)
        assert pac_transform(cfg, "1") == identity_transform(cfg)

    def test_rejects_bad_coefficients(self):
        cfg = construct_pw(8, 4)
        with pytest.raises(ValueError):
            pac_transform(cfg, "011")
        with pytest.raises(ValueError):
            pac_transform(cfg, "12")
        with pytest.raises(ValueError):
            pac_transform(cfg, "")


def _poly_mod(num: int, g: int) -> int:
    # local long division so the check does not reuse library code
    dg = g.bit_length() - 1
    while num.bit_length() - 1 >= dg and num:
        num ^= g << (num.bit_length() - 1 - dg)
    return num


class TestCrcTransform:
    def test_returns_shrunk_config(self):
        outer = construct_pw(16, 10)
        inner, t = crc_transform(outer, 6, "10011")
        assert inner.info_set == outer.info_set[:6]
        assert inner.k == 6
        assert t.n == 16
        assert set(t.rows) == set(inner.info_set)

    def test_rows_encode_systematic_crc(self):
        # every single-bit message: appended bits must satisfy g | (D^r m(D) + crc(D));
        # g with and without a constant term, g = D^r, and degrees up to 12
        cases = [(construct_pw(32, 12), "10011"), (construct_rm(64, 20), "1100"),
                 (construct_pw(16, 10), "1000000"), (construct_pw(128, 40), "100000111"),
                 (construct_rm(512, 100), "1100000001111")]
        for outer, text in cases:
            g = parse_poly(text)
            r = g.bit_length() - 1
            k = outer.k - r
            inner, t = crc_transform(outer, k, g)
            assert list(t.rows) == list(inner.info_set)
            crc_idx = outer.info_set[k:]
            for j, i in enumerate(inner.info_set, start=1):
                mask = t.rows[i]
                poly = 1 << (r + k - j)
                for tpos, cidx in enumerate(crc_idx, start=1):
                    if mask >> (cidx - 1) & 1:
                        poly ^= 1 << (r - tpos)
                assert _poly_mod(poly, g) == 0, (outer.n, text, j)

    def test_crc_entries_only_in_crc_columns(self):
        outer = construct_rm(16, 8)
        inner, t = crc_transform(outer, 5, "1011")
        allowed = 0
        for c in outer.info_set[5:]:
            allowed |= 1 << (c - 1)
        assert all(mask & ~allowed == 0 for mask in t.rows.values())

    def test_degree_must_match_reserved_positions(self):
        outer = construct_pw(16, 10)
        with pytest.raises(ValueError):
            crc_transform(outer, 6, "1011")  # degree 3, but 4 positions

    def test_k_range(self):
        outer = construct_pw(16, 10)
        with pytest.raises(ValueError):
            crc_transform(outer, 0, "1011")
        with pytest.raises(ValueError):
            crc_transform(outer, 10, "1011")
