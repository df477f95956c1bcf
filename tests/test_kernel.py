import pytest
from hypothesis import given, strategies as st

from polarspec.kernel import BitRow, encode, kron_row, polar_transform, row_bits, row_weight
from polarspec.construct import CodeConfig
from polarspec.pretransform import identity_transform, transform_from_bits


def naive_weight(row: BitRow) -> int:
    return sum(row[i] for i in range(1, len(row) + 1))


class TestBitRow:
    def test_from_bits_and_indexing(self):
        r = BitRow.from_bits((1, 0, 1, 0))
        assert r[1] == 1 and r[2] == 0 and r[3] == 1 and r[4] == 0
        assert len(r) == 4
        assert tuple(r) == (1, 0, 1, 0)

    def test_length_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BitRow.from_bits((1, 0, 1))

    def test_xor(self):
        a = BitRow.from_bits((1, 0, 1, 0))
        b = BitRow.from_bits((1, 1, 1, 1))
        assert tuple(a ^ b) == (0, 1, 0, 1)

    def test_weight_is_popcount(self):
        r = BitRow.from_bits((1, 1, 0, 1))  # not a transform row, any vector
        assert r.weight == 3 == naive_weight(r)


def test_kron_row_base():
    assert tuple(kron_row(1, 1)) == (1, 0)
    assert tuple(kron_row(1, 2)) == (1, 1)


def test_kron_row_examples():
    assert tuple(kron_row(2, 3)) == (1, 0, 1, 0)
    assert tuple(kron_row(3, 8)) == (1,) * 8


def test_kron_row_range_errors():
    for m, i in ((1, 0), (1, 3), (2, 5), (0, 1)):
        with pytest.raises(ValueError):
            kron_row(m, i)


@pytest.mark.parametrize("m,i,expected", [(7, 1, 1), (3, 4, 4), (1, 2, 2)])
def test_row_weight_examples(m, i, expected):
    assert row_weight(m, i) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_row_weight_matches_materialized_rows(m):
    # closed form vs popcount vs naive bit-by-bit count
    for i in range(1, (1 << m) + 1):
        row = kron_row(m, i)
        assert row.weight == row_weight(m, i) == naive_weight(row)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_row_recursive_structure(m):
    # upper-half rows repeat the half-length row twice; lower-half pad with zeros
    half = 1 << (m - 1)
    for i in range(1, (1 << m) + 1):
        row = tuple(kron_row(m, i))
        if i > half:
            r = tuple(kron_row(m - 1, i - half))
            assert row == r + r
        else:
            r = tuple(kron_row(m - 1, i))
            assert row == r + (0,) * half


def test_encode_all_zero():
    cfg = CodeConfig(2, (3, 4))
    t = identity_transform(cfg)
    assert tuple(encode(BitRow(0, 4), t, 2)) == (0, 0, 0, 0)


def test_encode_identity_transform_is_row():
    cfg = CodeConfig(2, (3, 4))
    t = identity_transform(cfg)
    u = BitRow.from_bits((0, 0, 1, 0))
    assert tuple(encode(u, t, 2)) == (1, 0, 1, 0)


def test_encode_with_pretransform_entry():
    cfg = CodeConfig(2, (3, 4))
    t = transform_from_bits(cfg, 1)  # sets the single free entry, row 3 col 4
    u = BitRow.from_bits((0, 0, 1, 0))
    assert tuple(encode(u, t, 2)) == (0, 1, 0, 1)


def test_encode_rejects_nonzero_frozen_bit():
    cfg = CodeConfig(2, (3, 4))
    t = identity_transform(cfg)
    with pytest.raises(ValueError):
        encode(BitRow.from_bits((1, 0, 0, 0)), t, 2)


def test_encode_unit_vectors_reproduce_rows():
    m = 4
    cfg = CodeConfig(m, tuple(range(1, 17)))
    t = identity_transform(cfg)
    for i in range(1, 17):
        u = BitRow(1 << (i - 1), 16)
        assert encode(u, t, m) == kron_row(m, i)


def test_row_bits_matches_kron_row():
    for m in range(1, 7):
        for i in range(1, (1 << m) + 1):
            assert row_bits(m, i) == kron_row(m, i).bits


@given(
    st.integers(1, 8).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, (1 << (1 << m)) - 1))
    )
)
def test_polar_transform_is_an_involution(case):
    # F_N is its own inverse over GF(2): u = codeword * F_N
    m, x = case
    assert polar_transform(polar_transform(x, m), m) == x
