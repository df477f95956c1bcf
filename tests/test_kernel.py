import pytest
from hypothesis import given, strategies as st

from polarspec.kernel import encode, polar_transform, row_bits, row_weight
from polarspec.construct import CodeConfig
from polarspec.pretransform import identity_transform, transform_from_bits


def bits_of(word: int, n: int) -> tuple[int, ...]:
    """Positions 1..n of a packed word."""
    return tuple(word >> p & 1 for p in range(n))


def naive_weight(word: int, n: int) -> int:
    return sum(bits_of(word, n))


def test_kron_row_base():
    assert bits_of(row_bits(1, 1), 2) == (1, 0)
    assert bits_of(row_bits(1, 2), 2) == (1, 1)


def test_kron_row_examples():
    assert bits_of(row_bits(2, 3), 4) == (1, 0, 1, 0)
    assert bits_of(row_bits(3, 8), 8) == (1,) * 8


def test_kron_row_range_errors():
    for m, i in ((1, 0), (1, 3), (2, 5), (0, 1)):
        with pytest.raises(ValueError):
            row_bits(m, i)


@pytest.mark.parametrize("m,i,expected", [(7, 1, 1), (3, 4, 4), (1, 2, 2)])
def test_row_weight_examples(m, i, expected):
    assert row_weight(m, i) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_row_weight_matches_materialized_rows(m):
    # closed form vs popcount vs naive bit-by-bit count
    for i in range(1, (1 << m) + 1):
        row = row_bits(m, i)
        assert row.bit_count() == row_weight(m, i) == naive_weight(row, 1 << m)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_row_recursive_structure(m):
    # upper-half rows repeat the half-length row twice; lower-half pad with zeros
    half = 1 << (m - 1)
    for i in range(1, (1 << m) + 1):
        row = bits_of(row_bits(m, i), 2 * half)
        if i > half:
            r = bits_of(row_bits(m - 1, i - half), half)
            assert row == r + r
        else:
            r = bits_of(row_bits(m - 1, i), half)
            assert row == r + (0,) * half


def test_encode_all_zero():
    cfg = CodeConfig(2, (3, 4))
    t = identity_transform(cfg)
    assert bits_of(encode(0, t, 2), 4) == (0, 0, 0, 0)


def test_encode_identity_transform_is_row():
    cfg = CodeConfig(2, (3, 4))
    t = identity_transform(cfg)
    u = 0b0100  # position 3
    assert bits_of(encode(u, t, 2), 4) == (1, 0, 1, 0)


def test_encode_with_pretransform_entry():
    cfg = CodeConfig(2, (3, 4))
    t = transform_from_bits(cfg, 1)  # sets the single free entry, row 3 col 4
    u = 0b0100
    assert bits_of(encode(u, t, 2), 4) == (0, 1, 0, 1)


def test_encode_rejects_nonzero_frozen_bit():
    cfg = CodeConfig(2, (3, 4))
    t = identity_transform(cfg)
    with pytest.raises(ValueError):
        encode(0b0001, t, 2)


def test_encode_rejects_wide_input_and_wrong_transform_size():
    t = identity_transform(CodeConfig(2, (3, 4)))
    for u in (1 << 4, -1):
        with pytest.raises(ValueError, match="wider than 4 bits"):
            encode(u, t, 2)
    with pytest.raises(ValueError, match="transform size 4 != 8"):
        encode(0, t, 3)


def test_encode_unit_vectors_reproduce_rows():
    m = 4
    cfg = CodeConfig(m, tuple(range(1, 17)))
    t = identity_transform(cfg)
    for i in range(1, 17):
        assert encode(1 << (i - 1), t, m) == row_bits(m, i)


@given(
    st.integers(1, 10).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, (1 << (1 << m)) - 1))
    )
)
def test_polar_transform_is_an_involution(case):
    # F_N is its own inverse over GF(2): u = codeword * F_N; the butterfly
    # also equals the XOR of the rows that x selects, built by doubling
    m, x = case
    ref = 0
    for i in range(1, (1 << m) + 1):
        if x >> (i - 1) & 1:
            ref ^= row_bits(m, i)
    assert polar_transform(x, m) == ref
    assert polar_transform(polar_transform(x, m), m) == x

