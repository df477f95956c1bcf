import decimal
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polarspec.dyadic import DyadicRational, int_text


def test_normalization_lowest_terms():
    # 8/2^4 reduces to 1/2^1
    x = DyadicRational(8, 4)
    assert (x.num, x.exp) == (1, 1)


def test_zero_normalizes_to_0_0():
    assert (DyadicRational(0, 17).num, DyadicRational(0, 17).exp) == (0, 0)


def test_integers_keep_exp_zero():
    x = DyadicRational(272, 0)
    assert (x.num, x.exp) == (272, 0)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        DyadicRational(-1, 0)
    with pytest.raises(ValueError):
        DyadicRational(1, -2)


def test_numpy_integers_accepted_floats_rejected():
    assert DyadicRational(np.int64(4)) == DyadicRational(4)
    assert DyadicRational(np.uint8(6), np.int64(2)) == DyadicRational(3, 1)
    with pytest.raises(TypeError):
        DyadicRational(4.0)
    with pytest.raises(TypeError):
        DyadicRational(4, 1.0)


def test_ordering():
    assert DyadicRational(1, 1) < DyadicRational(3, 2) < DyadicRational(1, 0)


def test_equal_ints_hash_equal():
    assert DyadicRational(2) == 2 and hash(DyadicRational(2)) == hash(2)
    assert {2, DyadicRational(2)} == {2}
    assert len({0, DyadicRational(0, 9), DyadicRational(1 << 80)} | {1 << 80}) == 2
    assert {DyadicRational(1, 1): "half"}[DyadicRational(2, 2)] == "half"


def test_ordering_against_ints():
    one, half = DyadicRational(1), DyadicRational(1, 1)
    assert one < 2 and one <= 1 and one >= 1 and not one > 1
    assert 0 < half < 1 and 1 > half > 0 and -1 < half
    assert 2 > one and 1 >= one and not 1 < one
    assert max(3, DyadicRational(7, 1), 2) == DyadicRational(7, 1)
    assert sorted([2, DyadicRational(3, 1), 1, DyadicRational(0)]) == [0, 1, DyadicRational(3, 1), 2]


def test_ordering_against_other_types_is_not_implemented():
    with pytest.raises(TypeError):
        DyadicRational(1) < 1.5
    with pytest.raises(TypeError):
        DyadicRational(1) >= "1"
    with pytest.raises(TypeError):
        None > DyadicRational(1)


@given(st.integers(0, 1 << 40), st.integers(0, 40), st.integers(-(1 << 41), 1 << 41))
def test_int_comparisons_match_fractions(num, exp, other):
    x, f = DyadicRational(num, exp), Fraction(num, 1 << exp)
    assert (x < other, x <= other, x > other, x >= other, x == other) == (
        f < other, f <= other, f > other, f >= other, f == other)
    assert (other < x, other <= x, other > x, other >= x) == (other < f, other <= f, other > f, other >= f)
    if x == other:
        assert hash(x) == hash(other)


@given(st.integers(1, 1 << 64), st.integers(0, 5000), st.integers(0, 5000))
@example(3, 0, 1075)  # 1.5 times the smallest subnormal: a tie, rounded to even
@example(1 + (1 << 64), 1960, 1000)  # 2^1024 after rounding: overflows
def test_float_matches_a_fraction_reference(mantissa, shift, exp):
    # exponents past 1024, where 2^exp itself is no float, and values
    # past the float range, which raise OverflowError on both routes
    x = DyadicRational(mantissa << shift, exp)
    try:
        expect = float(x.to_fraction())
    except OverflowError:
        with pytest.raises(OverflowError):
            float(x)
    else:
        assert float(x) == expect


def test_no_arithmetic():
    # sums and products of exact values go through to_fraction()
    for name in ("__add__", "__mul__", "__rmul__", "shifted", "from_fraction", "is_zero", "is_integer"):
        assert not hasattr(DyadicRational, name)
    with pytest.raises(TypeError):
        DyadicRational(1, 1) + DyadicRational(1, 2)
    with pytest.raises(TypeError):
        2 * DyadicRational(3, 1)


def test_bool_and_is_zero():
    assert not DyadicRational(0)
    assert DyadicRational(1, 5)


class TestDecimalRendering:
    def test_exact_value(self):
        assert DyadicRational(88541, 5).decimal(5) == "2766.90625"

    def test_padding(self):
        assert DyadicRational(787, 1).decimal(3) == "393.500"
        assert DyadicRational(272, 0).decimal(2) == "272.00"

    def test_zero_digits(self):
        assert DyadicRational(787, 1).decimal(0) == "394"  # ties away? no: 393.5 -> even 394
        assert DyadicRational(785, 1).decimal(0) == "392"  # 392.5 rounds to even 392

    def test_round_half_to_even(self):
        assert DyadicRational(1, 3).decimal(1) == "0.1"   # 0.125 -> 0.1 (tie, 2 even)
        assert DyadicRational(3, 3).decimal(1) == "0.4"   # 0.375 -> 0.4 (tie, 4 even)
        assert DyadicRational(1, 1).decimal(0) == "0"     # 0.5 -> 0
        assert DyadicRational(3, 1).decimal(0) == "2"     # 1.5 -> 2

    def test_small_values_pad_leading_zeros(self):
        assert DyadicRational(1, 10).decimal(6) == "0.000977"


@given(st.integers(0, 1 << 70), st.integers(0, 80))
def test_normalized_invariant(num, exp):
    x = DyadicRational(num, exp)
    assert x.num == 0 and x.exp == 0 or x.exp == 0 or x.num % 2 == 1
    assert x.to_fraction() == Fraction(num, 1 << exp)


@given(st.integers(0, 1 << 40), st.integers(0, 40), st.integers(0, 6))
def test_decimal_matches_fraction_rounding(num, exp, digits):
    x = DyadicRational(num, exp)
    rendered = x.decimal(digits)
    scaled = Fraction(rendered) * 10**digits if digits else Fraction(rendered)
    exact = x.to_fraction() * 10**digits
    # round-half-to-even: rendered value is the nearest integer multiple
    assert abs(scaled - exact) <= Fraction(1, 2)


@st.composite
def _decimal_cases(draw):
    # exp = digits + 1 makes value * 10^digits end in exactly one half
    digits = draw(st.integers(0, 8))
    exp = draw(st.integers(0, 60) | st.just(digits + 1))
    return draw(st.integers(0, 1 << 64)), exp, digits


@given(_decimal_cases())
def test_decimal_matches_a_fraction_reference(case):
    num, exp, digits = case
    # round() on a Fraction rounds half to even
    q = round(Fraction(num, 1 << exp) * 10**digits)
    text = str(q).rjust(digits + 1, "0")
    expected = f"{text[:-digits]}.{text[-digits:]}" if digits else text
    assert DyadicRational(num, exp).decimal(digits) == expected


@pytest.mark.parametrize("bits", [64, 14_000, 14_300, 20_000, 100_000])
def test_int_text_has_no_digit_limit(bits):
    # decimal.Decimal converts ints without the limit str() enforces; the
    # process-wide limit is read, never set
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    before = limit()
    for x in (1 << bits, (1 << bits) - 1, 10 ** (bits // 4), 10 ** (bits // 4) - 1, 3 ** (bits // 2)):
        assert int_text(x) == str(decimal.Decimal(x))
    assert limit() == before


def test_huge_values_render():
    # decimal() past the limit is checked through the reports
    n = 2 * 3**10000 + 1  # 4772 digits
    digits = str(decimal.Decimal(n))
    assert str(DyadicRational(n, 7)) == f"{digits}/2^7"
    assert repr(DyadicRational(n, 7)) == f"DyadicRational({digits}, 7)"
