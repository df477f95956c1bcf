"""Exact dyadic rationals: non-negative values of the form num / 2^exp.

Every probability and expected count produced by the recursion engine is
dyadic. Exact results travel as integer numerators over one power of two
(AverageSpectrum.nums over 2^exp, WeightHistogram.counts over samples).
lowest_terms reduces one such pair, and int_text and decimal_text render
it as text; reports call them directly. int_text is str() except past
CPython's digit limit, and decimal_text rounds half to even from the bit
below the last one kept (the half bit) and a test of the bits under it.
DyadicRational holds one value in lowest terms, for reading a single
entry. It carries no arithmetic and no ordering: work on the integers, or
take to_fraction().
"""

from __future__ import annotations

import operator
from fractions import Fraction

__all__ = ["DyadicRational"]


def int_text(x: int) -> str:
    """str(x) for an int x >= 0 of any size.

    CPython's str() raises ValueError past sys.get_int_max_str_digits()
    digits (4300 by default); only then is x split by powers 10^(2^k)
    into pieces that str() takes, and the process-wide limit is left as
    it is.
    """
    try:
        return str(x)
    except ValueError:
        pass
    # x has at most bound + 1 digits, as 0.30103 > log10(2); the low piece
    # takes a quarter to a half of them
    width = 1 << ((x.bit_length() * 30103 // 100000).bit_length() - 2)
    hi, lo = divmod(x, 10**width)
    return int_text(hi) + int_text(lo).rjust(width, "0")


def lowest_terms(num: int, exp: int) -> tuple[int, int]:
    """(num, exp) of num / 2^exp, for ints num >= 0 and exp >= 0, in lowest
    terms: num is odd whenever exp > 0, and zero is (0, 0)."""
    shift = min(exp, (num & -num).bit_length() - 1) if num else exp
    return num >> shift, exp - shift


def decimal_text(num: int, exp: int, digits: int) -> str:
    """num / 2^exp, for ints num >= 0 and exp >= 0, as an exact decimal
    string with ``digits`` fractional digits.

    Rounds half to even; digits=0 yields a plain integer string. The
    value, not its terms, decides the text, so num / 2^exp need not be
    in lowest terms.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scaled = num * 10**digits
    q = scaled >> exp
    # past half (the half bit and a sticky bit under it) rounds up, and a tie to even
    if exp and scaled >> (exp - 1) & 1 and (q & 1 or scaled & ((1 << (exp - 1)) - 1)):
        q += 1
    if digits == 0:
        return int_text(q)
    text = int_text(q).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


class DyadicRational:
    """num / 2^exp with num >= 0 and exp >= 0, kept in lowest terms.

    Lowest terms means num is odd whenever exp > 0; zero is stored as
    (0, 0). A value tests equal and hashes exactly, against ints as well
    (so spec[8] == 272 holds), and renders as an exact decimal with
    round-half-to-even. It has no ordering, so < raises TypeError, and no
    arithmetic: compare or add numerators over one power of two, or take
    to_fraction().
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        # any integer type, numpy's included; a float raises TypeError
        num, exp = operator.index(num), operator.index(exp)
        if num < 0:
            raise ValueError("negative numerator")
        if exp < 0:
            raise ValueError("negative exponent")
        num, exp = lowest_terms(num, exp)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicRational is immutable")

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.exp == 0 and self.num == other
        if not isinstance(other, DyadicRational):
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        # an integer value hashes as the int it equals
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __float__(self) -> float:
        # int true division rounds correctly at any size
        return self.num / (1 << self.exp)

    def decimal(self, digits: int = 6) -> str:
        """Exact decimal string with ``digits`` fractional digits.

        Rounds half to even; digits=0 yields a plain integer string.
        """
        return decimal_text(self.num, self.exp, digits)

    def __repr__(self):
        return f"DyadicRational({int_text(self.num)}, {self.exp})"

    def __str__(self):
        num = int_text(self.num)
        return num if self.exp == 0 else f"{num}/2^{self.exp}"
