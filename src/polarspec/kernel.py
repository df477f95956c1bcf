"""Bit-level algebra of the binary polar transform.

Rows and codewords are bit-packed into Python ints: bit j-1 of the word is
vector position j (1-based positions throughout). Weights come from
``int.bit_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .pretransform import PreTransform

__all__ = ["BitRow", "kron_row", "row_weight", "encode"]


@dataclass(frozen=True, slots=True)
class BitRow:
    """A fixed-length binary row vector, packed LSB-first into an int."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError(f"length {self.n} is not a power of two")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bit pattern wider than declared length")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitRow":
        word = 0
        for pos, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"non-binary entry {b!r} at position {pos + 1}")
            word |= b << pos
        return cls(word, len(bits))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, pos: int) -> int:
        """Bit at 1-based position ``pos``."""
        if not 1 <= pos <= self.n:
            raise IndexError(f"position {pos} outside [1, {self.n}]")
        return (self.bits >> (pos - 1)) & 1

    def __xor__(self, other: "BitRow") -> "BitRow":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitRow(self.bits ^ other.bits, self.n)

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> p) & 1 for p in range(self.n))

    def __iter__(self):
        return iter(self.to_tuple())

    def __len__(self) -> int:
        return self.n


def _check_index(m: int, i: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= i <= (1 << m):
        raise ValueError(f"row index {i} outside [1, {1 << m}]")


def row_bits(m: int, i: int) -> int:
    """Packed i-th row of the m-fold Kronecker power of [[1,0],[1,1]].

    Built by doubling: bit j of i-1 set appends a copy of the current row
    ([r, r]), clear pads with zeros ([r, 0]).
    """
    _check_index(m, i)
    r = 1
    for level in range(m):
        if (i - 1) >> level & 1:
            r |= r << (1 << level)
    return r


def kron_row(m: int, i: int) -> BitRow:
    """The i-th row of the N x N polar transform, N = 2^m."""
    return BitRow(row_bits(m, i), 1 << m)


def row_weight(m: int, i: int) -> int:
    """Hamming weight of kron_row(m, i); equals 2^popcount(i-1)."""
    _check_index(m, i)
    return 1 << (i - 1).bit_count()


def polar_transform(bits: int, m: int) -> int:
    """XOR of the rows of F_N that the packed ``bits`` select: bits * F_N.

    F_N is its own inverse over GF(2), so applying this twice returns
    ``bits``.
    """
    x = 0
    while bits:
        low = bits & -bits
        x ^= row_bits(m, low.bit_length())
        bits ^= low
    return x


def encode(u: Sequence[int] | BitRow, transform: "PreTransform", m: int) -> BitRow:
    """Encode u through the pre-transform and the polar transform.

    ``u`` must be zero outside the information set the transform was built
    for. Returns the codeword u * T * F_N over GF(2).
    """
    n = 1 << m
    if isinstance(u, BitRow):
        if u.n != n:
            raise ValueError(f"input length {u.n} != {n}")
        word = u.bits
    else:
        if len(u) != n:
            raise ValueError(f"input length {len(u)} != {n}")
        word = BitRow.from_bits(u).bits
    if transform.n != n:
        raise ValueError(f"transform size {transform.n} != {n}")

    v = 0  # u * T, packed
    rest = word
    while rest:
        i = (rest & -rest).bit_length()  # lowest set 1-based position
        rest &= rest - 1
        mask = transform.rows.get(i)
        if mask is None:
            raise ValueError(f"nonzero bit at frozen position {i}")
        v ^= (1 << (i - 1)) | mask
    return BitRow(polar_transform(v, m), n)
