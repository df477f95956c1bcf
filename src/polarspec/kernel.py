"""Bit-level algebra of the binary polar transform.

Every bit vector is a packed Python int: bit j-1 of the word is vector
position j (1-based positions throughout). Rows of F_N, inputs u and
codewords u * T * F_N all take this form; weights come from
``int.bit_count``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .construct import CodeConfig
    from .pretransform import PreTransform

__all__ = ["row_bits", "row_weight", "encode"]


def _check_index(m: int, i: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 1 <= i <= (1 << m):
        raise ValueError(f"row index {i} outside [1, {1 << m}]")


def _check_transform(transform: "PreTransform", n: int) -> None:
    if transform.n != n:
        raise ValueError(f"transform size {transform.n} != {n}")


def _check_code_transform(config: "CodeConfig", transform: "PreTransform") -> None:
    # a missing row would read as the identity and a stray one be ignored,
    # so a transform built for another information set must not pass
    _check_transform(transform, config.n)
    stray = set(transform.rows) ^ set(config.info_set)
    if stray:
        i = min(stray)
        what = "a row for frozen" if i in transform.rows else "no row for information"
        raise ValueError(f"transform has {what} index {i}")


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


def row_weight(m: int, i: int) -> int:
    """Hamming weight of row_bits(m, i); equals 2^popcount(i-1)."""
    _check_index(m, i)
    return 1 << (i - 1).bit_count()


@functools.cache
def _stage_masks(m: int) -> tuple[int, ...]:
    # stage s keeps the positions whose 0-based index has bit s clear:
    # runs of 2^s ones every 2^(s+1) bits, N bits in all. ones // (2^P - 1)
    # sets the lowest bit of every P-bit period.
    ones = (1 << (1 << m)) - 1
    return tuple(ones // ((1 << (2 << s)) - 1) * ((1 << (1 << s)) - 1) for s in range(m))


def polar_transform(bits: int, m: int) -> int:
    """bits * F_N for a packed row vector, N = 2^m.

    Row i of F_N covers the positions j whose j-1 is a bitwise subset of
    i-1, so output bit j is the XOR of the input bits at every such i:
    one butterfly stage per index bit. F_N is its own inverse over GF(2),
    so applying this twice returns ``bits``, which must be below 2^N.
    """
    for s, mask in enumerate(_stage_masks(m)):
        bits ^= (bits >> (1 << s)) & mask
    return bits


def encode(u: int, transform: "PreTransform", m: int) -> int:
    """Codeword u * T * F_N over GF(2), packed.

    ``u`` must be zero outside the information set the transform was
    built for.
    """
    n = 1 << m
    if u < 0 or u >> n:
        raise ValueError(f"input wider than {n} bits")
    _check_transform(transform, n)
    v = 0  # u * T
    rest = u
    while rest:
        i = (rest & -rest).bit_length()  # lowest set 1-based position
        rest &= rest - 1
        if i not in transform.rows:
            raise ValueError(f"nonzero bit at frozen position {i}")
        v ^= transform.full_row(i)
    return polar_transform(v, m)
