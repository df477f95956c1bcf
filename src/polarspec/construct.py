"""Information-set construction: Reed-Muller style, polarization weight, files."""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from operator import index, lt
from pathlib import Path

from .kernel import row_weight

__all__ = [
    "CodeConfig",
    "construct_rm",
    "construct_pw",
    "load_info_set",
    "min_row_weight",
]


@dataclass(frozen=True, slots=True)
class CodeConfig:
    """A code of length N = 2^m with a sorted 1-based information set.

    Construction stores m and the indices as Python ints (operator.index:
    numpy integers too, floats refused), never the caller's sequence, and
    checks them. construct_pw and construct_rm alone pass _ranked=True:
    their sets are sorted plain ints taken from a ranking of 1..2^m, so
    the checks are skipped.
    """

    m: int
    info_set: tuple[int, ...]
    _ranked: InitVar[bool] = False

    def __post_init__(self, _ranked: bool):
        if _ranked:
            return
        object.__setattr__(self, "m", index(self.m))
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        info = tuple(map(index, self.info_set))
        if not info:
            raise ValueError("information set is empty")
        if not all(map(lt, info, info[1:])):
            raise ValueError("information set must be strictly increasing")
        if info[0] < 1 or info[-1] > self.n:
            raise ValueError(f"information set indices outside [1, {self.n}]")
        object.__setattr__(self, "info_set", info)

    @property
    def n(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return len(self.info_set)

    @property
    def frozen_set(self) -> tuple[int, ...]:
        info = set(self.info_set)
        return tuple(i for i in range(1, self.n + 1) if i not in info)


def _m_of(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ValueError(f"code length {n} is not a power of two >= 2")
    return n.bit_length() - 1


@functools.cache
def _pw_rank(m: int) -> tuple[int, ...]:
    """All channel indices 1..2^m, most reliable (largest PW score) first.

    The score of channel i is the sum of b^j, b = 2^(1/4), over the set
    bits j of i - 1. It is ranked by the integer key that sums
    floor(b^j * 2^p) instead, with p = 2m + 8, and the keys order the
    scores exactly:

    - A key is 2^p times its score less an error in [0, m): one floor per
      set bit.
    - Let S = sum of b^j over j < m, the largest score; S < 2^(m/4 + 2.5).
      Two distinct scores differ by x = sum of c_j b^j, c_j in {-1, 0, 1},
      not all zero. x lies in Z[b], and x^4 - 2 is irreducible, so its
      field norm, x times its three other conjugates, is a nonzero
      integer. The conjugates replace b by -b and by +-i*b, so each is at
      most the sum of b^j over j < m, S, in size. Hence |x| >= S^-3.
    - m * S^3 < m * 2^(3m/4 + 7.5) <= 2^(2m + 8) = 2^p, so 2^p * |x| > m
      outweighs the two errors: two keys differ with the sign of their
      scores' difference, and distinct channels never tie.

    Computed once per m: every construction of length 2^m reads it.
    """
    p = 2 * m + 8
    keys = [0]  # keys[i - 1] is the key of channel i
    for j in range(m):
        term = math.isqrt(math.isqrt(1 << (j + 4 * p)))  # floor(2^(j/4 + p))
        keys += [key + term for key in keys]
    return tuple(sorted(range(1, (1 << m) + 1), key=lambda i: keys[i - 1], reverse=True))


@functools.cache
def _rm_rank(m: int) -> tuple[int, ...]:
    """All channel indices 1..2^m, heaviest row first, a weight class in
    descending PW order: the stable sort of _pw_rank(m) by row weight.

    Row weight is 2^popcount(i - 1), so popcount orders the rows alike.
    Computed once per m, as _pw_rank is.
    """
    return tuple(sorted(_pw_rank(m), key=lambda i: -(i - 1).bit_count()))


def construct_pw(n: int, k: int) -> CodeConfig:
    """Top-k channels by polarization weight with base 2^(1/4).

    Scores are ranked by an exact integer key, so the resulting set is
    identical on every platform.
    """
    m = _m_of(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    return CodeConfig(m, tuple(sorted(_pw_rank(m)[:k])), _ranked=True)


def construct_rm(n: int, k: int) -> CodeConfig:
    """Top-k channels by row weight of the polar transform.

    When k cuts through a weight class, the class boundary is resolved by
    descending polarization weight (the sort is stable over the PW order).
    """
    m = _m_of(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    return CodeConfig(m, tuple(sorted(_rm_rank(m)[:k])), _ranked=True)


def load_info_set(path: str | Path, n: int) -> CodeConfig:
    """Read an information set from a text file, one 1-based index per line.

    Blank lines and lines starting with '#' are ignored. Indices must be
    unique and within [1, n]; they need not be sorted in the file.
    """
    m = _m_of(n)
    indices: list[int] = []
    seen: set[int] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                idx = int(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
            if not 1 <= idx <= n:
                raise ValueError(f"{path}:{lineno}: index {idx} outside [1, {n}]")
            if idx in seen:
                raise ValueError(f"{path}:{lineno}: duplicate index {idx}")
            seen.add(idx)
            indices.append(idx)
    if not indices:
        raise ValueError(f"{path}: no indices found")
    return CodeConfig(m, tuple(sorted(indices)))


def min_row_weight(config: CodeConfig) -> int:
    """Minimum polar-transform row weight over the information set."""
    return min(row_weight(config.m, i) for i in config.info_set)
