"""Information-set construction: Reed-Muller style, polarization weight, files."""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
    """A code of length N = 2^m with a sorted 1-based information set."""

    m: int
    info_set: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        info = tuple(self.info_set)
        if not info:
            raise ValueError("information set is empty")
        if any(info[t] >= info[t + 1] for t in range(len(info) - 1)):
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


def _pw_vector(m: int, i: int) -> tuple[int, int, int, int]:
    """Integer coordinates of the polarization weight of channel i.

    The score is sum over set bits j of (i-1) of 2^(j/4). Grouping bits by
    j mod 4 writes it as c0 + c1*b + c2*b^2 + c3*b^3 with b = 2^(1/4) and
    integer c's, which allows exact comparison.
    """
    c = [0, 0, 0, 0]
    for j in range(m):
        if (i - 1) >> j & 1:
            c[j & 3] += 1 << (j >> 2)
    return tuple(c)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_root2(a: int, c: int) -> int:
    """Sign of a + c*sqrt(2). Where a and c differ in sign, a - c*sqrt(2)
    has the sign of a, and the product of the two is a^2 - 2c^2."""
    if a * c >= 0:
        return _sign(a + c)
    return _sign(a) * _sign(a * a - 2 * c * c)


def _pw_cmp(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Exact three-way comparison of two polarization-weight scores.

    The coordinate difference x = d0 + d1*r + d2*r^2 + d3*r^3, r = 2^(1/4),
    is p + q*r with p = d0 + d2*sqrt(2) and q = d1 + d3*sqrt(2). Where p and
    q differ in sign, x has the sign of p times that of
    (p + q*r)(p - q*r) = p^2 - q^2*sqrt(2), again of the form u + v*sqrt(2).
    Distinct coordinates always separate: 1, r, r^2, r^3 are linearly
    independent over the rationals, so only identical vectors tie.
    """
    d0, d1, d2, d3 = (x - y for x, y in zip(a, b))
    sp, sq = _sign_root2(d0, d2), _sign_root2(d1, d3)
    if sp * sq >= 0:
        return sp or sq
    return sp * _sign_root2(d0 * d0 + 2 * d2 * d2 - 4 * d1 * d3,
                            2 * d0 * d2 - d1 * d1 - 2 * d3 * d3)


@functools.cache
def _pw_rank(m: int) -> tuple[int, ...]:
    """All channel indices 1..2^m, most reliable (largest PW score) first.

    Computed once per m: every construction of length 2^m reads it.
    """
    vectors = {i: _pw_vector(m, i) for i in range(1, (1 << m) + 1)}

    def cmp(i: int, j: int) -> int:
        c = _pw_cmp(vectors[i], vectors[j])
        return c if c else (i > j) - (i < j)

    return tuple(sorted(vectors, key=functools.cmp_to_key(cmp), reverse=True))


def construct_pw(n: int, k: int) -> CodeConfig:
    """Top-k channels by polarization weight with base 2^(1/4).

    Scores are compared exactly, so the resulting set is identical on
    every platform. Equal scores cannot occur for distinct indices; the
    larger index would win such a tie.
    """
    m = _m_of(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    return CodeConfig(m, tuple(sorted(_pw_rank(m)[:k])))


def construct_rm(n: int, k: int) -> CodeConfig:
    """Top-k channels by row weight of the polar transform.

    When k cuts through a weight class, the class boundary is resolved by
    descending polarization weight (the sort is stable over the PW order).
    """
    m = _m_of(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    # row weight is 2^popcount(i-1), so popcount orders the rows alike
    order = sorted(_pw_rank(m), key=lambda i: -(i - 1).bit_count())
    return CodeConfig(m, tuple(sorted(order[:k])))


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
