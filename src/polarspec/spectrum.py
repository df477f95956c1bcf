"""Exact weight-spectrum recursion for pre-transformed polar cosets.

Coset i of length 2h has weight enumerator S(x^2), S that of coset i - h
of length h, when i > h, and (1 + x^2)^h S(2x / (1 + x^2)), S that of
coset i of length h, when i <= h. Both maps are linear, so the recursion
carries one weighted sum of enumerators per branch: an ensemble average
sums its information rows, a single coset has one unit weight.

Two facts halve the work. Every coset i < n holds the complement of each
member, so its counts are symmetric and each node computes degrees up to
n/2 only; coset n is the all-ones word alone. Every coset has one weight
parity, odd for i = 1 and even otherwise, so the low map runs on each
parity of S apart, over every other degree.

A truncated sum skips what cannot reach d_max. A coset's lightest member
is its row, of weight 2^popcount(i - 1), so rows heavier than d_max are
dropped once, at entry; descending keeps every row within its branch's
d_max, and only branches holding a row reach the maps. Rows keep their
indices: a branch is a contiguous range of the ascending rows, split at
its midpoint by bisection. Branches of length 2^TABLE_LEVEL = 64 and
below are leaves: they read their cosets' full enumerators from a table,
built once per process with the same two maps (~3 ms at level 6, ~25 ms
at level 7, a cost every one-shot CLI run pays) and stored by column,
so a leaf sums each weight's column over its rows in one call.

A row's weight 2^e travels as its exponent e, down to the leaf that adds
the row and shifts its table entries by e, so no list of weights is
held: the 92,378 rows RM(2^20, 2^19) keeps at d_max = 1024 have weights
of 4.6 GiB in all.

Everything here is integer arithmetic; no floats are involved,
so results are reproducible bit-for-bit at any block length.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter, lshift

from .construct import CodeConfig, min_row_weight
from .dyadic import DyadicRational
from .kernel import _check_index, row_weight

__all__ = [
    "AverageSpectrum",
    "coset_spectrum",
    "p_exact",
    "p_min",
    "avg_spectrum",
    "avg_nmin",
    "verify_average",
]

TABLE_LEVEL = 6  # branches of length <= 2^TABLE_LEVEL sum table columns


@dataclass(frozen=True, slots=True)
class AverageSpectrum:
    """Ensemble-average codeword counts E[N_d] for d = 1..d_max, exactly.

    nums[d - 1] is the integer E[N_d] * 2^exp; the recursion gives every
    numerator over exp = N - K. spec[d] renders one entry as a
    DyadicRational in lowest terms, for d = 1..d_max only.
    """

    config: CodeConfig
    exp: int
    nums: tuple[int, ...]

    def __getitem__(self, d: int) -> DyadicRational:
        if not 1 <= d <= len(self.nums):
            raise KeyError(d)
        return DyadicRational(self.nums[d - 1], self.exp)

    @property
    def d_max(self) -> int:
        return len(self.nums)

    @property
    def entries(self) -> dict[int, DyadicRational]:
        """A fresh {d: spec[d]} for d = 1..d_max; writing to it changes nothing."""
        # stays until the benchmark harness reads reports instead (ROADMAP item 1)
        return {d: self[d] for d in range(1, self.d_max + 1)}


def _add_low_map(out: list[int], a: list[int], half: int) -> None:
    """out += (1 + x^2)^half * A(2x / (1 + x^2)), truncated to len(out).

    a_k lands on degrees k, k + 2, ..., so each parity of A maps on its
    own, over the stride-2 slice of its degrees. Per parity, Horner's rule
    steps k by 2, r <- r (1 + x^2)^2 + a_k (2x)^k, adds only, from the
    first to the last nonzero a_k; then r (1 + x^2)^(half - last).
    """
    d_max = len(out) - 1
    for parity in (0, 1):
        c = a[parity::2]  # c[j] is a_(parity + 2j)
        nonzero = [j for j, x in enumerate(c) if x]
        if not nonzero:
            continue
        j0, steps = nonzero[0], nonzero[-1] - nonzero[0]
        first = parity + 2 * j0
        size = ((d_max - first) >> 1) + 1
        r = [0] * size  # r[s] is the coefficient of x^(first + 2s)
        r[0] = c[j0] << first
        for s in range(1, steps + 1):  # k = first + 2s
            top = min(2 * s, size - 1) + 1  # r has no weight above x^(2k - first)
            r[1:top] = [x + y for x, y in zip(r[1:top], r)]  # (1 + x^2), twice
            r[1:top] = [x + y for x, y in zip(r[1:top], r)]
            r[s] += c[j0 + s] << (first + 2 * s)
        n = half - first - 2 * steps
        binom = [math.comb(n, t) for t in range(min(n, size - 1) + 1)]
        for s, x in enumerate(r):
            if x:
                d = first + 2 * s
                seg = slice(d, d + 2 * min(len(binom), size - s) - 1, 2)
                out[seg] = [o + x * b for o, b in zip(out[seg], binom)]


@functools.cache
def _coset_table(level: int) -> tuple[tuple[int, ...], ...]:
    """Full enumerators of the cosets at length n = 2^level, by column:
    entry [d][i - 1] counts the weight-d members of coset i. Built from
    the level below with the recursion's two maps."""
    if level == 0:
        return ((0,), (1,))  # the single coset {1}
    half = 1 << (level - 1)
    low, high = [], []
    for s in zip(*_coset_table(level - 1)):
        out = [0] * (2 * half + 1)
        _add_low_map(out, list(s), half)
        low.append(out)
        out = [0] * (2 * half + 1)
        out[::2] = s
        high.append(out)
    return tuple(zip(*low, *high))


def _weighted_sum(level: int, rows: list[tuple[int, int]], d_max: int) -> list[int]:
    """Coefficients 0..d_max of the sum of 2^e * S_i over (i, e) in rows.

    S_i is the weight enumerator of coset i at length 2^level; rows ascend
    by index. Coset i has no member lighter than row i, so rows heavier
    than d_max add nothing and are dropped here, once. The rest pass down
    as (i, e) pairs, and the table leaves shift their entries by e.
    """
    light = [(i, e) for i, e in rows if 1 << (i - 1).bit_count() <= d_max]
    return _branch_sum(level, 0, light, d_max)


def _branch_sum(level: int, base: int, rows: list[tuple[int, int]], d_max: int) -> list[int]:
    """_weighted_sum over the branch of length n = 2^level that holds rows
    base + 1..base + n, with row i standing for coset i - base.

    Every row is at most d_max heavy within the branch: the high half
    halves both its rows' weights and d_max, the low half keeps both, and
    the mirror drops row n, the one row heavier than n/2. Rows keep their
    exponents all the way down. At TABLE_LEVEL and below the branch is a
    leaf: entry d of the sum is column d of the table, read at the rows'
    cosets and shifted by their exponents, summed in one call. Above it,
    cosets i < n hold the complement of each member and coset n is the
    all-ones word alone, so above n/2 the sum is the mirror of degrees
    0..n/2 plus 2^e at x^n for row n. Up to n/2, each half's rows are
    summed in one call a level down and mapped once: O(N^2) coefficient
    operations for a full spectrum, and a truncated one visits only
    branches holding a row.
    """
    if level <= TABLE_LEVEL:
        if not rows:
            return [0] * (d_max + 1)
        cols = _coset_table(level)[: d_max + 1]
        if len(rows) == 1:  # itemgetter of one index returns the item, not a tuple
            (i, e), = rows
            return [col[i - base - 1] << e for col in cols]
        get = itemgetter(*(i - base - 1 for i, _ in rows))
        es = [e for _, e in rows]
        return [sum(map(lshift, get(col), es)) for col in cols]
    n, half = 1 << level, 1 << (level - 1)
    if d_max > half:
        top = bisect_left(rows, base + n, key=itemgetter(0))  # rows[top] is row n if present
        out = _branch_sum(level, base, rows[:top], half)
        out += out[n - d_max : half][::-1]  # out[d] = out[n - d] for half < d <= d_max
        if d_max == n:
            out[n] = 1 << rows[top][1] if top < len(rows) else 0
        return out
    out = [0] * (d_max + 1)
    mid = bisect_right(rows, base + half, key=itemgetter(0))
    if mid < len(rows):
        out[::2] = _branch_sum(level - 1, base + half, rows[mid:], d_max >> 1)
    if mid:
        _add_low_map(out, _branch_sum(level - 1, base, rows[:mid], d_max), half)
    return out


def coset_spectrum(m: int, i: int, d_max: int | None = None) -> tuple[int, ...]:
    """Exact weight counts of coset i at length 2^m, up to weight d_max.

    The coset is f^(i) + span(f^(i+1), ..., f^(N)); entry d of the tuple
    is the number of its 2^(N-i) members of weight d, for d = 0..d_max.
    """
    _check_index(m, i)
    n = 1 << m
    if d_max is None:
        d_max = n
    if not 0 <= d_max <= n:
        raise ValueError(f"d_max {d_max} outside [0, {n}]")
    return tuple(_weighted_sum(m, [(i, 0)], d_max))


def p_exact(m: int, i: int, d: int) -> DyadicRational:
    """Probability that coset i at length 2^m draws a weight-d vector."""
    return DyadicRational(coset_spectrum(m, i, d)[d], (1 << m) - i)


def p_min(m: int, i: int) -> DyadicRational:
    """Probability that coset i attains the minimum possible weight.

    Always a power of two: descending the recursion, each low-half step
    multiplies by 2^w / 2^(half). Kept as a separate code path from the
    full spectrum so the two can cross-check each other.
    """
    _check_index(m, i)
    e, idx = 0, i
    for level in range(m, 1, -1):
        half = 1 << (level - 1)
        if idx > half:
            idx -= half
        else:
            e += half - (1 << (idx - 1).bit_count())
    return DyadicRational(1, e)


def avg_spectrum(config: CodeConfig, d_max: int | None = None) -> AverageSpectrum:
    """Ensemble-average number of weight-d codewords, exactly.

    Averages over all upper-triangular pre-transforms with unconstrained
    entries drawn uniformly: row j of the information set (ascending)
    contributes 2^(K-j) times its coset probability, the coset's counts
    over 2^(N-i). Times 2^(N-K) that is the integer 2^(i-j), so a single
    weighted recursion yields every numerator over 2^(N-K), and the
    result keeps them so.
    """
    m, n, k = config.m, config.n, config.k
    if d_max is None:
        d_max = n
    if not 1 <= d_max <= n:
        raise ValueError(f"d_max {d_max} outside [1, {n}]")
    rows = [(i, i - j) for j, i in enumerate(config.info_set, start=1)]
    return AverageSpectrum(config, n - k, tuple(_weighted_sum(m, rows, d_max)[1:]))


def avg_nmin(config: CodeConfig) -> tuple[int, DyadicRational]:
    """Minimum codeword weight and its ensemble-average multiplicity.

    Only information rows whose transform row weight equals the minimum
    can produce minimum-weight codewords: row j (ascending) of those does
    so with probability p_min, a power of two, times its 2^(K-j)
    messages. Each term is 2^t, so the sum is one integer over the
    lowest power of two, as in verify_average.
    """
    m, k, d_min = config.m, config.k, min_row_weight(config)
    t = [k - j - p_min(m, i).exp
         for j, i in enumerate(config.info_set, start=1) if row_weight(m, i) == d_min]
    low = min(t)
    return d_min, DyadicRational(sum(1 << (x - low) for x in t) << max(low, 0), max(-low, 0))


def verify_average(spec: AverageSpectrum) -> list[str]:
    """Invariant violations of a full spectrum (d_max = N); empty if none.

    Checks total mass 2^K - 1, no mass below the minimum row weight, and
    no mass at odd weights when row 1 is frozen.
    """
    config, nums, n = spec.config, spec.nums, spec.config.n
    if spec.d_max != n:
        raise ValueError(f"verify_average needs the full spectrum, d_max {spec.d_max} < {n}")
    total, expected = sum(nums), (1 << config.k) - 1
    problems = [] if total == expected << spec.exp else [
        f"total mass {DyadicRational(total, spec.exp)} != 2^K - 1 = {expected}"]
    problems += [f"nonzero mass {spec[d]} below minimum weight at d={d}"
                 for d in range(1, min_row_weight(config)) if nums[d - 1]]
    odd = range(1, n + 1, 2) if 1 not in config.info_set else ()
    problems += [f"odd-weight mass {spec[d]} at d={d} without row 1"
                 for d in odd if nums[d - 1]]
    return problems
