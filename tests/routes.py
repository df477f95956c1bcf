"""Every route to a weight spectrum as one table, and the one comparison.

A route's result is a Values: integer numerators over one power of two,
nums[t] / 2^exp being the value at weight lo + t, and sat the weight
from which the values are only lower bounds. Per-transform routes count
the codewords of one code C_T; ensemble routes give the average over
every upper-triangular T. Each route admits the codes of its documented
test domain, chosen so that one run stays within milliseconds.

Coset routes cover weights d >= 1 only: the coset of a single
information row i, counted over its 2^(N-i) members, is the single-row
ensemble average at every d >= 1, but a coset holds no zero word while
the ensemble counts it. The collector, likewise, leaves out the zero
word; its helper checks that it counted none, and that a full list of
2^K paths flags no weight.

The references no library call shares live here and nowhere else: the
message sweep through kernel.encode (naive), the rebuild of every one of
the 2^F transforms (literal), and the member-by-member coset enumeration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import add
from typing import Callable, NamedTuple

import numpy as np
from hypothesis import strategies as st

from polarspec.construct import CodeConfig, construct_pw, construct_rm
from polarspec.kernel import encode, row_bits
from polarspec.oracle import ensemble_average_exact, exact_spectrum, generator_rows
from polarspec.pretransform import (PreTransform, crc_transform, free_entry_count, identity_transform,
                                    pac_transform, random_transform, transform_from_bits)
from polarspec.scl import collect_low_weight
from polarspec.spectrum import avg_nmin, avg_spectrum, coset_spectrum


class Values(NamedTuple):
    nums: tuple  # nums[t] / 2^exp is the value at weight lo + t
    exp: int
    lo: int = 0
    sat: float = math.inf  # from this weight on, values are lower bounds


def agree(a: Values, b: Values) -> bool:
    """Whether a and b agree at every weight both cover: x / 2^a.exp ==
    y / 2^b.exp as x << b.exp == y << a.exp, and <= where one side is
    saturated (where both are, neither bounds the other). Routes that
    share no weight do not agree: a vacuous comparison shows nothing."""
    common = range(max(a.lo, b.lo), min(a.lo + len(a.nums), b.lo + len(b.nums)))
    aligned = ((d, a.nums[d - a.lo] << b.exp, b.nums[d - b.lo] << a.exp) for d in common)
    return len(common) > 0 and all((d >= a.sat or x >= y) and (d >= b.sat or x <= y)
                                   for d, x, y in aligned)


def from_histogram(h, config: CodeConfig, lo: int = 0) -> Values:
    """An exact histogram's counts from weight lo, over its power-of-two
    sample count; its first saturated weight bounds the exact range. The
    histogram must cover every weight 0..N."""
    if len(h.counts) != config.n + 1:
        raise AssertionError(f"{h.source} counts {len(h.counts)} weights, not N + 1 = {config.n + 1}")
    sat = next((d for d, s in enumerate(h.saturated or ()) if s), math.inf)
    return Values(h.counts[lo:], h.samples.bit_length() - 1, lo, sat)


def reduced_free_count(config: CodeConfig) -> int:
    """F_red: entries (i, j) with i in A, j > i and j frozen."""
    frozen = set(config.frozen_set)
    return sum(j in frozen for i in config.info_set for j in range(i + 1, config.n + 1))


def brute(config: CodeConfig, transform: PreTransform) -> Values:
    return from_histogram(exact_spectrum(config, transform), config)


def naive(config: CodeConfig, transform: PreTransform) -> Values:
    """Every message through kernel.encode: pure ints, no numpy, no pairing."""
    counts = [0] * (config.n + 1)
    for msg in range(1 << config.k):
        u = sum((msg >> j & 1) << (i - 1) for j, i in enumerate(config.info_set))
        counts[encode(u, transform, config.m).bit_count()] += 1
    return Values(tuple(counts), 0)


def collector(config: CodeConfig, transform: PreTransform, list_size: int) -> Values:
    h = collect_low_weight(config, transform, list_size)
    if h.counts[0] or list_size >= 1 << config.k and any(h.saturated):
        raise AssertionError(f"a zero word counted, or a full list of {list_size} flagged: {h}")
    return from_histogram(h, config, lo=1)


def recursion(config: CodeConfig, transform=None, d_max: int | None = None) -> Values:
    """E[N_0..N_d_max]: every code of the ensemble holds one zero word."""
    spec = avg_spectrum(config, d_max)
    return Values((1 << spec.exp,) + spec.nums, spec.exp)


def exhaustive(config: CodeConfig, transform=None) -> Values:
    return from_histogram(ensemble_average_exact(config), config)


def literal(config: CodeConfig, transform=None) -> Values:
    """Totals over all 2^F transforms, each rebuilt from its bits and
    enumerated: no reduction, no Gray stepping, no in-place patches."""
    f = free_entry_count(config)
    totals = (0,) * (config.n + 1)
    for bits in range(1 << f):
        totals = tuple(map(add, totals, exact_spectrum(config, transform_from_bits(config, bits)).counts))
    return Values(totals, f)


def nmin(config: CodeConfig, transform=None) -> Values:
    d_min, value = avg_nmin(config)
    return Values((value.num,), value.exp, d_min)


def coset_sum(config: CodeConfig, transform=None) -> Values:
    """E[N_d] row by row: information row j (ascending) adds 2^(K-j)
    times its coset's counts over 2^(N-i), as integers over 2^N."""
    n, k = config.n, config.k
    total = (0,) * n
    for j, i in enumerate(config.info_set, start=1):
        total = tuple(t + (c << (k - j + i)) for t, c in zip(total, coset_spectrum(config.m, i)[1:]))
    return Values(total, n, 1)


def coset(config: CodeConfig, transform=None) -> Values:
    (i,) = config.info_set
    return Values(coset_spectrum(config.m, i)[1:], config.n - i, 1)


@functools.cache
def _later_rows_span(m: int, i: int) -> np.ndarray:
    """Every XOR combination of rows i+1..N of F_N, one uint64 each."""
    block = np.zeros(1, dtype=np.uint64)
    for j in range(i + 1, (1 << m) + 1):
        block = np.concatenate([block, block ^ np.uint64(row_bits(m, j))])
    block.flags.writeable = False
    return block


def enumerated_coset(config: CodeConfig, transform: PreTransform | None = None) -> Values:
    """The single information row's coset, member by member (N <= 64): its
    generator row under the transform (the plain row without one) XORed
    with every combination of the later rows."""
    (i,) = config.info_set
    g = row_bits(config.m, i) if transform is None else generator_rows(config, transform)[0]
    weights = np.bitwise_count(_later_rows_span(config.m, i) ^ np.uint64(g))
    return Values(tuple(np.bincount(weights, minlength=config.n + 1)[1:].tolist()), config.n - i, 1)


@dataclass(frozen=True)
class Route:
    name: str
    ensemble: bool  # an ensemble average, or the spectrum of one code C_T
    admits: Callable[[CodeConfig], bool]  # its documented test domain
    run: Callable[[CodeConfig, PreTransform | None], Values]


ROUTES = (
    Route("brute", False, lambda c: c.k <= 10, brute),
    Route("naive", False, lambda c: c.k <= 10, naive),
    Route("collector", False, lambda c: c.k <= 8, lambda c, t: collector(c, t, 1 << c.k)),
    Route("collector-16", False, lambda c: True, lambda c, t: collector(c, t, 16)),
    Route("recursion", True, lambda c: True, recursion),
    Route("exhaustive", True, lambda c: c.k + reduced_free_count(c) <= 12, exhaustive),
    Route("literal", True, lambda c: free_entry_count(c) <= 8, literal),
    Route("avg_nmin", True, lambda c: True, nmin),
    Route("coset-sum", True, lambda c: True, coset_sum),
    Route("coset_spectrum", True, lambda c: c.k == 1, coset),
    Route("enumeration", True, lambda c: c.k == 1 and c.n - c.info_set[0] <= 16 and c.m <= 6,
          enumerated_coset),
)


KINDS = ("identity", "random", "pac", "crc", "ensemble")


@st.composite
def codes(draw, kind: str, max_m: int = 6):
    """(code, transform): a random set, PW, RM or CRC code of length
    2^1..2^max_m under the transform of that kind: the identity, a random
    one, a PAC one, its CRC one, or None for the ensemble."""
    m = draw(st.integers(2 if kind == "crc" else 1, max_m))
    n = 1 << m
    family = "crc" if kind == "crc" else draw(st.sampled_from(["set", "pw", "rm", "crc"]))
    if family == "crc":
        poly = draw(st.sampled_from([p for p in ("11", "111", "1011", "10011") if len(p) <= n]))
        k = draw(st.integers(1, n + 1 - len(poly)))
        cfg, t = crc_transform(construct_pw(n, k + len(poly) - 1), k, poly)
    elif family == "set":
        cfg = CodeConfig(m, tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1)))))
    else:
        cfg = (construct_pw if family == "pw" else construct_rm)(n, draw(st.integers(1, n)))
    if kind in ("identity", "pac"):
        t = identity_transform(cfg) if kind == "identity" else pac_transform(cfg, "1011")
    elif kind != "crc":
        t = random_transform(cfg, draw(st.integers(0, 1 << 32))) if kind == "random" else None
    return cfg, t
