"""Independent ground truth by enumeration: brute-force spectra for a
fixed transform, exhaustive ensemble averages, and Monte-Carlo estimates.

Both enumeration routes are one walk, _walk. Its steps are generator
rows and, for the ensemble, free T entries; an entry adds a word to one
row. A block of up to 2^BLOCK_BITS codewords (bit-packed, one row of
uint64 words each) is filled in place by doubling, one step per bit of
the block index; the remaining steps are walked in Gray code order,
each XORing one word into the whole block, or into the codewords that
contain the entry's row, in place.

Complement pairing: T is upper triangular, so its row N is e_N, and when
N is an information index the generator row N of T·F_N is the all-ones
word, the last row. Every codeword c then has the partner c + 1^N of
weight N - w(c), so the walk enumerates only the span of the other K-1
rows, with histogram h, and A_d = h_d + h_(N-d). Without row N every
codeword is enumerated.

Nothing in this module uses the recursion engine; agreement between the
two is the decisive cross-validation and is enforced by the test suite.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .construct import CodeConfig
from .dyadic import DyadicRational
from .kernel import _check_code_transform, polar_transform, row_bits
from .pretransform import (
    PreTransform,
    derive_seeds,
    free_entry_count,
    identity_transform,
    random_transform,
)

__all__ = [
    "BudgetError",
    "WeightHistogram",
    "exact_spectrum",
    "ensemble_average_exact",
    "ensemble_average_mc",
]

BRUTE_MAX_K = 28
ENSEMBLE_MAX_FREE = 24
ENSEMBLE_MAX_K = 20
BLOCK_BITS = 20  # enumeration blocks hold up to 2^BLOCK_BITS codewords


class BudgetError(RuntimeError):
    """Requested enumeration exceeds the documented budget."""


@dataclass(frozen=True, slots=True)
class WeightHistogram:
    """Per-weight tallies indexed d = 0..N, plus provenance metadata.

    counts holds integers for source "brute"/"scl", exact DyadicRational
    means for "exhaustive-ensemble", and float sample means for
    "monte-carlo" (which also carries per-weight sample variance).
    saturated[d], when present, marks weights whose value is only a
    lower bound (list pruning may have discarded codewords there).
    """

    source: str
    n: int
    counts: tuple
    samples: int = 1
    seed: int | None = None
    variance: tuple | None = None
    saturated: tuple | None = None

    def nonzero(self) -> dict:
        return {d: c for d, c in enumerate(self.counts) if c}


def _wordcount(n: int) -> int:
    return (n + 63) // 64


def _to_words(x: int, words: int) -> np.ndarray:
    mask = (1 << 64) - 1
    return np.array([(x >> (64 * w)) & mask for w in range(words)], dtype=np.uint64)


def generator_rows(config: CodeConfig, transform: PreTransform) -> list[int]:
    """Rows of T·F for the information indices, packed LSB-first."""
    _check_code_transform(config, transform)
    return [polar_transform(transform.full_row(i), config.m) for i in config.info_set]


def _hist_of_block(block: np.ndarray, n: int) -> np.ndarray:
    counts = np.bitwise_count(block)
    weights = counts[:, 0]  # uint8: one word per codeword needs no sum
    if counts.shape[1] > 1:
        # word by word: a sum over the short word axis is ~4x slower
        weights = weights.astype(np.intp)
        for w in range(1, counts.shape[1]):
            weights += counts[:, w]
    return np.bincount(weights, minlength=n + 1)


def _walk(rows: list[int], n: int, entries: Sequence[tuple[int, int]] = ()) -> np.ndarray:
    """Weight histogram A_0..A_N of the codewords the generator rows span,
    summed over every assignment of the free entries.

    An entry (pos, g) adds word g to row pos. Block index bit p is the
    coefficient of row p, so flipping an entry XORs g into the codewords
    whose index has bit pos set; a row step XORs its word into every
    codeword. Up to BLOCK_BITS steps double the block in place. With
    entries every row goes into the block, and at most 2^(BLOCK_BITS-K)
    codebooks; the remaining steps are walked in Gray code order.

    A last row that is the all-ones word is dropped: each enumerated
    codeword c stands for c + 1^N too, and A_d = h_d + h_(N-d).
    """
    ones = (1 << n) - 1
    # entries address rows by position: only the last row may go
    if ones in rows[:-1]:
        raise RuntimeError("all-ones generator row is not the last row")
    paired = bool(rows) and rows[-1] == ones
    kept = len(rows) - paired
    if entries:
        split = kept + max(0, min(len(entries), BLOCK_BITS - len(rows)))
    else:
        split = min(kept, BLOCK_BITS)
    words = _wordcount(n)
    steps = [(pos, _to_words(g, words)) for pos, g in [*enumerate(rows[:kept]), *entries]]
    block = np.zeros((1 << split, words), dtype=np.uint64)
    for b, (pos, g) in enumerate(steps[:split]):
        h = 1 << b
        if pos == b:  # a row doubles the block by itself
            np.bitwise_xor(block[:h], g, out=block[h : 2 * h])
        else:
            block[h : 2 * h] = block[:h]
            block[h : 2 * h].reshape(-1, 2 << pos, words)[:, 1 << pos :] ^= g
    # int64 is safe: the grand total is at most 2^44 under the budgets
    hist = _hist_of_block(block, n)
    for step in range(1, 1 << (len(steps) - split)):
        pos, g = steps[split + (step & -step).bit_length() - 1]
        # an entry's row is in the block; a row past it is in every codeword
        view = block.reshape(-1, 2 << pos, words)[:, 1 << pos :] if pos < split else block
        view ^= g
        hist += _hist_of_block(block, n)
    return hist + hist[::-1] if paired else hist


def exact_spectrum(config: CodeConfig, transform: PreTransform) -> WeightHistogram:
    """Weight histogram of one fixed code by enumerating all 2^K messages.

    One walk over the generator rows: the first BLOCK_BITS of them span
    an in-place block, and the rest are XORed into it in Gray code
    order. When N is an information index its generator row is the
    all-ones word: the walk enumerates only the 2^(K-1) codewords of the
    other rows, and each stands for its complement too.
    """
    if config.k > BRUTE_MAX_K:
        raise BudgetError(f"K={config.k} exceeds brute-force budget {BRUTE_MAX_K}")
    counts = _walk(generator_rows(config, transform), config.n)
    return WeightHistogram("brute", config.n, tuple(int(c) for c in counts))


def ensemble_average_exact(config: CodeConfig) -> WeightHistogram:
    """Exact E[N_d] by enumerating every transform in the ensemble.

    The same walk as exact_spectrum, over the rows of F_N plus one entry
    per free T entry: setting T_(i,j) adds row j of F_N to generator row
    i. The block holds every codeword of a batch of codebooks, up to
    2^BLOCK_BITS codewords in all, and the remaining entries are walked
    in Gray code order, so each step flips a single T entry and patches
    every codebook in place instead of rebuilding it.

    Row N has no free entries, so when N is an information index every
    codebook has the all-ones word as its last generator row, and the
    walk pairs each enumerated codeword with its complement.
    """
    f = free_entry_count(config)
    k = config.k
    if f > ENSEMBLE_MAX_FREE:
        raise BudgetError(f"F={f} free entries exceed budget {ENSEMBLE_MAX_FREE}")
    if k > ENSEMBLE_MAX_K:
        raise BudgetError(f"K={k} exceeds exhaustive-ensemble budget {ENSEMBLE_MAX_K}")
    n, m = config.n, config.m
    # in the transform_from_bits layout: rows ascending, columns ascending
    entries = [(pos, row_bits(m, j)) for pos, i in enumerate(config.info_set)
               for j in range(i + 1, n + 1)]
    counts = _walk(generator_rows(config, identity_transform(config)), n, entries)
    means = tuple(DyadicRational(int(c), f) for c in counts)
    return WeightHistogram("exhaustive-ensemble", n, means, samples=1 << f)


def _sample_moments(samples: list[tuple]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-weight sample means and unbiased sample variances of integer counts.

    With s samples, sum T and sum of squares Q at a weight, the variance is
    (s*Q - T^2) / (s*(s - 1)): exact integers, rounded once to a float, so
    there is no cancellation. A single sample has variance 0.0.
    """
    s = len(samples)
    totals = [sum(col) for col in zip(*samples)]
    means = tuple(t / s for t in totals)
    if s == 1:
        return means, tuple(0.0 for _ in totals)
    squares = [sum(c * c for c in col) for col in zip(*samples)]
    variance = tuple(
        (s * q - t * t) / (s * (s - 1)) for q, t in zip(squares, totals)
    )
    return means, variance


def _worker_count(threads: int, samples: int) -> int:
    """Threads worth starting: no more than the samples or the CPUs."""
    return max(1, min(threads, samples, os.cpu_count() or 1))


def ensemble_average_mc(
    config: CodeConfig,
    master_seed: int,
    samples: int,
    list_size: int | None = None,
    threads: int = 1,
) -> WeightHistogram:
    """Monte-Carlo E[N_d] estimate over `samples` random transforms.

    Per-sample seeds come from derive_seeds(master_seed, samples), so the
    result is reproducible for any thread count; min(threads, samples,
    CPUs) worker threads run. With list_size None each sample is measured
    exactly by brute force; with an int list_size >= 1 the low-weight
    collector of that list size measures it and its saturation flags
    propagate.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if list_size is not None:
        if list_size < 1:
            raise ValueError(f"list_size must be >= 1, got {list_size}")
        from .scl import collect_low_weight
    elif config.k > BRUTE_MAX_K:
        raise BudgetError(f"K={config.k} exceeds brute-force budget {BRUTE_MAX_K}")

    n = config.n
    seeds = derive_seeds(master_seed, samples)

    def one(seed: int) -> WeightHistogram:
        t = random_transform(config, seed)
        if list_size is None:
            return exact_spectrum(config, t)
        return collect_low_weight(config, t, list_size)

    workers = _worker_count(threads, samples)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, seeds))
    else:
        results = [one(s) for s in seeds]

    means, variance = _sample_moments([hist.counts for hist in results])
    sat = [False] * (n + 1)
    for hist in results:
        if hist.saturated is not None:
            sat = [a or b for a, b in zip(sat, hist.saturated)]
    return WeightHistogram(
        "monte-carlo",
        n,
        means,
        samples=samples,
        seed=master_seed,
        variance=variance,
        saturated=tuple(sat) if list_size is not None else None,
    )
