"""Independent ground truth by enumeration: brute-force spectra for a
fixed transform, exhaustive ensemble averages, and Monte-Carlo estimates.

Both enumeration routes are one walk, _walk. Its steps are generator
rows and, for the ensemble, the free entries of the reduced transform
(below); an entry adds a word to one row. A block of codewords,
bit-packed in one row of uint64 words each, is filled in place by
doubling, one step per bit of the block index, while it holds at most
2^BLOCK_BITS words (8 MiB at any N: 2^BLOCK_BITS codewords while
N <= 64, fewer beyond); the remaining steps are walked in Gray code
order, each XORing one word into the whole block, or into the codewords
that contain the entry's row, in place; a row outside the block keeps
its word, patched by its entries. Each state of the block is
histogrammed without a per-codeword intp array: popcounts sum into
uint8 weights (uint16 from N = 256 on), adjacent pairs of uint8 weights
are counted as one uint16 index into an (N+1)×256 pair table, and
bincount casts at most 2^16 indices to intp at a time.

Reduced transforms: a code C_T depends only on the row space of T's
information rows. Adding later information rows to earlier ones clears
T's entries in information columns and leaves R, whose F_red free
entries sit only at (i, j) with i in A, j > i and j frozen. Every R
stands for the same 2^(F - F_red) transforms (any unit upper-triangular
block on A x A), so the average over all 2^F transforms equals the
average over all 2^F_red reduced ones, and the ensemble walks R.

One budget covers both routes: at most 2^MAX_ENUM_BITS (message,
reduced transform) pairs, K + F_red <= MAX_ENUM_BITS; a fixed transform
has F_red = 0.

Complement pairing: T is upper triangular, so its row N is e_N, and when
N is an information index the generator row N of T·F_N is the all-ones
word, the last row. Every codeword c then has the partner c + 1^N of
weight N - w(c), so the walk enumerates only the span of the other K-1
rows, with histogram h, and A_d = h_d + h_(N-d). Without row N every
codeword is enumerated.

Every route returns a WeightHistogram of integer totals over its sample
count, so each value is counts[d] / samples: exact for the enumerations,
a mean for Monte Carlo, which folds each sample into running totals and
sums of squares as soon as it is measured, so that the report can render
the unbiased variance from the integers. A histogram stores tuples of
the Python ints it checked: no count is negative, and for Monte Carlo
s·q >= t² at every weight (Cauchy–Schwarz), so no variance is negative.

Nothing in this module uses the recursion engine; agreement between the
two is the decisive cross-validation and is enforced by the test suite.
"""

from __future__ import annotations

import importlib.util
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add, index, mul, or_

from .construct import CodeConfig
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

MAX_ENUM_BITS = 28  # K + F_red: 2^28 (message, reduced transform) pairs
# Enumeration blocks hold up to 2^BLOCK_BITS uint64 words (8 MiB): that many
# codewords while N <= 64, half as many per doubling of N beyond. It stays
# 20 though a smaller block lowers peak memory: freeing the 8 MiB block
# leaves glibc's heap in a state where the SCL decoder's arrays stop
# page-faulting, and BLOCK_BITS = 16 measured slower SCL jobs (CHANGES.md,
# the FOUND line on the heap coupling).
BLOCK_BITS = 20
_CHUNK = 1 << 16  # indices per bincount call in _hist_of_block: a 512 KiB intp cast


def _lazy_module(name: str):
    """The module `name`, whose code runs at its first attribute access
    (importlib's LazyLoader): the recursion never touches numpy, so a run
    that stays on it never pays numpy's import. A module already imported
    is returned as it is, and a missing one raises ModuleNotFoundError
    here, as an import statement would."""
    if sys.modules.get(name) is not None:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


np = _lazy_module("numpy")  # oracle and scl share it; every other module is numpy-free


class BudgetError(RuntimeError):
    """Requested enumeration exceeds the documented budget."""


def _check_budget(k: int, free: int = 0) -> None:
    if k + free > MAX_ENUM_BITS:
        raise BudgetError(f"K + F_red = {k} + {free} exceeds enumeration budget {MAX_ENUM_BITS}")


@dataclass(frozen=True, slots=True)
class WeightHistogram:
    """Per-weight integer totals over `samples` codes, indexed d = 0..N
    (N = len(counts) - 1), plus provenance metadata.

    Every source's value at d is counts[d] / samples. The exact sources
    count a power of two of codes: 1 for "brute" and "scl", 2^F_red for
    "exhaustive-ensemble" (every reduced transform once), so their value
    is exact. "monte-carlo" counts its random transforms and adds
    squares[d], each weight's sum of squared per-sample counts, from
    which the report renders the mean and unbiased variance. saturated[d],
    when present, marks weights whose value is only a lower bound (list
    pruning may have discarded codewords there).

    Construction stores counts and squares as tuples of Python ints
    (operator.index: numpy integers too, floats refused) and saturated as
    a tuple of bools, never the caller's sequences, and then checks them:
    samples >= 1, a power of two for every source but "monte-carlo",
    squares set exactly for "monte-carlo", squares and saturated as long
    as counts, no negative count, and for "monte-carlo" samples·q >= t²
    at every weight (t = counts[d], q = squares[d]; Cauchy–Schwarz), so
    the rendered variance is never negative.
    """

    source: str
    counts: tuple
    samples: int = 1
    seed: int | None = None
    squares: tuple | None = None
    saturated: tuple | None = None

    def __post_init__(self):
        # tuples of the checked values, not the caller's sequences
        for name, cast in (("counts", index), ("squares", index), ("saturated", bool)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(cast, getattr(self, name))))
        exact = self.source != "monte-carlo"
        if self.samples < 1 or exact and self.samples & (self.samples - 1):
            need = "a power-of-two samples" if exact else "samples"
            raise ValueError(f"{self.source} histogram needs {need} >= 1, got {self.samples}")
        if (self.squares is None) != exact:
            raise ValueError("squares belong to monte-carlo histograms, and those need them")
        for name in ("squares", "saturated"):
            column = getattr(self, name)
            if column is not None and len(column) != len(self.counts):
                raise ValueError(f"{len(column)} {name} for {len(self.counts)} counts")
        if min(self.counts, default=0) < 0:
            raise ValueError("negative numerator in counts")
        if not exact and any(self.samples * q < t * t for t, q in zip(self.counts, self.squares)):
            raise ValueError("monte-carlo histogram needs samples * squares[d] >= counts[d]^2")

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


def _chunked_bincount(indices: np.ndarray, length: int) -> np.ndarray:
    """np.bincount(indices, minlength=length) that casts to intp only
    _CHUNK indices at a time."""
    hist = np.zeros(length, dtype=np.int64)
    for start in range(0, len(indices), _CHUNK):
        hist += np.bincount(indices[start : start + _CHUNK], minlength=length)
    return hist


def _hist_of_block(block: np.ndarray, n: int) -> np.ndarray:
    """Weight histogram, d = 0..n, of the block's codewords.

    The words' popcounts sum into one weight per codeword: uint8, or
    uint16 from n = 256 on, where the all-ones word weighs 256. Two
    adjacent uint8 weights read as one uint16 index, w_even + 256·w_odd
    (or the reverse on a big-endian host); the histogram is the sum of
    both marginals of the (n+1)×256 pair table, whatever the byte order.
    An odd-length block, or uint16 weights, are counted one by one.
    Either way, no intp array longer than _CHUNK is built.
    """
    weights = np.bitwise_count(block[:, 0])  # uint8
    if n >= 256:
        weights = weights.astype(np.uint16)
    if block.shape[1] > 1:
        # word by word: a sum over the short word axis is ~4x slower
        scratch = np.empty(len(block), dtype=np.uint8)
        for w in range(1, block.shape[1]):
            weights += np.bitwise_count(block[:, w], out=scratch)
    if weights.dtype == np.uint16 or len(weights) % 2:
        return _chunked_bincount(weights, n + 1)
    pairs = _chunked_bincount(weights.view(np.uint16), 256 * (n + 1)).reshape(n + 1, 256)
    return pairs.sum(axis=0)[: n + 1] + pairs.sum(axis=1)


def _walk(rows: list[int], n: int, entries: Sequence[tuple[int, int]] = ()) -> np.ndarray:
    """Weight histogram A_0..A_N of the codewords the generator rows span,
    summed over every assignment of the free entries.

    An entry (pos, g) adds word g to row pos. Block index bit p is the
    coefficient of row p, so flipping an entry XORs g into the codewords
    whose index has bit pos set; a row step XORs its word into every
    codeword. Steps, rows first, double the block in place while it
    holds at most 2^BLOCK_BITS words; the remaining steps are walked in
    Gray code order. A row outside the block keeps its current word, and
    an entry of that row patches the word, and every codeword while the
    row's coefficient is set.

    A last row that is the all-ones word is dropped: each enumerated
    codeword c stands for c + 1^N too, and A_d = h_d + h_(N-d).
    """
    ones = (1 << n) - 1
    # entries address rows by position: only the last row may go
    if ones in rows[:-1]:
        raise RuntimeError("all-ones generator row is not the last row")
    paired = bool(rows) and rows[-1] == ones
    kept = len(rows) - paired
    words = _wordcount(n)
    bits = max(0, BLOCK_BITS - (words - 1).bit_length())  # 2^bits codewords: 2^BLOCK_BITS words
    steps = [(pos, _to_words(g, words)) for pos, g in [*enumerate(rows[:kept]), *entries]]
    split = min(len(steps), bits)
    block = np.zeros((1 << split, words), dtype=np.uint64)
    for b, (pos, g) in enumerate(steps[:split]):
        h = 1 << b
        if pos == b:  # a row doubles the block by itself
            np.bitwise_xor(block[:h], g, out=block[h : 2 * h])
        else:
            block[h : 2 * h] = block[:h]
            block[h : 2 * h].reshape(-1, 2 << pos, words)[:, 1 << pos :] ^= g
    # int64 is safe: the grand total is at most 2^28 under the budget
    hist = _hist_of_block(block, n)
    for step in range(1, 1 << (len(steps) - split)):
        s = split + (step & -step).bit_length() - 1
        pos, g = steps[s]
        if pos < split:  # an entry of a row in the block
            block.reshape(-1, 2 << pos, words)[:, 1 << pos :] ^= g
        elif s == pos or (step ^ step >> 1) >> (pos - split) & 1:
            # a row outside the block (its current word), or an entry of one
            # whose Gray bit, pos - split, puts it in every codeword
            block ^= g
        if s > pos >= split:  # the entry joins its row's word, in place
            steps[pos][1][:] ^= g
        hist += _hist_of_block(block, n)
    return hist + hist[::-1] if paired else hist


def exact_spectrum(config: CodeConfig, transform: PreTransform) -> WeightHistogram:
    """Weight histogram of one fixed code by enumerating all 2^K messages.

    One walk over the generator rows: the first of them span an in-place
    block of up to 2^BLOCK_BITS words, and the rest are XORed into it in
    Gray code order. When N is an information index its generator row is
    the all-ones word: the walk enumerates only the 2^(K-1) codewords of
    the other rows, and each stands for its complement too.
    """
    _check_budget(config.k)
    counts = _walk(generator_rows(config, transform), config.n)
    return WeightHistogram("brute", counts)


def ensemble_average_exact(config: CodeConfig) -> WeightHistogram:
    """Exact E[N_d] by enumerating every reduced transform in the ensemble.

    The histogram holds each weight's total over all 2^F_red reduced
    transforms, F_red the count of entries (i, j) with i in A, j > i
    frozen, with samples = 2^F_red: E[N_d] = counts[d] / 2^F_red. Each
    reduced transform stands for 2^(F - F_red) transforms of the same
    code, so this is the average over all 2^F transforms too.

    The same walk as exact_spectrum, over the rows of F_N plus one entry
    per free R entry: setting R_(i,j) adds row j of F_N to generator row
    i. The block holds up to 2^BLOCK_BITS words: the codewords of a
    batch of codebooks, or part of one codebook when the rows alone
    overflow it. The remaining rows and entries are walked in Gray code
    order, so each entry step flips a single R entry and patches the
    block in place instead of rebuilding it.

    Row N has no free entries, so when N is an information index every
    codebook has the all-ones word as its last generator row, and the
    walk pairs each enumerated codeword with its complement.
    """
    n, k, info, frozen = config.n, config.k, config.info_set, config.frozen_set
    # counted, not listed, so that a refusal costs O(K): every later column
    # of an information row but the later information columns
    f_red = free_entry_count(config) - k * (k - 1) // 2
    _check_budget(k, f_red)
    entries = [(pos, row_bits(config.m, j)) for pos, i in enumerate(info) for j in frozen if j > i]
    counts = _walk(generator_rows(config, identity_transform(config)), n, entries)
    return WeightHistogram("exhaustive-ensemble", counts, samples=1 << f_red)


def ensemble_average_mc(
    config: CodeConfig,
    master_seed: int,
    samples: int,
    list_size: int | None = None,
) -> WeightHistogram:
    """Monte-Carlo E[N_d] estimate over `samples` random transforms.

    Per-sample seeds come from derive_seeds(master_seed, samples), and
    the samples are measured one after another, so the result depends
    only on the arguments. With list_size None each sample is measured
    exactly by brute force; with an int list_size the low-weight
    collector of that list size (which refuses one below 1) measures it
    and its saturation flags propagate.

    Each sample is folded into running totals as soon as it is measured:
    each weight's total and sum of squares, as exact integers, and the
    saturation flags by OR. No sample's histogram is kept, so memory does
    not depend on `samples`.
    """
    from .scl import collect_low_weight  # scl imports this module: not at the top

    if list_size is None:
        _check_budget(config.k)
    counts = squares = (0,) * (config.n + 1)
    sat = None if list_size is None else (False,) * (config.n + 1)
    for seed in derive_seeds(master_seed, samples):
        t = random_transform(config, seed)
        hist = (exact_spectrum(config, t) if list_size is None
                else collect_low_weight(config, t, list_size))
        if sat is not None:  # a weight is saturated when any sample's list was pruned there
            sat = tuple(map(or_, sat, hist.saturated))
        counts = tuple(map(add, counts, hist.counts))
        squares = tuple(map(add, squares, map(mul, hist.counts, hist.counts)))
    return WeightHistogram("monte-carlo", counts, samples=samples, seed=master_seed,
                           squares=squares, saturated=sat)
