"""Low-weight codeword collection by successive cancellation list decoding.

The channel is noiseless and all-zero-favoring: every bit LLR is +1.
Min-sum updates then keep every LLR integer, and the hard-decision path
metric (pay |llr| to disagree with the sign) accumulates to exactly the
Hamming weight of the path's re-encoded codeword. The final list is
therefore the set of lowest-weight codewords of the code, complete up
to the pruning boundary.

Path state follows Tal and Vardy's lazy copy, and every per-path array
holds one column per path, so each update runs over contiguous rows.
LLRs and left-sibling codeword segments are held per depth d = 1..m as
one (N>>d, S) array each, a column per stored path copy, plus a map from
the current paths to those columns (None for the identity). An
information decision only composes the maps with the survivors' parents;
a depth is gathered when the f/g step or the fold reads it, and every
write makes a fresh array. Every depth's LLR type provably holds it:
|llr| <= 2^d at depth d, so depths 0..6 (0 is the channel) are int8 and
deeper ones int16, or int32 from m = 15 (see _llr_types), and the first
wider depth casts its parent's LLRs. The pending dynamic-frozen values
are bit-packed uint64 words, a column per path, gathered at each
decision; the word behind position t is never read again and is dropped
at each 64-step boundary, and the whole array once the last frozen
position is past. A pending value is read only where it is used: at a
frozen step, and at a decision whose T row has entries, from the
survivor's gathered column. The 2P candidate metrics of a decision are
one array in the leaf's LLR type, candidate 2p+bit extending path p: a
metric only grows along a path and ends at a codeword weight, so it is
at most N. Survivors are selected from the sorted values. scl_decode
derives u (codeword * F_N, a butterfly) and the message (forward
substitution through T) after decoding, for all paths at once, and
hands u, the message and the codeword back as packed ints (bit j-1 is
position j, as in kernel); the paths come out in lexicographic order of
u_1..u_N.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

from .construct import CodeConfig
from .kernel import _check_code_transform
from .oracle import WeightHistogram, _to_words, _wordcount, np
from .pretransform import PreTransform

__all__ = [
    "DecoderPath",
    "collect_low_weight",
    "scl_decode",
]


class DecoderPath(NamedTuple):
    """One surviving path: transform-input decisions and their cost.

    Every bit vector is a packed int, bit j-1 holding position j. u is the
    full polar-transform input v_1..v_N (frozen positions carry their
    forced dynamic values), so ``kernel.polar_transform(u, m) ==
    codeword``. message is the encoder input: each information bit at its
    index, zero elsewhere, so ``encode(message, transform, m) ==
    codeword``. metric equals the codeword weight. A named tuple, so
    building one costs a tuple's construction.
    """

    u: int
    message: int
    metric: int
    codeword: int

    @property
    def weight(self) -> int:
        return self.codeword.bit_count()


def _minsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sign(a) sign(b) min(|a|, |b|)
    return np.maximum(np.minimum(a, b), -np.maximum(a, b))


def _select(cand: np.ndarray, list_size: int) -> tuple[np.ndarray, int]:
    """Keep the list_size smallest candidates, read from their sorted values.

    Returns the kept indices in ascending order, the same set a stable
    argsort keeps: every candidate below the threshold metric (the
    list_size-th smallest) plus the first ties in index order. The second
    value, a Python int, is the smallest metric discarded. Only values are
    sorted, so any sort algorithm gives the same array, and any integer
    type works, negative values included. Needs len(cand) > list_size.
    """
    ranked = np.sort(cand)
    thr = ranked[list_size - 1]
    keep = cand <= thr
    extra = int(np.searchsorted(ranked, thr, "right")) - list_size  # ties past the list
    if extra:
        keep[np.flatnonzero(cand == thr)[-extra:]] = False
    return np.flatnonzero(keep), int(ranked[list_size])


def _llr_types(m: int) -> list:
    """The LLR type of each depth 0..m, depth 0 being the channel.

    The channel LLR is +1, the f-step never grows a magnitude and the
    g-step gives |b +- a| <= |a| + |b|, so |llr| <= 2^d at depth d: int8
    holds depths 0..6. Deeper depths share one type, int16 or, from
    m = 15, int32, which also holds a path metric (at most N = 2^m).
    """
    wide = np.int16 if m < 15 else np.int32
    return [np.int8 if d <= 6 else wide for d in range(m + 1)]


def _gathered(arrays: list, maps: list, d: int) -> np.ndarray:
    # copy depth d's columns to the current paths on first read
    if maps[d] is not None:
        arrays[d] = arrays[d].take(maps[d], axis=1)
        maps[d] = None
    return arrays[d]


def _decode_arrays(config: CodeConfig, transform: PreTransform, list_size: int):
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    m, n = config.m, config.n
    _check_code_transform(config, transform)
    info = set(config.info_set)
    # no step after the last frozen position reads a pending value
    last_frozen = max(config.frozen_set, default=0)
    words = _wordcount(n)
    # row i reaches only columns j > i, so it is stored from word (i-1)>>6
    # on: the word that holds the pending values at decision i. A row after
    # the last frozen position is never applied
    trow = {
        i: _to_words(transform.rows[i], words)[(i - 1) >> 6 :, None]
        for i in config.info_set
        if i < last_frozen and transform.rows.get(i, 0)
    }

    types = _llr_types(m)
    chan = np.ones((n, 1), dtype=types[0])
    # depth d = 1..m: (N>>d, S) arrays, a column per stored path copy, and
    # a map from the current paths to the columns (None for the identity);
    # a decision composes the maps, a read gathers the columns. Each depth
    # is written before its first read: llr at t = 0, left[d] by a fold.
    llr = [None] * (m + 1)
    left = [None] * (m + 1)
    llr_map = [None] * (m + 1)
    left_map = [None] * (m + 1)
    # pending dynamic-frozen values, packed: (words, P), row 0 holding the
    # word of position t+1; the word behind it is dropped at each boundary,
    # and the whole array after the last frozen position
    acc = np.zeros((words, 1), dtype=np.uint64)
    metric = np.zeros(1, dtype=types[m])
    prune_bound = math.inf
    codewords = None

    for t in range(n):
        # depths above the lowest flipped address bit keep their cache
        start = 1 if t == 0 else m - ((t & -t).bit_length() - 1)
        for d in range(start, m + 1):
            half = n >> d
            src = chan if d == 1 else _gathered(llr, llr_map, d - 1)
            if types[d] is not types[d - 1]:  # a wider type casts its source
                src = src.astype(types[d])
            a, b = src[:half], src[half:]
            if t >> (m - d) & 1:
                sgn = 1 - 2 * _gathered(left, left_map, d).astype(types[d])
                llr[d] = sgn * a + b
            else:
                llr[d] = _minsum(a, b)
            llr_map[d] = None
        dec_llr = llr[m][0]
        if t + 1 > last_frozen:
            acc = None
        elif t and not t & 63:
            acc = acc[1:]

        if t + 1 in info:
            # candidate 2p+bit costs metric[p] plus |llr| of path p when bit
            # disagrees with the sign of that llr; a zero llr costs neither
            # bit anything. The id keeps lexicographic order among ties
            cand = np.empty(2 * len(metric), dtype=metric.dtype)
            cand[0::2] = metric + np.maximum(-dec_llr, 0)
            cand[1::2] = metric + np.maximum(dec_llr, 0)
            if len(cand) <= list_size:
                keep = np.arange(len(cand))
            else:
                keep, dropped = _select(cand, list_size)
                prune_bound = min(prune_bound, dropped)
            parent = keep >> 1
            bit = (keep & 1).astype(np.uint8)
            metric = cand[keep]
            # maps set at one decision are one object: compose each once
            # (`unique` keeps the old maps alive, so their ids stay distinct)
            unique = {id(x): x for x in llr_map + left_map if x is not None}
            composed = {key: x.take(parent) for key, x in unique.items()}
            for maps in (llr_map, left_map):
                maps[1:] = [parent if x is None else composed[id(x)] for x in maps[1:]]
            if acc is not None:
                acc = acc.take(parent, axis=1)
                if t + 1 in trow:
                    # the message bit: u's bit XOR the pending value, read
                    # from the survivor's gathered column
                    acc ^= trow[t + 1] * (bit ^ acc[0] >> (t & 63) & 1)
        else:
            bit = (acc[0] >> (t & 63) & 1).astype(np.uint8)
            metric = metric + np.maximum(np.where(bit, dec_llr, -dec_llr), 0)

        # fold the decided bit upward while it closes a right child
        seg = bit[None, :]
        d = m
        while d >= 1 and t >> (m - d) & 1:
            seg = np.concatenate([_gathered(left, left_map, d) ^ seg, seg])
            d -= 1
        if d >= 1:
            left[d], left_map[d] = seg, None
        else:
            codewords = seg.T  # t = n-1: the fold reaches the root

    weights = codewords.sum(axis=1, dtype=np.int64)
    if not np.array_equal(weights, metric):
        # the collector's completeness argument rests on this identity
        raise RuntimeError("path metric differs from codeword weight")
    return metric, codewords, prune_bound


def _inverse_transform(codewords: np.ndarray, m: int) -> np.ndarray:
    """u = codeword * F_N for every column of an (N, P) bit array.

    Row j-1 is position j, as in kernel.polar_transform: u_i is the XOR of
    the codeword bits at the positions whose index bits contain those of
    i, one butterfly stage per index bit.
    """
    u = codewords.copy()
    for s in range(m):
        view = u.reshape(-1, 2, 1 << s, u.shape[1])
        view[:, 0] ^= view[:, 1]
    return u


def _messages(u: np.ndarray, config: CodeConfig, transform: PreTransform) -> np.ndarray:
    """(K, P) message bits by forward substitution through T, all paths at once.

    On the information indices u = message * T, so message bit p is u at
    the p-th information index XOR the contributions of the earlier
    message bits: each is added to the later bits its T row reaches.
    """
    info = config.info_set
    msg = u[np.array(info) - 1]
    for p, i in enumerate(info):
        mask = transform.rows.get(i, 0)
        later = [q for q in range(p + 1, len(info)) if mask >> (info[q] - 1) & 1]
        if later:
            msg[later] ^= msg[p]
    return msg


def _pack(rows: np.ndarray) -> list[int]:
    # column p of an (X, P) bit array as one packed int per path, bit r = row r:
    # each path's bytes as one void item, read little-endian
    packed = np.packbits(rows, axis=0, bitorder="little")
    paths = np.ascontiguousarray(packed.T).view(f"V{len(packed)}").ravel().tolist()
    return list(map(int.from_bytes, paths, repeat("little")))


def scl_decode(
    config: CodeConfig, transform: PreTransform, list_size: int
) -> tuple[list[DecoderPath], float]:
    """Run the collector and materialize the surviving paths.

    Returns the final list, in lexicographic order of u_1..u_N, and the
    pruning boundary: the smallest metric ever discarded, +inf if the list
    never overflowed. Codeword weights strictly below the boundary are
    guaranteed complete in the returned list. Each path's bit vectors are
    packed ints; see DecoderPath.
    """
    metric, codewords, prune_bound = _decode_arrays(config, transform, list_size)
    bits = codewords.T  # (N, P): a row per position
    u = _inverse_transform(bits, config.m)
    msg = np.zeros_like(u)
    msg[np.array(config.info_set) - 1] = _messages(u, config, transform)
    out = list(map(DecoderPath, _pack(u), _pack(msg), metric.tolist(), _pack(bits)))
    return out, prune_bound


def collect_low_weight(
    config: CodeConfig, transform: PreTransform, list_size: int
) -> WeightHistogram:
    """Weight histogram of the distinct codewords found by list decoding.

    The all-zero codeword (always in the list: its metric 0 cannot be
    beaten) is excluded. saturated[d] is True where d reached the
    pruning boundary, i.e. counts[d] must be read as a lower bound.
    """
    metric, _, prune_bound = _decode_arrays(config, transform, list_size)
    n = config.n
    counts = np.bincount(metric, minlength=n + 1)[: n + 1]
    counts[0] = 0
    sat = tuple(d >= prune_bound for d in range(n + 1))
    return WeightHistogram("scl", counts, saturated=sat)
