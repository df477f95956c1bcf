"""Low-weight codeword collection by successive cancellation list decoding.

The channel is noiseless and all-zero-favoring: every bit LLR is +1.
Min-sum updates then keep every LLR integer, and the hard-decision path
metric (pay |llr| to disagree with the sign) accumulates to exactly the
Hamming weight of the path's re-encoded codeword. The final list is
therefore the set of lowest-weight codewords of the code, complete up
to the pruning boundary.

Per-path state is three numpy arrays with the path as axis 0, each
gathered once per information decision: LLRs and left-sibling codeword
segments, (P, N-1) each with depth d in columns [N - 2(N>>d), N - (N>>d)),
and the (P, N) pending dynamic-frozen values. scl_decode derives u
(codeword * F_N) and the message (forward substitution through T) after
decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import CodeConfig
from .kernel import polar_transform
from .oracle import WeightHistogram
from .pretransform import PreTransform

__all__ = [
    "DecoderPath",
    "collect_low_weight",
    "path_metric_update",
    "scl_decode",
]


@dataclass(frozen=True, slots=True)
class DecoderPath:
    """One surviving path: transform-input decisions and their cost.

    u is the full polar-transform input v_1..v_N (frozen positions carry
    their forced dynamic values), message is the K information bits with
    the pre-transform removed, and metric equals the codeword weight.
    """

    u: tuple[int, ...]
    message: tuple[int, ...]
    metric: int
    codeword: int

    @property
    def weight(self) -> int:
        return self.codeword.bit_count()


def path_metric_update(decision: int, llr: float) -> float:
    """Penalty for extending a path with `decision` against belief `llr`.

    Hard-decision form: free when the decision matches the sign of the
    LLR (zero counts as positive), |llr| otherwise.
    """
    hard = 1 if llr < 0 else 0
    return abs(llr) if decision != hard else 0


def _minsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))


def _decode_arrays(config: CodeConfig, transform: PreTransform, list_size: int):
    m, n = config.m, config.n
    info = set(config.info_set)
    trow = {
        i: np.array([transform.rows.get(i, 0) >> b & 1 for b in range(n)], dtype=np.uint8)
        for i in config.info_set
    }
    cols = [None] + [slice(n - 2 * (n >> d), n - (n >> d)) for d in range(1, m + 1)]

    chan = np.ones((1, n), dtype=np.int32)
    llr = np.zeros((1, n - 1), dtype=np.int32)  # depth d in cols[d], cached
    left = np.zeros((1, n - 1), dtype=np.uint8)  # left-sibling codeword segments
    acc = np.zeros((1, n), dtype=np.uint8)  # pending dynamic-frozen values
    metric = np.zeros(1, dtype=np.int64)
    prune_bound = math.inf
    codewords = None
    paths = 1

    for t in range(n):
        # depths above the lowest flipped address bit keep their cache
        start = 1 if t == 0 else m - ((t & -t).bit_length() - 1)
        for d in range(start, m + 1):
            half = n >> d
            src = chan if d == 1 else llr[:, cols[d - 1]]
            a, b = src[:, :half], src[:, half:]
            if t >> (m - d) & 1:
                sgn = 1 - 2 * left[:, cols[d]].astype(np.int32)
                llr[:, cols[d]] = sgn * a + b
            else:
                llr[:, cols[d]] = _minsum(a, b)
        dec_llr = llr[:, -1]
        hard = (dec_llr < 0).astype(np.uint8)
        pen = np.abs(dec_llr)

        if t + 1 in info:
            # candidate id 2p+bit keeps lexicographic order among ties
            cand = np.empty(2 * paths, dtype=np.int64)
            cand[0::2] = metric + np.where(hard == 0, 0, pen)
            cand[1::2] = metric + np.where(hard == 1, 0, pen)
            if 2 * paths <= list_size:
                keep = np.arange(2 * paths)
            else:
                order = np.argsort(cand, kind="stable")
                keep = np.sort(order[:list_size])
                prune_bound = min(prune_bound, int(cand[order[list_size:]].min()))
            parent = keep >> 1
            bit = (keep & 1).astype(np.uint8)
            metric = cand[keep]
            llr, left, acc = llr[parent], left[parent], acc[parent]
            acc ^= (bit ^ acc[:, t])[:, None] * trow[t + 1]
            paths = len(keep)
        else:
            bit = acc[:, t]
            metric = metric + np.where(bit == hard, 0, pen)

        # fold the decided bit upward while it closes a right child
        seg = bit[:, None]
        d = m
        while d >= 1 and t >> (m - d) & 1:
            seg = np.concatenate([left[:, cols[d]] ^ seg, seg], axis=1)
            d -= 1
        if d >= 1:
            left[:, cols[d]] = seg
        else:
            codewords = seg  # t = n-1: the fold reaches the root

    weights = codewords.sum(axis=1, dtype=np.int64)
    if not np.array_equal(weights, metric):
        # the collector's completeness argument rests on this identity
        raise RuntimeError("path metric differs from codeword weight")
    return metric, codewords, prune_bound


def scl_decode(
    config: CodeConfig, transform: PreTransform, list_size: int
) -> tuple[list[DecoderPath], float]:
    """Run the collector and materialize the surviving paths.

    Returns the final list (lexicographic u order) and the pruning
    boundary: the smallest metric ever discarded, +inf if the list never
    overflowed. Codeword weights strictly below the boundary are
    guaranteed complete in the returned list.
    """
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    metric, codewords, prune_bound = _decode_arrays(config, transform, list_size)
    out = []
    for p in range(codewords.shape[0]):
        cw = int.from_bytes(np.packbits(codewords[p], bitorder="little").tobytes(), "little")
        u = polar_transform(cw, config.m)
        # forward substitution through T: u_i = msg_i xor the pending acc_i
        message, acc = [], 0
        for i in config.info_set:
            bit = (u ^ acc) >> (i - 1) & 1
            message.append(bit)
            if bit:
                acc ^= transform.rows.get(i, 0)
        out.append(
            DecoderPath(
                u=tuple(u >> j & 1 for j in range(config.n)),
                message=tuple(message),
                metric=int(metric[p]),
                codeword=cw,
            )
        )
    return out, prune_bound


def collect_low_weight(
    config: CodeConfig, transform: PreTransform, list_size: int
) -> WeightHistogram:
    """Weight histogram of the distinct codewords found by list decoding.

    The all-zero codeword (always in the list: its metric 0 cannot be
    beaten) is excluded. saturated[d] is True where d reached the
    pruning boundary, i.e. counts[d] must be read as a lower bound.
    """
    if list_size < 1:
        raise ValueError("list_size must be >= 1")
    metric, _, prune_bound = _decode_arrays(config, transform, list_size)
    n = config.n
    counts = np.bincount(metric, minlength=n + 1)[: n + 1]
    counts[0] = 0
    sat = tuple(d >= prune_bound for d in range(n + 1))
    return WeightHistogram("scl", n, tuple(int(c) for c in counts), saturated=sat)
