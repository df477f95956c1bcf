"""Upper-triangular pre-transform builders: random, PAC, CRC, identity."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from operator import index
from types import MappingProxyType

from .construct import CodeConfig

__all__ = [
    "PreTransform",
    "SplitMix64",
    "crc_transform",
    "derive_seeds",
    "free_entry_count",
    "identity_transform",
    "pac_transform",
    "parse_poly",
    "random_transform",
    "transform_from_bits",
]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudorandom generator (Steele/Lea/Flood, JDK 8).

    state advances by the 64-bit golden-gamma constant; each output is
    the mixed new state. Chosen as the ensemble sampler because it is
    ~10 lines in any language and bit-reproducible across platforms —
    the generator identity is part of the reproducibility contract.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bits(self, count: int) -> int:
        """count stream bits packed into one integer, LSB first."""
        out = 0
        pos = 0
        while pos < count:
            out |= self.next_u64() << pos
            pos += 64
        return out & ((1 << count) - 1)


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Per-sample seeds: the first `count` outputs of SplitMix64(master).

    Splitting from a master seed keeps Monte-Carlo runs reproducible:
    sample t always receives the same seed, whatever the sample count.
    """
    gen = SplitMix64(master_seed)
    return [gen.next_u64() for _ in range(count)]


@dataclass(frozen=True, slots=True)
class PreTransform:
    """Unit upper-triangular N x N binary matrix, stored sparsely.

    rows maps an information index i to the off-diagonal part of row i,
    packed as an integer whose bit j-1 is T_{ij}; only columns j > i may
    be set. The diagonal is implicit. Rows of frozen indices are not
    stored: frozen inputs are zero, so those rows never touch a codeword.
    rows is a read-only copy of the mapping passed in, its keys and masks
    Python ints (operator.index: numpy integers too, floats refused), so
    the checks hold for the transform's life.
    """

    n: int
    rows: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "n", index(self.n))
        rows = {index(i): index(mask) for i, mask in self.rows.items()}
        object.__setattr__(self, "rows", MappingProxyType(rows))
        for i, mask in self.rows.items():
            if not 1 <= i <= self.n:
                raise ValueError(f"row index {i} outside [1, {self.n}]")
            if mask < 0 or mask >> self.n:
                raise ValueError(f"row {i}: mask wider than {self.n} columns")
            if mask & ((1 << i) - 1):
                raise ValueError(f"row {i}: entry at or left of the diagonal")

    def entry(self, i: int, j: int) -> int:
        """T_{ij}, 1-based."""
        if i == j:
            return 1
        if j < i:
            return 0
        return self.rows.get(i, 0) >> (j - 1) & 1

    def full_row(self, i: int) -> int:
        """Row i including the diagonal one, packed LSB-first."""
        return (1 << (i - 1)) | self.rows.get(i, 0)


def free_entry_count(config: CodeConfig) -> int:
    """Number of unconstrained entries in the ensemble: sum of N-i over A."""
    return sum(config.n - i for i in config.info_set)


def transform_from_bits(config: CodeConfig, bits: int) -> PreTransform:
    """Decode an integer into a transform, one bit per free entry.

    Bit order: information rows ascending, columns i+1..N ascending
    within a row, least significant bit first. Sweeping bits over
    [0, 2^F) therefore visits every ensemble member exactly once.
    """
    if bits < 0:
        raise ValueError(f"free-entry bits must be >= 0, got {bits}")
    n = config.n
    rows: dict[int, int] = {}
    pos = 0
    for i in config.info_set:
        width = n - i
        rows[i] = (bits >> pos & ((1 << width) - 1)) << i
        pos += width
    if bits >> pos:
        raise ValueError(f"more than {pos} free-entry bits supplied")
    return PreTransform(n, rows)


def identity_transform(config: CodeConfig) -> PreTransform:
    """All off-diagonal entries zero; recovers the plain polar/RM code."""
    return PreTransform(config.n, {i: 0 for i in config.info_set})


def random_transform(config: CodeConfig, seed: int) -> PreTransform:
    """Uniform ensemble sample: every free entry i.i.d. Bernoulli(1/2).

    Deterministic in the seed; see SplitMix64 and transform_from_bits
    for the exact stream-to-entry mapping.
    """
    return transform_from_bits(config, SplitMix64(seed).bits(free_entry_count(config)))


def pac_transform(config: CodeConfig, conv_coeffs: str | int) -> PreTransform:
    """Toeplitz convolution transform: T_{i,i+j} = c_j for every row i.

    conv_coeffs is c_0..c_L in any form parse_poly accepts: a binary or
    hex string with c_0 first, or an integer whose most significant bit
    is c_0. That bit is set in every such value, so c_0 = 1 always holds.
    """
    poly = parse_poly(conv_coeffs)
    # reversed, bit j is c_j; bit 0 (c_0) is the implicit diagonal
    template = int(f"{poly:b}"[::-1], 2) & ~1
    n = config.n
    full = (1 << n) - 1
    return PreTransform(n, {i: (template << (i - 1)) & full for i in config.info_set})


def parse_poly(text: str | int) -> int:
    """Polynomial as an integer, bit a holding the coefficient of D^a.

    Accepts a binary string with the leading coefficient first
    ("1000011" is D^6 + D + 1) or hexadecimal with an "0x" prefix.
    """
    if isinstance(text, int):
        poly = text
    else:
        s = text.strip().lower()
        if s.startswith("0x"):
            try:
                poly = int(s, 16)
            except ValueError:
                raise ValueError(f"not a hexadecimal polynomial string: {text!r}") from None
        else:
            if not s or s.strip("01"):
                raise ValueError(f"not a binary polynomial string: {text!r}")
            if s[0] != "1":
                raise ValueError("leading coefficient must be 1")
            poly = int(s, 2)
    if poly < 1:
        raise ValueError(f"polynomial must be nonzero, got {text!r}")
    return poly


def crc_transform(
    outer_config: CodeConfig, k: int, crc_poly: str | int
) -> tuple[CodeConfig, PreTransform]:
    """CRC-aided code as a pre-transform over K' = K + r selected indices.

    The K smallest selected indices carry message bits; the r largest
    carry CRC bits as dynamic frozen positions. CRC bits are the
    remainder of D^r * msg(D) mod g(D) (systematic attachment, message
    bit 1 on the highest power); column t-of-r takes the coefficient of
    D^(r-t), so the high remainder bit lands on the smallest CRC index.
    Returns the K-dimensional config together with the transform.
    """
    poly = parse_poly(crc_poly)
    r = poly.bit_length() - 1
    if not 1 <= k < outer_config.k:
        raise ValueError(f"K={k} must satisfy 1 <= K < {outer_config.k}")
    if outer_config.k - k != r:
        raise ValueError(
            f"polynomial degree {r} != number of CRC positions {outer_config.k - k}"
        )
    info = outer_config.info_set[:k]
    crc_idx = outer_config.info_set[k:]
    masks = []
    rem = poly ^ (1 << r)  # D^r mod g, for message bit k
    for _ in info:  # message bits k..1, each remainder one LFSR step on
        masks.append(sum(1 << (c - 1) for t, c in enumerate(crc_idx, 1) if rem >> (r - t) & 1))
        rem <<= 1
        if rem >> r:
            rem ^= poly
    rows = dict(zip(info, reversed(masks)))
    return CodeConfig(outer_config.m, info), PreTransform(outer_config.n, rows)
