"""Extended BCH component codes eBCH(2^m, 2^m - 2m - 1) with t=2
bounded-distance decoding, the only components feclab builds.

A code is defined by its parity-check columns: a single flipped bit at
position j < 2^m - 1 shows up as S1 = alpha^j and S3 = alpha^3j, where
alpha is a root of the code's primitive polynomial, and every bit, the
overall-parity bit at position n-1 included, flips the overall parity.
The systematic encoder is solved from the same columns: message at
positions 0..k-1, parity at k..2^m-2, then the overall-parity bit; all
n - k are linear in the message, one matmul against `parity_matrix`.

Syndromes are also kept packed into one int per word: S1 in bits 0..m-1,
S3 in bits m..2m-1 and the overall parity in bit 2m. A word's packed
syndrome is the XOR of `flip_syndrome[j]` over its set bits j, so a flip
updates it with one XOR, and it is 0 exactly for codewords. Decoding reads
the error pattern of weight <= t for the whole packed syndrome from one
table, `error_positions`, built once per code over all n positions, the
overall-parity bit included: as d0 > 2t, no two such patterns share a
syndrome. A nonzero syndrome whose row holds no position is a decoding
failure. The compiled passes of every decoder read that table.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

# One fixed primitive polynomial per extension degree (bit i = coefficient
# of x^i), so that codes and test vectors are reproducible across runs.
PRIMITIVE_POLYS = {
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10001001,   # x^7 + x^3 + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}


@dataclass(frozen=True)
class BchCode:
    n: int
    k: int
    t: int
    d0: int
    # decode/encode tables, derived once in build_code
    # (k, n - k) parity generator, overall parity last; float32 so that the
    # encoders' matmuls run in BLAS; their counts (at most k <= 239) are exact
    parity_matrix: np.ndarray = field(repr=False)
    # packed syndrome of a word with only bit j set, per position j
    flip_syndrome: np.ndarray = field(repr=False)
    # (n, 2m+1) binary parity-check matrix: row j holds the bits of
    # flip_syndrome[j]. Stored as float32 so that words @ check_matrix runs
    # in BLAS; its integer counts (at most n <= 256) are exact.
    check_matrix: np.ndarray = field(repr=False)
    # BDD for every packed syndrome, at index S1 | S3 << m | parity << 2m:
    # the error positions in ascending order, -1 where unused; a nonzero
    # syndrome with no position lies beyond radius t (a failure)
    error_positions: np.ndarray = field(repr=False)


def _gf2_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a square binary matrix over GF(2), by Gauss-Jordan."""
    size = len(a)
    aug = np.concatenate([a, np.eye(size)], axis=1).astype(np.uint8)
    for col in range(size):
        pivot = col + int(np.argmax(aug[col:, col]))
        if not aug[pivot, col]:
            raise AssertionError("parity positions of the check matrix are dependent")
        aug[[col, pivot]] = aug[[pivot, col]]
        rows = aug[:, col].astype(bool)
        rows[col] = False
        aug[rows] ^= aug[col]
    return aug[:, size:]


def build_code(m: int, t: int = 2, extended: bool = True) -> BchCode:
    """eBCH(2^m, 2^m - 2m - 1) for 4 <= m <= 8; t and extended take only
    their defaults."""
    if (t, extended) != (2, True):
        raise ConfigError(f"only extended t=2 component codes are supported, got t={t}, "
                          f"extended={extended}")
    if not 4 <= m <= 8:
        raise ConfigError(f"component code needs 4 <= m <= 8, got m={m}")
    n = 1 << m
    k = n - 1 - 2 * m
    d0 = 2 * t + 2

    # exp[i] = alpha^i, by an LFSR over the primitive polynomial
    exp = np.zeros(n - 1, dtype=np.int64)
    x = 1
    for i in range(n - 1):
        exp[i] = x
        x <<= 1
        if x >> m:
            x ^= PRIMITIVE_POLYS[m]
    # a single error at position j < n - 1 has S1 = alpha^j, S3 = alpha^3j;
    # every position flips the overall parity
    j = np.arange(n - 1)
    flip_syn = np.full(n, 1 << (2 * m), dtype=np.int64)
    flip_syn[:n - 1] |= exp[j] | (exp[(3 * j) % (n - 1)] << m)
    check = ((flip_syn[:, None] >> np.arange(2 * m + 1)) & 1).astype(np.float32)
    # the parity p of a message u solves u @ h[:k] + p @ h[k:] = 0 (mod 2)
    # over the S1/S3 columns h of positions 0..n-2; bit i of u adds
    # 1 + sum(p_i) to the overall parity, parity_matrix's last column
    h = check[:n - 1, :2 * m].astype(np.int64)
    p = (h[:k] @ _gf2_inverse(h[k:])) & 1
    pm = np.concatenate([p, (1 + p.sum(axis=1, keepdims=True)) & 1], axis=1).astype(np.float32)
    # syndrome decoding table: every error pattern of weight <= t has a
    # packed syndrome of its own; every other syndrome is a decoding failure
    first, second = np.triu_indices(n, 1)
    positions = np.full((1 << (2 * m + 1), 2), -1, dtype=np.int16)
    positions[flip_syn, 0] = np.arange(n)
    positions[flip_syn[first] ^ flip_syn[second]] = np.stack([first, second], axis=1)
    for arr in (pm, flip_syn, check, positions):
        arr.setflags(write=False)
    return BchCode(n=n, k=k, t=t, d0=d0, parity_matrix=pm, flip_syndrome=flip_syn,
                   check_matrix=check, error_positions=positions)


def encode_many(code: BchCode, messages: np.ndarray) -> np.ndarray:
    """Systematically encode a (R, k) batch of messages into (R, n) words."""
    msgs = np.asarray(messages, dtype=np.uint8)
    if msgs.ndim != 2 or msgs.shape[1] != code.k:
        raise ValueError(f"message batch must be (R, {code.k})")
    return np.concatenate([msgs, (msgs @ code.parity_matrix).astype(np.uint8) & 1], axis=1)


def packed_syndromes(counts: np.ndarray) -> np.ndarray:
    """Packed syndromes from (..., 2m+1) check counts: a word's count of set
    bits against each column of the parity-check matrix, whole numbers (a
    sum of partial counts over parts of the word will do). Syndrome bit b
    is the parity of count b."""
    bits = counts.astype(np.int64) & 1
    return bits @ (1 << np.arange(bits.shape[-1], dtype=np.int64))

