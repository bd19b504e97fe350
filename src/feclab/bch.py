"""Extended BCH component codes with t=2 bounded-distance decoding.

Codeword layout (bit index = polynomial degree): message at positions
0..k-1, parity at k..k+deg(g)-1, and for extended codes one overall-parity
bit at position n-1. A single flipped bit at unextended position j shows up
as S1 = alpha^j.

Syndromes are also kept packed into one int per word: S1 in bits 0..m-1,
S3 in bits m..2m-1 and the overall parity in bit 2m. A word's packed
syndrome is the XOR of `flip_syndrome[j]` over its set bits j, so a flip
updates it with one XOR, and it is 0 exactly for codewords. Decoding reads
the error pattern of weight <= t for the whole packed syndrome from a table
built once per code over all n positions, the overall-parity bit included:
as d0 > 2t, no two such patterns share a syndrome.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gf2m import GaloisField, build_field, gf_mul, poly_degree, poly_mul, poly_rem


@dataclass(frozen=True)
class BchCode:
    field: GaloisField
    n: int
    k: int
    t: int
    d0: int
    extended: bool
    generator: int
    # decode/encode tables, derived once in build_code
    # parity generator, float32 so that encode_many's matmul runs in BLAS;
    # its integer counts (at most k <= 239) are exact
    parity_matrix: np.ndarray = field(repr=False, default=None)
    # packed syndrome of a word with only bit j set, per position j
    flip_syndrome: np.ndarray = field(repr=False, default=None)
    # (n, 2m+1) binary parity-check matrix: row j holds the bits of
    # flip_syndrome[j]. Stored as float32 so that words @ check_matrix runs
    # in BLAS; its integer counts (at most n <= 256) are exact.
    check_matrix: np.ndarray = field(repr=False, default=None)
    # BDD for every packed syndrome, at index S1 | S3 << m | parity << 2m:
    # the error count (-1 when no pattern lies within radius t) and the
    # error positions in ascending order (-1 where unused)
    error_count: np.ndarray = field(repr=False, default=None)
    error_positions: np.ndarray = field(repr=False, default=None)


def _minimal_poly(f: GaloisField, power: int) -> int:
    """Minimal polynomial over GF(2) of alpha^power, bit-packed."""
    order = f.order
    conj = set()
    e = power % order
    while e not in conj:
        conj.add(e)
        e = (e * 2) % order
    # multiply out prod (x + alpha^e) with coefficients in GF(2^m)
    coeffs = [1]
    for e in sorted(conj):
        root = int(f.exp_table[e])
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] ^= c
            nxt[i] ^= gf_mul(f, c, root)
        coeffs = nxt
    packed = 0
    for i, c in enumerate(coeffs):
        if c not in (0, 1):
            raise AssertionError("minimal polynomial has non-binary coefficient")
        packed |= c << i
    return packed


def build_code(m: int, t: int, extended: bool) -> BchCode:
    if t != 2:
        raise ConfigError(f"only t=2 component codes are supported, got t={t}")
    if not 4 <= m <= 8:
        raise ConfigError(f"component code needs 4 <= m <= 8, got m={m}")
    f = build_field(m)
    gen = poly_mul(_minimal_poly(f, 1), _minimal_poly(f, 3))
    n_unext = f.order
    k = n_unext - poly_degree(gen)
    n = n_unext + (1 if extended else 0)
    d0 = 2 * t + 1 + (1 if extended else 0)

    # parity_matrix[i] = bits of x^(i+deg g) mod g, so that the parity of a
    # message m(x) placed at positions 0..k-1 is m @ parity_matrix (mod 2)
    d = poly_degree(gen)
    rems = [poly_rem(1 << d, gen)]
    for _ in range(k - 1):
        r = rems[-1] << 1  # x^(i+1+d) mod g from x^(i+d) mod g
        rems.append(r ^ gen if r >> d else r)
    pm = ((np.array(rems)[:, None] >> np.arange(d)) & 1).astype(np.float32)
    # a single error at unextended position j has S1 = alpha^j, S3 = alpha^3j
    j = np.arange(n_unext)
    flip_syn = np.zeros(n, dtype=np.int64)
    flip_syn[:n_unext] = f.exp_table[j] | (f.exp_table[(3 * j) % f.order] << m)
    if extended:
        flip_syn |= 1 << (2 * m)
    check = ((flip_syn[:, None] >> np.arange(2 * m + 1)) & 1).astype(np.float32)
    # syndrome decoding table: every error pattern of weight <= t has a
    # packed syndrome of its own; every other syndrome is a decoding failure
    first, second = np.triu_indices(n, 1)
    count = np.full(1 << (2 * m + extended), -1, dtype=np.int8)
    positions = np.full((count.size, 2), -1, dtype=np.int16)
    count[0] = 0
    count[flip_syn] = 1
    positions[flip_syn, 0] = np.arange(n)
    pair_syn = flip_syn[first] ^ flip_syn[second]
    count[pair_syn] = 2
    positions[pair_syn] = np.stack([first, second], axis=1)
    for arr in (pm, flip_syn, check, count, positions):
        arr.setflags(write=False)
    return BchCode(field=f, n=n, k=k, t=t, d0=d0, extended=extended,
                   generator=gen, parity_matrix=pm, flip_syndrome=flip_syn,
                   check_matrix=check, error_count=count, error_positions=positions)


def encode_many(code: BchCode, messages: np.ndarray) -> np.ndarray:
    """Systematically encode a (R, k) batch of messages into (R, n) words."""
    msgs = np.asarray(messages, dtype=np.uint8)
    if msgs.ndim != 2 or msgs.shape[1] != code.k:
        raise ValueError(f"message batch must be (R, {code.k})")
    parity = (msgs @ code.parity_matrix).astype(np.uint8) & 1
    words = np.concatenate([msgs, parity], axis=1)
    if code.extended:
        ext = (words.sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)
        words = np.concatenate([words, ext[:, None]], axis=1)
    return words


def block_syndromes(code: BchCode, words) -> np.ndarray:
    """Packed syndromes of every row of a (R, n) bit matrix, from one GF(2)
    matmul against the parity-check matrix."""
    counts = np.asarray(words, dtype=np.float32) @ code.check_matrix
    bits = counts.astype(np.int64) & 1
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))


def decode_syndromes(code: BchCode, syn: int):
    """Bounded-distance decode of one packed syndrome; returns the error
    pattern as a tuple of ascending positions, or None on failure."""
    nerr = int(code.error_count[syn])
    if nerr < 0:
        return None
    return tuple(code.error_positions[syn, :nerr].tolist())


class BlockProposals:
    """Vectorized BDD over a batch of words (one decode per row)."""

    __slots__ = ("nerr", "pos")

    def __init__(self, nerr, pos):
        self.nerr = nerr  # -1 failure, else error count 0..2
        self.pos = pos    # (R, 2) error positions, ascending, -1 where unused

    def flips(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, position) pairs of every flip that the successful rows'
        patterns make, as two flat arrays; no pair repeats."""
        rows, k = np.nonzero(np.arange(2) < self.nerr[:, None])
        return rows, self.pos[rows, k]


def decode_block(code: BchCode, syn: np.ndarray) -> BlockProposals:
    """Bounded-distance decode a batch of packed syndromes, one per row."""
    return BlockProposals(nerr=code.error_count[syn], pos=code.error_positions[syn])
