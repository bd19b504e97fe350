"""Gray-mapped M-PAM over AWGN with exact / max-log LLR demapping.

Channel model: y = sqrt(rho) * x + z, z ~ N(0, 1) per real observation,
rho = 10^(snr_db/10). LLR sign convention: positive lambda favors bit 0,
so for 2-PAM lambda = 2 * sqrt(rho) * y. The max-log output carries the
same scale and sign as the exact form (they coincide for 2-PAM).
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ConfigError

LLR_EXACT = "exact"
LLR_MAXLOG = "maxlog"


@dataclass(frozen=True)
class ChannelConfig:
    M: int
    snr_db: float
    llr_mode: str = LLR_EXACT

    def __post_init__(self):
        if self.M not in (2, 4, 8):
            raise ConfigError(f"unsupported constellation order M={self.M}")
        if self.llr_mode not in (LLR_EXACT, LLR_MAXLOG):
            raise ConfigError(f"unknown llr_mode {self.llr_mode!r}")

    @property
    def bits_per_symbol(self) -> int:
        return self.M.bit_length() - 1

    @property
    def rho(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def sqrt_rho(self) -> float:
        return float(np.sqrt(self.rho))


@lru_cache(maxsize=None)
def pam_constellation(M: int):
    """Unit-energy PAM levels (ascending) and their Gray labels.

    Labels are the reflected binary Gray code assigned on descending
    amplitude, so the all-zero label sits on the largest level and the MSB
    equals the sign-based hard decision (0 for positive amplitudes).
    """
    raw = 2 * np.arange(M) - (M - 1)
    levels = raw / np.sqrt(np.mean(raw.astype(float) ** 2))
    idx_desc = np.arange(M - 1, -1, -1)
    labels = np.zeros(M, dtype=np.int64)
    for rank, i in enumerate(idx_desc):
        labels[i] = rank ^ (rank >> 1)
    level_of_label = np.zeros(M)
    for i in range(M):
        level_of_label[labels[i]] = levels[i]
    levels.setflags(write=False)
    labels.setflags(write=False)
    level_of_label.setflags(write=False)
    return levels, labels, level_of_label


def modulate(bits, cfg: ChannelConfig) -> np.ndarray:
    b = np.asarray(bits).reshape(-1)
    nb = cfg.bits_per_symbol
    if b.size % nb:
        raise ValueError(f"bit count {b.size} not divisible by log2(M)={nb}")
    _, _, level_of_label = pam_constellation(cfg.M)
    groups = b.reshape(-1, nb).astype(np.intp)
    labels = reduce(lambda label, bit: label << 1 | bit, groups.T)  # MSB first
    return level_of_label[labels]


def awgn_transmit(symbols, cfg: ChannelConfig, rng) -> np.ndarray:
    x = np.asarray(symbols, dtype=float)
    return cfg.sqrt_rho * x + rng.standard_normal(x.shape)


def _logsumexp(terms: list) -> np.ndarray:
    """log(sum(exp(t))) over equal-shape arrays, term by term in list order:
    the max, exp, add and log of a column-wise logsumexp, bit for bit."""
    if len(terms) == 1:
        return terms[0] + 0.0  # max + log(exp(0)); the + 0.0 clears -0.0
    m = reduce(np.maximum, terms)
    return m + np.log(reduce(np.add, [np.exp(t - m) for t in terms]))


def demap_llr(y, cfg: ChannelConfig) -> np.ndarray:
    """Per-bit LLRs, shape (num_symbols, log2(M)); positive favors bit 0."""
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    levels, labels, _ = pam_constellation(cfg.M)
    nb = cfg.bits_per_symbol
    # squared distance to each level, one vector per level
    d2 = [(yv - cfg.sqrt_rho * level) ** 2 for level in levels]
    exact = cfg.llr_mode == LLR_EXACT
    terms = [-d / 2.0 for d in d2] if exact else d2
    out = np.empty((yv.size, nb))
    for k in range(nb):
        bit = (labels >> (nb - 1 - k)) & 1
        zero, one = ([t for t, b in zip(terms, bit) if b == v] for v in (0, 1))
        out[:, k] = (_logsumexp(zero) - _logsumexp(one) if exact else
                     (reduce(np.minimum, one) - reduce(np.minimum, zero)) / 2.0)
    return out


@dataclass(frozen=True)
class Interleaver:
    permutation: np.ndarray


def make_interleaver(size: int, seed: int | None = None, rng=None) -> Interleaver:
    if rng is None:
        rng = np.random.default_rng(seed)
    perm = rng.permutation(size)
    perm.setflags(write=False)
    return Interleaver(permutation=perm)


def interleave(block, il: Interleaver, inverse: bool = False) -> np.ndarray:
    arr = np.asarray(block)
    flat = arr.reshape(-1)
    if flat.size != il.permutation.size:
        raise ValueError(f"block size {flat.size} does not match permutation "
                         f"domain {il.permutation.size}")
    if inverse:
        out = np.empty_like(flat)
        out[il.permutation] = flat
    else:
        out = flat[il.permutation]
    return out.reshape(arr.shape)
