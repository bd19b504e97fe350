"""Gray-mapped M-PAM over AWGN with exact / max-log LLR demapping.

Channel model: y = sqrt(rho) * x + z, z ~ N(0, 1) per real observation,
rho = 10^(snr_db/10). LLR sign convention: positive lambda favors bit 0,
so for 2-PAM lambda = 2 * sqrt(rho) * y. The max-log output carries the
same scale and sign as the exact form; for 2-PAM the two coincide.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ConfigError

LLR_EXACT = "exact"
LLR_MAXLOG = "maxlog"

# SNR points the seed key and the channel take: below -1000 dB the key of
# sim's trial generator is negative, and above ~3,080 dB rho = 10^(snr/10)
# overflows
SNR_RANGE_DB = (-1000.0, 3000.0)


@dataclass(frozen=True)
class ChannelConfig:
    M: int
    snr_db: float
    llr_mode: str = LLR_EXACT

    def __post_init__(self):
        if not isinstance(self.M, numbers.Integral) or self.M not in (2, 4, 8):
            raise ConfigError(f"unsupported constellation order M={self.M!r}")
        lo, hi = SNR_RANGE_DB
        real = isinstance(self.snr_db, numbers.Real) and not isinstance(self.snr_db, bool)
        if not (real and lo <= self.snr_db <= hi):  # also rejects NaN
            raise ConfigError(f"snr_db must be a real number in [{lo:g}, {hi:g}] dB, "
                              f"got {self.snr_db!r}")
        if self.llr_mode not in (LLR_EXACT, LLR_MAXLOG):
            raise ConfigError(f"unknown llr_mode {self.llr_mode!r}")

    @property
    def bits_per_symbol(self) -> int:
        return int(self.M).bit_length() - 1

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
    rank = np.arange(M)[::-1]  # each level's place by descending amplitude
    labels = rank ^ (rank >> 1)
    level_of_label = np.zeros(M)
    level_of_label[labels] = levels
    levels.setflags(write=False)
    labels.setflags(write=False)
    level_of_label.setflags(write=False)
    return levels, labels, level_of_label


def modulate(bits, cfg: ChannelConfig) -> np.ndarray:
    b = np.asarray(bits).reshape(-1)
    nb = cfg.bits_per_symbol
    if b.size % nb:
        raise ValueError(f"bit count {b.size} not divisible by log2(M)={nb}")
    if not np.isin(b, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    _, _, level_of_label = pam_constellation(cfg.M)
    groups = b.reshape(-1, nb).astype(np.intp)
    labels = reduce(lambda label, bit: label << 1 | bit, groups.T)  # MSB first
    return level_of_label[labels]


def awgn_transmit(symbols, cfg: ChannelConfig, rng) -> np.ndarray:
    x = np.asarray(symbols, dtype=float)
    return cfg.sqrt_rho * x + rng.standard_normal(x.shape)


def _logsumexp(a: np.ndarray) -> np.ndarray:  # along each row
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True)))[:, 0]


def demap_llr(y, cfg: ChannelConfig) -> np.ndarray:
    """Per-bit LLRs, shape (num_symbols, log2(M)); positive favors bit 0.
    From each sample's squared distances d2 to the scaled levels: per bit,
    the log-sum-exp of -d2 / 2 over the levels whose label has the bit 0,
    less that over those with the bit 1; with max-log, half the difference
    of the two sides' least distances."""
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    levels, labels, _ = pam_constellation(cfg.M)
    nb = cfg.bits_per_symbol
    d2 = (yv[:, None] - cfg.sqrt_rho * levels) ** 2
    out = np.empty((yv.size, nb))
    for k in range(nb):
        zero = (labels >> (nb - 1 - k)) & 1 == 0
        if cfg.llr_mode == LLR_EXACT:
            out[:, k] = _logsumexp(-d2[:, zero] / 2.0) - _logsumexp(-d2[:, ~zero] / 2.0)
        else:
            out[:, k] = (d2[:, ~zero].min(axis=1) - d2[:, zero].min(axis=1)) / 2.0
    return out


def make_interleaver(size: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(size)
    perm.setflags(write=False)
    return perm
