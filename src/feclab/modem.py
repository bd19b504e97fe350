"""Gray-mapped M-PAM over AWGN with exact / max-log LLR demapping.

Channel model: y = sqrt(rho) * x + z, z ~ N(0, 1) per real observation,
rho = 10^(snr_db/10). LLR sign convention: positive lambda favors bit 0,
so for 2-PAM lambda = 2 * sqrt(rho) * y. The max-log output carries the
same scale and sign as the exact form; for 2-PAM the two coincide.
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
    _, _, level_of_label = pam_constellation(cfg.M)
    groups = b.reshape(-1, nb).astype(np.intp)
    labels = reduce(lambda label, bit: label << 1 | bit, groups.T)  # MSB first
    return level_of_label[labels]


def awgn_transmit(symbols, cfg: ChannelConfig, rng) -> np.ndarray:
    x = np.asarray(symbols, dtype=float)
    return cfg.sqrt_rho * x + rng.standard_normal(x.shape)


def _logsumexp_into(terms: list, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """log(sum(exp(t))) over two or more equal-shape arrays, term by term in
    list order, written into out: the max, exp, add and log of a column-wise
    logsumexp, bit for bit. scratch holds two more arrays of that shape."""
    m, e = scratch
    np.maximum(terms[0], terms[1], out=m)
    if len(terms) == 2:
        # the larger term's exp(t - m) is exp(0) = 1, and x + 1 == 1 + x
        np.exp(np.subtract(np.minimum(terms[0], terms[1], out=out), m, out=out), out=out)
        np.add(out, 1.0, out=out)
    else:
        for t in terms[2:]:
            np.maximum(m, t, out=m)
        np.exp(np.subtract(terms[0], m, out=out), out=out)
        for t in terms[1:]:
            np.add(out, np.exp(np.subtract(t, m, out=e), out=e), out=out)
    return np.add(m, np.log(out, out=out), out=out)


def demap_llr(y, cfg: ChannelConfig) -> np.ndarray:
    """Per-bit LLRs, shape (num_symbols, log2(M)); positive favors bit 0.
    2-PAM, either mode: ((y + s)^2 - (y - s)^2) / 2, s = sqrt(rho), the
    exact form bit for bit as halving is exact; never -0.0. For M >= 4 the
    level terms and the exact LLR's log-sum-exps are written into a few
    arrays made once per call: one per level, the two sides of a bit's
    LLR and two scratch arrays."""
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if cfg.M == 2:  # y's distances to the levels of bit 1 (-s) and bit 0 (+s)
        d1, d0 = np.add(yv, cfg.sqrt_rho), np.subtract(yv, cfg.sqrt_rho)
        np.subtract(np.square(d1, out=d1), np.square(d0, out=d0), out=d1)
        return np.multiply(d1, 0.5, out=d1)[:, None]
    levels, labels, _ = pam_constellation(cfg.M)
    nb = cfg.bits_per_symbol
    exact = cfg.llr_mode == LLR_EXACT
    terms = [np.empty_like(yv) for _ in levels]
    side0, side1, *scratch = (np.empty_like(yv) for _ in range(4))
    for t, level in zip(terms, levels):
        # squared distance to the level; -d2 / 2 for the exact LLR, which
        # d2 * -0.5 gives bit for bit
        np.square(np.subtract(yv, cfg.sqrt_rho * level, out=t), out=t)
        if exact:
            np.multiply(t, -0.5, out=t)
    out = np.empty((yv.size, nb))
    for k in range(nb):
        bit = (labels >> (nb - 1 - k)) & 1
        zero, one = ([t for t, b in zip(terms, bit) if b == v] for v in (0, 1))
        if exact:
            np.subtract(_logsumexp_into(zero, side0, scratch),
                        _logsumexp_into(one, side1, scratch), out=out[:, k])
        else:
            out[:, k] = (reduce(np.minimum, one) - reduce(np.minimum, zero)) / 2.0
    return out


def make_interleaver(size: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(size)
    perm.setflags(write=False)
    return perm


def interleave(block, perm: np.ndarray, inverse: bool = False) -> np.ndarray:
    arr = np.asarray(block)
    flat = arr.reshape(-1)
    if flat.size != perm.size:
        raise ValueError(f"block size {flat.size} does not match permutation "
                         f"domain {perm.size}")
    if inverse:
        out = np.empty_like(flat)
        out[perm] = flat
    else:
        out = flat[perm]
    return out.reshape(arr.shape)
