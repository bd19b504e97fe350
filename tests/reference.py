"""Bit-level reference decoders for product and staircase codes, and
reference channel layers.

A differential oracle for the syndrome-domain decoders of `feclab.pc` and
`feclab.scc`: they keep no syndrome state and no layout. Every pass
recomputes the syndromes of its words from the bits with
`block_syndromes`, and the SABM veto recomputes a crossing word from the
bits, and only a crossing word inside the window. They share only the
code's `error_positions` table with feclab, which `decode_syndromes` reads
one syndrome at a time. The SABM policy is
this module's own, function by function: `sabm_resolve` lists the flip
sets of a failure or a suspicious proposal, `bit_flip_recover` tries
them, and `_suspicious` is the veto. `feclab.pc` runs the same policy as
one loop in its compiled marking pass. `plain_pass` and `sabm_pass` are
not references: they drive one pass of the compiled kernel at a time, for
the tests that check its passes one by one; nor is `encode_rows`, which
drives the kernel's word encoder on a batch of messages.

The channel references are the straightforward array forms that
`feclab.modem`, the kernel's channel and `feclab.bch` must equal bit for
bit: the demapper as a column-wise logsumexp over the label-masked
columns of one distance matrix, labels from an int64 matmul, the
interleaver as numpy fancy indexing, and parity from a uint8 matmul with
a parity generator built from the code's generator polynomial. The
generators, and the primitive polynomials that define alpha, are the
textbook table of binary BCH codes (Lin & Costello, Error Control Coding,
Appendix C), held here and not derived from `feclab`, so that the encoder
oracle does not share the construction under test. The closed-form
share of 2-PAM bits with |llr| <= delta, which the mask counts must
approach, is the oracle of the mask statistics.
"""

import math
from functools import lru_cache, reduce
from operator import xor

import numpy as np

from feclab import kernel
from feclab.bch import BchCode
from feclab.modem import ChannelConfig, pam_constellation
from feclab.pc import DecodeStats, Layout, PcCode, SabmParams, block_layout
from feclab.scc import SccCode


def check_matrix(code: BchCode) -> np.ndarray:
    """The (n, 2m+1) binary parity-check matrix: row j holds the bits of
    flip_syndrome[j]. float32, so that a matmul against it runs in BLAS;
    its integer counts (at most n <= 256) are exact."""
    width = 2 * code.n.bit_length() - 1  # 2m + 1
    return ((code.flip_syndrome[:, None] >> np.arange(width)) & 1).astype(np.float32)


def parity_matrix(code: BchCode) -> np.ndarray:
    """The (k, n - k) binary parity generator of the code's systematic
    encoder: row i holds the bits of code.parity[i], the overall parity
    last."""
    return (code.parity[:, None] >> np.arange(code.n - code.k)) & 1


def packed_syndromes(counts: np.ndarray) -> np.ndarray:
    """Packed syndromes from (..., 2m+1) check counts: a word's count of set
    bits against each column of the parity-check matrix, whole numbers (a
    sum of partial counts over parts of the word will do). Syndrome bit b
    is the parity of count b."""
    bits = counts.astype(np.int64) & 1
    return bits @ (1 << np.arange(bits.shape[-1], dtype=np.int64))


def block_syndromes(code: BchCode, words) -> np.ndarray:
    """Packed syndromes of every row of a (..., n) bit array, in its shape
    less the last axis, from one GF(2) matmul against the parity-check
    matrix."""
    return packed_syndromes(np.asarray(words, dtype=np.float32) @ check_matrix(code))


def decode_syndromes(code: BchCode, syn: int):
    """BDD of one packed syndrome by its row of `error_positions`: the
    error positions as an ascending tuple of Python ints, () for syndrome
    0, None for a failure."""
    pattern = tuple(p for p in code.error_positions[syn].tolist() if p >= 0)
    return pattern if pattern or not syn else None


def word_marks(a: np.ndarray, delta: float, offset: int = 0):
    """HRB flags and non-HRB flip order (ascending |llr|, ties to the lower
    position) of a word whose positions offset.. carry the |llr| values a;
    positions below offset are neither HRB nor ever flipped."""
    hrb = np.zeros(offset + a.size, dtype=bool)
    hrb[offset:] = a > delta
    order = [offset + j for j in np.argsort(a, kind="stable").tolist() if not a[j] > delta]
    return hrb, np.array(order, dtype=np.int64)


def _suspicious(pattern, hrb_row: np.ndarray, syn: np.ndarray, cross, live: range) -> bool:
    """True iff the pattern touches an HRB of its word or a bit whose
    crossing word (slot cross[p] of syn) is live and currently has a zero
    syndrome; a crossing word outside `live` never reads as a codeword."""
    return any(hrb_row[p] for p in pattern) or any(
        syn[cross[p]] == 0 and cross[p] in live for p in pattern)


def bit_flip_recover(code: BchCode, syndrome: int, attempts: list[list[int]],
                     stats: DecodeStats, suspicious) -> tuple[int, ...]:
    """Retry BDD with each flip set of `attempts` in turn, on the word whose
    packed syndrome is `syndrome` (no bits are read); returns the first total
    flip pattern that `suspicious` accepts, or () to revert the word."""
    for flips in attempts:
        stats.flips_attempted += 1
        change = reduce(xor, [code.flip_syndrome[p] for p in flips], syndrome)
        pat = decode_syndromes(code, change)
        stats.bdd_calls += 1
        if pat is None:
            continue
        total = tuple(sorted(set(flips).symmetric_difference(pat)))
        if not total or suspicious(total):
            # empty net pattern cannot happen for a non-codeword input;
            # treat it like a failed retry rather than a silent accept
            continue
        stats.flips_accepted += 1
        return total
    return ()


def sabm_resolve(code: BchCode, syndrome: int, proposal, order: np.ndarray,
                 suspicious, flip_attempts: int,
                 stats: DecodeStats) -> tuple[int, ...]:
    """SABM's final flip pattern for one word, given its packed syndrome,
    its BDD proposal (None on failure), its flip order and the word's
    miscorrection check. A failure retries with order[0], order[1], ...
    flipped one at a time, at most flip_attempts retries (callers cap
    flip_attempts at the HUB count). A suspicious proposal of weight e
    retries once with the d0 - e - 1 least reliable non-HRB positions
    flipped at once, operating on the pre-BDD word."""
    if proposal is None:
        attempts = [[p] for p in order[:flip_attempts].tolist()]
    elif not proposal or not suspicious(proposal):
        return proposal
    else:
        stats.miscorrections_detected += 1
        flips = order[:code.d0 - len(proposal) - 1].tolist()
        attempts = [flips] if flips else []
    return bit_flip_recover(code, syndrome, attempts, stats, suspicious)


def pc_words(bits, group):
    """The words of a product block's group: its rows (0) or columns (1)."""
    return bits if group == 0 else bits.T


def scc_words(chain, group):
    """The words of pair `group` of a chain B_0..B_P: row i of
    [transpose(B_g) | B_{g+1}], where B_{P+1} wraps to B_0 (the scratch
    group P of `feclab.scc.chain_layout`, which no window decodes)."""
    return np.concatenate([chain[group].T, chain[(group + 1) % len(chain)]], axis=1)


def _pass(comp, words, flip, crossing, group, stats, marks=None, attempts=0):
    """One pass over the words of `group`: BDD every word with a nonzero
    syndrome and flip its pattern, word by word. With marks(i) -> (hrb,
    order) the pattern is SABM's; its veto reads the crossing word of
    each flipped position, crossing(group, i, p) -> (group, index) or None
    when that word lies outside the window."""
    syn = block_syndromes(comp, words(group))
    stats.bdd_calls += len(syn)
    changed = suppressed = False
    for i in np.flatnonzero(syn).tolist():
        s = int(syn[i])
        pattern = decode_syndromes(comp, s)
        if marks is not None:
            hrb, order = marks(i)

            def codeword(p):
                c = crossing(group, i, p)
                return c is not None and not block_syndromes(comp, words(c[0])[c[1]][None])[0]

            def suspicious(pat):
                return any(hrb[p] for p in pat) or any(codeword(p) for p in pat)

            pattern = sabm_resolve(comp, s, pattern, order, suspicious, attempts, stats)
            suppressed |= not pattern
        for p in pattern or ():
            flip(group, i, p)
        changed |= bool(pattern)
    return changed, suppressed


def pc_decode(code: PcCode, hard, iters: int, llr=None, params: SabmParams | None = None):
    """iBDD, or SABM when llr is given, of a product block: group 0 holds
    the rows and group 1 the columns."""
    comp, bits = code.component, np.array(hard, dtype=np.uint8)
    params = params or SabmParams()
    md_iters = 0 if llr is None else params.md_iters
    attempts = min(comp.d0 - comp.t - 1, params.failure_flip_attempts)
    stats = DecodeStats()

    def words(g):
        return pc_words(bits, g)

    def flip(g, i, p):
        bits[(i, p) if g == 0 else (p, i)] ^= 1

    def crossing(g, i, p):
        return 1 - g, p

    it = 0
    while it < iters:
        sabm = it < md_iters
        changed = suppressed = False
        for g in (0, 1):
            marks = None
            if sabm:
                a = np.abs(llr if g == 0 else llr.T)
                marks = lambda i, a=a: word_marks(a[i], params.delta)
            c, s = _pass(comp, words, flip, crossing, g, stats, marks, attempts)
            changed |= c
            suppressed |= s
        it += 1
        if not changed:
            if not sabm or not suppressed:
                break
            it = max(it, md_iters)
    return bits, stats


def scc_decode(code: SccCode, received, llr_grids, params: SabmParams | None,
               window: int, ell: int):
    """Sliding-window decode of a staircase chain B_1..B_N after the zero
    block B_0: word i of pair p is row i of [transpose(B_p) | B_{p+1}]. The
    window starting at block s covers pairs s..newest, newest being
    min(s + window, N + 1) - 2; SABM marks the newest block and runs on
    the newest pair in the first md_iters iterations of the window."""
    comp, w = code.component, code.w
    params = params or SabmParams()
    attempts = min(comp.d0 - comp.t - 1, params.failure_flip_attempts)
    chain = np.zeros((len(received) + 1, w, w), dtype=np.uint8)
    for b, blk in enumerate(received):
        chain[b + 1] = blk
    stats = DecodeStats()

    def words(g):
        return scc_words(chain, g)

    def flip(g, i, p):
        if p < w:
            chain[g, p, i] ^= 1
        else:
            chain[g + 1, i, p - w] ^= 1

    for s in range(len(received)):
        newest = min(s + window, len(chain)) - 2

        def crossing(g, i, p, s=s, newest=newest):
            c = (g - 1, p) if p < w else (g + 1, p - w)
            return c if s <= c[0] <= newest else None

        for it in range(ell):
            for g in range(s, newest + 1):
                marks = None
                if llr_grids is not None and g == newest and it < params.md_iters:
                    a = np.abs(llr_grids[newest])
                    marks = lambda i, a=a: word_marks(a[i], params.delta, offset=w)
                _pass(comp, words, flip, crossing, g, stats, marks, attempts)
    return list(chain[1:]), stats


def plain_pass(state, group: int) -> bool:
    """`plain_pass` of `_passes.c` on a `Passes`; ValueError for a group it lacks."""
    changed = state.lib["plain_pass"](state.ref, group)
    if changed < 0:
        raise ValueError(f"group {group} is not a group of the state's layout")
    return changed > 0


def sabm_pass(state, group: int, axis: int, lo: int, hi: int) -> bool:
    """`sabm_pass` of `_passes.c` on a `Passes`; ValueError for a group or axis it lacks."""
    changed = state.lib["sabm_pass"](state.ref, group, axis, lo, hi)
    if changed < 0:
        raise ValueError(f"group {group} or axis {axis} is not in the state or its marks")
    return changed > 0


@lru_cache(maxsize=None)
def _rows(n: int) -> Layout:
    """The rows of an (n, n) block alone: the first group of `block_layout`."""
    rows = block_layout(n)
    return Layout(n, rows.base, rows.stride, rows.cross, rows.shift, groups=1)


def encode_rows(code: BchCode, messages) -> np.ndarray:
    """The kernel's systematic encoding (`kernel.encode`) of a (R, k) batch
    of messages into (R, n) words: the rows of (n, n) blocks, n messages a
    block."""
    msgs = np.asarray(messages, dtype=np.uint8)
    n, k = code.n, code.k
    if msgs.ndim != 2 or msgs.shape[1] != k:
        raise ValueError(f"message batch must be (R, {k})")
    blocks = np.zeros((-(-len(msgs) // n), n, n), dtype=np.uint8)
    words = blocks.reshape(-1, n)
    words[:len(msgs), :k] = msgs
    for block in blocks:
        kernel.encode(code, _rows(n), block)
    return words[:len(msgs)]


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))).squeeze(axis)


def demap_llr(y, cfg: ChannelConfig) -> np.ndarray:
    """Per-bit LLRs from the (symbols, M) matrix of squared distances."""
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    levels, labels, _ = pam_constellation(cfg.M)
    nb = cfg.bits_per_symbol
    d2 = (yv[:, None] - cfg.sqrt_rho * levels[None, :]) ** 2
    out = np.empty((yv.size, nb))
    for k in range(nb):
        bit = (labels >> (nb - 1 - k)) & 1
        if cfg.llr_mode == "exact":
            out[:, k] = logsumexp(-d2[:, bit == 0] / 2.0, axis=1) - \
                        logsumexp(-d2[:, bit == 1] / 2.0, axis=1)
        else:
            out[:, k] = (np.min(d2[:, bit == 1], axis=1) -
                         np.min(d2[:, bit == 0], axis=1)) / 2.0
    return out


def modulate(bits, cfg: ChannelConfig) -> np.ndarray:
    nb = cfg.bits_per_symbol
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, nb)
    labels = groups @ (1 << np.arange(nb - 1, -1, -1))
    return pam_constellation(cfg.M)[2][labels]


def interleave(block, perm: np.ndarray, inverse: bool = False) -> np.ndarray:
    """block with its flat entries permuted: entry j of the result is entry
    perm[j] of block, or with inverse, entry perm[j] of the result is
    entry j of block."""
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


def analytic_non_hrb_probability(snr_db: float, delta: float) -> float:
    """Gaussian-tail probability that a 2-PAM bit has |llr| <= delta."""
    rho = 10.0 ** (snr_db / 10.0)
    sq = math.sqrt(rho)
    thr = delta / (2.0 * sq)
    phi = lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return phi(thr - sq) - phi(-thr - sq)

# t = 2 BCH generator polynomials (octal, bit i = coefficient of x^i) and
# the primitive polynomials of alpha they were built over, per m
GENERATORS = {4: 0o721, 5: 0o3551, 6: 0o12471, 7: 0o41567, 8: 0o267543}
PRIMITIVE = {4: 0o23, 5: 0o45, 6: 0o103, 7: 0o211, 8: 0o435}


def poly_rem(dividend: int, divisor: int) -> int:
    """Remainder of binary polynomials (ints, bit i = coefficient of x^i)."""
    if divisor == 0:
        raise ValueError("polynomial division by zero")
    while dividend.bit_length() >= divisor.bit_length():
        dividend ^= divisor << (dividend.bit_length() - divisor.bit_length())
    return dividend


def alpha_powers(m: int) -> list[int]:
    """alpha^0 .. alpha^(2^m - 2) in GF(2^m), by an LFSR over PRIMITIVE[m]."""
    powers, x = [], 1
    for _ in range((1 << m) - 1):
        powers.append(x)
        x = x << 1 ^ (PRIMITIVE[m] if x >> (m - 1) else 0)
    return powers


@lru_cache(maxsize=None)
def _parity_rows(generator: int, k: int, d: int) -> np.ndarray:
    """Row i: the bits of x^(i+d) mod g."""
    return np.array([[poly_rem(1 << (i + d), generator) >> j & 1 for j in range(d)]
                     for i in range(k)], dtype=np.uint8)


@lru_cache(maxsize=None)
def unextended_bdd(m: int) -> dict[int, tuple[int, ...]]:
    """BDD of the unextended t = 2 BCH code of length 2^m - 1, over this
    module's own alpha: the packed syndrome S1 | S3 << m of every error
    pattern of weight <= 2 (S1 = alpha^j, S3 = alpha^3j for position j),
    mapped to its ascending positions. A syndrome not in it is a failure."""
    exp = alpha_powers(m)
    n = len(exp)
    col = [exp[j] | exp[3 * j % n] << m for j in range(n)]
    table = {0: ()}
    table.update({col[j]: (j,) for j in range(n)})
    table.update({col[i] ^ col[j]: (i, j) for i in range(n) for j in range(i + 1, n)})
    return table


def encode_many(code: BchCode, messages) -> np.ndarray:
    """Systematic eBCH encoding: message, BCH parity, overall parity."""
    msgs = np.asarray(messages, dtype=np.uint8)
    generator = GENERATORS[code.n.bit_length() - 1]  # n = 2^m
    parity = (msgs @ _parity_rows(generator, code.k, code.n - code.k - 1)) & 1
    words = np.concatenate([msgs, parity], axis=1)
    return np.concatenate([words, words.sum(axis=1, keepdims=True, dtype=np.int64) % 2],
                          axis=1).astype(np.uint8)
