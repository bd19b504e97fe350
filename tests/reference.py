"""Bit-level reference decoders for product and staircase codes.

A differential oracle for the syndrome-domain decoders of `feclab.pc` and
`feclab.scc`: they keep no syndrome state and no layout. Every pass
recomputes the syndromes of its words from the bits with
`block_syndromes`, and the SABM veto recomputes a crossing word from the
bits, and only a crossing word inside the window. Only the decoding
policy is shared: `decode_syndromes` for BDD and `sabm_resolve` for the
flip sets of a failure or a suspicious proposal.
"""

import numpy as np

from feclab.bch import block_syndromes, decode_syndromes
from feclab.pc import DecodeStats, PcCode, SabmParams, sabm_resolve
from feclab.scc import SccCode


def word_marks(a: np.ndarray, delta: float, offset: int = 0):
    """HRB flags and non-HRB flip order (ascending |llr|, ties to the lower
    position) of a word whose positions offset.. carry the |llr| values a;
    positions below offset are neither HRB nor ever flipped."""
    hrb = np.zeros(offset + a.size, dtype=bool)
    hrb[offset:] = a > delta
    order = [offset + j for j in np.argsort(a, kind="stable").tolist() if not a[j] > delta]
    return hrb, np.array(order, dtype=np.int64)


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


def pc_decode(code: PcCode, hard, iters: int, llr=None, params: SabmParams | None = None,
              early_exit: bool = True):
    """iBDD, or SABM when llr is given, of a product block: group 0 holds
    the rows and group 1 the columns."""
    comp, bits = code.component, np.array(hard, dtype=np.uint8)
    params = params or SabmParams()
    md_iters = 0 if llr is None else params.md_iters
    attempts = min(comp.d0 - comp.t - 1, params.failure_flip_attempts)
    stats = DecodeStats()

    def words(g):
        return bits if g == 0 else bits.T

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
        if early_exit and not changed:
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
        return np.concatenate([chain[g].T, chain[g + 1]], axis=1)

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
