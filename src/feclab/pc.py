"""Product codes: construction, iterative BDD, and the soft-aided
bit-marking (SABM) decoder.

SABM augments iBDD with a channel-LLR mask: bits with |llr| > delta are
highly reliable (HRBs), and per component word the d0-t-1 smallest-|llr|
non-HRB positions are the flip candidates (HUBs). SABM runs if and only
if LLRs are given: in the first md_iters iterations a marking pass
(`sabm_pass`) vetoes every BDD proposal that touches an HRB or a bit
whose crossing word has a zero syndrome and, on a failure or a vetoed
proposal, retries BDD with the least reliable non-HRB bits flipped.

Decoding runs on syndromes, in one core that the staircase decoder
shares. `SyndromeState` keeps the packed syndrome of every word of a set
of word groups in which every bit lies in two words (here group 2b holds
the rows of block b of a stack and group 2b + 1 its columns). Every flip
updates the syndrome of its word and of the crossing word, so the
maintained syndromes always equal the syndromes of the bits. The plain
pass, `decode_pass`, decodes the words of a set of groups that have a
nonzero syndrome (a clean word is a no-op), yet `bdd_calls` counts w per
group pass, as if every word were decoded, plus one per flip retry. A PC
SABM block and a staircase window pass one group at a time, as a Python
int, which reads a view of its syndromes and its rows of the layout; only
a PC iBDD stack, decoded in lockstep, passes an array of groups. A
marking pass, `sabm_pass`, decodes one group on a Python list of the
syndromes of a slot range that holds it, made by `syndrome_list`, and
returns the flips it accepted: `sabm_decode` reads its block's list once
and keeps it through all its marking iterations, then flips their bits at
once, while a staircase window reads the list of its pairs per marking
pass and flips through the state. What a marking pass reads that does not
change within a block is built once: the flip syndromes as a list per
`SyndromeState`, the HRB flags as bytes and the flip candidates as one
list per word per `MarkState`, per `Layout` the crossing syndrome slot of
each position, per group and slot range, as a tuple, and per component
code the BDD pattern of every syndrome as a list (`BchCode.bdd_patterns`,
made on the first marking pass).
"""

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import lru_cache
from itertools import compress

import numpy as np

from .bch import BchCode, encode_many, packed_syndromes
from .errors import ConfigError


@dataclass(frozen=True)
class PcCode:
    component: BchCode

    @property
    def w(self) -> int:
        return self.component.n

    @property
    def k(self) -> int:
        return self.component.k


@dataclass(frozen=True)
class SabmParams:
    delta: float = 5.0
    total_iters: int = 10
    md_iters: int = 5
    failure_flip_attempts: int = 1

    def __post_init__(self):
        if not self.delta >= 0:  # also rejects NaN; inf makes no bit an HRB
            raise ConfigError(f"delta must be non-negative, got {self.delta}")
        if self.total_iters < 1:
            raise ConfigError(f"total_iters must be >= 1, got {self.total_iters}")
        if not 0 <= self.md_iters <= self.total_iters:
            raise ConfigError(f"need 0 <= md_iters <= total_iters, got md_iters="
                              f"{self.md_iters} and total_iters={self.total_iters}")
        if self.failure_flip_attempts < 0:
            raise ConfigError("failure_flip_attempts must be non-negative")


@dataclass
class DecodeStats:
    bdd_calls: int = 0
    miscorrections_detected: int = 0
    flips_attempted: int = 0
    flips_accepted: int = 0

    def __iadd__(self, other: "DecodeStats") -> "DecodeStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


@dataclass(frozen=True)
class MarkState:
    """Flip mask frozen at channel time, for the words along each axis (for
    a product block, rows are axis 0 and columns axis 1), in the marking
    pass's scalar reads. Byte i * n + j of hrb[axis] is 1 if position j of
    word i is an HRB, else 0. candidates[axis][i] lists word i's first
    min(d0-2, non-HRB count) positions by ascending |llr|, ties to the
    lowest index: its non-HRBs, as many as SABM reads. Its first d0-t-1 are
    the HUBs; a failed word gets flip_attempts retries, one per HUB."""

    candidates: tuple = field(repr=False)     # axes lists of w position lists
    flip_attempts: int
    hrb: tuple = field(repr=False)            # axes bytes of w * n


def _stable_order_prefix(a: np.ndarray, keep: int) -> np.ndarray:
    """np.argsort(a, axis=-1, kind="stable")[..., :keep], for non-negative
    float64 a (inf included) whose rows hold at least keep entries, by keep
    rounds of argmin, which picks the first of equal minima. The rounds run
    on the int64 bit patterns of a, which sort as its values do, and mask
    each pick with the int64 maximum, above every pattern: a C-contiguous a
    is overwritten."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.int64).reshape(-1, a.shape[-1])
    flat, starts = bits.reshape(-1), np.arange(0, bits.size, bits.shape[1])
    out, masked = np.empty((keep, len(bits)), dtype=np.int64), np.iinfo(np.int64).max
    for pick in out:
        bits.argmin(axis=1, out=pick)
        flat[starts + pick] = masked
    return out.T.reshape(a.shape[:-1] + (keep,))


def make_marks(a: np.ndarray, params: SabmParams, code: BchCode,
               offset: int = 0) -> MarkState:
    """Marks for words whose positions offset.. carry the |llr| values
    a[axis, i]; positions below offset are unmarked (never HRB, never
    flipped). a is the working copy of the order's rounds and is
    overwritten."""
    hrb = a > params.delta
    order = _stable_order_prefix(a, code.d0 - 2)
    # HRBs have |llr| > delta, so a stable order puts every non-HRB first: a
    # word's candidates end at its first HRB among its d0-2 picks, if any
    picked = np.take_along_axis(hrb, order, axis=-1)
    candidates = (offset + order).tolist()
    short = picked[..., -1].nonzero()
    for axis, i, first in zip(*short, picked[short].argmax(axis=-1)):
        del candidates[axis][i][first:]
    flags = np.concatenate([np.zeros(hrb.shape[:-1] + (offset,), bool), hrb], axis=-1)
    return MarkState(candidates=tuple(candidates),
                     flip_attempts=min(code.d0 - code.t - 1, params.failure_flip_attempts),
                     hrb=tuple(axis.tobytes() for axis in flags))


def pc_encode(code: PcCode, data) -> np.ndarray:
    """(k, k) data into a (w, w) block whose every row and column is a
    codeword; float32 parity counts, at most k, cast to uint8 exactly."""
    k = code.k
    if np.shape(data) != (k, k):
        raise ValueError(f"data must be ({k}, {k})")
    block = np.empty((code.w, code.w), dtype=np.uint8)
    block[:k] = encode_many(code.component, data)
    block[k:] = code.component.parity_matrix.T @ block[:k]
    block[k:] &= 1
    return block


def mark_bits(llr: np.ndarray, params: SabmParams, code: PcCode) -> MarkState:
    a = np.abs(llr)
    w = code.w
    if a.shape != (w, w):
        raise ValueError(f"LLR grid must be ({w}, {w})")
    return make_marks(np.stack([a, a.T]), params, code.component)


class Layout:
    """Where the words of G groups of w words each lie in a bit array.

    Position j of word i of group g is flat bit base[g, j] + i * stride[g, j].
    The crossing word through that bit sits in syndrome slot cross[g, j] and
    holds the bit at position shift[g, j] + i. `syndromes(code, bits)`
    returns the packed syndrome of every word of a bit array, flat and
    group by group, from one float32 copy of the bits; it may cover groups
    beyond the G that are decoded, which only crossing updates change.
    """

    def __init__(self, syndromes: Callable, base, stride, cross, shift):
        self.syndromes = syndromes
        self.base, self.stride, self.cross, self.shift = arrays = [
            np.asarray(a, dtype=np.int64) for a in (base, stride, cross, shift)]
        for a in arrays:
            a.setflags(write=False)
        # per group, its rows of the four tables, for a flip in one group
        self.tables = tuple(zip(*arrays))
        # per group, shift as a tuple, for the SABM pass's scalar reads
        self.shifts, self._slots = tuple(map(tuple, self.shift.tolist())), {}

    def slots(self, group: int, lo: int, hi: int) -> tuple:
        """Per position of a word of `group`, for the SABM pass's scalar
        reads: the index of its crossing word's syndrome in syn[lo:hi], or
        hi - lo if that word lies outside. Built once per (group, lo, hi)."""
        key = group, lo, hi
        if key not in self._slots:
            c = self.cross[group] - lo
            self._slots[key] = tuple(np.where((c >= 0) & (c < hi - lo), c, hi - lo).tolist())
        return self._slots[key]


@lru_cache(maxsize=None)
def block_layout(w: int, blocks: int) -> Layout:
    """Rows (group 2b) and columns (group 2b + 1) of each block b of a
    (blocks, w, w) stack: position j of row i of block b is bit (b, i, j),
    which is position i of its column j."""
    j = np.arange(w)
    b = np.arange(blocks)[:, None, None]

    def syndromes(code, bits):
        # a single block may come as (w, w); rows are f @ C, columns f^T @ C
        f, c = bits.reshape(-1, w, w).astype(np.float32), code.check_matrix
        return packed_syndromes(np.stack([f @ c, f.transpose(0, 2, 1) @ c], axis=1)).reshape(-1)

    return Layout(syndromes, base=(b * w * w + [j, j * w]).reshape(-1, w),
                  stride=np.tile([np.full(w, w), np.ones(w)], (blocks, 1)),
                  cross=(b * 2 * w + [w + j, j]).reshape(-1, w),
                  shift=np.zeros((2 * blocks, w)))


class SyndromeState:
    """Packed syndromes of every word of a layout over a bit array, which
    is decoded in place: syn[g * w + i] is the syndrome of word i of group
    g. Flips made through `flip`, each making its word a codeword, update
    the bits, the flipped word's syndrome and each crossing word's
    syndrome, so `syn` always equals the syndromes of the bits."""

    def __init__(self, code: BchCode, bits: np.ndarray, layout: Layout):
        if not (isinstance(bits, np.ndarray) and bits.flags.c_contiguous):
            raise ValueError("bits must be a C-contiguous array, as they are decoded in place")
        self.code, self.bits, self.layout = code, bits, layout
        self.flat = bits.reshape(-1)
        self.w = bits.shape[-1]  # words per group: a block's side, in both layouts
        self.syn = layout.syndromes(code, bits)
        self.h = code.flip_syndrome.tolist()  # for the marking pass's scalar reads

    def flip(self, groups, words: np.ndarray, positions: np.ndarray):
        """Flip bit positions[k] of word words[k] of group groups[k] (or of
        the one group `groups`, a Python int, through its rows of the
        layout's tables), for every k; no (group, word, position)
        triple may repeat. Each flipped word's flips must make it a
        codeword (a pattern its syndrome decodes to, or a flip retry's),
        as in the decoders' passes: its syndrome is stored as 0 before the
        crossing words' syndromes are updated."""
        lay, h = self.layout, self.code.flip_syndrome
        if isinstance(groups, int):
            base, stride, cross, shift = lay.tables[groups]
            at = positions
        else:
            base, stride, cross, shift = lay.base, lay.stride, lay.cross, lay.shift
            at = groups * base.shape[1] + positions  # (group, position) in the flat tables
        self.flat[base.take(at) + words * stride.take(at)] ^= 1
        self.syn[groups * self.w + words] = 0
        np.bitwise_xor.at(self.syn, cross.take(at), h[shift.take(at) + words])


def syndrome_list(state: SyndromeState, lo: int, hi: int) -> list:
    """The marking pass's list of syndromes: those of slots lo..hi-1 as
    Python ints, then the one slot that every crossing word outside lo..hi
    shares, which never reads 0 (syndromes are below 2^17)."""
    return state.syn[lo:hi].tolist() + [1 << 62]


def sabm_pass(state: SyndromeState, group: int, cs: list, lo: int, marks: MarkState,
              axis: int, stats: DecodeStats) -> tuple[list, list]:
    """SABM on the words of one group that have a nonzero syndrome, in
    ascending order, on cs, a `syndrome_list` of a slot range lo..hi that
    holds the group: word i's own syndrome is that of slot group * w + i,
    and the crossing word through its position j is cs[slot[j]] (the
    group's `Layout.slots` tuple). Word i of the group is word i of marks'
    axis. A word's BDD proposal is vetoed if it touches an HRB of the word
    or a bit whose crossing word has a zero syndrome. A failure retries
    with its candidates c[0], c[1], ... flipped one at a time, at most
    flip_attempts retries; a vetoed proposal of weight e retries once with
    c[:d0 - e - 1] flipped at once. Both act on the pre-BDD word and take
    the first retry that decodes to a pattern the veto passes; else the
    word is left as it is. A veto reads crossing syndromes that earlier
    words of the pass changed, so each accepted pattern zeroes its word's
    entry of cs and updates its crossing entries at once. BDD is one index
    into the code's `bdd_patterns` list per proposal or retry; `bdd_calls`
    counts w, as a plain pass does, plus one per retry. Returns the words
    and positions of the accepted patterns, one entry per bit, which the
    caller flips in the bits, and in the state's syndromes unless it keeps
    cs."""
    w, n, d0, h = state.w, state.code.n, state.code.d0, state.h
    patterns, shift = state.code.bdd_patterns, state.layout.shifts[group]
    slot, own = state.layout.slots(group, lo, lo + len(cs) - 1), group * w - lo
    hrb, candidates, attempts = marks.hrb[axis], marks.candidates[axis], marks.flip_attempts
    # no word of a group crosses another: only its own acceptance changes its entry
    pending = cs[own:own + w]

    words, positions = [], []
    retries = miscorrections = accepted = 0
    for i, syn in zip(compress(range(w), pending), filter(None, pending)):
        row = i * n
        # syn != 0, so its pattern is never (): None is a failure
        pattern, tries = patterns[syn], ()
        if pattern is None:  # one candidate per retry, as 1-tuples
            pattern, tries = (), zip(candidates[i][:attempts])
        for p in pattern:
            if hrb[row + p] or not cs[slot[p]]:  # vetoed: drop it, retry once
                miscorrections += 1
                flips = candidates[i][:d0 - len(pattern) - 1]
                pattern, tries = (), [flips] if flips else []
                break
        for flips in tries:
            retries += 1
            change = syn
            for p in flips:
                change ^= h[p]
            got = patterns[change]
            if got is None:
                continue
            # never empty: syn != 0 is the syndrome of flips ^ got
            total = set(flips) ^ set(got)
            for p in total:
                if hrb[row + p] or not cs[slot[p]]:
                    break
            else:
                pattern = total
                accepted += 1
                break
        if not pattern:  # dropped: a nonzero syndrome never decodes to ()
            continue
        for p in pattern:
            cs[slot[p]] ^= h[shift[p] + i]
        cs[own + i] = 0
        words += [i] * len(pattern)
        positions += pattern
    stats.bdd_calls += w + retries
    stats.miscorrections_detected += miscorrections
    stats.flips_attempted += retries
    stats.flips_accepted += accepted
    return words, positions


def decode_pass(state: SyndromeState, groups, stats: DecodeStats) -> bool | np.ndarray:
    """Decode the words with a nonzero syndrome of each of `groups` and
    apply their flips, all at once, as the words of a group share no bits
    and the groups are disjoint word sets. `groups` is one group as a
    Python int (the rows or columns of a PC SABM block, a staircase pair)
    or, for an iBDD stack, an array of them. Returns whether any bit of the
    group was flipped, for an int group, or per group of an array."""
    w = state.w
    table = state.code.error_positions
    if isinstance(groups, int):
        # one group: its syndromes are a view, and no group array is built
        stats.bdd_calls += w
        own = state.syn[groups * w:(groups + 1) * w]
        hit = own.nonzero()[0]
        if hit.size == 0:
            return False
        pos = table.take(own[hit], axis=0).ravel()
        at = (pos >= 0).nonzero()[0]  # word at // 2 (t = 2 entries a word)
        if at.size:
            state.flip(groups, hit[at >> 1], pos[at])
        return bool(at.size)
    groups = np.asarray(groups)
    stats.bdd_calls += w * groups.size
    own = state.syn.reshape(-1, w).take(groups, axis=0).ravel()
    hit = own.nonzero()[0]
    pos = table.take(own[hit], axis=0).ravel()
    at = (pos >= 0).nonzero()[0]
    group, words = np.divmod(hit[at >> 1], w)
    state.flip(groups.take(group), words, pos[at])
    changed = np.zeros(groups.size, dtype=bool)
    changed[group] = True
    return changed


def ibdd_decode(code: PcCode, blocks, iters: int) -> tuple[np.ndarray, DecodeStats]:
    """iBDD of one (w, w) block or of a (B, w, w) stack; returns the decoded
    bits in the input's shape and the DecodeStats summed over the stack.
    The blocks of a stack are decoded in lockstep, each exactly as on its
    own: an iteration is a row pass and then a column pass over the active
    blocks, and a block leaves at its first iteration that flips nothing."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    blk = np.array(blocks, dtype=np.uint8, order="C")
    w = code.w
    if blk.shape[-2:] != (w, w) or blk.ndim not in (2, 3):
        raise ValueError(f"block must be ({w}, {w}) or a stack of them")
    count = blk.size // (w * w)
    state, stats = SyndromeState(code.component, blk, block_layout(w, count)), DecodeStats()
    rows = 2 * np.arange(count)  # row group of each active block; its columns follow
    for _ in range(iters):
        if rows.size == 0:
            break
        rows = rows[decode_pass(state, rows, stats) | decode_pass(state, rows + 1, stats)]
    return blk, stats


def sabm_decode(code: PcCode, block, llr: np.ndarray,
                params: SabmParams) -> tuple[np.ndarray, DecodeStats]:
    """SABM of one (w, w) block: md_iters marking iterations, then plain
    ones up to total_iters, each a row pass and then a column pass. An
    iteration that flips nothing ends the decode, except that a marking
    iteration that leaves a nonzero syndrome, which cannot progress with
    the same vetoes in place, hands the block to the plain ones. Returns
    the decoded bits and the DecodeStats.

    The marking iterations run on one Python list of the block's 2w
    syndromes, read once from the state and kept by `sabm_pass`. Their
    flips are applied to the bits once, at the end, and the list is then
    written back to the state for the plain iterations' `decode_pass`. No
    bit flips twice there: a flip makes its word a codeword, and the veto
    keeps every bit of a codeword, so that word stays one and the bit's
    crossing word can never flip it back."""
    marks = mark_bits(llr, params, code)
    blk = np.array(block, dtype=np.uint8, order="C")
    w = code.w
    if blk.shape != (w, w):
        raise ValueError(f"block must be ({w}, {w})")
    state, stats = SyndromeState(code.component, blk, block_layout(w, 1)), DecodeStats()
    # every crossing word of a block lies in its 2w slots: the extra one is never read
    cs = syndrome_list(state, 0, 2 * w)
    flipped = ([], []), ([], [])  # per group, the words and positions it flipped
    stalled = False
    for _ in range(params.md_iters):
        changed = False
        for g, (words, positions) in enumerate(flipped):  # rows, then columns: axis g
            new_words, new_positions = sabm_pass(state, g, cs, 0, marks, g, stats)
            words += new_words
            positions += new_positions
            changed |= bool(new_words)
        if not changed:
            stalled = True
            break
    bits = []  # the flat index of every flip, none twice (see above)
    for (base, stride, _, _), (words, positions) in zip(state.layout.tables, flipped):
        if words:
            at = np.array(positions)
            bits.append(base.take(at) + np.array(words) * stride.take(at))
    if bits:
        state.flat[np.concatenate(bits)] ^= 1
        state.syn[:] = cs[:-1]
    if stalled and not state.syn.any():
        return blk, stats
    for _ in range(params.md_iters, params.total_iters):
        if not (decode_pass(state, 0, stats) | decode_pass(state, 1, stats)):
            break
    return blk, stats
