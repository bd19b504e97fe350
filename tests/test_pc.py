"""Product-code construction, iBDD, and the bit-marking decoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from feclab.errors import ConfigError
from feclab.modem import ChannelConfig, awgn_transmit, demap_llr, modulate
from feclab.kernel import Passes, mark_words
from feclab.pc import (
    DecodeStats,
    PcCode,
    SabmParams,
    block_layout,
    ibdd_decode,
    make_marks,
    mark_bits,
    pc_encode,
    sabm_decode,
)

import reference
from reference import (_suspicious, block_syndromes, decode_syndromes, plain_pass, sabm_pass,
                       sabm_resolve)


@pytest.fixture(scope="module")
def pc32(ecc32_code):
    return PcCode(ecc32_code)


@pytest.fixture(scope="module")
def pc16(ecc16_code):
    return PcCode(ecc16_code)


def flip_order(marks, axis, index):
    """A word's flip candidates, as an array: the non-HRB entries of its
    kept stable order, which end at its first -1."""
    row = marks.candidates[axis, index]
    return row[:np.count_nonzero(row >= 0)]


def random_block(pc, rng):
    data = rng.integers(0, 2, size=(pc.k, pc.k), dtype=np.uint8)
    return pc_encode(pc, data)


def packed(code, word):
    """Packed syndrome of one word."""
    return int(block_syndromes(code, word[None, :])[0])


def channel_pass(block, snr_db, rng, mode="exact"):
    """2-PAM AWGN round trip; returns (received hard bits, LLR grid)."""
    cfg = ChannelConfig(2, snr_db, mode)
    y = awgn_transmit(modulate(block.reshape(-1), cfg), cfg, rng)
    llr = demap_llr(y, cfg).reshape(block.shape)
    return (llr < 0).astype(np.uint8), llr


# ---------------------------------------------------------------- encoding

def test_pc_encode_rows_and_columns_are_codewords(pc32, rng):
    block = random_block(pc32, rng)
    assert block.shape == (pc32.w, pc32.w)
    # every row and every column has a zero syndrome
    assert not block_syndromes(pc32.component, block).any()
    assert not block_syndromes(pc32.component, block.T).any()


def test_pc_encode_preserves_data_region(pc32, rng):
    data = rng.integers(0, 2, size=(pc32.k, pc32.k), dtype=np.uint8)
    block = pc_encode(pc32, data)
    assert np.array_equal(block[: pc32.k, : pc32.k], data)


def test_pc_encode_zero_data(pc16):
    block = pc_encode(pc16, np.zeros((pc16.k, pc16.k), dtype=np.uint8))
    assert not block.any()


def test_pc_encode_rejects_bad_shape(pc16):
    with pytest.raises(ValueError):
        pc_encode(pc16, np.zeros((3, 3), dtype=np.uint8))


def test_pc_encode_checks_on_checks_consistent(pc16, rng):
    # encoding rows first then columns must leave every row a codeword,
    # which only holds if the checks-on-checks corner commutes
    data = rng.integers(0, 2, size=(pc16.k, pc16.k), dtype=np.uint8)
    block = pc_encode(pc16, data)
    rows_first = reference.encode_many(pc16.component, data)
    assert np.array_equal(block[: pc16.k, :], rows_first)


# ---------------------------------------------------------------- iBDD

def test_ibdd_identity_on_clean_block(pc32, rng):
    block = random_block(pc32, rng)
    out, stats = ibdd_decode(pc32, block, iters=10)
    assert np.array_equal(out, block)
    # early exit after the first unchanged iteration
    assert stats.bdd_calls == 2 * pc32.w


def test_ibdd_corrects_scattered_errors(pc32, rng):
    block = random_block(pc32, rng)
    noisy = block.copy()
    # two errors per row in distinct columns stay within row BDD capacity
    for i in range(0, pc32.w, 4):
        noisy[i, (i % pc32.w)] ^= 1
        noisy[i, (i + 7) % pc32.w] ^= 1
    out, _ = ibdd_decode(pc32, noisy, iters=10)
    assert np.array_equal(out, block)


def test_ibdd_rejects_bad_iters(pc32):
    # the kernel takes the count as an int64, which ctypes would wrap, and
    # would refuse a float with its own ArgumentError
    for iters in (0, 2 ** 63, 2 ** 64, 2.5):
        with pytest.raises(ConfigError):
            ibdd_decode(pc32, np.zeros((pc32.w, pc32.w), dtype=np.uint8), iters=iters)


def test_numpy_integer_counts_decode_as_ints(pc32, rng):
    block = random_block(pc32, rng)
    llr = (1 - 2.0 * block) * 2 + rng.normal(size=block.shape)
    hard = (llr < 0).astype(np.uint8)
    for got, want in ((ibdd_decode(pc32, hard, np.int64(10)), ibdd_decode(pc32, hard, 10)),
                      (sabm_decode(pc32, hard, llr, SabmParams(
                          total_iters=np.int64(10), md_iters=np.int64(5),
                          failure_flip_attempts=np.int64(1))),
                       sabm_decode(pc32, hard, llr, SabmParams()))):
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def test_ibdd_rejects_bad_shape(pc32):
    # one (w, w) block, as sabm_decode takes: a stack, even of one block,
    # is the same ValueError
    block = np.zeros((pc32.w, pc32.w), dtype=np.uint8)
    for bad in (np.zeros((5, 5), dtype=np.uint8), block[None], np.stack([block, block])):
        with pytest.raises(ValueError, match=rf"block must be \({pc32.w}, {pc32.w}\)$"):
            ibdd_decode(pc32, bad, iters=2)


def test_ibdd_input_not_mutated(pc32, rng):
    block = random_block(pc32, rng)
    noisy = block.copy()
    noisy[0, 0] ^= 1
    snapshot = noisy.copy()
    ibdd_decode(pc32, noisy, iters=4)
    assert np.array_equal(noisy, snapshot)


# ---------------------------------------------------------------- marking

def test_hub_list_length_is_three(pc32):
    # d0 = 6, t = 2 for every double-error component used here: a failed
    # word gets at most d0 - t - 1 = 3 retries, one per HUB
    llr = np.ones((pc32.w, pc32.w))
    for attempts in range(6):
        marks = mark_bits(llr, SabmParams(failure_flip_attempts=attempts), pc32)
        assert marks.flip_attempts == min(3, attempts)


def hrb_flags(marks, words):
    """marks' HRB flags as an (axes, words, n) bool array, read from the
    uint8 array the marking pass reads."""
    assert marks.hrb.dtype == np.uint8 and marks.hrb.shape[1] == words
    return marks.hrb.astype(bool)


def stable_prefix(a, d0, non_hrb):
    """The first min(d0-2, non-HRB count) entries of a word's stable order."""
    return np.argsort(a, kind="stable")[: min(d0 - 2, non_hrb)]


def test_mark_bits_hrb_and_order(pc32, rng):
    w, d0 = pc32.w, pc32.component.d0
    llr = rng.normal(0, 4, size=(w, w))
    marks = mark_bits(llr, SabmParams(delta=5.0), pc32)
    hrb = hrb_flags(marks, w)[0]
    assert np.array_equal(hrb, np.abs(llr) > 5.0)
    assert np.array_equal(hrb_flags(marks, w)[1], hrb.T)
    for i in range(w):
        order = flip_order(marks, 0, i)
        assert np.array_equal(order, stable_prefix(np.abs(llr[i]), d0, (~hrb[i]).sum()))
        assert not hrb[i, order].any()
        corder = flip_order(marks, 1, i)
        assert np.array_equal(corder, stable_prefix(np.abs(llr[:, i]), d0, (~hrb[:, i]).sum()))
        assert not hrb[corder, i].any()


def test_mark_bits_stable_ties(pc32):
    w, d0 = pc32.w, pc32.component.d0
    llr = np.full((w, w), 1.0)
    marks = mark_bits(llr, SabmParams(delta=5.0), pc32)
    assert np.array_equal(flip_order(marks, 0, 0), stable_prefix(llr[0], d0, w))
    assert np.array_equal(flip_order(marks, 1, 3), np.arange(d0 - 2))


# |llr| levels with ties: zero, the delta itself, values on either side and
# inf, which an int64 bit pattern must order above every finite value
MARK_LEVELS = [0.0, 0.5, 1.0, 2.0, 5.0, 5.0000001, 7.0, 1e9, np.inf]


@st.composite
def mark_inputs(draw):
    # rows of at least d0 - 2 = 4 entries, as every marked word has (16 or more)
    axes, rows, n = draw(st.integers(1, 2)), draw(st.integers(1, 6)), draw(st.integers(4, 12))
    a = draw(hnp.arrays(np.float64, (axes, rows, n), elements=st.sampled_from(MARK_LEVELS)))
    # some rows all equal: all ties, and all HRB for a level above delta
    const = draw(hnp.arrays(np.bool_, (axes, rows)))
    a[const] = draw(st.sampled_from(MARK_LEVELS))
    return a


@given(a=mark_inputs(), offset=st.integers(0, 3),
       delta=st.sampled_from([0.0, -0.0, 1.0, 5.0, np.inf]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_make_marks_keeps_stable_order_prefix(ecc32_code, a, offset, delta):
    # one grid per axis, as signed LLRs, which make_marks only reads
    llr = a * np.where(np.arange(a.size).reshape(a.shape) % 3, 1.0, -1.0)
    given = llr.copy()
    marks = make_marks(list(llr), SabmParams(delta=delta), ecc32_code, offset=offset)
    assert np.array_equal(llr, given)
    keep = ecc32_code.d0 - 2
    hrb = a > delta
    order = np.argsort(a, axis=-1, kind="stable")
    # the kernel reads the candidates as they lie: C-contiguous int64
    cand = marks.candidates
    assert cand.shape == a.shape[:-1] + (keep,) and cand.dtype == np.int64
    assert cand.flags.c_contiguous
    for axis, i in np.ndindex(a.shape[:-1]):
        count = min(keep, int((~hrb[axis, i]).sum()))
        assert cand[axis, i].tolist() == ((offset + order[axis, i, :count]).tolist()
                                          + [-1] * (keep - count))
    word_hrb = hrb_flags(marks, a.shape[1])
    assert np.array_equal(word_hrb[..., offset:], hrb)
    assert not word_hrb[..., :offset].any()


@given(a=mark_inputs(), keep=st.integers(1, 4))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_stable_order_prefix_is_the_stable_argsort_prefix(a, keep):
    # the whole prefix, on rows with ties, inf and all-equal rows: under an
    # infinite delta no entry is an HRB, so every entry is a candidate, and
    # the kernel keeps the first `keep` of each word
    want = np.argsort(a, axis=-1, kind="stable")[..., :keep]
    hrb, candidates = mark_words(list(a), np.inf, 0, keep)
    assert np.array_equal(candidates, want) and not hrb.any()


@pytest.mark.parametrize("snr_db, axes", [(6.0, 2), (7.2, 1)], ids=["pc", "scc"])
def test_stable_order_prefix_at_the_benchmark_shapes(pc_component_code, snr_db, axes):
    # channel |llr| grids as the benchmark's PC SABM blocks (rows and
    # columns) and SCC SABM blocks (one axis) mark them
    pc = PcCode(pc_component_code)
    rng = np.random.default_rng(int(snr_db * 10))
    _, llr = channel_pass(random_block(pc, rng), snr_db, rng)
    grids = [llr, llr.T][:axes]
    a = np.abs(np.stack(grids))
    keep = pc_component_code.d0 - 2
    want = np.argsort(a, axis=-1, kind="stable")[..., :keep]
    whole = make_marks(grids, SabmParams(delta=np.inf), pc_component_code)
    assert np.array_equal(whole.candidates, want)
    marks = make_marks(grids, SabmParams(delta=5.0), pc_component_code)
    if axes == 2:  # the rows and columns of the block, as mark_bits reads them
        block = mark_bits(llr, SabmParams(delta=5.0), pc)
        assert np.array_equal(block.candidates, marks.candidates)
        assert np.array_equal(block.hrb, marks.hrb)
    for axis, i in np.ndindex(a.shape[:-1]):
        assert flip_order(marks, axis, i).tolist() == [p for p in want[axis, i].tolist()
                                                       if not a[axis, i, p] > 5.0]


def test_stable_order_prefix_ties_at_the_cut_in_one_row_of_many(ecc32_code):
    # one row holds three entries at its keep-th smallest value and one
    # row is all ties: each keeps its lowest-index ties, in index order.
    # Under an infinite delta every entry is a candidate
    keep, rows, n = ecc32_code.d0 - 2, 40, 16
    params = SabmParams(delta=np.inf)
    rng = np.random.default_rng(7)
    a = np.array([rng.permutation(n) for _ in range(2 * rows)], dtype=np.float64)
    a = a.reshape(2, rows, n)
    row = a[1, 17]
    row[(row == 3) | (row == 4)] = 2  # 0, 1, 2, 2, 2: three entries at the cut 2
    want = np.argsort(a, axis=-1, kind="stable")[..., :keep]
    assert (a <= np.sort(a, axis=-1)[..., keep - 1, None]).sum() == 2 * rows * keep + 1
    assert np.array_equal(make_marks(list(a), params, ecc32_code).candidates, want)
    a[0, 30] = 3.0
    want = np.argsort(a, axis=-1, kind="stable")[..., :keep]
    assert np.array_equal(make_marks(list(a), params, ecc32_code).candidates, want)
    assert np.array_equal(want[0, 30], np.arange(keep))


def test_mark_bits_all_hrb_degenerate(pc32):
    w = pc32.w
    llr = np.full((w, w), 50.0)
    marks = mark_bits(llr, SabmParams(delta=5.0), pc32)
    assert hrb_flags(marks, w).all()
    assert len(flip_order(marks, 0, 0)) == 0


def test_mark_bits_rejects_bad_shape(pc32):
    with pytest.raises(ValueError):
        mark_bits(np.zeros((4, 4)), SabmParams(), pc32)


def test_sabm_params_validation():
    with pytest.raises(ValueError):
        SabmParams(delta=-1.0)
    with pytest.raises(ValueError):
        SabmParams(md_iters=11, total_iters=10)
    with pytest.raises(ValueError):
        SabmParams(failure_flip_attempts=-1)
    for field, value in (("total_iters", 10.5), ("md_iters", 2.5),
                         ("failure_flip_attempts", 1.5)):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SabmParams(**{field: value})


# ---------------------------------------------------- miscorrection rules

def suspicious_fixture(pc, rng):
    """Clean block plus an LLR mask with one designated HRB."""
    block = random_block(pc, rng)
    llr = np.where(block == 0, 2.0, -2.0)
    llr[2, 5] *= 10  # the only HRB
    marks = mark_bits(llr, SabmParams(delta=5.0), pc)
    return block, marks


def suspicious(pc, noisy, marks, axis, index, pattern):
    """The SABM veto of `pattern` as a correction of word `index` along
    `axis` (0 rows, 1 columns) of the received block `noisy`."""
    layout = block_layout(pc.w, 1)
    syn = Passes(pc.component, layout, noisy.copy()).syn
    return _suspicious(pattern, hrb_flags(marks, pc.w)[axis, index], syn,
                       layout.cross[axis], range(syn.size))


def test_detect_miscorrection_hrb_rule(pc32, rng):
    block, marks = suspicious_fixture(pc32, rng)
    noisy = block.copy()
    noisy[2, 7] ^= 1  # keep row 2 non-codeword so the orthogonal rule is quiet
    assert suspicious(pc32, noisy, marks, 0, 2, (5,))
    # same flip reached through the column view
    assert suspicious(pc32, noisy, marks, 1, 5, (2,))
    assert not suspicious(pc32, noisy, marks, 0, 2, (7,))


def test_detect_miscorrection_orthogonal_rule(pc32, rng):
    block, marks = suspicious_fixture(pc32, rng)
    noisy = block.copy()
    noisy[4, 1] ^= 1  # row 4 broken elsewhere; columns 9 and 11 stay clean
    # flipping bits of zero-syndrome columns is a telltale miscorrection
    assert suspicious(pc32, noisy, marks, 0, 4, (9, 11))
    # once the columns themselves hold errors the same flip is acceptable
    noisy[4, 9] ^= 1
    noisy[4, 11] ^= 1
    assert not suspicious(pc32, noisy, marks, 0, 4, (9, 11))


def test_veto_reads_only_live_crossing_words(pc32, rng):
    # column 9 (slot w + 9) is a codeword: a correction through it is
    # flagged while the column is live and ignored once it is not
    block, marks = suspicious_fixture(pc32, rng)
    noisy = block.copy()
    noisy[4, 1] ^= 1
    layout = block_layout(pc32.w, 1)
    syn = Passes(pc32.component, layout, noisy.copy()).syn
    w, cross = pc32.w, layout.cross[0]
    assert cross[9] == w + 9 and syn[w + 9] == 0
    hrb = hrb_flags(marks, pc32.w)[0, 4]
    assert _suspicious((9,), hrb, syn, cross, range(2 * w))
    assert _suspicious((9,), hrb, syn, cross, range(w + 9, w + 10))
    assert not _suspicious((9,), hrb, syn, cross, range(w))
    assert not _suspicious((9,), hrb, syn, cross, range(w + 10, 2 * w))


def reference_syndromes(pc, block):
    """A block's syndromes, from the reference's: its rows, then its
    columns."""
    comp = pc.component
    return np.concatenate([block_syndromes(comp, block), block_syndromes(comp, block.T)])


def block_state(pc, block):
    """What the kernel passes decode a block on: a `Passes` over a copy of
    its bits, whose syndromes are the reference's."""
    state = Passes(pc.component, block_layout(pc.w, 1), np.array(block, dtype=np.uint8))
    assert np.array_equal(state.syn, reference_syndromes(pc, block))
    return state


def stats_of(state):
    return DecodeStats(*state.counts())


def marking_pass(pc, state, group, marks, axis, hi=None):
    """One marking pass as a staircase window runs it: `sabm_pass` on a
    block's state, its veto reading slots 0..hi-1 (default: all), which
    hold the group. Checks that the syndromes still equal the bits', and
    returns whether it flipped a bit."""
    state.mark(marks)
    changed = sabm_pass(state, group, axis, 0, 2 * pc.w if hi is None else hi)
    assert np.array_equal(state.syn, reference_syndromes(pc, state.bits))
    return changed


@pytest.mark.parametrize("earlier", [False, True], ids=["alone", "after_earlier_words"])
def test_marking_pass_veto_reads_only_live_crossing_words(pc32, earlier):
    # row 10 holds four errors that BDD miscorrects to columns 7 and 25;
    # column 25 holds row 20's failure (three errors, not retried), so only
    # column 7 can veto. The pass reads slots 0..hi-1: the rows, then the
    # columns below hi - w; it ignores the others, as if they never read 0.
    # Alone: column 7 is a codeword. Earlier: rows 3 and 5 hold errors in
    # columns 7 and 12 and in 7 and 14, and their corrections come first
    # and leave column 7 a codeword, updating its real slot, live or not.
    # Row 10's proposal is vetoed while slot w + 7 is live and accepted
    # once it is not.
    code, w = pc32.component, pc32.w
    errors = {10: [0, 1, 3, 19], 20: [25, 28, 30]}
    if earlier:
        errors.update({3: [7, 12], 5: [7, 14]})
    hard = pc_encode(pc32, np.zeros((pc32.k, pc32.k), dtype=np.uint8))
    for row, cols in errors.items():
        hard[row, cols] ^= 1
    assert decode_syndromes(code, packed(code, hard[10])) == (7, 25)
    llr = np.where(hard == 0, 2.0, -2.0)
    marks = mark_bits(llr, SabmParams(delta=5.0, failure_flip_attempts=0), pc32)
    fixed = [3, 5] if earlier else []

    def row_pass(hi):
        state = block_state(pc32, hard)
        marking_pass(pc32, state, 0, marks, 0, hi=hi)
        assert not state.bits[fixed].any()
        return state.bits, stats_of(state)

    for hi in (None, w + 8, w + 13):
        out, stats = row_pass(hi)
        # vetoed: its retry flips candidates 0, 1 and 2 and fails
        assert stats == DecodeStats(bdd_calls=w + 1, miscorrections_detected=1,
                                    flips_attempted=1)
        assert np.array_equal(out[10], hard[10])
    for hi in (w, w + 7):
        out, stats = row_pass(hi)
        assert stats == DecodeStats(bdd_calls=w)
        assert out[10, [0, 1, 3, 7, 19, 25]].all()


# ---------------------------------------------------------- bit flipping
# sabm_resolve lists the flip sets and bit_flip_recover tries them: one
# least reliable bit per retry after a failure, d0 - e - 1 bits at once
# after a suspicious proposal of weight e

def zero_word(code):
    return reference.encode_many(code, np.zeros((1, code.k), dtype=np.uint8))[0]


def test_bit_flip_recover_failure_three_errors(ecc32_code):
    word = zero_word(ecc32_code)
    errs = (3, 10, 17)
    noisy = word.copy()
    noisy[list(errs)] ^= 1
    order = np.array([10, 3, 17, 1, 2])  # true errors are the least reliable
    stats = DecodeStats()
    pat = sabm_resolve(ecc32_code, packed(ecc32_code, noisy), None,
                       order, lambda p: False, 1, stats)
    assert pat == errs
    out = noisy.copy()
    out[list(pat)] ^= 1
    assert np.array_equal(out, word)
    assert stats.flips_attempted == 1
    assert stats.flips_accepted == 1
    assert stats.miscorrections_detected == 0


def test_bit_flip_recover_failure_sequential_attempts(ecc32_code):
    word = zero_word(ecc32_code)
    errs = (3, 10, 17)
    noisy = word.copy()
    noisy[list(errs)] ^= 1
    # first HUB is a correct bit, so its retry lands on a wrong codeword and
    # the final check vetoes it; the second attempt flips a true error.
    # the veto mirrors a mask where every correct bit is highly reliable
    order = np.array([5, 10, 17, 3])
    veto = lambda p: not set(p).issubset(errs)
    stats = DecodeStats()
    pat = sabm_resolve(ecc32_code, packed(ecc32_code, noisy), None,
                       order, veto, 2, stats)
    assert pat == errs
    assert stats.flips_attempted == 2
    # with only one attempt allowed the word is reverted
    stats2 = DecodeStats()
    pat2 = sabm_resolve(ecc32_code, packed(ecc32_code, noisy), None,
                        order, veto, 1, stats2)
    assert pat2 == ()
    assert stats2.flips_accepted == 0


def test_bit_flip_recover_miscorrection_flip_count(ecc32_code):
    # after a weight-1 miscorrection the retry flips d0 - 1 - 1 = 4 bits
    word = zero_word(ecc32_code)
    noisy = word.copy()
    errs = (2, 6, 11, 19)
    noisy[list(errs)] ^= 1
    order = np.array([2, 6, 11, 19, 1])
    stats = DecodeStats()
    # the veto flags the proposal (4,) and nothing else
    pat = sabm_resolve(ecc32_code, packed(ecc32_code, noisy), (4,),
                       order, lambda p: p == (4,), 1, stats)
    assert pat == errs
    assert stats.flips_attempted == 1
    assert stats.miscorrections_detected == 1
    # a proposal that the veto passes is taken as it is, with no retry
    stats2 = DecodeStats()
    assert sabm_resolve(ecc32_code, packed(ecc32_code, noisy), (4,),
                        order, lambda p: False, 1, stats2) == (4,)
    assert stats2 == DecodeStats()


def test_bit_flip_recover_rejects_suspicious_retry(ecc32_code):
    word = zero_word(ecc32_code)
    noisy = word.copy()
    noisy[[3, 10, 17]] ^= 1
    order = np.array([10, 3, 17])
    stats = DecodeStats()
    pat = sabm_resolve(ecc32_code, packed(ecc32_code, noisy), None,
                       order, lambda p: True, 1, stats)
    assert pat == ()
    assert stats.flips_accepted == 0


# ---------------------------------------------------------- full decoder

def test_sabm_noiseless_matches_ibdd_calls(pc32, rng):
    block = random_block(pc32, rng)
    llr = np.where(block == 0, 8.0, -8.0)
    out_i, st_i = ibdd_decode(pc32, block, iters=10)
    out_s, st_s = sabm_decode(pc32, block, llr, SabmParams())
    assert np.array_equal(out_i, block)
    assert np.array_equal(out_s, block)
    assert st_i.bdd_calls == st_s.bdd_calls == 2 * pc32.w


def test_sabm_reduces_to_ibdd_without_marking_phase(pc32, rng):
    params = SabmParams(delta=5.0, total_iters=6, md_iters=0)
    for _ in range(20):
        block = random_block(pc32, rng)
        noisy, grid = channel_pass(block, 5.0, rng)
        out_i, _ = ibdd_decode(pc32, noisy, iters=params.total_iters)
        out_s, _ = sabm_decode(pc32, noisy, grid, params)
        assert np.array_equal(out_i, out_s)


def test_sabm_corrects_three_error_row_with_reliability_hint(pc32, rng):
    block = random_block(pc32, rng)
    noisy = block.copy()
    errs = [4, 12, 20]
    noisy[6, errs] ^= 1
    llr = np.where(noisy == 0, 6.0, -6.0)  # every untouched bit is an HRB
    llr[6, errs] = np.where(noisy[6, errs] == 0, 0.5, -0.5)
    out, stats = sabm_decode(pc32, noisy, llr, SabmParams())
    assert np.array_equal(out, block)
    assert stats.flips_accepted >= 1


def test_sabm_reverts_unrecoverable_word(pc32, rng):
    block = random_block(pc32, rng)
    noisy = block.copy()
    row = 6
    errs = [4, 12, 20]
    noisy[row, errs] ^= 1
    llr = np.where(noisy == 0, 6.0, -6.0)
    # mislead the marker: candidates in row 6 are all correct bits, and the
    # column passes are blocked by making the error columns HRB elsewhere
    llr[row, [1, 2, 3]] = np.where(noisy[row, [1, 2, 3]] == 0, 0.5, -0.5)
    out, stats = sabm_decode(pc32, noisy, llr,
                             SabmParams(total_iters=5, md_iters=5))
    # the row was never silently corrupted: it either got repaired through
    # the column passes or holds exactly the original channel errors
    diff = np.flatnonzero(out[row] ^ block[row])
    assert set(diff).issubset(set(errs))


def test_sabm_veto_reads_corrections_made_earlier_in_the_pass(pc32):
    # row 3 holds errors at columns 7 and 12; row 10 holds four errors that
    # BDD miscorrects to columns 7 and 25; row 20 holds three errors, a
    # failure that is not retried. Every error is alone in its column. Row
    # 3's correction zeroes column 7, so row 10's proposal through it must
    # be vetoed: its retry flips the three least reliable bits, 0, 1 and 3,
    # and decodes the fourth error. Had row 10 been resolved against the
    # syndromes from the start of the pass, or before row 3, its proposal
    # would be accepted, as columns 7 and 25 would both be in error.
    code = pc32.component
    sent = pc_encode(pc32, np.zeros((pc32.k, pc32.k), dtype=np.uint8))
    errors = {3: [7, 12], 10: [0, 1, 3, 19], 20: [25, 28, 30]}
    hard = sent.copy()
    for row, cols in errors.items():
        hard[row, cols] ^= 1
    assert decode_syndromes(code, packed(code, hard[10])) == (7, 25)
    llr = np.where(hard == 0, 2.0, -2.0)
    llr[10, [0, 1, 3]] /= 4
    params = SabmParams(delta=5.0, failure_flip_attempts=0)

    state = block_state(pc32, hard)
    marking_pass(pc32, state, 0, mark_bits(llr, params, pc32), 0)
    assert not state.bits[[3, 10]].any()
    assert np.array_equal(state.bits[20], hard[20])
    assert stats_of(state) == DecodeStats(bdd_calls=pc32.w + 1, miscorrections_detected=1,
                                          flips_attempted=1, flips_accepted=1)

    out, stats = sabm_decode(pc32, hard, llr, params)
    want, want_stats = reference.pc_decode(pc32, hard, params.total_iters, llr, params)
    assert np.array_equal(out, sent)
    assert np.array_equal(out, want)
    assert stats == want_stats


def weight_six_codeword(code, rng):
    """The positions of a codeword of weight d0 = 6: four random positions
    and the weight-2 pattern their syndrome decodes to, if it misses them."""
    while True:
        four = rng.choice(code.n, 4, replace=False)
        got = decode_syndromes(code, int(np.bitwise_xor.reduce(code.flip_syndrome[four])))
        if got is not None and len(got) == 2 and not set(got) & set(four.tolist()):
            return sorted(four.tolist() + list(got))


def test_vetoed_proposal_whose_retry_clears_the_syndrome(pc32, rng):
    # row r holds errors at columns j1 and j2, its only non-HRBs, so the
    # retry of its proposal (j1, j2) flips exactly those two: the retry
    # reads syndrome 0, which decodes to (), and the flips alone are the
    # pattern. Column j1 holds a weight-6 codeword through row r, so its
    # syndrome is 0 and vetoes that pattern as it vetoed the proposal. Its
    # other rows, each with one error on an HRB, come after row r and have
    # no non-HRB to retry with.
    code = pc32.component
    support = weight_six_codeword(code, rng)
    r, j1, j2 = support[0], 3, 10
    hard = np.zeros((pc32.w, pc32.w), dtype=np.uint8)  # the all-zero codeword
    hard[support, j1] = 1
    hard[r, j2] = 1
    llr = np.where(hard == 0, 8.0, -8.0)
    llr[r, [j1, j2]] = [-1.0, -2.0]
    params = SabmParams(delta=5.0)

    state = block_state(pc32, hard)
    syn = state.syn.tolist()
    assert syn[pc32.w + j1] == 0
    assert decode_syndromes(code, syn[r]) == (j1, j2)
    h = code.flip_syndrome
    assert syn[r] ^ h[j1] ^ h[j2] == 0
    assert marking_pass(pc32, state, 0, mark_bits(llr, params, pc32), 0) is False
    assert np.array_equal(state.bits, hard)
    assert stats_of(state) == DecodeStats(bdd_calls=pc32.w + 1, miscorrections_detected=6,
                                          flips_attempted=1, flips_accepted=0)

    out, stats = sabm_decode(pc32, hard, llr, params)
    want, want_stats = reference.pc_decode(pc32, hard, params.total_iters, llr, params)
    assert np.array_equal(out, want)
    assert stats == want_stats


@pytest.mark.parametrize("stalled", [True, False], ids=["stalled", "clean"])
def test_sabm_stall_hands_block_to_ibdd_and_clean_block_stops(pc32, stalled):
    # row 3 holds two weak errors that the first marking iteration corrects.
    # Stalled: row 10 also holds two errors on HRBs, each alone in its
    # column, in a row and columns of HRBs only. Every proposal through them
    # is vetoed and nothing is left to retry, so the second marking
    # iteration flips nothing with nonzero syndromes left: the block goes to
    # the plain iterations (5 and 6), where iteration 5 corrects row 10.
    # Clean: without row 10 the block is clean after iteration 0, and
    # iteration 1 ends the decode.
    sent = pc_encode(pc32, np.zeros((pc32.k, pc32.k), dtype=np.uint8))
    errors = {3: [7, 12], 10: [20, 25]} if stalled else {3: [7, 12]}
    hard = sent.copy()
    for row, cols in errors.items():
        hard[row, cols] ^= 1
    llr = np.where(hard == 0, 50.0, -50.0)
    llr[3, [7, 12]] /= 100
    params = SabmParams()
    out, stats = sabm_decode(pc32, hard, llr, params)
    want, want_stats = reference.pc_decode(pc32, hard, params.total_iters, llr, params)
    assert np.array_equal(out, sent)
    assert np.array_equal(out, want)
    assert stats == want_stats
    # stalled: iterations 0, 1, 5 and 6, with three vetoed proposals in each
    # marking iteration; clean: iterations 0 and 1
    assert stats == (DecodeStats(bdd_calls=8 * pc32.w, miscorrections_detected=6)
                     if stalled else DecodeStats(bdd_calls=4 * pc32.w))


def test_sabm_decodes_one_block(pc32, rng):
    # one (w, w) block decodes in its shape; a stack, even of one block, is
    # rejected, as the marks cover one block
    block = random_block(pc32, rng)
    noisy, grid = channel_pass(block, 4.5, rng)
    params = SabmParams()
    out, _ = sabm_decode(pc32, noisy, grid, params)
    assert out.shape == (pc32.w, pc32.w)
    for stack in (noisy[None], np.stack([noisy, noisy])):
        with pytest.raises(ValueError, match=rf"block must be \({pc32.w}, {pc32.w}\)$"):
            sabm_decode(pc32, stack, grid, params)


def test_sabm_determinism(pc32, rng):
    block = random_block(pc32, rng)
    noisy, grid = channel_pass(block, 4.5, rng)
    params = SabmParams()
    out1, st1 = sabm_decode(pc32, noisy, grid, params)
    out2, st2 = sabm_decode(pc32, noisy, grid, params)
    assert np.array_equal(out1, out2)
    assert st1 == st2


def sabm_decode_pass_by_pass(code, block, llr, params):
    """`sabm_decode` with the state's syndromes rebuilt from the bits, by
    the reference's syndromes, before every pass, marking or plain, where
    `sabm_decode` keeps one syndrome array through the block."""
    marks = mark_bits(llr, params, code)
    state = block_state(code, block)

    def run(g, marking):  # rows, then columns: group and axis g
        state.syn[:] = reference_syndromes(code, state.bits)
        if marking:
            return marking_pass(code, state, g, marks, g)
        return plain_pass(state, g)

    for _ in range(params.md_iters):
        if not (run(0, True) | run(1, True)):
            if not reference_syndromes(code, state.bits).any():
                return state.bits, stats_of(state)
            break
    for _ in range(params.md_iters, params.total_iters):
        if not (run(0, False) | run(1, False)):
            break
    return state.bits, stats_of(state)


@pytest.mark.parametrize("params", [
    SabmParams(md_iters=0),
    SabmParams(),
    SabmParams(md_iters=10),
    SabmParams(delta=np.inf),
    SabmParams(failure_flip_attempts=0),
    SabmParams(delta=3.0, md_iters=10, failure_flip_attempts=3),
], ids=["md0", "md5", "md_all", "delta_inf", "attempts0", "attempts3_md_all"])
def test_marking_phase_on_one_syndrome_list_equals_pass_by_pass(pc32, params):
    # the passes keep one array of the block's syndromes through the whole
    # decode. Random blocks around the waterfall decode to the same bits
    # with the same DecodeStats as with the array rebuilt before every pass,
    # in every phase length, with no HRB (delta inf) and with 0 to 3
    # failure retries
    rng = np.random.default_rng(2024)
    total = DecodeStats()
    for snr_db in (3.5, 4.0, 4.5, 5.0):
        for _ in range(8):
            noisy, grid = channel_pass(random_block(pc32, rng), snr_db, rng)
            out, stats = sabm_decode(pc32, noisy, grid, params)
            want, want_stats = sabm_decode_pass_by_pass(pc32, noisy, grid, params)
            assert np.array_equal(out, want)
            assert stats == want_stats
            total += stats
    assert (total.miscorrections_detected > 0 and total.flips_attempted > 0) == (params.md_iters > 0)


def test_plain_pass_flips_a_bit_back(pc32):
    # row 10 holds four errors that BDD miscorrects to columns 7 and 25,
    # each otherwise clean. Its row pass flips bits (10, 7) and (10, 25);
    # the column pass then finds one error in each of those columns and
    # flips both bits back, and corrects the four errors. So the bytes are
    # toggled in place: a scheme that collected the flips of both passes
    # and set each flipped bit once would keep the miscorrection
    code, w = pc32.component, pc32.w
    sent = pc_encode(pc32, np.zeros((pc32.k, pc32.k), dtype=np.uint8))
    hard = sent.copy()
    hard[10, [0, 1, 3, 19]] ^= 1
    assert decode_syndromes(code, packed(code, hard[10])) == (7, 25)
    state = block_state(pc32, hard)
    assert plain_pass(state, 0) is True
    assert state.bits[10, [0, 1, 3, 7, 19, 25]].all()
    assert plain_pass(state, 1) is True
    assert np.array_equal(state.bits, sent)
    assert np.array_equal(state.syn, reference_syndromes(pc32, sent))
    assert stats_of(state) == DecodeStats(bdd_calls=2 * w)
    # the whole decode, with no marking iteration, equals the reference's
    llr = np.where(hard == 0, 2.0, -2.0)
    params = SabmParams(total_iters=4, md_iters=0)
    out, stats = sabm_decode(pc32, hard, llr, params)
    want, want_stats = reference.pc_decode(pc32, hard, params.total_iters)
    assert np.array_equal(out, sent) and np.array_equal(out, want)
    assert stats == want_stats == DecodeStats(bdd_calls=4 * w)
