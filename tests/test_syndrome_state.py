"""The syndromes that the kernel's passes keep always equal the syndromes
recomputed from the bits: those of a `kernel.Passes` (PC blocks and
stacks of them, and staircase chains) before and after every pass, on
arbitrary bits, and before every kernel call of a decode. One layout serves the product block
and a whole staircase chain; the chain's scratch group, where the pairs
missing at both ends cross, holds the syndromes of the wrap-around pair
[transpose(B_last) | B_0] and is never decoded. The kernel's plain pass
on one group equals the array form of the pass, and a product block's
call and a staircase window's each equal their passes run one by one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab import pc, scc
from feclab.bch import build_code
from feclab.kernel import Passes
from feclab.pc import PcCode, SabmParams, block_layout, pc_encode
from feclab.scc import SccCode, chain_layout, scc_encode

from reference import block_syndromes, plain_pass, sabm_pass

CODE = build_code(5)  # eBCH(32,21): PC w = 32, SCC w = 16


def pc_recomputed(bits):
    """Each block's rows, then its columns, block by block."""
    w = CODE.n
    return np.concatenate([block_syndromes(CODE, words) for block in bits.reshape(-1, w, w)
                           for words in (block, block.T)])


def scc_recomputed(bits):
    """Every pair of the chain, then the scratch group's wrap-around pair."""
    w = CODE.n // 2
    blocks = bits.reshape(-1, w, w)
    pairs = [np.concatenate([blocks[p].T, blocks[(p + 1) % len(blocks)]], axis=1)
             for p in range(len(blocks))]
    return np.concatenate([block_syndromes(CODE, words) for words in pairs])


def assert_matches(state, recomputed):
    assert np.array_equal(state.syn, recomputed(state.bits))


def counts(state):
    return pc.DecodeStats(*state.counts())


def follow_random_passes(layout, bits, recomputed, marks, window, rng):
    """Kernel passes over random groups of arbitrary bits, plain and
    marking by turns, keep every syndrome, the scratch group's included,
    equal to the bits. marks(group) gives a marking pass its marks and
    axis, and window(group) the slot range its veto reads."""
    state = Passes(CODE, layout, bits.copy())
    assert_matches(state, recomputed)
    # at least 4 rounds, and more while no bit has changed or no retry run:
    # with a single group, all words of it can fail to decode and every
    # retry can fail too
    for round_ in range(64):
        if round_ >= 4 and not np.array_equal(state.bits, bits) and counts(state).flips_attempted:
            break
        group = int(rng.integers(layout.groups))
        plain_pass(state, group)
        assert_matches(state, recomputed)
        group = int(rng.integers(layout.groups))
        group_marks, axis = marks(group)
        state.mark(group_marks)
        sabm_pass(state, group, axis, *window(group))
        assert_matches(state, recomputed)
    assert not np.array_equal(state.bits, bits) and counts(state).flips_attempted > 0


def noisy_llr(bits, rng):
    """LLRs agreeing with `bits`, magnitudes spread across the HRB threshold."""
    return np.where(bits == 0, 1.0, -1.0) * rng.uniform(0.1, 9.0, bits.shape)


def recording(monkeypatch, module, name):
    """Replace module.name by a subclass that lists every instance made."""
    made = []
    base = getattr(module, name)

    class Recorded(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(module, name, Recorded)
    return made


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_block_syndromes_follow_random_flips(seed):
    rng = np.random.default_rng(seed)
    code = PcCode(CODE)
    w = code.w
    bits = rng.integers(0, 2, (w, w), dtype=np.uint8)
    marks = pc.mark_bits(noisy_llr(bits, rng), SabmParams(failure_flip_attempts=3), code)
    follow_random_passes(block_layout(w, 1), bits, pc_recomputed, lambda g: (marks, g),
                         lambda g: (0, 2 * w), rng)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_window_syndromes_follow_random_flips(seed, num_blocks):
    # the first pair's older half and the last pair's newer half cross into
    # the scratch group, which the passes must keep equal to its bits too.
    # A marking pass on pair p reads the marks of block p + 1 and a window
    # of pairs around p
    rng = np.random.default_rng(seed)
    code = SccCode(CODE)
    w = code.w
    bits = rng.integers(0, 2, (num_blocks, w, w), dtype=np.uint8)
    layout = chain_layout(w, num_blocks)
    assert layout.groups == num_blocks - 1
    assert Passes(CODE, layout, bits.copy()).syn.size == num_blocks * w == layout.slots
    marks = [scc.block_marks(code, noisy_llr(b, rng), SabmParams(failure_flip_attempts=3))
             for b in bits]
    lo, hi = sorted(rng.integers(0, num_blocks, 2).tolist())
    follow_random_passes(layout, bits, scc_recomputed, lambda g: (marks[g + 1], 0),
                         lambda g: (min(lo, g) * w, (max(hi, g) + 1) * w), rng)


def test_state_rejects_bits_it_cannot_update_in_place():
    # the kernel writes the bits in place, so a copy would leave the
    # caller's array undecoded; a state of another size would run off it
    w = CODE.n
    bits = np.zeros((w, w), dtype=np.uint8)
    layout = block_layout(w, 1)
    for bad in (bits.T, np.asfortranarray(bits[:, :-1]), list(bits), bits.astype(np.int64),
                bits[:-1]):
        with pytest.raises(ValueError):
            Passes(CODE, layout, bad)
    readonly = bits.copy()
    readonly.setflags(write=False)
    with pytest.raises(ValueError):
        Passes(CODE, layout, readonly)
    # a group or an axis that the state does not hold is refused, not read,
    # as is a block whose rows have no column group after them, and marking
    # with no marks bound. Nothing changes: one error would be corrected
    bits[3, 5] = 1
    state = Passes(CODE, layout, bits)
    syn = state.syn.copy()
    with pytest.raises(ValueError):
        plain_pass(state, 2)
    with pytest.raises(ValueError):
        sabm_pass(state, 0, 0, 0, 2 * w)  # no marks bound
    for rows, marking in ((1, 0), (-1, 0), (2, 0), (0, 1), (0, -1)):
        with pytest.raises(ValueError):
            pc.block_pass(state, rows, marking, 10)
    assert bits[3, 5] and np.array_equal(state.syn, syn) and counts(state) == pc.DecodeStats()
    state.mark(pc.mark_bits(np.ones((w, w)), SabmParams(), PcCode(CODE)))
    with pytest.raises(ValueError):
        sabm_pass(state, 0, 2, 0, 2 * w)
    with pytest.raises(ValueError):
        pc.block_pass(state, 1, 1, 10)
    assert bits[3, 5] and np.array_equal(state.syn, syn) and counts(state) == pc.DecodeStats()
    assert sabm_pass(state, 1, 1, 0, 2 * w) is True


def passes_of_block(state, rows, marking, iters):
    """A product block's passes, run one by one: up to `marking` iterations
    of a marking pass over the rows (group and axis 0 of the block) and
    then the columns, whose veto reads the block's slots, then plain ones
    up to `iters`. Each phase ends at its first iteration that flips
    nothing, but a marking iteration that leaves a nonzero syndrome in the
    block hands it to the plain ones. Returns the (group, pass name) of
    each pass and whether a marking iteration handed the block on."""
    w, order = CODE.n, []
    lo, hi = rows * w, (rows + 2) * w
    for _ in range(marking):
        changed = False
        for axis in (0, 1):
            changed |= sabm_pass(state, rows + axis, axis, lo, hi)
            order.append((rows + axis, "sabm_pass"))
        if not changed:
            if not state.syn[lo:hi].any():
                return order, False
            handoff = True
            break
    else:
        handoff = False
    for _ in range(marking, iters):
        changed = False
        for g in (rows, rows + 1):
            changed |= plain_pass(state, g)
            order.append((g, "plain_pass"))
        if not changed:
            break
    return order, handoff


def checked_blocks(monkeypatch, marks):
    """Rebind `pc.block_pass` to a wrapper that checks, before every call,
    that its state's syndromes equal those of its bits, and that the call
    leaves the bits, the syndromes and the counters as its passes run one
    by one on a copy of the state, with `marks` bound, do. Returns the
    (rows, state, passes, handoff) of every call."""
    calls = []
    run = pc.block_pass

    def check(state, rows, marking, iters):
        assert_matches(state, pc_recomputed)
        copy = Passes(CODE, block_layout(CODE.n, state.bits.size // CODE.n ** 2),
                      state.bits.copy())
        if marks is not None:
            copy.mark(marks)
        before = np.array(state.counts())
        order, handoff = passes_of_block(copy, rows, marking, iters)
        calls.append((rows, state, order, handoff))
        run(state, rows, marking, iters)
        assert np.array_equal(state.bits, copy.bits) and np.array_equal(state.syn, copy.syn)
        assert np.array_equal(np.array(state.counts()) - before, copy.counts())

    monkeypatch.setattr(pc, "block_pass", check)
    return calls


@pytest.mark.parametrize("decoder", ["ibdd", "sabm_md0", "sabm", "sabm_md_all"])
@pytest.mark.parametrize("seed", range(4))
def test_block_syndromes_match_after_decode(decoder, seed, monkeypatch):
    # a decode binds one state to its block, under iBDD or SABM (md 0, 5
    # or 10 of 10 iterations); its syndromes match the bits before the
    # block's one kernel call and after the decode, and the call leaves the
    # state as its passes run one by one do. The decoded block is its bits
    code = PcCode(CODE)
    rng = np.random.default_rng(seed)
    sent = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    noisy = sent ^ (rng.random(sent.shape) < 0.05).astype(np.uint8)
    made = recording(monkeypatch, pc, "Passes")
    if decoder == "ibdd":
        calls = checked_blocks(monkeypatch, None)
        out, _ = pc.ibdd_decode(code, noisy, iters=10)
    else:
        md_iters = {"sabm_md0": 0, "sabm": 5, "sabm_md_all": 10}[decoder]
        params = SabmParams(delta=5.0, total_iters=10, md_iters=md_iters)
        llr = noisy_llr(noisy, rng)
        calls = checked_blocks(monkeypatch, pc.mark_bits(llr, params, code))
        out, _ = pc.sabm_decode(code, noisy, llr, params)
    assert not np.array_equal(out, noisy)
    (state,) = made
    assert state.bits is out
    assert_matches(state, pc_recomputed)
    assert [(rows, s) for rows, s, _, _ in calls] == [(0, state)]
    names = {name for _, _, order, _ in calls for _, name in order}
    assert names == {"ibdd": {"plain_pass"}, "sabm_md0": {"plain_pass"},
                     "sabm_md_all": {"sabm_pass"}}.get(decoder, {"sabm_pass", "plain_pass"})


def test_a_stalled_marking_iteration_hands_the_block_to_plain_ones(monkeypatch):
    # every bit is an HRB, so no marking pass flips a bit or retries: row 3
    # holds two errors, whose proposal the veto refuses, as it refuses the
    # one-bit proposal of each of their columns. The marking iteration
    # stalls with nonzero syndromes and hands the block to the plain ones,
    # whose first row pass corrects it; the second flips nothing
    code = PcCode(CODE)
    sent = pc_encode(code, np.random.default_rng(7).integers(0, 2, (code.k, code.k),
                                                             dtype=np.uint8))
    noisy = sent.copy()
    noisy[3, [5, 9]] ^= 1
    params = SabmParams(total_iters=10, md_iters=5)
    llr = np.where(noisy == 0, 9.0, -9.0)
    calls = checked_blocks(monkeypatch, pc.mark_bits(llr, params, code))
    out, stats = pc.sabm_decode(code, noisy, llr, params)
    assert np.array_equal(out, sent)
    ((rows, _, order, handoff),) = calls
    assert rows == 0 and handoff
    assert order == [(0, "sabm_pass"), (1, "sabm_pass")] + [(0, "plain_pass"),
                                                            (1, "plain_pass")] * 2
    assert stats == pc.DecodeStats(bdd_calls=6 * CODE.n, miscorrections_detected=3)


def passes_of_window(state, first, newest, ell, marking):
    """A staircase window's passes, run one by one: each iteration a plain
    pass over pairs first..newest-1, then a marking pass over the newest
    pair in the first `marking` iterations, else a plain one. Returns the
    (pair, pass name) of each pass."""
    w, order = CODE.n // 2, []
    for it in range(ell):
        for p in range(first, newest):
            plain_pass(state, p)
            order.append((p, "plain_pass"))
        if it < marking:
            sabm_pass(state, newest, 0, first * w, (newest + 1) * w)
            order.append((newest, "sabm_pass"))
        else:
            plain_pass(state, newest)
            order.append((newest, "plain_pass"))
    return order


@pytest.mark.parametrize("mode", ["standard", "sabm"])
@pytest.mark.parametrize("seed", range(3))
def test_window_syndromes_match_after_each_window(mode, seed, monkeypatch):
    # exactly one state serves every window of a chain; its syndromes match
    # the bits before every window, and after the chain. Each window, one
    # kernel call, leaves the bits, the syndromes and the counters as its
    # passes run one by one on a copy of the state do, in the order the
    # windows and their passes are recorded here
    code = SccCode(CODE)
    w = code.w
    windows, passes = [], []
    run = scc.window_pass

    def check(state, first, newest, ell, marking):
        assert_matches(state, scc_recomputed)
        windows.append((first, newest, state))
        copy = Passes(CODE, chain_layout(w, len(state.bits)), state.bits.copy())
        if marks is not None:  # the newest block's, bound by decode_chain
            copy.mark(marks[newest])
        before = np.array(state.counts())
        passes.extend(passes_of_window(copy, first, newest, ell, marking))
        run(state, first, newest, ell, marking)
        assert np.array_equal(state.bits, copy.bits) and np.array_equal(state.syn, copy.syn)
        assert np.array_equal(np.array(state.counts()) - before, copy.counts())

    monkeypatch.setattr(scc, "window_pass", check)
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (8, code.w, code.info_cols), dtype=np.uint8)
    noisy = [b ^ (rng.random(b.shape) < 0.04).astype(np.uint8)
             for b in scc_encode(code, info)]
    marks = ([scc.block_marks(code, noisy_llr(b, rng), SabmParams()) for b in noisy]
             if mode == "sabm" else None)
    out, _ = scc.decode_chain(code, noisy, marks, SabmParams(), window=4, ell=3)
    (state,) = {id(s): s for _, _, s in windows}.values()
    assert_matches(state, scc_recomputed)
    assert [(s, newest) for s, newest, _ in windows] == [(s, min(s + 2, 7)) for s in range(8)]
    # 3 iterations over the pairs s..min(s + 2, 7) of each window s; under
    # SABM (md_iters 5) every pass over the newest pair is a marking pass
    newest = "sabm_pass" if mode == "sabm" else "plain_pass"
    assert passes == [(p, newest if p == min(s + 2, 7) else "plain_pass")
                      for s in range(8) for _ in range(3) for p in range(s, min(s + 3, 8))]
    assert np.shares_memory(out, state.bits) and np.array_equal(out, state.bits[1:])


def array_pass(layout, bits, group, recomputed):
    """The plain pass of one group in array form, on a copy of the bits:
    every word of the group with a nonzero syndrome, recomputed from the
    bits, flips the positions the table decodes it to, all at once.
    Returns the bits and whether any bit was flipped."""
    w = layout.w
    own = recomputed(bits)[group * w:(group + 1) * w]
    hit = own.nonzero()[0]
    pos = CODE.error_positions[own[hit]]
    word, k = (pos >= 0).nonzero()
    p = pos[word, k]
    flat = bits.reshape(-1).copy()
    flat[layout.base[group, p] + hit[word] * layout.stride[group, p]] ^= 1
    return flat.reshape(bits.shape), word.size > 0


def pass_both_ways(layout, bits, group, recomputed):
    """The kernel's plain pass on one group of a state over `bits` and
    `array_pass`: the bits and the flipped flag agree, the state's
    syndromes equal the new bits', and the pass counts w. Returns the
    flag."""
    want, wchanged = array_pass(layout, bits, group, recomputed)
    state = Passes(CODE, layout, bits.copy())
    changed = plain_pass(state, group)
    assert type(changed) is bool and changed == wchanged
    assert np.array_equal(state.bits, want)
    assert_matches(state, recomputed)
    assert counts(state) == pc.DecodeStats(bdd_calls=layout.w)
    return changed


def pc_pass_both_ways(bits, group):
    return pass_both_ways(block_layout(len(bits), 1), bits, group, pc_recomputed)


def scc_pass_both_ways(chain, group):
    return pass_both_ways(chain_layout(chain.shape[1], len(chain)), chain, group,
                          scc_recomputed)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.08))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_group_pass_equals_group_array_pass_pc(seed, error_rate):
    rng = np.random.default_rng(seed)
    code = PcCode(CODE)
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    noisy = block ^ (rng.random(block.shape) < error_rate).astype(np.uint8)
    for group in (0, 1):  # the rows, the columns
        pc_pass_both_ways(noisy, group)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.05), st.integers(3, 6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_group_pass_equals_group_array_pass_scc(seed, error_rate, num_blocks):
    rng = np.random.default_rng(seed)
    code = SccCode(CODE)
    w = code.w
    info = rng.integers(0, 2, (num_blocks - 1, w, code.info_cols), dtype=np.uint8)
    chain = np.zeros((num_blocks, w, w), dtype=np.uint8)
    chain[1:] = scc_encode(code, info)
    chain[1:] ^= (rng.random(chain[1:].shape) < error_rate).astype(np.uint8)
    scc_pass_both_ways(chain, int(rng.integers(num_blocks - 1)))


def three_errors_per_word(w):
    """A w x w error grid with 3 errors in every row and every column: on
    a codeword, no row or column decodes, as d0 = 6 puts every weight-3
    word beyond BDD radius 2."""
    i = np.arange(w)
    grid = np.zeros((w, w), dtype=np.uint8)
    for d in range(3):
        grid[i, (i + d) % w] = 1
    return grid


def test_one_group_pass_on_clean_and_failing_groups():
    # a clean group is a no-op, and a group whose words all fail flips
    # nothing
    rng = np.random.default_rng(3)
    code = PcCode(CODE)
    w = code.w
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    for bits in (block, block ^ three_errors_per_word(w)):
        for group in (0, 1):
            assert pc_pass_both_ways(bits, group) is False
    # a staircase pair whose words all fail: 3 errors in each row of its
    # newer block, on the all-zero chain
    half = w // 2
    chain = np.zeros((4, half, half), dtype=np.uint8)
    chain[2] = three_errors_per_word(half)
    syn = Passes(CODE, chain_layout(half, 4), chain.copy()).syn
    assert (CODE.error_positions[syn[half:2 * half]] < 0).all()
    assert scc_pass_both_ways(chain, 1) is False
