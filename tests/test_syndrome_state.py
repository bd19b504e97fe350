"""The syndromes that the decoders maintain always equal the syndromes
recomputed from the bits: the syndrome list that the list passes keep
(PC SABM blocks and staircase chains) before and after every pass, on
arbitrary bits and in every decode, and the `SyndromeState` of a PC iBDD
stack after its decode. One layout serves the product block and a whole
staircase chain; the chain's scratch group, where the pairs missing at
both ends cross, holds the syndromes of the wrap-around pair
[transpose(B_last) | B_0] and is never decoded. The list plain pass
equals `decode_pass` on a one-group array."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab import pc, scc
from feclab.bch import build_code
from feclab.pc import PcCode, SabmParams, SyndromeState, block_layout, pc_encode
from feclab.scc import SccCode, chain_layout, scc_encode

from reference import block_syndromes

CODE = build_code(5)  # eBCH(32,21): PC w = 32, SCC w = 16


def pc_recomputed(bits):
    """A block's rows, then its columns; bits as an array or a bytearray."""
    w = CODE.n
    block = np.frombuffer(bits, dtype=np.uint8).reshape(w, w)
    return np.concatenate([block_syndromes(CODE, block), block_syndromes(CODE, block.T)])


def scc_recomputed(bits):
    """Every pair of the chain, then the scratch group's wrap-around pair."""
    w = CODE.n // 2
    blocks = np.frombuffer(bits, dtype=np.uint8).reshape(-1, w, w)
    pairs = [np.concatenate([blocks[p].T, blocks[(p + 1) % len(blocks)]], axis=1)
             for p in range(len(blocks))]
    return np.concatenate([block_syndromes(CODE, words) for words in pairs])


def assert_list_matches(cs, bits, recomputed):
    assert cs[:-1] == recomputed(bits).tolist() and cs[-1] == pc.SENTINEL


def listed(layout, bits):
    """The syndrome list and the bytearray that the list passes decode."""
    return layout.syndromes(CODE, bits).tolist() + [pc.SENTINEL], bytearray(bits)


def follow_random_passes(layout, bits, recomputed, marks, window, rng):
    """List passes over random groups of arbitrary bits, plain and marking
    by turns, keep every syndrome, the scratch group's included, equal to
    the bits. marks(group) gives a marking pass its marks and axis, and
    window(group) the slot range its veto reads."""
    cs, flat = listed(layout, bits)
    stats = pc.DecodeStats()
    assert_list_matches(cs, flat, recomputed)
    # at least 4 rounds, and more while no bit has changed or no retry run:
    # with a single group, all words of it can fail to decode and every
    # retry can fail too
    for round_ in range(64):
        if round_ >= 4 and flat != bits.tobytes() and stats.flips_attempted:
            break
        group = int(rng.integers(len(layout.base)))
        pc.plain_pass(CODE, layout, group, cs, flat, stats)
        assert_list_matches(cs, flat, recomputed)
        group = int(rng.integers(len(layout.base)))
        pc.sabm_pass(CODE, layout, group, cs, flat, layout.slots(group, *window(group)),
                     *marks(group), stats)
        assert_list_matches(cs, flat, recomputed)
    assert flat != bits.tobytes() and stats.flips_attempted > 0


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
    assert len(layout.base) == num_blocks - 1
    assert layout.syndromes(CODE, bits).size == num_blocks * w
    marks = [scc.block_marks(code, noisy_llr(b, rng), SabmParams(failure_flip_attempts=3))
             for b in bits]
    lo, hi = sorted(rng.integers(0, num_blocks, 2).tolist())
    follow_random_passes(layout, bits, scc_recomputed, lambda g: (marks[g + 1], 0),
                         lambda g: (min(lo, g) * w, (max(hi, g) + 1) * w), rng)


def test_state_rejects_bits_it_cannot_update_in_place():
    w = CODE.n
    bits = np.zeros((w, w), dtype=np.uint8)
    with pytest.raises(ValueError):
        SyndromeState(CODE, bits.T, block_layout(w, 1))
    with pytest.raises(ValueError):
        SyndromeState(CODE, list(bits), block_layout(w, 1))


def checked_passes(monkeypatch, module, recomputed):
    """Rebind the list passes that `module` calls to wrappers that check,
    before every pass, that its syndrome list equals the syndromes of its
    bytearray. Returns the (group, pass name, list, bytearray) of every
    pass."""
    passes = []
    for name in ("plain_pass", "sabm_pass"):
        def check(code, layout, group, cs, bits, *args, run=getattr(pc, name), name=name):
            assert_list_matches(cs, bits, recomputed)
            passes.append((group, name, cs, bits))
            return run(code, layout, group, cs, bits, *args)

        monkeypatch.setattr(module, name, check)
    return passes


def one_list_and_bytearray(passes):
    """The one syndrome list and the one bytearray that all passes read."""
    (cs,) = {id(p[2]): p[2] for p in passes}.values()
    (bits,) = {id(p[3]): p[3] for p in passes}.values()
    return cs, bits


@pytest.mark.parametrize("decoder", ["ibdd", "sabm", "sabm_md_all"])
@pytest.mark.parametrize("seed", range(4))
def test_block_syndromes_match_after_decode(decoder, seed, monkeypatch):
    # iBDD: the stack's one state matches its bits after the decode. SABM:
    # one list and one bytearray serve every pass of the block, the list
    # matches the bytes before every pass and after the decode, and the
    # decoded block views the bytes; sabm_md_all has no plain iteration
    code = PcCode(CODE)
    rng = np.random.default_rng(seed)
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    noisy = block ^ (rng.random(block.shape) < 0.03).astype(np.uint8)
    if decoder == "ibdd":
        made = recording(monkeypatch, pc, "SyndromeState")
        out, _ = pc.ibdd_decode(code, noisy, iters=10)
        (state,) = made
        assert state.bits is out
        assert np.array_equal(state.syn, pc_recomputed(state.bits))
        return
    passes = checked_passes(monkeypatch, pc, pc_recomputed)
    md_iters = 10 if decoder == "sabm_md_all" else 5
    out, _ = pc.sabm_decode(code, noisy, noisy_llr(noisy, rng),
                            SabmParams(delta=5.0, total_iters=10, md_iters=md_iters))
    assert not np.array_equal(out, noisy)
    cs, bits = one_list_and_bytearray(passes)
    assert_list_matches(cs, bits, pc_recomputed)
    assert np.shares_memory(out, np.frombuffer(bits, dtype=np.uint8))
    assert np.array_equal(out.reshape(-1), np.frombuffer(bits, dtype=np.uint8))
    names = {name for _, name, _, _ in passes}
    assert names == ({"sabm_pass"} if md_iters == 10 else {"sabm_pass", "plain_pass"})


@pytest.mark.parametrize("mode", ["standard", "sabm"])
@pytest.mark.parametrize("seed", range(3))
def test_window_syndromes_match_after_each_window(mode, seed, monkeypatch):
    # exactly one syndrome list and one bytearray serve every window of a
    # chain; the list matches the bits before every pass, plain or marking,
    # hence after every marking pass's flips and after each window, and
    # after the chain
    passes = checked_passes(monkeypatch, scc, scc_recomputed)
    code = SccCode(CODE)
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (8, code.w, code.info_cols), dtype=np.uint8)
    noisy = [b ^ (rng.random(b.shape) < 0.04).astype(np.uint8)
             for b in scc_encode(code, info)]
    marks = ([scc.block_marks(code, noisy_llr(b, rng), SabmParams()) for b in noisy]
             if mode == "sabm" else None)
    out, _ = scc.decode_chain(code, noisy, marks, SabmParams(), window=4, ell=3)
    cs, bits = one_list_and_bytearray(passes)
    assert_list_matches(cs, bits, scc_recomputed)
    # 3 iterations over the pairs s..min(s + 2, 7) of each window s; under
    # SABM (md_iters 5) every pass over the newest pair is a marking pass
    newest = "sabm_pass" if mode == "sabm" else "plain_pass"
    assert [p[:2] for p in passes] == [(p, newest if p == min(s + 2, 7) else "plain_pass")
                                       for s in range(8) for _ in range(3)
                                       for p in range(s, min(s + 3, 8))]
    chain = np.frombuffer(bits, dtype=np.uint8).reshape(-1, code.w, code.w)
    for got, want in zip(out, chain[1:]):
        assert np.array_equal(got, want)


def pass_both_ways(layout, bits, group):
    """The list plain pass, `plain_pass` on the syndrome list and a
    bytearray of `bits`, and `decode_pass` on a one-entry group array of a
    `SyndromeState` of a copy of them: the bits, the syndromes, the
    DecodeStats and the flipped flag agree. Returns the flag."""
    state, stats = SyndromeState(CODE, bits.copy(), layout), pc.DecodeStats()
    achanged = pc.decode_pass(state, np.array([group]), stats)
    (cs, flat), lstats = listed(layout, bits), pc.DecodeStats()
    changed = pc.plain_pass(CODE, layout, group, cs, flat, lstats)
    assert type(changed) is bool and achanged.shape == (1,)
    assert flat == state.bits.tobytes() and cs == state.syn.tolist() + [pc.SENTINEL]
    assert lstats == stats and changed == achanged[0]
    return changed


def pc_pass_both_ways(bits, group):
    return pass_both_ways(block_layout(len(bits), 1), bits, group)


def scc_pass_both_ways(chain, group):
    return pass_both_ways(chain_layout(chain.shape[1], len(chain)), chain, group)


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
    syn = chain_layout(half, 4).syndromes(CODE, chain)
    assert (CODE.error_positions[syn[half:2 * half]] < 0).all()
    assert scc_pass_both_ways(chain, 1) is False
