"""The syndromes that the decoders maintain always equal the syndromes
recomputed from the bits: after the flips that the decoders' passes make
on arbitrary bits, and after every decode.
One `SyndromeState` serves the product block layout and a whole staircase
chain; the chain's scratch group, where the pairs missing at both ends
cross, holds the syndromes of the wrap-around pair [transpose(B_last) | B_0]
and is never decoded."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab import pc, scc
from feclab.bch import build_code
from feclab.pc import PcCode, SabmParams, SyndromeState, block_layout, pc_encode
from feclab.scc import SccCode, chain_layout, scc_encode

from reference import block_syndromes, decode_syndromes

CODE = build_code(5)  # eBCH(32,21): PC w = 32, SCC w = 16


def pc_recomputed(state):
    return np.concatenate([block_syndromes(CODE, state.bits),
                           block_syndromes(CODE, state.bits.T)])


def scc_recomputed(state):
    """Every pair of the chain, then the scratch group's wrap-around pair."""
    blocks = state.bits
    pairs = [np.concatenate([blocks[p].T, blocks[(p + 1) % len(blocks)]], axis=1)
             for p in range(len(blocks))]
    return np.concatenate([block_syndromes(CODE, words) for words in pairs])


def assert_matches(state, recomputed):
    assert np.array_equal(state.syn, recomputed(state))


def retry_pattern(state, group, word, p):
    """A flip retry's pattern for a word, as the marking pass forms it:
    position p flipped together with the pattern that the changed syndrome
    decodes to; () when that fails."""
    got = decode_syndromes(CODE, int(state.syn[group * state.w + word] ^ CODE.flip_syndrome[p]))
    return () if got is None else sorted({p}.symmetric_difference(got))


def follow_random_flips(state, recomputed, rng):
    """Flips that make their words codewords, one group per call as in a
    marking pass, keep every syndrome, the scratch group's included, equal
    to the bits: a retry pattern of a random word, then the patterns that
    the syndromes of all words of a random group decode to."""
    w = state.w
    groups = len(state.layout.base)
    assert_matches(state, recomputed)
    flips = 0
    # at least 4 rounds, and more while none has flipped a bit: with a single
    # group, all words of it can fail to decode and every retry can fail too
    for round_ in range(64):
        if round_ >= 4 and flips > 0:
            break
        group = int(rng.integers(groups))
        word = int(rng.integers(w))
        pattern = retry_pattern(state, group, word, int(rng.integers(CODE.n)))
        state.flip(group, np.full(len(pattern), word), np.array(pattern, dtype=np.int64))
        assert_matches(state, recomputed)
        pos = CODE.error_positions[state.syn[group * w:(group + 1) * w]]  # (w, t)
        words, k = (pos >= 0).nonzero()
        state.flip(group, words, pos[words, k])
        assert_matches(state, recomputed)
        flips += len(pattern) + words.size
    assert flips > 0


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
    w = CODE.n
    bits = rng.integers(0, 2, (w, w), dtype=np.uint8)
    follow_random_flips(SyndromeState(CODE, bits, block_layout(w, 1)), pc_recomputed, rng)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_window_syndromes_follow_random_flips(seed, num_blocks):
    # the first pair's older half and the last pair's newer half cross into
    # the scratch group, which the flips must keep equal to its bits too
    rng = np.random.default_rng(seed)
    w = CODE.n // 2
    bits = rng.integers(0, 2, (num_blocks, w, w), dtype=np.uint8)
    state = SyndromeState(CODE, bits, chain_layout(w, num_blocks))
    assert len(state.layout.base) == num_blocks - 1
    assert state.syn.size == num_blocks * w
    follow_random_flips(state, scc_recomputed, rng)


def test_state_rejects_bits_it_cannot_update_in_place():
    w = CODE.n
    bits = np.zeros((w, w), dtype=np.uint8)
    with pytest.raises(ValueError):
        SyndromeState(CODE, bits.T, block_layout(w, 1))
    with pytest.raises(ValueError):
        SyndromeState(CODE, list(bits), block_layout(w, 1))


@pytest.mark.parametrize("decoder", ["ibdd", "sabm", "sabm_md_all"])
@pytest.mark.parametrize("seed", range(4))
def test_block_syndromes_match_after_decode(decoder, seed, monkeypatch):
    # sabm_md_all has no plain iteration, so the state checked is the one
    # that the marking iterations wrote back from their syndrome list
    made = recording(monkeypatch, pc, "SyndromeState")
    code = PcCode(CODE)
    rng = np.random.default_rng(seed)
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    noisy = block ^ (rng.random(block.shape) < 0.03).astype(np.uint8)
    if decoder == "ibdd":
        out, _ = pc.ibdd_decode(code, noisy, iters=10)
    else:
        md_iters = 10 if decoder == "sabm_md_all" else 5
        out, _ = pc.sabm_decode(code, noisy, noisy_llr(noisy, rng),
                                SabmParams(delta=5.0, total_iters=10, md_iters=md_iters))
        assert not np.array_equal(out, noisy)
    (state,) = made
    assert state.bits is out
    assert_matches(state, pc_recomputed)


@pytest.mark.parametrize("mode", ["standard", "sabm"])
@pytest.mark.parametrize("seed", range(3))
def test_window_syndromes_match_after_each_window(mode, seed, monkeypatch):
    # exactly one state serves every window of a chain; it matches the bits
    # before every pass, plain or marking, hence after every marking pass's
    # flips and after each window, and after the chain
    made = recording(monkeypatch, scc, "SyndromeState")
    passes = []

    def checked(name):
        run = getattr(pc, name)

        def check(state, group, *args):
            assert_matches(state, scc_recomputed)
            passes.append((group, name))
            return run(state, group, *args)

        monkeypatch.setattr(scc, name, check)

    checked("decode_pass")
    checked("sabm_pass")
    code = SccCode(CODE)
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (8, code.w, code.info_cols), dtype=np.uint8)
    noisy = [b ^ (rng.random(b.shape) < 0.04).astype(np.uint8)
             for b in scc_encode(code, info)]
    marks = ([scc.block_marks(code, noisy_llr(b, rng), SabmParams()) for b in noisy]
             if mode == "sabm" else None)
    out, _ = scc.decode_chain(code, noisy, marks, SabmParams(), window=4, ell=3)
    (state,) = made
    assert_matches(state, scc_recomputed)
    # 3 iterations over the pairs s..min(s + 2, 7) of each window s; under
    # SABM (md_iters 5) every pass over the newest pair is a marking pass
    newest = "sabm_pass" if mode == "sabm" else "decode_pass"
    assert passes == [(p, newest if p == min(s + 2, 7) else "decode_pass")
                      for s in range(8) for _ in range(3) for p in range(s, min(s + 3, 8))]
    for got, want in zip(out, state.bits[1:]):
        assert np.array_equal(got, want)


def pass_both_ways(make_state, group):
    """A plain decode_pass on `group` given as a Python int (the one-group
    path) and as a one-entry array (the group-array path), each on a fresh
    state: the bits, the syndromes, the DecodeStats and the flipped flag
    agree. Returns the flag."""
    got = []
    for groups in (group, np.array([group])):
        state, stats = make_state(), pc.DecodeStats()
        changed = pc.decode_pass(state, groups, stats)
        got.append((state.bits.copy(), state.syn.copy(), stats, changed))
    (bits, syn, stats, changed), (abits, asyn, astats, achanged) = got
    assert type(changed) is bool and achanged.shape == (1,)
    assert np.array_equal(bits, abits) and np.array_equal(syn, asyn)
    assert stats == astats and changed == achanged[0]
    return changed


def pc_state_maker(bits):
    return lambda: SyndromeState(CODE, bits.copy(), block_layout(len(bits), 1))


def scc_state_maker(chain):
    return lambda: SyndromeState(CODE, chain.copy(), chain_layout(chain.shape[1], len(chain)))


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.08))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_group_pass_equals_group_array_pass_pc(seed, error_rate):
    rng = np.random.default_rng(seed)
    code = PcCode(CODE)
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    noisy = block ^ (rng.random(block.shape) < error_rate).astype(np.uint8)
    for group in (0, 1):  # the rows, the columns
        pass_both_ways(pc_state_maker(noisy), group)


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
    pass_both_ways(scc_state_maker(chain), int(rng.integers(num_blocks - 1)))


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
            assert pass_both_ways(pc_state_maker(bits), group) is False
    # a staircase pair whose words all fail: 3 errors in each row of its
    # newer block, on the all-zero chain
    half = w // 2
    chain = np.zeros((4, half, half), dtype=np.uint8)
    chain[2] = three_errors_per_word(half)
    state = scc_state_maker(chain)()
    assert (CODE.error_positions[state.syn[half:2 * half]] < 0).all()
    assert pass_both_ways(scc_state_maker(chain), 1) is False
