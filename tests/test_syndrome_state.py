"""The syndromes that the decoders maintain always equal the syndromes
recomputed from the bits: after arbitrary flips, and after every decode.
One `SyndromeState` serves the product block layout and every staircase
window length; the sink slot that stands in for crossing words outside a
window never changes and never reads as a codeword."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab import pc, scc
from feclab.bch import block_syndromes, build_code
from feclab.modem import ReliabilityGrid
from feclab.pc import PcCode, SabmParams, SyndromeState, block_layout, pc_encode
from feclab.scc import SccCode, scc_encode, window_layout

CODE = build_code(5, 2, extended=True)  # eBCH(32,21): PC w = 32, SCC w = 16


def pc_recomputed(state):
    return np.concatenate([block_syndromes(CODE, state.bits),
                           block_syndromes(CODE, state.bits.T)])


def scc_recomputed(state):
    blocks = state.bits
    pairs = [np.concatenate([blocks[p].T, blocks[p + 1]], axis=1)
             for p in range(len(blocks) - 1)]
    return np.concatenate([block_syndromes(CODE, words) for words in pairs])


def assert_matches(state, recomputed, sink):
    assert np.array_equal(state.syn[:-1], recomputed(state))
    assert state.syn[-1] == sink != 0


def follow_random_flips(state, recomputed, rng):
    """Random whole-group flips and single-word flips keep every syndrome
    equal to the bits and leave the sink slot as it was."""
    n, w = CODE.n, state.w
    groups = (state.syn.size - 1) // w
    sink = state.syn[-1]
    assert_matches(state, recomputed, sink)
    for _ in range(4):
        group = int(rng.integers(groups))
        cells = rng.choice(w * n, size=int(rng.integers(1, 60)), replace=False)
        state.flip(group, cells // n, cells % n)
        assert_matches(state, recomputed, sink)
        pattern = rng.choice(n, size=int(rng.integers(1, 5)), replace=False)
        state.flip_word(group, int(rng.integers(w)), pattern.tolist())
        assert_matches(state, recomputed, sink)


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
    follow_random_flips(SyndromeState(CODE, bits, block_layout(w)), pc_recomputed, rng)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_window_syndromes_follow_random_flips(seed, num_blocks):
    # the oldest pair's older half and the newest pair's newer half have
    # their crossing words outside the window: their flips reach the sink
    rng = np.random.default_rng(seed)
    w = CODE.n // 2
    bits = rng.integers(0, 2, (num_blocks, w, w), dtype=np.uint8)
    state = SyndromeState(CODE, bits, window_layout(w, num_blocks))
    follow_random_flips(state, scc_recomputed, rng)


def test_state_rejects_bits_it_cannot_update_in_place():
    w = CODE.n
    bits = np.zeros((w, w), dtype=np.uint8)
    with pytest.raises(ValueError):
        SyndromeState(CODE, bits.T, block_layout(w))
    with pytest.raises(ValueError):
        SyndromeState(CODE, list(bits), block_layout(w))


@pytest.mark.parametrize("decoder", ["ibdd", "sabm"])
@pytest.mark.parametrize("seed", range(4))
def test_block_syndromes_match_after_decode(decoder, seed, monkeypatch):
    made = recording(monkeypatch, pc, "SyndromeState")
    code = PcCode(CODE)
    rng = np.random.default_rng(seed)
    block = pc_encode(code, rng.integers(0, 2, (code.k, code.k), dtype=np.uint8))
    noisy = block ^ (rng.random(block.shape) < 0.03).astype(np.uint8)
    if decoder == "ibdd":
        out, _ = pc.ibdd_decode(code, noisy, iters=10)
    else:
        out, _ = pc.sabm_decode(code, noisy, ReliabilityGrid(noisy_llr(noisy, rng)),
                                SabmParams(delta=5.0))
    (state,) = made
    assert state.bits is out
    assert_matches(state, pc_recomputed, state.syn[-1])


@pytest.mark.parametrize("mode", ["standard", "sabm"])
@pytest.mark.parametrize("seed", range(3))
def test_window_syndromes_match_after_each_window(mode, seed, monkeypatch):
    made = recording(monkeypatch, scc, "SyndromeState")
    window_decode = scc.scc_window_decode
    windows = []

    def checked(*args, **kwargs):
        window_decode(*args, **kwargs)
        state = made[-1]
        assert_matches(state, scc_recomputed, state.syn[-1])
        windows.append(state)

    monkeypatch.setattr(scc, "scc_window_decode", checked)
    code = SccCode(CODE)
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (8, code.w, code.info_cols), dtype=np.uint8)
    noisy = [b ^ (rng.random(b.shape) < 0.04).astype(np.uint8)
             for b in scc_encode(code, info)]
    llrs = [noisy_llr(b, rng) for b in noisy] if mode == "sabm" else None
    scc.decode_chain(code, noisy, llrs, SabmParams(), window=4, ell=3)
    assert len(windows) == len(made) == 8
