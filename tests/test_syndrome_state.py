"""The syndromes that the decoders maintain always equal the syndromes
recomputed from the bits: after arbitrary flips, and after every decode."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab import pc, scc
from feclab.bch import block_syndromes, build_code
from feclab.modem import ReliabilityGrid
from feclab.pc import BlockSyndromes, PcCode, SabmParams, pc_encode
from feclab.scc import SccCode, WindowSyndromes, scc_encode

CODE = build_code(5, 2, extended=True)  # eBCH(32,21): PC w = 32, SCC w = 16


def pc_recomputed(state):
    return np.stack([block_syndromes(CODE, state.bits),
                     block_syndromes(CODE, state.bits.T)])


def scc_recomputed(state):
    blocks = state.blocks
    pairs = [np.concatenate([blocks[p].T, blocks[p + 1]], axis=1)
             for p in range(len(blocks) - 1)]
    return np.array([block_syndromes(CODE, words) for words in pairs])


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
    state = BlockSyndromes(CODE, rng.integers(0, 2, (w, w), dtype=np.uint8))
    assert np.array_equal(state.syn, pc_recomputed(state))
    for _ in range(4):
        axis = int(rng.integers(2))
        cells = rng.choice(w * w, size=int(rng.integers(1, 60)), replace=False)
        state.flip(axis, cells // w, cells % w)
        assert np.array_equal(state.syn, pc_recomputed(state))
        pattern = rng.choice(w, size=int(rng.integers(1, 5)), replace=False)
        state.flip_word(axis, int(rng.integers(w)), pattern.tolist())
        assert np.array_equal(state.syn, pc_recomputed(state))


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_window_syndromes_follow_random_flips(seed, num_blocks):
    rng = np.random.default_rng(seed)
    w = CODE.n // 2
    blocks = [rng.integers(0, 2, (w, w), dtype=np.uint8) for _ in range(num_blocks)]
    state = WindowSyndromes(CODE, blocks)
    assert np.array_equal(state.syn, scc_recomputed(state))
    for _ in range(4):
        p = int(rng.integers(num_blocks - 1))
        cells = rng.choice(w * 2 * w, size=int(rng.integers(1, 60)), replace=False)
        state.flip(p, cells // (2 * w), cells % (2 * w))
        assert np.array_equal(state.syn, scc_recomputed(state))
        pattern = rng.choice(2 * w, size=int(rng.integers(1, 5)), replace=False)
        state.flip_word(p, int(rng.integers(w)), pattern.tolist())
        assert np.array_equal(state.syn, scc_recomputed(state))


@pytest.mark.parametrize("decoder", ["ibdd", "sabm"])
@pytest.mark.parametrize("seed", range(4))
def test_block_syndromes_match_after_decode(decoder, seed, monkeypatch):
    made = recording(monkeypatch, pc, "BlockSyndromes")
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
    assert np.array_equal(state.syn, pc_recomputed(state))


@pytest.mark.parametrize("mode", ["standard", "sabm"])
@pytest.mark.parametrize("seed", range(3))
def test_window_syndromes_match_after_each_window(mode, seed, monkeypatch):
    made = recording(monkeypatch, scc, "WindowSyndromes")
    window_decode = scc.scc_window_decode
    windows = []

    def checked(*args, **kwargs):
        result = window_decode(*args, **kwargs)
        state = made[-1]
        assert np.array_equal(state.syn, scc_recomputed(state))
        windows.append(state)
        return result

    monkeypatch.setattr(scc, "scc_window_decode", checked)
    code = SccCode(CODE)
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (8, code.w, code.info_cols), dtype=np.uint8)
    noisy = [b ^ (rng.random(b.shape) < 0.04).astype(np.uint8)
             for b in scc_encode(code, info)]
    llrs = [noisy_llr(b, rng) for b in noisy] if mode == "sabm" else None
    scc.decode_chain(code, noisy, llrs, mode, SabmParams(), window=4, ell=3)
    assert len(windows) == len(made) == 8
