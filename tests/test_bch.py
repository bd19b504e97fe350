import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab.bch import block_syndromes, build_code, decode_block, decode_syndromes, encode_many
from feclab.errors import ConfigError
from feclab.gf2m import build_field, gf_pow, poly_degree, poly_rem


def test_default_component_parameters():
    c = build_code(7, 2, extended=True)
    assert (c.n, c.k, c.t, c.d0) == (128, 113, 2, 6)
    c = build_code(8, 2, extended=True)
    assert (c.n, c.k, c.t, c.d0) == (256, 239, 2, 6)


def test_small_code_generator(gf16_code):
    c = gf16_code
    assert (c.n, c.k, c.d0) == (15, 7, 5)
    assert c.generator == 0b111010001  # x^8+x^7+x^6+x^4+1
    # generator divides x^15 + 1 and has alpha..alpha^4 as roots
    assert poly_rem((1 << 15) ^ 1, c.generator) == 0
    f = c.field
    for e in (1, 2, 3, 4):
        root = f.exp_table[e]
        acc = 0
        for i in range(poly_degree(c.generator) + 1):
            if (c.generator >> i) & 1:
                acc ^= gf_pow(f, root, i)
        assert acc == 0


def test_generator_degree_matches_k():
    for m in range(4, 9):
        for ext in (False, True):
            c = build_code(m, 2, ext)
            assert poly_degree(c.generator) == (c.n - (1 if ext else 0)) - c.k
            assert c.d0 == 5 + (1 if ext else 0)


def test_unsupported_t_rejected():
    with pytest.raises(ConfigError):
        build_code(7, 3, extended=True)
    with pytest.raises(ConfigError):
        build_code(3, 2, extended=False)


def test_encode_zero_and_length_check(ecc16_code):
    z = encode_many(ecc16_code, np.zeros((1, 7), dtype=np.uint8))
    assert z.shape == (1, 16) and not z.any()
    with pytest.raises(ValueError):
        encode_many(ecc16_code, np.zeros((1, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_many(ecc16_code, np.zeros(7, dtype=np.uint8))


def test_encode_systematic_parity(gf16_code):
    msg = np.zeros(7, dtype=np.uint8)
    msg[0] = 1
    (w,) = encode_many(gf16_code, msg[None, :])
    assert np.array_equal(w[:7], msg)
    d = poly_degree(gf16_code.generator)
    r = poly_rem(1 << d, gf16_code.generator)
    expect = [(r >> i) & 1 for i in range(d)]
    assert w[7:].tolist() == expect


@given(st.data())
@settings(max_examples=30)
def test_encode_linearity(data):
    code = build_code(4, 2, extended=True)
    m1 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=7, max_size=7)), dtype=np.uint8)
    m2 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=7, max_size=7)), dtype=np.uint8)
    c1, c2, c12 = encode_many(code, np.stack([m1, m2, m1 ^ m2]))
    assert np.array_equal(c1 ^ c2, c12)


def test_syndromes(ecc16_code, rng):
    # packed syndrome: S1 in bits 0..m-1, S3 in bits m..2m-1, parity in bit 2m
    code = ecc16_code
    m = code.field.m
    (w,) = encode_many(code, rng.integers(0, 2, (1, code.k), dtype=np.uint8))
    # row 0: the codeword; row 1 + j: the codeword with bit j flipped
    words = np.concatenate([w[None, :], w ^ np.eye(code.n, dtype=np.uint8)])
    syn = block_syndromes(code, words)
    assert syn[0] == 0
    for j in range(code.n - 1):
        s1, parity = syn[1 + j] & ((1 << m) - 1), syn[1 + j] >> (2 * m)
        assert s1 == code.field.exp_table[j] and parity == 1
    assert syn[code.n] == 1 << (2 * m)  # extension bit only: (0, 0, 1)


def test_is_codeword(ecc16_code, rng):
    code = ecc16_code
    w1, w2 = encode_many(code, rng.integers(0, 2, (2, code.k), dtype=np.uint8))
    flip = w1.copy()
    flip[4] ^= 1
    is_codeword = block_syndromes(code, np.stack([w1, flip, w1 ^ w2])) == 0
    assert is_codeword.tolist() == [True, False, True]


@pytest.mark.parametrize("codename", ["gf16_code", "ecc16_code", "ecc32_code",
                                      "pc_component_code", "scc_component_code"])
def test_bdd_corrects_up_to_two_errors(codename, rng, request):
    code = request.getfixturevalue(codename)
    sent = encode_many(code, rng.integers(0, 2, (200, code.k), dtype=np.uint8))
    received = sent.copy()
    positions = []
    for r in received:
        pos = rng.choice(code.n, size=int(rng.integers(0, 3)), replace=False)
        r[pos] ^= 1
        positions.append(pos)
    props = decode_block(code, block_syndromes(code, received))
    for i, pos in enumerate(positions):
        assert props.nerr[i] >= 0  # success
        assert sorted(props.pos[i, :props.nerr[i]].tolist()) == sorted(pos.tolist())
        assert props.nerr[i] == len(pos)


def test_bdd_weight_three_never_returns_transmitted(pc_component_code, rng):
    code = pc_component_code
    sent = encode_many(code, rng.integers(0, 2, (500, code.k), dtype=np.uint8))
    received = sent.copy()
    for r in received:
        r[rng.choice(code.n, size=3, replace=False)] ^= 1
    syn = block_syndromes(code, received)
    for w, r, s in zip(sent, received, syn.tolist()):
        pat = decode_syndromes(code, s)
        if pat is not None:
            assert len(pat) <= 2
            fixed = r.copy()
            fixed[list(pat)] ^= 1
            assert block_syndromes(code, fixed[None, :])[0] == 0
            assert not np.array_equal(fixed, w)


def test_success_always_lands_on_codeword(gf16_code, rng):
    code = gf16_code
    received = rng.integers(0, 2, (300, code.n), dtype=np.uint8)
    for r, s in zip(received, block_syndromes(code, received).tolist()):
        pat = decode_syndromes(code, s)
        if pat is not None:
            fixed = r.copy()
            if pat:
                fixed[list(pat)] ^= 1
            assert block_syndromes(code, fixed[None, :])[0] == 0


@pytest.mark.parametrize("m", range(4, 9))
def test_error_table_has_every_correctable_pattern(m):
    # no two patterns of weight <= t over the n positions (the overall-parity
    # bit included) share a packed syndrome, so the table holds each of
    # them: none was overwritten by another
    for extended in (False, True):
        code = build_code(m, 2, extended)
        n = code.n
        counts = [int((code.error_count == w).sum()) for w in (0, 1, 2)]
        assert counts == [1, n, n * (n - 1) // 2]


@pytest.mark.parametrize("m", range(4, 7))
def test_error_table_matches_two_step_parity_rule(m):
    # oracle: BDD on the unextended bits from (S1, S3), then the overall
    # parity: it may absorb one more flip only while the weight stays <= t
    ext, unext = build_code(m, 2, True), build_code(m, 2, False)
    low = (1 << (2 * m)) - 1
    for syn in range(1 << (2 * m + 1)):
        nerr = int(unext.error_count[syn & low])
        pat = None if nerr < 0 else tuple(unext.error_positions[syn & low, :nerr].tolist())
        if pat is not None and (syn >> (2 * m)) != len(pat) % 2:
            pat = pat + (ext.n - 1,) if len(pat) < ext.t else None
        assert decode_syndromes(ext, syn) == pat


def test_vectorized_propose_matches_scalar(ecc32_code, rng):
    # the batch decode of the iBDD passes agrees with the one-syndrome
    # decode of the SABM passes and flip retries, row by row
    code = ecc32_code
    words = rng.integers(0, 2, (300, code.n), dtype=np.uint8)
    syn = block_syndromes(code, words)
    props = decode_block(code, syn)
    for i in range(words.shape[0]):
        out = decode_syndromes(code, int(syn[i]))
        if out is not None:
            pat = props.pos[i, :props.nerr[i]].tolist()
            assert props.nerr[i] >= 0 and sorted(pat) == sorted(out)
        else:
            assert props.nerr[i] < 0
