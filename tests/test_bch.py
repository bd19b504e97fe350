import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab.bch import (bdd_decode, bdd_propose_block, build_code, decode_syndromes,
                        encode, encode_many, is_codeword, syndromes)
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
    z = encode(ecc16_code, np.zeros(7, dtype=np.uint8))
    assert not z.any()
    with pytest.raises(ValueError):
        encode(ecc16_code, np.zeros(8, dtype=np.uint8))


def test_encode_systematic_parity(gf16_code):
    msg = np.zeros(7, dtype=np.uint8)
    msg[0] = 1
    w = encode(gf16_code, msg)
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
    assert np.array_equal(encode(code, m1) ^ encode(code, m2), encode(code, m1 ^ m2))


def test_syndromes(ecc16_code, rng):
    code = ecc16_code
    msg = rng.integers(0, 2, code.k, dtype=np.uint8)
    w = encode(code, msg)
    assert syndromes(code, w) == (0, 0, 0)
    for j in range(code.n - 1):
        r = w.copy()
        r[j] ^= 1
        s1, s3, parity = syndromes(code, r)
        assert s1 == code.field.exp_table[j] and parity == 1
    r = w.copy()
    r[code.n - 1] ^= 1  # extension bit only
    assert syndromes(code, r) == (0, 0, 1)


def test_is_codeword(ecc16_code, rng):
    code = ecc16_code
    w1 = encode(code, rng.integers(0, 2, code.k, dtype=np.uint8))
    w2 = encode(code, rng.integers(0, 2, code.k, dtype=np.uint8))
    assert is_codeword(code, w1)
    flip = w1.copy()
    flip[4] ^= 1
    assert not is_codeword(code, flip)
    assert is_codeword(code, w1 ^ w2)


@pytest.mark.parametrize("codename", ["gf16_code", "ecc16_code", "ecc32_code",
                                      "pc_component_code", "scc_component_code"])
def test_bdd_corrects_up_to_two_errors(codename, rng, request):
    code = request.getfixturevalue(codename)
    for _ in range(200):
        w = encode(code, rng.integers(0, 2, code.k, dtype=np.uint8))
        nerr = int(rng.integers(0, 3))
        pos = rng.choice(code.n, size=nerr, replace=False)
        r = w.copy()
        r[pos] ^= 1
        out = bdd_decode(code, r)
        assert out.success
        assert sorted(out.error_pattern) == sorted(pos.tolist())
        assert out.weight == nerr


def test_bdd_weight_three_never_returns_transmitted(pc_component_code, rng):
    code = pc_component_code
    for _ in range(500):
        w = encode(code, rng.integers(0, 2, code.k, dtype=np.uint8))
        pos = rng.choice(code.n, size=3, replace=False)
        r = w.copy()
        r[pos] ^= 1
        out = bdd_decode(code, r)
        if out.success:
            assert out.weight <= 2
            fixed = r.copy()
            fixed[list(out.error_pattern)] ^= 1
            assert is_codeword(code, fixed)
            assert not np.array_equal(fixed, w)


def test_success_always_lands_on_codeword(gf16_code, rng):
    code = gf16_code
    for _ in range(300):
        r = rng.integers(0, 2, code.n, dtype=np.uint8)
        out = bdd_decode(code, r)
        if out.success:
            fixed = r.copy()
            if out.error_pattern:
                fixed[list(out.error_pattern)] ^= 1
            assert is_codeword(code, fixed)


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
    code = ecc32_code
    words = rng.integers(0, 2, (300, code.n), dtype=np.uint8)
    props = bdd_propose_block(code, words)
    for i in range(words.shape[0]):
        out = bdd_decode(code, words[i])
        pat = props.full_pattern(i)
        if out.success:
            assert pat is not None and sorted(pat) == sorted(out.error_pattern)
        else:
            assert pat is None


def test_encode_many_matches_encode(ecc32_code, rng):
    code = ecc32_code
    msgs = rng.integers(0, 2, (20, code.k), dtype=np.uint8)
    batch = encode_many(code, msgs)
    for i in range(20):
        assert np.array_equal(batch[i], encode(code, msgs[i]))
