from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feclab import kernel
from feclab.bch import build_code
from feclab.errors import ConfigError
from feclab.kernel import Passes
from feclab.pc import block_layout

import reference
from reference import block_syndromes, decode_syndromes, encode_rows, plain_pass


def test_default_component_parameters():
    c = build_code(7)
    assert (c.n, c.k, c.t, c.d0) == (128, 113, 2, 6)
    c = build_code(8)
    assert (c.n, c.k, c.t, c.d0) == (256, 239, 2, 6)


def test_small_code_generator():
    # each reference generator divides x^(2^m - 1) + 1 and has alpha..alpha^4
    # as roots, alpha from the reference's own primitive polynomial
    assert reference.GENERATORS[4] == 0b111010001  # x^8+x^7+x^6+x^4+1
    for m, g in reference.GENERATORS.items():
        exp = reference.alpha_powers(m)
        assert reference.poly_rem((1 << len(exp)) ^ 1, g) == 0
        for e in (1, 2, 3, 4):
            acc = 0
            for i in range(g.bit_length()):
                if (g >> i) & 1:
                    acc ^= exp[(e * i) % len(exp)]  # (alpha^e)^i
            assert acc == 0


def test_generator_degree_matches_k():
    # BCH(15,7), (31,21), (63,51), (127,113), (255,239): k = n_u - deg g
    for m, (n_unext, k) in zip(range(4, 9), [(15, 7), (31, 21), (63, 51), (127, 113),
                                             (255, 239)]):
        assert reference.GENERATORS[m].bit_length() - 1 == n_unext - k
        c = build_code(m)
        assert (c.n - 1, c.k, c.d0) == (n_unext, k, 6)


@pytest.mark.parametrize("m", range(4, 9))
def test_s1_columns_are_the_powers_of_alpha(m):
    # S1 of a single error at position j < 2^m - 1 (any bit but the
    # overall parity) is alpha^j, and these run once through the nonzero
    # elements of GF(2^m)
    code = build_code(m)
    s1 = (code.flip_syndrome[:(1 << m) - 1] & ((1 << m) - 1)).tolist()
    assert s1 == reference.alpha_powers(m)
    assert sorted(s1) == list(range(1, 1 << m))
    if m == 4:
        assert s1[1] == 0b0010  # alpha itself
        assert s1[4] == 0b0011  # alpha^4 = alpha + 1 under x^4+x+1


@pytest.mark.parametrize("m", [0, 1, 2, 3, 9, 16])
def test_build_code_rejects_bad_degree(m):
    with pytest.raises(ConfigError):
        build_code(m)


def test_poly_rem_examples():
    assert reference.poly_rem(0b1010, 0b10) == 0          # x^3 + x divisible by x
    assert reference.poly_rem(0b10011, 0b10011) == 0      # self
    assert reference.poly_rem(0b100000, 0b10011) == 0b110  # x^5 mod x^4+x+1 = x^2+x
    with pytest.raises(ValueError):
        reference.poly_rem(0b101, 0)


def test_unsupported_t_rejected():
    # eBCH with t = 2 is the only code built: any other t, or an unextended
    # code, is rejected, and the defaults spelled out give the same code
    for m in range(4, 9):
        with pytest.raises(ConfigError):
            build_code(m, 3, True)
        with pytest.raises(ConfigError):
            build_code(m, 2, extended=False)
        spelled, default = build_code(m, 2, extended=True), build_code(m)
        assert all(np.array_equal(getattr(spelled, f.name), getattr(default, f.name))
                   for f in fields(default))


def test_encode_zero_and_length_check(ecc16_code):
    z = encode_rows(ecc16_code, np.zeros((1, 7), dtype=np.uint8))
    assert z.shape == (1, 16) and not z.any()
    # the kernel writes the bits in place through the layout: too few bits,
    # words of another length, or bits it cannot write are refused
    rows = block_layout(16, 1)
    for bits in (np.zeros(16 * 16 - 1, dtype=np.uint8), np.zeros((16, 16), dtype=np.int64),
                 np.zeros((16, 32), dtype=np.uint8)[:, ::2]):
        with pytest.raises(ValueError):
            kernel.encode(ecc16_code, rows, bits)
    with pytest.raises(ValueError):
        kernel.encode(ecc16_code, block_layout(32, 1), np.zeros((32, 32), dtype=np.uint8))


def test_encode_systematic_parity(ecc16_code):
    msg = np.zeros(7, dtype=np.uint8)
    msg[0] = 1
    (w,) = encode_rows(ecc16_code, msg[None, :])
    assert np.array_equal(w[:7], msg)
    g = reference.GENERATORS[4]
    d = g.bit_length() - 1
    r = reference.poly_rem(1 << d, g)
    expect = [(r >> i) & 1 for i in range(d)]
    assert w[7:15].tolist() == expect
    assert w[15] == (1 + sum(expect)) % 2  # the overall parity


@pytest.mark.parametrize("m", range(4, 9))
def test_parity_matrix_holds_the_overall_parity_column(m, rng):
    # message bit i adds itself and row i of the BCH parity to the overall
    # parity, so the top bit of its parity pattern is 1 + the sum of the
    # others (mod 2); every word the kernel encodes is then a codeword
    code = build_code(m)
    assert code.parity.shape == (code.k,) and code.parity.dtype == np.int64
    pm = reference.parity_matrix(code)
    assert np.array_equal(pm[:, -1], (1 + pm[:, :-1].sum(axis=1)) % 2)
    msgs = np.concatenate([np.eye(code.k, dtype=np.uint8),
                           rng.integers(0, 2, (200, code.k), dtype=np.uint8)])
    assert not block_syndromes(code, encode_rows(code, msgs)).any()


@given(st.data())
@settings(max_examples=30)
def test_encode_linearity(data):
    code = build_code(4)
    m1 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=7, max_size=7)), dtype=np.uint8)
    m2 = np.array(data.draw(st.lists(st.integers(0, 1), min_size=7, max_size=7)), dtype=np.uint8)
    c1, c2, c12 = encode_rows(code, np.stack([m1, m2, m1 ^ m2]))
    assert np.array_equal(c1 ^ c2, c12)


def test_syndromes(ecc16_code, rng):
    # packed syndrome: S1 in bits 0..m-1, S3 in bits m..2m-1, parity in bit 2m
    code = ecc16_code
    m = 4
    exp = reference.alpha_powers(m)
    (w,) = reference.encode_many(code, rng.integers(0, 2, (1, code.k), dtype=np.uint8))
    # row 0: the codeword; row 1 + j: the codeword with bit j flipped
    words = np.concatenate([w[None, :], w ^ np.eye(code.n, dtype=np.uint8)])
    syn = block_syndromes(code, words)
    assert syn[0] == 0
    for j in range(code.n - 1):
        s1, parity = syn[1 + j] & ((1 << m) - 1), syn[1 + j] >> (2 * m)
        assert s1 == exp[j] and parity == 1
    assert syn[code.n] == 1 << (2 * m)  # extension bit only: (0, 0, 1)


def test_is_codeword(ecc16_code, rng):
    code = ecc16_code
    w1, w2 = reference.encode_many(code, rng.integers(0, 2, (2, code.k), dtype=np.uint8))
    flip = w1.copy()
    flip[4] ^= 1
    is_codeword = block_syndromes(code, np.stack([w1, flip, w1 ^ w2])) == 0
    assert is_codeword.tolist() == [True, False, True]


@pytest.mark.parametrize("codename", ["ecc16_code", "ecc32_code", "pc_component_code",
                                      "scc_component_code"])
def test_bdd_corrects_up_to_two_errors(codename, rng, request):
    code = request.getfixturevalue(codename)
    sent = reference.encode_many(code, rng.integers(0, 2, (200, code.k), dtype=np.uint8))
    received = sent.copy()
    positions = []
    for r in received:
        pos = rng.choice(code.n, size=int(rng.integers(0, 3)), replace=False)
        r[pos] ^= 1
        positions.append(pos)
    for pos, syn in zip(positions, block_syndromes(code, received).tolist()):
        pat = decode_syndromes(code, syn)
        assert pat is not None  # success
        assert sorted(pat) == sorted(pos.tolist())
        assert len(pat) == len(pos)


def test_bdd_weight_three_never_returns_transmitted(pc_component_code, rng):
    code = pc_component_code
    sent = reference.encode_many(code, rng.integers(0, 2, (500, code.k), dtype=np.uint8))
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


def test_success_always_lands_on_codeword(ecc16_code, rng):
    code = ecc16_code
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
    code = build_code(m)
    n = code.n
    valid = (code.error_positions >= 0).sum(axis=1)
    assert [int((valid == w).sum()) for w in (1, 2)] == [n, n * (n - 1) // 2]
    assert decode_syndromes(code, 0) == ()


@pytest.mark.parametrize("m", range(4, 7))
def test_error_table_matches_two_step_parity_rule(m):
    # oracle: BDD on the unextended bits from (S1, S3), by the reference's
    # own table, then the overall parity: it may absorb one more flip only
    # while the weight stays <= t
    ext, unext = build_code(m), reference.unextended_bdd(m)
    low = (1 << (2 * m)) - 1
    for syn in range(1 << (2 * m + 1)):
        pat = unext.get(syn & low)
        if pat is not None and (syn >> (2 * m)) != len(pat) % 2:
            pat = pat + (ext.n - 1,) if len(pat) < ext.t else None
        assert decode_syndromes(ext, syn) == pat


@pytest.mark.parametrize("m", [4, 5])
def test_decode_syndromes_reads_the_table_as_python_ints(m):
    # every packed syndrome of the extended code: None for a failure, ()
    # for 0, else the table's positions in ascending order, as Python ints
    code = build_code(m)
    for syn in range(len(code.error_positions)):
        row = code.error_positions[syn]
        nerr = int((row >= 0).sum())
        pat = decode_syndromes(code, syn)
        if syn and nerr == 0:
            assert pat is None
            continue
        assert type(pat) is tuple and len(pat) == nerr
        assert all(type(p) is int for p in pat)
        assert list(pat) == row[:nerr].tolist() == sorted(pat)
    assert decode_syndromes(code, 0) == ()


def test_vectorized_propose_matches_scalar():
    # the table read in array form (the entries >= 0 of each row of
    # error_positions[syn]) agrees with the one-syndrome decode, for every
    # packed syndrome of m = 4 and 5
    for m in (4, 5):
        code = build_code(m)
        syn = np.arange(len(code.error_positions))
        pos = code.error_positions[syn]
        rows, k = np.nonzero(pos >= 0)
        got = [[] for _ in syn]
        for r, p in zip(rows.tolist(), pos[rows, k].tolist()):
            got[r].append(p)
        for s, flips in zip(syn.tolist(), got):
            out = decode_syndromes(code, s)
            if out is None:
                assert flips == []
            else:
                assert flips == sorted(flips) == list(out)


@pytest.mark.parametrize("m", range(4, 9))
def test_kernel_decodes_every_syndrome_as_decode_syndromes(m):
    # the kernel's plain pass reads its BDD from error_positions: given
    # every packed syndrome in turn as the syndrome of a row of a block, it
    # flips that row at the positions decode_syndromes gives, whose flip
    # syndromes XOR to it, and zeroes its slot; a failure, or syndrome 0,
    # flips nothing and leaves the slot as it was
    code = build_code(m)
    n = code.n
    state = Passes(code, block_layout(n, 1), np.zeros((n, n), dtype=np.uint8))
    syndromes = np.arange(len(code.error_positions))
    for batch in syndromes.reshape(-1, n):
        state.syn[:n] = batch
        before = state.bits.copy()
        plain_pass(state, 0)
        flipped = state.bits ^ before
        for s, row, left in zip(batch.tolist(), flipped, state.syn[:n].tolist()):
            pattern = decode_syndromes(code, s)
            assert tuple(np.flatnonzero(row).tolist()) == (pattern or ())
            assert left == (s if not pattern else 0)
            if pattern:
                assert np.bitwise_xor.reduce(code.flip_syndrome[list(pattern)]) == s
