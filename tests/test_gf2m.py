import numpy as np
import pytest
from hypothesis import given, strategies as st

from feclab.errors import ConfigError
from feclab.gf2m import build_field, gf_mul, poly_degree, poly_mul, poly_rem


def test_build_field_gf16_basics():
    f = build_field(4)
    assert len(f.exp_table) == 15
    assert f.exp_table[1] == 0b0010  # alpha itself
    assert f.exp_table[4] == 0b0011  # alpha^4 = alpha + 1 under x^4+x+1


def test_exp_table_is_a_permutation_of_nonzero_elements():
    for m in range(3, 9):
        f = build_field(m)
        assert len(f.exp_table) == (1 << m) - 1
        assert sorted(f.exp_table) == list(range(1, 1 << m))
        for i, a in enumerate(f.exp_table):  # alpha^(i+1) = alpha * alpha^i
            assert f.exp_table[(i + 1) % f.order] == gf_mul(f, 0b10, int(a))


def test_alpha_order():
    for m in range(3, 9):
        f = build_field(m)
        a = 0b10
        x = 1
        for _ in range(f.order):
            x = gf_mul(f, x, a)
        assert x == 1


@pytest.mark.parametrize("m", [0, 1, 2, 9, 16])
def test_build_field_rejects_bad_degree(m):
    with pytest.raises(ConfigError):
        build_field(m)


def test_gf_mul_examples():
    f = build_field(4)
    assert gf_mul(f, 0b0010, 0b1000) == 0b0011
    for a in range(16):
        assert gf_mul(f, a, 1) == a
        assert gf_mul(f, a, 0) == 0


def test_gf_mul_log_identity_exhaustive_gf16_gf256():
    # alpha^i * alpha^j = alpha^(i+j), over every pair of nonzero elements
    for m in (4, 8):
        f = build_field(m)
        exp = f.exp_table.tolist()
        for i in range(f.order):
            for j in range(f.order):
                assert gf_mul(f, exp[i], exp[j]) == exp[(i + j) % f.order]


@given(m=st.integers(3, 8), data=st.data())
def test_gf_mul_commutative_associative(m, data):
    f = build_field(m)
    hi = (1 << m) - 1
    a = data.draw(st.integers(0, hi))
    b = data.draw(st.integers(0, hi))
    c = data.draw(st.integers(0, hi))
    assert gf_mul(f, a, b) == gf_mul(f, b, a)
    assert gf_mul(f, gf_mul(f, a, b), c) == gf_mul(f, a, gf_mul(f, b, c))


def test_poly_rem_examples():
    assert poly_rem(0b1010, 0b10) == 0          # x^3 + x divisible by x
    assert poly_rem(0b10011, 0b10011) == 0      # self
    assert poly_rem(0b100000, 0b10011) == 0b110  # x^5 mod x^4+x+1 = x^2+x
    with pytest.raises(ValueError):
        poly_rem(0b101, 0)


@given(q=st.integers(0, 1 << 20), divisor=st.integers(1, 1 << 20), r=st.integers(0, 1 << 20))
def test_poly_divmod_reconstructs_dividend(q, divisor, r):
    r %= 1 << poly_degree(divisor)  # any r with deg r < deg divisor
    assert poly_rem(poly_mul(q, divisor) ^ r, divisor) == r
    assert poly_degree(poly_rem(q, divisor)) < poly_degree(divisor)


@given(a=st.integers(0, 1 << 12), b=st.integers(0, 1 << 12))
def test_addition_self_cancels(a, b):
    assert a ^ a == 0
    assert (a ^ b) ^ b == a
