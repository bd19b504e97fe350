"""GF(2^m) with an exp table of the powers of alpha, plus GF(2) polynomial
helpers.

Field elements and binary polynomials are plain unsigned ints in polynomial
basis: bit i is the coefficient of x^i. Addition is XOR.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# One fixed primitive polynomial per extension degree so that test vectors
# are reproducible across runs.
PRIMITIVE_POLYS = {
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10001001,   # x^7 + x^3 + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}


@dataclass(frozen=True)
class GaloisField:
    """GF(2^m) with a precomputed exp table: exp_table[i] = alpha^i for i in
    0..2^m-2. Immutable after construction; all operations are pure."""

    m: int
    primitive_poly: int
    exp_table: np.ndarray

    @property
    def order(self) -> int:
        """Multiplicative group order, 2^m - 1."""
        return (1 << self.m) - 1


def build_field(m: int) -> GaloisField:
    if m not in PRIMITIVE_POLYS:
        raise ConfigError(f"unsupported field degree m={m}, need 3 <= m <= 8")
    prim = PRIMITIVE_POLYS[m]
    order = (1 << m) - 1
    exp = np.zeros(order, dtype=np.int64)
    x = 1
    for i in range(order):
        exp[i] = x
        x <<= 1
        if x >> m:
            x ^= prim
    exp.setflags(write=False)
    return GaloisField(m=m, primitive_poly=prim, exp_table=exp)


def gf_mul(f: GaloisField, a: int, b: int) -> int:
    return poly_rem(poly_mul(a, b), f.primitive_poly)


# --- binary polynomials (ints, bit i = coeff of x^i) ---


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product over GF(2)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_rem(dividend: int, divisor: int) -> int:
    if divisor == 0:
        raise ValueError("polynomial division by zero")
    dd = poly_degree(divisor)
    r = dividend
    while poly_degree(r) >= dd:
        r ^= divisor << (poly_degree(r) - dd)
    return r
