"""Quaternionic algebraic modular forms on the non-principal genus:
total dimension, Atkin-Lehner trace, signed dimensions, and the class
and type numbers H, T.

dim M and tr R are fixed linear combinations of the characters
chi_i(f1, f2) whose coefficients depend on the level p alone.  `level(p)`
turns them into integers over a common denominator once per prime, and
each dimension is then a dot product with the character vector of
(f1, f2) whose division by that denominator must be exact.
"""
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .arith import bernoulli_b2_chi, check_level, class_number
from .characters import _check_young, chi_young
from .errors import TypeNumberBound
from .exactmath import exact_quotient, plus_minus
from .kernels import kronecker

# The characters entering each formula, in the order of the coefficients.
M_INDEX = (1, 2, 3, 4, 6, 7, 9, 10, 11, 12)
TR_INDEX = (2, 6, 9, 11, 13, 14, 15, 16, 17)
M_DEN = 2880

# The trace formula, one row per branch: tr R is the sum of
# chi_i * x * (a + b * (2/p)) / den over the row's terms (i, x, a, b, den),
# where x names an ingredient of the level: "1"; "b2" = B_{2,chi} of
# Q(sqrt(p)); "h_p", "h_2p", "h_3p" = h(p), h(2p), h(3p); "d5" = [p = 5].
TRACE_ROWS = {
    2: ((2, "1", 1, 0, 48), (6, "1", 1, 0, 16), (9, "1", 1, 0, 6),
        (11, "1", 5, 0, 16), (14, "1", 1, 0, 48), (15, "1", 1, 0, 6),
        (16, "1", 1, 0, 4)),
    3: ((2, "1", 1, 0, 24), (6, "1", 1, 0, 24), (9, "1", 1, 0, 3),
        (11, "1", 1, 0, 4), (17, "1", 1, 0, 3)),
    "1 mod 4": ((2, "b2", 9, -2, 96), (6, "h_p", 1, 0, 16), (11, "h_2p", 1, 0, 8),
                (9, "h_3p", 3, 1, 12), (13, "d5", 1, 0, 5)),
    "3 mod 4": ((2, "b2", 1, 0, 96), (6, "h_p", 1, -1, 16), (11, "h_2p", 1, 0, 8),
                (9, "h_3p", 1, 0, 12)),
}


class Level(NamedTuple):
    """Integer coefficients at one prime level: dim M = (m . chi) / M_DEN
    over the characters of M_INDEX, tr R = (tr . chi) / tr_den over those
    of TR_INDEX.  (A NamedTuple rather than a dataclass: importing
    dataclasses loads inspect and its dependencies, about 6 ms or 40 % of
    the package's import, and paradim uses no dataclass.)"""

    m: tuple
    tr_den: int
    tr: tuple


def _split_symbols(p):
    """split_symbol(d, p) for d = -1, -3, 2, 3, and split_symbol(p, 5), as
    Kronecker symbols of fixed discriminants, with nothing factored."""
    # -4, -3, 8, 12: Q(i), Q(sqrt(-3)), Q(sqrt(2)), Q(sqrt(3)); Q(sqrt(p)) has p or 4p, (4/5) = 1
    return kronecker(-4, p), kronecker(-3, p), kronecker(8, p), kronecker(12, p), kronecker(p, 5)


@lru_cache(maxsize=None)
def level(p):
    """The coefficient record of the prime level p; NotPrimeLevel for any
    other p."""
    check_level(p)
    d2 = 1 if p == 2 else 0
    d3 = 1 if p == 3 else 0
    s_m1, s_m3, s_2, s_3, s_p5 = _split_symbols(p)
    # 2880 times the coefficients (p^2 - 1)/2880, [p=2]/192, [p=2]/16,
    # [p=3]/9, (p - s_m1)/24 + (p s_m1 - 1)/96, (p - s_m3)/24 + (p s_m3 - 1)/72,
    # [p=2]/6, (1 - s_p5)/5, (1 - s_2)/8, (1 - s_3 + s_m1 - s_m3)/24
    m = (
        p * p - 1,
        15 * d2,
        180 * d2,
        320 * d3,
        120 * (p - s_m1) + 30 * (p * s_m1 - 1),
        120 * (p - s_m3) + 40 * (p * s_m3 - 1),
        480 * d2,
        576 * (1 - s_p5),
        360 * (1 - s_2),
        120 * (1 - s_3 + s_m1 - s_m3),
    )
    # each ingredient as (numerator, denominator)
    x = {"1": (1, 1)}
    if p in (2, 3):
        row = TRACE_ROWS[p]
    else:
        row = TRACE_ROWS["1 mod 4" if p % 4 == 1 else "3 mod 4"]
        b2 = bernoulli_b2_chi(p)
        x.update(b2=(b2.numerator, b2.denominator), h_p=(class_number(p), 1),
                 h_2p=(class_number(2 * p), 1), h_3p=(class_number(3 * p), 1),
                 d5=(1 if p == 5 else 0, 1))
    # each chi_i occurs once in a row; its coefficient num/den in lowest terms
    coeff = {}
    for i, name, a, b, den in row:
        num, den = x[name][0] * (a + b * s_2), den * x[name][1]
        g = gcd(num, den)
        coeff[i] = (num // g, den // g)
    tr_den = lcm(*(den for _, den in coeff.values()))
    tr = tuple(num * (tr_den // den) for num, den in
               (coeff.get(i, (0, 1)) for i in TR_INDEX))
    return Level(m, tr_den, tr)


# typed, so that (2.0, 2.0) misses the entry of (2, 2) and is refused
@lru_cache(maxsize=None, typed=True)
def _chi_vector(f1, f2):
    """The characters at (f1, f2): those of M_INDEX, then those of TR_INDEX."""
    _check_young(f1, f2)
    chi = {i: chi_young(i, f1, f2) for i in sorted({*M_INDEX, *TR_INDEX})}
    return tuple(chi[i] for i in M_INDEX), tuple(chi[i] for i in TR_INDEX)


def dim_M_total(p, f1, f2):
    """Total dimension of the space of algebraic modular forms with Young
    parameters (f1, f2) at prime level p (both genera conventions fixed
    to the non-principal one)."""
    lev = level(p)
    num = sum(map(mul, lev.m, _chi_vector(f1, f2)[0]))
    return exact_quotient(num, M_DEN, "dim M({},{},{})", p, f1, f2)


def trace_R(p, f1, f2):
    """Trace of the Atkin-Lehner operator on the same space."""
    lev = level(p)
    num = sum(map(mul, lev.tr, _chi_vector(f1, f2)[1]))
    return exact_quotient(num, lev.tr_den, "trace R({},{},{})", p, f1, f2)


def dim_M_signed(p, f1, f2):
    """Signed (Atkin-Lehner eigenspace) dimensions (plus, minus): half the
    sum and half the difference of dim_M_total and trace_R."""
    return plus_minus(dim_M_total(p, f1, f2), trace_R(p, f1, f2),
                      "M({},{},{})", p, f1, f2)


def class_and_type(p):
    """Class number H and type number T of the non-principal genus: the
    plus space at weight (0, 0) has dimension T, the minus space H - T."""
    T, H_minus_T = dim_M_signed(p, 0, 0)
    H = T + H_minus_T
    if not T <= H <= 2 * T:
        raise TypeNumberBound(f"p = {p}: H = {H} and T = {T} violate T <= H <= 2T")
    return H, T
