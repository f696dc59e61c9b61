"""Quaternionic algebraic modular forms on the non-principal genus:
total dimension, Atkin-Lehner trace, signed dimensions, and the class
and type numbers H, T.

dim M and tr R are fixed linear combinations of the characters
chi_i(f1, f2), i in CHI_INDEX, with coefficients that depend on the level
p alone; `level(p)` holds both as integer vectors over one denominator.
dim_M_total and trace_R each divide a dot product with the cached
character vector exactly, and dim_M_signed splits the two into
(plus, minus).
"""
from functools import lru_cache
from math import lcm
from operator import mul
from typing import NamedTuple

from .arith import _split_symbols, bernoulli_b2_chi, check_level, class_number
from .characters import chi_young
from .errors import TypeNumberBound
from .exactmath import exact_quotient, plus_minus

# The characters entering dim M (the first ten) or tr R, in the order of
# the coefficients; chi_5 and chi_8 enter neither.
CHI_INDEX = (1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17)

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
    """One prime level: dim M = (m . chi) / den and tr R = (tr . chi) / den,
    chi the characters of CHI_INDEX; m and tr cover its first 10 and at most
    15.  (Not a dataclass: importing it loads inspect, 40 % of the import.)"""

    den: int
    m: tuple
    tr: tuple


@lru_cache(maxsize=None)
def level(p):
    """The coefficient record of the prime level p; NotPrimeLevel for any
    other p."""
    check_level(p)
    d2, d3 = int(p == 2), int(p == 3)
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
    # den is the lcm of 2880 and every term's denominator.  Each chi_i occurs
    # once in a row; tr ends at its last nonzero entry, where the dot product
    # with the character vector may stop.
    den = lcm(2880, *[d * x[name][1] for _, name, _, _, d in row])
    tr = [0] * len(CHI_INDEX)
    for i, name, a, b, d in row:
        tr[CHI_INDEX.index(i)] = x[name][0] * (a + b * s_2) * den // (d * x[name][1])
    while tr and not tr[-1]:
        tr.pop()
    m = tuple([c * (den // 2880) for c in m])
    return Level(den, m, tuple(tr))


# typed, so that (2.0, 2.0) misses the entry of (2, 2) and is refused
@lru_cache(maxsize=None, typed=True)
def _chi_vector(f1, f2):
    """The characters of CHI_INDEX at (f1, f2), which chi_young checks."""
    return tuple(chi_young(i, f1, f2) for i in CHI_INDEX)


def dim_M_total(p, f1, f2):
    """Total dimension of the space of algebraic modular forms with Young
    parameters (f1, f2) at prime level p (both genera conventions fixed
    to the non-principal one)."""
    lev = level(p)
    num = sum(map(mul, lev.m, _chi_vector(f1, f2)))
    return exact_quotient(num, lev.den, "dim M({},{},{})", p, f1, f2)


def trace_R(p, f1, f2):
    """Trace of the Atkin-Lehner operator on the same space."""
    lev = level(p)
    num = sum(map(mul, lev.tr, _chi_vector(f1, f2)))
    return exact_quotient(num, lev.den, "trace R({},{},{})", p, f1, f2)


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
