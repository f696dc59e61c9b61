"""Quaternionic algebraic modular forms on the non-principal genus:
total dimension, Atkin-Lehner trace, signed dimensions, and the class
and type numbers H, T.

DEN * dim M and DEN * tr R are integer combinations of the characters
chi_i(f1, f2), i in CHI_INDEX: `level(p)` applies the constant matrices
M_ROWS and TRACE_ROWS to the level invariants I(p).  dim_M_total and
trace_R divide a dot product with the cached character vector by DEN
exactly, and dim_M_signed splits the two into (plus, minus).

A run of weights at one prime, _signed_run(p, weights), reads level(p)
once and then takes both dot products, their checked divisions and the
split per weight inline, with the messages of the three functions above.
A single weight keeps that chain of three calls (dim, table, weight 3):
perfbench/tests/test_harness.py counts one dim_M_total call for a dim
command.

The level invariants I(p) = _invariants(p) are a tuple of 20 ints, named
by INVARIANTS.  M_ROWS is one table, since [p = 2] and [p = 3] are
invariants; each branch of the trace, p = 2, p = 3, p = 1 and p = 3
(mod 4), has its own TRACE_ROWS table and its own flat copy of M_ROWS,
which drops the terms of [p = q] where q is another branch's prime.  No
Fraction is on this path: after one primality test of p, `level` takes
the integer 5 B_{2,chi} from kernels.b2_character_sum by one exact
division.

The record Level(m, tr) holds both coefficient vectors once per prime,
indexed by CHI_INDEX.  The character vector _chi_vector(f1, f2) is one
call of characters.chi_values(CHI_INDEX, f1, f2).

Functional equation.  At j = 0 each scalar character series
F_i(t) = sum_{f >= 0} chi_i(f, f) t^f, i in CHI_INDEX, is rational over
(1 - t^120)^4 with F_i(1/t) = t^3 F_i(t) (tests/test_characters.py).
dim M, tr R and so dim M+, dim M- at weight (f, f) are combinations of
the chi_i(f, f) whose coefficients depend on p only, so at every prime
the series sum_f dim M_f t^f, and those of M+ and M-, satisfy the same
equation: their numerators are palindromic up to a power of t, with
l = 3.
"""
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .arith import _split_symbols, check_level, class_number
from .characters import chi_values
from .errors import TypeNumberBound
from .exactmath import exact_quotient, plus_minus
from .kernels import _field_disc, b2_character_sum

# The characters entering dim M (the first ten) or tr R, in the order of
# the coefficients; chi_5 and chi_8 enter neither.
CHI_INDEX = (1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17)

DEN = 2880

# I(p), as _invariants returns it: s_d = (d/p), s_p5 = (p/5), d_q = [p = q], b5 =
# 5 B_{2,chi} of Q(sqrt(p)), h_n = h(n), s2_x = (2/p) x; b5, h_n are 0 at p = 2, 3.
INVARIANTS = ("1", "p", "p2", "s_m1", "s_m3", "s_2", "s_3", "s_p5", "p_s_m1", "p_s_m3",
              "d2", "d3", "d5", "b5", "h_p", "h_2p", "h_3p", "s2_b5", "s2_h_p", "s2_h_3p")

# DEN * dim M and DEN * tr R as chi_i -> ((c, x), ...), the sum of
# chi_i * c * I[x].
M_ROWS = {
    1: ((1, "p2"), (-1, "1")), 2: ((15, "d2"),), 3: ((180, "d2"),), 4: ((320, "d3"),),
    6: ((120, "p"), (-120, "s_m1"), (30, "p_s_m1"), (-30, "1")),
    7: ((120, "p"), (-120, "s_m3"), (40, "p_s_m3"), (-40, "1")),
    9: ((480, "d2"),), 10: ((576, "1"), (-576, "s_p5")), 11: ((360, "1"), (-360, "s_2")),
    12: ((120, "1"), (-120, "s_3"), (120, "s_m1"), (-120, "s_m3")),
}
TRACE_ROWS = {
    2: {2: ((60, "1"),), 6: ((180, "1"),), 9: ((480, "1"),), 11: ((900, "1"),),
        14: ((60, "1"),), 15: ((480, "1"),), 16: ((720, "1"),)},
    3: {2: ((120, "1"),), 6: ((120, "1"),), 9: ((960, "1"),), 11: ((720, "1"),),
        17: ((960, "1"),)},
    "1 mod 4": {2: ((54, "b5"), (-12, "s2_b5")), 6: ((180, "h_p"),), 11: ((360, "h_2p"),),
                9: ((720, "h_3p"), (240, "s2_h_3p")), 13: ((576, "d5"),)},
    "3 mod 4": {2: ((6, "b5"),), 6: ((180, "h_p"), (-180, "s2_h_p")), 9: ((240, "h_3p"),),
                11: ((360, "h_2p"),)},
}


def _triples(rows, branch):
    """rows as flat (chi position, coefficient, invariant position) triples,
    without the terms of d2 and d3 that are 0 on `branch`."""
    return tuple((CHI_INDEX.index(i), c, INVARIANTS.index(x))
                 for i, terms in rows.items() for c, x in terms
                 if x not in ("d2", "d3") or x == f"d{branch}")


# per branch, the triples of M_ROWS and of its TRACE_ROWS table
_TRIPLES = {branch: (_triples(M_ROWS, branch), _triples(rows, branch))
            for branch, rows in TRACE_ROWS.items()}


class Level(namedtuple("Level", "m tr")):
    """dim M = (m . chi) / DEN and tr R = (tr . chi) / DEN at one level.  (Not a
    dataclass or a typing.NamedTuple: those load inspect and typing at import.)"""

    __slots__ = ()


def _invariants(p):
    """I(p) as a tuple of ints; NotPrimeLevel unless p is a prime int,
    NonIntegral if 5 B_{2,chi} is not an integer."""
    check_level(p)
    s_m1, s_m3, s_2, s_3, s_p5 = _split_symbols(p)
    b5 = h_p = h_2p = h_3p = 0
    if p > 3:
        D0 = _field_disc(p)
        b5 = exact_quotient(5 * b2_character_sum(D0), D0, "5 B_2,chi({})", p)
        h_p, h_2p, h_3p = class_number(p), class_number(2 * p), class_number(3 * p)
    return (1, p, p * p, s_m1, s_m3, s_2, s_3, s_p5, p * s_m1, p * s_m3, int(p == 2),
            int(p == 3), int(p == 5), b5, h_p, h_2p, h_3p, s_2 * b5, s_2 * h_p, s_2 * h_3p)


def _apply(triples, inv):
    """sum(c * inv[x]) at each chi position i of the triples (i, c, x),
    cut after the last nonzero entry, where a dot product may stop."""
    out = [0] * len(CHI_INDEX)
    for i, c, x in triples:
        out[i] += c * inv[x]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def level(p):
    """The coefficient record of the prime level p; NotPrimeLevel for any
    other p."""
    inv = _invariants(p)
    m, tr = _TRIPLES[p if p < 5 else "1 mod 4" if p % 4 == 1 else "3 mod 4"]
    return Level(_apply(m, inv), _apply(tr, inv))


# typed, so that (2.0, 2.0) misses the entry of (2, 2) and is refused
@lru_cache(maxsize=None, typed=True)
def _chi_vector(f1, f2):
    """The characters of CHI_INDEX at (f1, f2), which chi_values checks."""
    return chi_values(CHI_INDEX, f1, f2)


def dim_M_total(p, f1, f2):
    """Total dimension of the space of algebraic modular forms with Young
    parameters (f1, f2) at prime level p (both genera conventions fixed
    to the non-principal one)."""
    num = sum(map(mul, level(p).m, _chi_vector(f1, f2)))
    return exact_quotient(num, DEN, "dim M({},{},{})", p, f1, f2)


def trace_R(p, f1, f2):
    """Trace of the Atkin-Lehner operator on the same space."""
    num = sum(map(mul, level(p).tr, _chi_vector(f1, f2)))
    return exact_quotient(num, DEN, "trace R({},{},{})", p, f1, f2)


def dim_M_signed(p, f1, f2):
    """Signed (Atkin-Lehner eigenspace) dimensions (plus, minus): half the
    sum and half the difference of dim_M_total and trace_R."""
    return plus_minus(dim_M_total(p, f1, f2), trace_R(p, f1, f2),
                      "M({},{},{})", p, f1, f2)


def _signed_run(p, weights):
    """[dim_M_signed(p, f1, f2) for (f1, f2) in weights], with one lookup
    of level(p); the same checks raise the same errors in the same order."""
    m, tr = level(p)
    out = []
    for f1, f2 in weights:
        chi = _chi_vector(f1, f2)
        total = exact_quotient(sum(map(mul, m, chi)), DEN, "dim M({},{},{})", p, f1, f2)
        trace = exact_quotient(sum(map(mul, tr, chi)), DEN, "trace R({},{},{})", p, f1, f2)
        out.append(plus_minus(total, trace, "M({},{},{})", p, f1, f2))
    return out


def class_and_type(p):
    """Class number H and type number T of the non-principal genus: the
    plus space at weight (0, 0) has dimension T, the minus space H - T."""
    T, H_minus_T = dim_M_signed(p, 0, 0)
    H = T + H_minus_T
    if not T <= H <= 2 * T:
        raise TypeNumberBound(f"p = {p}: H = {H} and T = {T} violate T <= H <= 2T")
    return H, T
