"""Quaternionic algebraic modular forms on the non-principal genus:
total dimension, Atkin-Lehner trace, signed dimensions, and the class
and type numbers H, T."""
from dataclasses import dataclass
from fractions import Fraction

from .arith import bernoulli_b2_chi, class_number, split_symbol
from .characters import chi_young
from .errors import BadYoung, NonIntegral, ParityFailure, TypeNumberBound


@dataclass(frozen=True)
class CompactDims:
    p: int
    f1: int
    f2: int
    total: int
    trace: int
    plus: int
    minus: int


def _check_young(f1, f2):
    if not (f1 >= f2 >= 0) or (f1 - f2) % 2:
        raise BadYoung(f"need f1 >= f2 >= 0 with f1 = f2 (mod 2), got ({f1},{f2})")


def _to_int(x, what):
    if x.denominator != 1:
        raise NonIntegral(f"{what} = {x} is not an integer")
    return int(x)


def dim_M_total(p, f1, f2):
    """Total dimension of the space of algebraic modular forms with Young
    parameters (f1, f2) at prime level p (both genera conventions fixed
    to the non-principal one)."""
    _check_young(f1, f2)
    chi = {i: chi_young(i, f1, f2) for i in (1, 2, 3, 4, 6, 7, 9, 10, 11, 12)}
    d2 = 1 if p == 2 else 0
    d3 = 1 if p == 3 else 0
    s_m1 = split_symbol(-1, p)
    s_m3 = split_symbol(-3, p)
    s_2 = split_symbol(2, p)
    s_3 = split_symbol(3, p)
    s_p5 = split_symbol(p, 5)
    val = (
        Fraction(p * p - 1, 2880) * chi[1]
        + Fraction(d2, 192) * chi[2]
        + Fraction(d2, 16) * chi[3]
        + Fraction(d3, 9) * chi[4]
        + (Fraction(p - s_m1, 24) + Fraction(p * s_m1 - 1, 96)) * chi[6]
        + (Fraction(p - s_m3, 24) + Fraction(p * s_m3 - 1, 72)) * chi[7]
        + Fraction(d2, 6) * chi[9]
        + Fraction(1 - s_p5, 5) * chi[10]
        + Fraction(1 - s_2, 8) * chi[11]
        + Fraction(1 - s_3 + s_m1 - s_m3, 24) * chi[12]
    )
    return _to_int(val, f"dim M({p},{f1},{f2})")


def trace_R(p, f1, f2):
    """Trace of the Atkin-Lehner operator on the same space."""
    _check_young(f1, f2)

    def chi(i):
        return chi_young(i, f1, f2)

    if p == 2:
        val = (
            Fraction(chi(2), 48)
            + Fraction(chi(6), 16)
            + Fraction(chi(9), 6)
            + Fraction(5 * chi(11), 16)
            + Fraction(chi(14), 48)
            + Fraction(chi(15), 6)
            + Fraction(chi(16), 4)
        )
    elif p == 3:
        val = (
            Fraction(chi(2), 24)
            + Fraction(chi(6), 24)
            + Fraction(chi(9), 3)
            + Fraction(chi(11), 4)
            + Fraction(chi(17), 3)
        )
    else:
        b2 = bernoulli_b2_chi(p)
        s2 = split_symbol(2, p)
        h_p = class_number(p)
        h_2p = class_number(2 * p)
        h_3p = class_number(3 * p)
        if p % 4 == 1:
            val = (
                Fraction(chi(2), 96) * (9 - 2 * s2) * b2
                + Fraction(h_p, 16) * chi(6)
                + Fraction(h_2p, 8) * chi(11)
                + Fraction(h_3p, 12) * (3 + s2) * chi(9)
                + (Fraction(chi(13), 5) if p == 5 else 0)
            )
        else:
            val = (
                Fraction(chi(2), 96) * b2
                + Fraction(h_p, 16) * (1 - s2) * chi(6)
                + Fraction(h_2p, 8) * chi(11)
                + Fraction(h_3p, 12) * chi(9)
            )
    return _to_int(val, f"trace R({p},{f1},{f2})")


def dim_M_signed(p, f1, f2):
    """Signed (Atkin-Lehner eigenspace) dimensions as a CompactDims record."""
    total = dim_M_total(p, f1, f2)
    trace = trace_R(p, f1, f2)
    if (total + trace) % 2:
        raise ParityFailure(
            f"p={p}, ({f1},{f2}): total {total} and trace {trace} have opposite parity"
        )
    plus = (total + trace) // 2
    minus = (total - trace) // 2
    return CompactDims(p, f1, f2, total, trace, plus, minus)


def class_and_type(p):
    """Class number H and type number T of the non-principal genus."""
    H = dim_M_total(p, 0, 0)
    tr = trace_R(p, 0, 0)
    if (H + tr) % 2:
        raise NonIntegral(f"H = {H} and trace = {tr} have opposite parity")
    T = (H + tr) // 2
    if not T <= H <= 2 * T:
        raise TypeNumberBound(f"p = {p}: H = {H} and T = {T} violate T <= H <= 2T")
    return H, T
