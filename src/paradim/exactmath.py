"""Exact arithmetic: checked integer division and (plus, minus) splits,
polynomials, and rational generating functions with factored
denominators Prod (1 - t^a_i).

Everything here is immutable and pure.  Rational numbers are plain
`fractions.Fraction`; there is no custom rational type.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import NonIntegral, NonPolynomial, ParityFailure


def exact_quotient(num, den, what, *args):
    """num // den for integers, or NonIntegral when den does not divide num.

    `what.format(*args)` names the quantity in the error.  It is formatted
    only then, because dimension assembly calls this for every value.
    """
    q, r = divmod(num, den)
    if r:
        raise NonIntegral(f"{what.format(*args)} = {Fraction(num, den)} is not an integer")
    return q


def plus_minus(total, diff, what, *args):
    """(plus, minus) = ((total + diff) / 2, (total - diff) / 2), the
    eigenspaces of an involution of trace diff on a space of dimension
    total; ParityFailure, naming the space as exact_quotient does, when
    total and diff have opposite parity."""
    if (total + diff) % 2:
        raise ParityFailure(f"{what.format(*args)}: total {total} and difference "
                            f"{diff} have opposite parity")
    return (total + diff) // 2, (total - diff) // 2


class Poly:
    """Polynomial with ascending coefficients; trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, terms):
        """The sum of c t^e over the pairs (e, c) of the sequence terms."""
        coeffs = [0] * (max((e for e, _ in terms), default=-1) + 1)
        for e, c in terms:
            coeffs[e] += c
        return cls(coeffs)

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs})"


class RationalGF:
    """numerator(t) / Prod_i (1 - t^{a_i}), denominator kept factored."""

    __slots__ = ("numerator", "denom_exponents")

    def __init__(self, numerator, denom_exponents):
        if not isinstance(numerator, Poly):
            numerator = Poly(numerator)
        self.numerator = numerator
        self.denom_exponents = tuple(sorted(denom_exponents))

    def __eq__(self, other):
        """Equal as presentations: the same numerator over the same
        factors (not as power series, which other presentations share)."""
        if not isinstance(other, RationalGF):
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denom_exponents == other.denom_exponents)

    def __hash__(self):
        return hash((self.numerator, self.denom_exponents))

    def __repr__(self):
        return f"RationalGF({self.numerator.coeffs}, {list(self.denom_exponents)})"


def series_coeffs(gf, n):
    """First n power-series coefficients of gf (t^0 .. t^{n-1})."""
    c = [gf.numerator[i] for i in range(n)]
    # Multiplying by 1/(1-t^a) is a prefix sum with stride a.
    for a in gf.denom_exponents:
        for i in range(a, n):
            c[i] += c[i - a]
    return c


def fit_numerator(seq, denom_exponents, max_deg):
    """Numerator Q with Q / Prod(1-t^a) = seq, or NonPolynomial.

    seq must extend past max_deg + sum(a_i) so the tail check is honest.
    """
    denoms = sorted(denom_exponents)
    margin = sum(denoms)
    if len(seq) <= max_deg + margin:
        raise ValueError(
            f"need more than {max_deg + margin} terms, got {len(seq)}"
        )
    c = list(seq)
    for a in denoms:
        c = [c[i] - (c[i - a] if i >= a else 0) for i in range(len(c))]
    for i in range(max_deg + 1, len(c)):
        if c[i]:
            raise NonPolynomial(
                f"residual coefficient {c[i]} at degree {i} (> {max_deg})"
            )
    return Poly(c[: max_deg + 1])


def is_palindromic(gf):
    """True iff t^d * Q(1/t) = Q(t) for the numerator Q of gf."""
    q = gf.numerator.coeffs
    return bool(q) and q == q[::-1]


def palindromic_ell(gf):
    """The exponent l with F(1/t) = (-1)^m t^l F(t) for palindromic gf."""
    return sum(gf.denom_exponents) - gf.numerator.degree
