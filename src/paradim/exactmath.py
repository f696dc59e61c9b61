"""Exact arithmetic: checked integer division and (plus, minus) splits,
and rational generating functions over factored denominators
Prod (1 - t^a_i), kept as plain data: a numerator is a tuple of ints in
ascending degree with its trailing zeros trimmed, the zero numerator ().

Everything here is immutable and pure.  Rational numbers are plain
`fractions.Fraction`; there is no custom rational type.
"""
from collections import namedtuple

from .errors import BadPresentation, NonIntegral, NonPolynomial, ParityFailure


def is_int(x):
    """Whether x is an int and not a bool, the one test of an integer level,
    weight, index or bound: bool subclasses int, and True would pass as 1."""
    return type(x) is int


def exact_quotient(num, den, what, *args):
    """num // den for integers, or NonIntegral when den does not divide num.

    `what.format(*args)` names the quantity in the error.  It is formatted
    only then, because dimension assembly calls this for every value.
    """
    q, r = divmod(num, den)
    if r:
        # only a failed quotient is rational: fractions loads decimal and numbers
        from fractions import Fraction
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


def _trim(coeffs):
    """coeffs as a numerator: a tuple of ints with its trailing zeros dropped."""
    q = tuple(coeffs)
    if not all(map(is_int, q)):
        raise BadPresentation(f"numerator {q} has a coefficient that is not an integer")
    end = len(q)
    while end and not q[end - 1]:
        end -= 1
    return q[:end]


def _sorted_ints(values, least, what):
    """values as a sorted tuple; BadPresentation unless each is an int >= least."""
    values = tuple(values)
    if not all(is_int(a) and a >= least for a in values):
        raise BadPresentation(f"{what} {values} must be integers >= {least}")
    return tuple(sorted(values))


def from_terms(pairs):
    """The numerator sum of c t^e over the sequence of pairs (e, c)."""
    exps = _sorted_ints((e for e, _ in pairs), 0, "exponents")
    coeffs = [0] * (exps[-1] + 1 if exps else 0)
    for e, c in pairs:
        coeffs[e] += c
    return _trim(coeffs)


class RationalGF(namedtuple("RationalGF", "numerator denom_exponents")):
    """numerator(t) / Prod_i (1 - t^{a_i}), the denominator kept factored:
    a trimmed numerator and the sorted positive exponents a_i.  Equal as
    presentations, not as power series, which other presentations share."""

    __slots__ = ()

    def __new__(cls, numerator, denom_exponents):
        return super().__new__(cls, _trim(numerator),
                               _sorted_ints(denom_exponents, 1, "denominator exponents"))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip the normalisation
        return cls(*iterable)


def series_coeffs(gf, n):
    """First n power-series coefficients of gf (t^0 .. t^{n-1})."""
    c = list(gf.numerator[:max(n, 0)])
    c += [0] * (n - len(c))
    # Multiplying by 1/(1-t^a) is a prefix sum with stride a.
    for a in gf.denom_exponents:
        for i in range(a, n):
            c[i] += c[i - a]
    return c


def fit_numerator(seq, denom_exponents, max_deg):
    """Numerator Q with Q / Prod(1-t^a) = seq, or NonPolynomial.

    seq must extend past max_deg + sum(a_i) so the tail check is honest.
    """
    denoms = _sorted_ints(denom_exponents, 1, "denominator exponents")
    _sorted_ints([max_deg], 0, "max_deg")
    margin = sum(denoms)
    if len(seq) <= max_deg + margin:
        raise BadPresentation(f"need more than {max_deg + margin} terms, got {len(seq)}")
    c = list(seq)
    for a in denoms:
        c = c[:a] + [x - y for x, y in zip(c[a:], c)]
    for i in range(max_deg + 1, len(c)):
        if c[i]:
            raise NonPolynomial(f"residual coefficient {c[i]} at degree {i} (> {max_deg})")
    return _trim(c[: max_deg + 1])


def _leading_zeros(numerator):
    """The number s of leading zero coefficients of a nonzero numerator."""
    s = 0
    while not numerator[s]:
        s += 1
    return s


def is_palindromic(gf):
    """True iff the numerator of gf is t^s P(t) with P a nonzero
    palindrome: t^(deg P) P(1/t) = P(t)."""
    q = gf.numerator
    if not q:
        return False
    p = q[_leading_zeros(q):]
    return p == p[::-1]


def palindromic_ell(gf):
    """The exponent l with F(1/t) = (-1)^m t^l F(t) for palindromic gf,
    whose numerator is t^s P(t): l = sum(a_i) - s - deg Q, Q = t^s P
    (the zero numerator counts as s = 0 and degree -1)."""
    q = gf.numerator
    s = _leading_zeros(q) if q else 0
    return sum(gf.denom_exponents) - s - (len(q) - 1)
