"""Exception hierarchy for paradim.

Every error raised on purpose by the library derives from ParadimError so
callers (and the CLI) can distinguish "bad input / missing data" from
genuine bugs.
"""


class ParadimError(Exception):
    """Base class for all paradim errors."""


class DSquare(ParadimError):
    """split_symbol called with a perfect-square d (the field would be Q)."""


class NotSquarefree(ParadimError):
    """class_number called with a non-squarefree radicand."""


class BadDiscriminant(ParadimError):
    """A kernel was given a discriminant (or conductor) outside its domain."""


class NotPrimeLevel(ParadimError):
    """The level must be a prime."""


class UnsupportedPrime(ParadimError):
    """An arithmetic ingredient is undefined at this prime (e.g. p=2, 3)."""


class BadIndex(ParadimError):
    """Character index outside 1..17."""


class BadYoung(ParadimError):
    """Weights must be integers in range; Young parameters must satisfy
    f1 >= f2 >= 0 and f1 == f2 (mod 2)."""


class OddWeight(ParadimError):
    """Elliptic newform dimensions require even weight."""


class ParityFailure(ParadimError):
    """Total and trace (or total and difference) have different parity."""


class NonIntegral(ParadimError):
    """An assembled rational that must be an integer is not."""


class BadSpace(ParadimError):
    """A graded space name outside the known set."""


class UnsupportedJ(ParadimError):
    """No level-1 Siegel series for this j (only j = 0, 2, 4 are built in), or
    an A space (cusp forms and Eisenstein series) at j != 0."""


class MissingData(ParadimError):
    """An embedded data file lacks the requested entry."""


class MissingJacobiData(ParadimError):
    """Weight-2 signed paramodular dimension at a prime p >= 277: non-lifts
    exist there, and their Atkin-Lehner signs are not computed here."""


class TypeNumberBound(ParadimError):
    """Class number H and type number T violate T <= H <= 2T."""


class NegativeDim(ParadimError):
    """A dimension assembly produced a negative value."""


class NonPolynomial(ParadimError):
    """fit_numerator: the series times the denominator does not terminate."""


class BadPresentation(ParadimError, ValueError):
    """A numerator, exponent or degree bound outside the integers, or too few terms to fit."""


class BiasViolation(ParadimError):
    """A negative bias value was found inside the verified rectangle."""

    def __init__(self, p, k, value):
        super().__init__(f"bias({p}, {k}) = {value} < 0")
        self.p = p
        self.k = k
        self.value = value


class NotSimilitude(ParadimError):
    """Matrix does not satisfy g g* = n(g) 1 with n(g) a positive rational."""


class FamilySizeMismatch(ParadimError):
    """An enumerated element family has the wrong cardinality."""
