"""Independent verification of the compact trace values at p = 2, 3.

The trace of the involution on the diagonal-weight algebraic modular
forms is a finite sum over the coset pi*Gamma_1 inside a 2x2 matrix
group over a maximal order of the definite quaternion algebra ramified
at {p, infinity}.  For p = 2 and p = 3 that coset is small enough
(1920 resp. 720 elements) to enumerate outright: we build every element
from its parametrized families, check the similitude condition, tally
principal polynomials, and recompose the trace from character values.

The p = 3 search is column-first.  Whether a candidate lies in the coset
is a test on its first column (a, c) alone (see in_coset3), followed by
a test on its second column that reuses a product of the first.  Two of
the four candidate shapes fix the first column before the last unit e2
is chosen, so the first-column test runs once per column, and a column
that fails skips its 12 values of e2.  The pruning is exact: a skipped
candidate fails the first test of in_coset3, and every other candidate
meets the same second test as in in_coset3, in the order of the full
loop.

All arithmetic is on integers.  Both maximal orders lie in
(1/2) Z<1, e1, e2, e3>, so a quaternion is stored by its doubled
coordinates, and membership in either order is a parity condition on
them.
"""
from functools import lru_cache
from itertools import product
from math import isqrt

from .characters import chi_young
from .errors import (FamilySizeMismatch, NonIntegral, NotPrimeLevel,
                     NotSimilitude, UnsupportedPrime)
from .exactmath import exact_quotient


class Quat:
    """Quaternion (w + x e1 + y e2 + z e3) / 2 with e1^2 = -a,
    e2^2 = -b, e3 = e1 e2.  The stored w, x, y, z are the integer
    doubled coordinates."""

    __slots__ = ("w", "x", "y", "z", "a", "b")

    def __init__(self, w, x, y, z, a, b):
        self.w, self.x, self.y, self.z = w, x, y, z
        self.a, self.b = a, b

    def _like(self, w, x, y, z):
        return Quat(w, x, y, z, self.a, self.b)

    def __add__(self, other):
        return self._like(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return self._like(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return self._like(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        # the product of two halved quaternions is the usual formula over
        # 4, so its doubled coordinates are that formula halved
        a, b = self.a, self.b
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        w = w1 * w2 - a * x1 * x2 - b * y1 * y2 - a * b * z1 * z2
        x = w1 * x2 + x1 * w2 + b * (y1 * z2 - z1 * y2)
        y = w1 * y2 + y1 * w2 + a * (z1 * x2 - x1 * z2)
        z = w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2
        if (w | x | y | z) & 1:
            raise NonIntegral(f"quaternion product leaves (1/2) Z<1, e1, e2, e3>: "
                              f"({w}, {x}, {y}, {z})/4")
        return Quat(w >> 1, x >> 1, y >> 1, z >> 1, a, b)

    def conjugate(self):
        return self._like(self.w, -self.x, -self.y, -self.z)

    def norm(self):
        a, b = self.a, self.b
        return exact_quotient(self.w ** 2 + a * self.x ** 2 + b * self.y ** 2
                              + a * b * self.z ** 2, 4, "norm of {}", self)

    def trace(self):
        return self.w

    def divisible_by(self, m):
        """True iff every doubled coordinate is divisible by m."""
        return not (self.w % m or self.x % m or self.y % m or self.z % m)

    def divided_by(self, m):
        """The quaternion self/m; NonIntegral unless divisible_by(m)."""
        if not self.divisible_by(m):
            raise NonIntegral(f"{self} is not divisible by {m}")
        return self._like(self.w // m, self.x // m, self.y // m, self.z // m)

    def __eq__(self, other):
        return (self.w, self.x, self.y, self.z, self.a, self.b) == \
               (other.w, other.x, other.y, other.z, other.a, other.b)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z, self.a, self.b))

    def __repr__(self):
        return f"Quat({self.w}, {self.x}, {self.y}, {self.z}; a={self.a}, b={self.b})"


def in_hurwitz(q):
    """Membership in the Hurwitz order Z<1, i, j, (1 + i + j + k)/2>:
    all four doubled coordinates have the same parity."""
    return q.w % 2 == q.x % 2 == q.y % 2 == q.z % 2


def in_order3(q):
    """Membership in the maximal order Z<1, (1 + alpha)/2, beta,
    (1 + alpha) beta/2> of the algebra with alpha^2 = -3, beta^2 = -1:
    w = x and y = z (mod 2) in doubled coordinates."""
    return (q.w - q.x) % 2 == 0 and (q.y - q.z) % 2 == 0


def elements_of_norm(n, a, b, member):
    """All elements of norm n of the order whose membership test is
    `member`.  Every doubled coordinate is at most 2 sqrt(n) in size,
    because a, b >= 1."""
    r = isqrt(4 * n)
    out = []
    for c in product(range(-r, r + 1), repeat=4):
        q = Quat(*c, a, b)
        if member(q) and q.norm() == n:
            out.append(q)
    return out


class QuatMat2:
    """2x2 quaternionic matrix (a b; c d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, other):
        return QuatMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def similitude(self):
        """The scalar n with g g* = n, where g* is the quaternionic
        conjugate transpose; raises NotSimilitude if there is none."""
        off = self.a * self.c.conjugate() + self.b * self.d.conjugate()
        if off.w or off.x or off.y or off.z:
            raise NotSimilitude("rows are not orthogonal")
        n1 = self.a.norm() + self.b.norm()
        n2 = self.c.norm() + self.d.norm()
        if n1 != n2:
            raise NotSimilitude("rows have different norms")
        return n1

    def trace(self):
        return self.a.trace() + self.d.trace()

    def square_trace(self):
        """tr(g^2), from the two diagonal entries of g^2 only."""
        return ((self.a * self.a + self.b * self.c).trace()
                + (self.c * self.b + self.d * self.d).trace())


def principal_poly(g):
    """Monic degree-4 integer polynomial of a similitude matrix, as an
    ascending coefficient tuple.

    Computed as x^4 - T x^3 + (T^2 - T2)/2 x^2 - T n x + n^2 with
    T = tr(g), T2 = tr(g^2), n the similitude, and cross-checked against
    the entrywise form with middle coefficient
    tr(a) tr(d) - N(b + c-bar) + 2n.
    """
    n = g.similitude()
    t = g.trace()
    t2 = g.square_trace()
    c2 = exact_quotient(t * t - t2, 2, "principal coefficient ({}^2 - {})/2", t, t2)
    c2_alt = (g.a.trace() * g.d.trace()
              - (g.b + g.c.conjugate()).norm() + 2 * n)
    if c2 != c2_alt:
        raise NotSimilitude(f"inconsistent middle coefficient: {c2} vs {c2_alt}")
    return (n * n, -t * n, c2, -t, 1)


def _p2_families():
    a, b = 1, 1
    qi = Quat(0, 2, 0, 0, a, b)
    qk = Quat(0, 0, 0, 2, a, b)
    zero = Quat(0, 0, 0, 0, a, b)
    units = elements_of_norm(1, a, b, in_hurwitz)
    if len(units) != 24:
        raise FamilySizeMismatch(f"expected 24 units at p=2, got {len(units)}")
    r = qi - qk
    a0s = [q for q in units if q.w % 2 == 0]  # +-1, +-i, +-j, +-k
    xs = [-qi, qk] + [Quat(s1, -1, s2, 1, a, b)  # (s1 - i + s2 j + k)/2
                      for s1 in (1, -1) for s2 in (1, -1)]
    # elements below are already multiplied through by the uniformizer r
    fams = [[], [], [], [], []]
    for u in units:
        for a0 in a0s:
            ua0 = u * a0
            fams[0].append(QuatMat2(u, -ua0, u, ua0))
            fams[1].append(QuatMat2(u, ua0, -u, ua0))
            fams[2].append(QuatMat2(r * u, zero, zero, r * ua0))
            fams[3].append(QuatMat2(zero, r * ua0, r * u, zero))
            for x in xs:
                rx = r + x
                fams[4].append(QuatMat2(rx * u, x * ua0, x * u, rx * ua0))
    _check_sizes(2, fams, (192, 192, 192, 192, 1152))
    return fams


# The algebra ramified at {3, infinity}: e1 = alpha with alpha^2 = -3,
# e2 = beta with beta^2 = -1 (doubled coordinates).
_ALPHA = Quat(0, 2, 0, 0, 3, 1)
_S = Quat(2, 0, 2, 0, 3, 1)    # s = 1 + beta
_T = Quat(0, 2, 0, -2, 3, 1)   # t = (1 + beta) alpha
_K = Quat(0, 0, 0, 2, 3, 1)    # alpha beta = 3 (beta alpha)^{-1}


def in_coset3(delta):
    """Whether delta, an integral matrix with delta delta* = 3, lies in the
    coset pi*Gamma_1 at p = 3.

    The stabilized lattice has basis matrix g = (1, s; 0, alpha) (its Gram
    matrix has off-diagonal t) and the reference coset element is
    gamma0 = diag(beta alpha, alpha).  delta is in the coset iff
    u = delta gamma0^{-1} maps the lattice onto itself, i.e. iff
    X = g u g^{-1} and g u* g^{-1} are integral at 3; u* = u^{-1}, as
    delta delta* = gamma0* gamma0 = 3.  For delta = (a b; c d),
        X11 = (a + s c) alpha beta / 3,   X12 = (X11 t - (b + s d)) / 3,
        X21 = alpha c alpha beta / 3,     X22 = (X21 t - alpha d) / 3.
    A quaternion with integer doubled coordinates, divided by 3, is
    integral at 3 iff 3 divides those coordinates, because
    Z<1, alpha, beta, alpha beta> has index 4 in the order.

    Only X11, X12 and X22 are tested, and each of them rejects candidates
    that pass the other two (tests/test_quaternion.py).  The rest holds
    for every integral delta:
    - X21 is integral: N(alpha) = 3, so alpha generates the maximal ideal
      P of the order at 3 on either side, and alpha c alpha lies in
      P^2 = 3 O there.
    - g u* g^{-1} = X^{-1} is integral once X is: u has similitude 1, so
      its principal (reduced characteristic) polynomial is
      x^4 - T x^3 + m x^2 - T x + 1 (see principal_poly), and X, a
      conjugate of u, is a root of it.  Hence
      X^{-1} = T - m X + T X^2 - X^3, where T = tr X and
      m = (T^2 - tr X^2)/2 are integral at 3 with X, 2 being a unit there.
    """
    column = _p3_column(delta.a, delta.c)
    return column is not None and _p3_second_column(column, delta.b, delta.d)


def _p3_column(a, c):
    """(X11 t, X21 t) of in_coset3 for the first column (a, c), or None
    when X11 is not integral at 3.  The second-column test reads a and c
    only through this pair."""
    x11 = (a + _S * c) * _K
    if not x11.divisible_by(3):
        return None
    return x11.divided_by(3) * _T, (_ALPHA * c * _K).divided_by(3) * _T


def _p3_second_column(column, b, d):
    """Whether X12 and X22 of in_coset3 are integral at 3, given
    column = _p3_column(a, c) for the matrix (a b; c d)."""
    x11t, x21t = column
    return ((x11t - (b + _S * d)).divisible_by(3)
            and (x21t - _ALPHA * d).divisible_by(3))


def _p3_families():
    a, b = 3, 1
    zero = Quat(0, 0, 0, 0, a, b)
    units = elements_of_norm(1, a, b, in_order3)
    if len(units) != 12:
        raise FamilySizeMismatch(f"expected 12 units at p=3, got {len(units)}")
    norm2 = elements_of_norm(2, a, b, in_order3)
    norm3 = elements_of_norm(3, a, b, in_order3)

    # the four shapes exhaust the integral matrices with delta delta* = 3:
    # row norms split as (3,0)/(0,3), (0,3)/(3,0), (1,2)/(2,1), (2,1)/(1,2)
    fams = [[], [], [], []]
    for A in norm3:
        for D in norm3:
            m = QuatMat2(A, zero, zero, D)
            if in_coset3(m):
                fams[0].append(m)
            m = QuatMat2(zero, A, D, zero)
            if in_coset3(m):
                fams[1].append(m)
    # column first: the shapes (e1 y; c2 e2) and (c2 e2; e1 y) fix their
    # first column before e2 is chosen, so a failing column skips all 12 e2
    for c2 in norm2:
        c2bar = c2.conjugate()
        for e1 in units:
            col2 = _p3_column(e1, c2)
            col3 = _p3_column(c2, e1)
            if col2 is None and col3 is None:
                continue
            e1c2bar = e1 * c2bar
            for e2 in units:
                y = -(e1c2bar * e2)  # forced by row orthogonality
                if col2 is not None and _p3_second_column(col2, y, e2):
                    fams[2].append(QuatMat2(e1, y, c2, e2))
                if col3 is not None and _p3_second_column(col3, e2, y):
                    fams[3].append(QuatMat2(c2, e2, e1, y))
    _check_sizes(3, fams, (36, 36, 324, 324))
    return fams


def _check_sizes(p, fams, expected):
    sizes = tuple(len(f) for f in fams)
    if sizes != expected:
        raise FamilySizeMismatch(f"p={p}: family sizes {sizes}, expected {expected}")


def _check_p23(p):
    """NotPrimeLevel unless p is an int, UnsupportedPrime unless it is 2 or
    3; run before the caches, which would serve 2.0 from the entry of 2."""
    if not isinstance(p, int):
        raise NotPrimeLevel(f"level {p!r} is not an integer prime")
    if p not in (2, 3):
        raise UnsupportedPrime(f"enumeration only implemented for p = 2, 3, got {p}")


def enumerate_pi_gamma(p):
    """Per-family lists of the similitude-p coset elements, p in {2, 3}."""
    _check_p23(p)
    return _coset(p)[0]


@lru_cache(maxsize=None)
def _coset(p):
    """(families, tallies): the coset's families, and per family its
    principal-polynomial tally as sorted (polynomial, count) pairs, built
    in one pass.  Every element must have similitude p: the constant
    coefficient of its principal polynomial, n^2 for similitude n >= 0,
    must be p^2."""
    fams = _p2_families() if p == 2 else _p3_families()
    tallies = []
    for fam in fams:
        tally = {}
        for g in fam:
            key = principal_poly(g)
            if key[0] != p * p:
                raise NotSimilitude(f"p={p}: enumerated element has similitude != {p}")
            tally[key] = tally.get(key, 0) + 1
        tallies.append(tuple(sorted(tally.items())))
    return tuple(tuple(f) for f in fams), tuple(tallies)


def family_tallies(p):
    """List (one dict per family) of principal-polynomial tallies."""
    _check_p23(p)
    return [dict(t) for t in _coset(p)[1]]


def principal_tallies(p):
    """Aggregate tally of principal polynomials over the whole coset."""
    total = {}
    for t in family_tallies(p):
        for key, cnt in t.items():
            total[key] = total.get(key, 0) + cnt
    return total


# principal polynomial (ascending coefficients) -> conjugacy-class index
CLASS_OF_POLY = {
    2: {
        (4, 0, -4, 0, 1): 2,    # (x^2-2)^2
        (4, 0, 4, 0, 1): 6,     # (x^2+2)^2
        (4, 0, 2, 0, 1): 9,     # x^4+2x^2+4
        (4, 0, 0, 0, 1): 11,    # x^4+4
        (4, 8, 8, 4, 1): 14,    # (x^2+2x+2)^2
        (4, -8, 8, -4, 1): 14,
        (4, 4, 2, 2, 1): 15,    # x^4+2x^3+2x^2+4x+4
        (4, -4, 2, -2, 1): 15,
        (4, 4, 4, 2, 1): 16,    # (x^2+2x+2)(x^2+2)
        (4, -4, 4, -2, 1): 16,
    },
    3: {
        (9, 0, -6, 0, 1): 2,    # (x^2-3)^2
        (9, 0, 6, 0, 1): 6,     # (x^2+3)^2
        (9, 0, 3, 0, 1): 9,     # x^4+3x^2+9
        (9, 0, 0, 0, 1): 11,    # x^4+9
        (9, 9, 6, 3, 1): 17,    # (x^2+3x+3)(x^2+3)
        (9, -9, 6, -3, 1): 17,
    },
}

COSET_SIZE = {2: 1920, 3: 720}


def verify_trace_p23(p, f1, f2):
    """Trace of the involution at diagonal-adjacent Young weight (f1, f2),
    rebuilt from the enumerated coset; an integer."""
    tallies = principal_tallies(p)
    size = COSET_SIZE[p]
    if sum(tallies.values()) != size:
        raise FamilySizeMismatch(f"p={p}: coset size {sum(tallies.values())} != {size}")
    total = sum(cnt * chi_young(CLASS_OF_POLY[p][key], f1, f2)
                for key, cnt in tallies.items())
    return exact_quotient(total, size, "trace at p={}, ({},{})", p, f1, f2)

