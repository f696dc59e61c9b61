"""Independent verification of the compact trace values at p = 2, 3.

The trace of the involution on the diagonal-weight algebraic modular
forms is a finite sum over the coset pi*Gamma_1 inside a 2x2 matrix
group over a maximal order of the definite quaternion algebra ramified
at {p, infinity}.  For p = 2 and p = 3 that coset is small enough
(1920 resp. 720 elements) to enumerate outright: we build every element
from its parametrized families, check the similitude condition, tally
principal polynomials, and group the tally by conjugacy class into the
trace vector over CHI_INDEX, which must equal the formula's level(p).tr.

The p = 3 search is column-first.  Whether a candidate lies in the coset
is a test on its first column (a, c) alone (see in_coset3), followed by
a test on its second column that reuses a product of the first.  Two of
the four candidate shapes fix the first column before the last unit e2
is chosen, so the first-column test runs once per column, and a column
that fails skips its 12 values of e2.  The pruning is exact: a skipped
candidate fails the first test of in_coset3, and every other candidate
meets the same second test as in in_coset3, in the order of the full
loop.

All arithmetic is on plain integer tuples.  Both maximal orders lie in
(1/2) Z<1, e1, e2, e3>, so a quaternion (w + x e1 + y e2 + z e3)/2 is
the 4-tuple (w, x, y, z) of its doubled coordinates, and membership in
either order is a parity condition on them.  A 2x2 matrix (a b; c d) is
the 4-tuple (a, b, c, d) of its entries.  The sum, difference, negation
and conjugate are module functions; the product and the norm depend on
the algebra (e1^2 = -a, e2^2 = -b, e3 = e1 e2) and come from its record
in ALGEBRA, built once per prime: (a, b) = (1, 1) at p = 2 and (3, 1) at
p = 3.  A product that leaves the half-lattice, or a norm that is not an
integer, raises NonIntegral.

_coset(p) builds the families, their principal-polynomial tallies and
the whole-coset tally once; family_tallies, principal_tallies and
trace_vector read them, and verify_trace_p23 reads trace_vector.
"""
from functools import lru_cache
from itertools import product
from math import isqrt
from operator import mul

from .compact import CHI_INDEX, DEN, _chi_vector
from .errors import (FamilySizeMismatch, NonIntegral, NotPrimeLevel,
                     NotSimilitude, UnsupportedPrime)
from .exactmath import _trim, exact_quotient


def add(q, r):
    return (q[0] + r[0], q[1] + r[1], q[2] + r[2], q[3] + r[3])


def sub(q, r):
    return (q[0] - r[0], q[1] - r[1], q[2] - r[2], q[3] - r[3])


def neg(q):
    return (-q[0], -q[1], -q[2], -q[3])


def conj(q):
    return (q[0], -q[1], -q[2], -q[3])


def _divisible(q, m):
    """True iff every doubled coordinate of q is divisible by m."""
    return not (q[0] % m or q[1] % m or q[2] % m or q[3] % m)


def _divided(q, m):
    """The quaternion q/m; NonIntegral unless _divisible(q, m)."""
    if not _divisible(q, m):
        raise NonIntegral(f"{q} is not divisible by {m}")
    return (q[0] // m, q[1] // m, q[2] // m, q[3] // m)


class Algebra:
    """The quaternion algebra with e1^2 = -a, e2^2 = -b, e3 = e1 e2: its
    product `mul` and reduced norm `norm` on doubled coordinates."""

    __slots__ = ("a", "b", "mul", "norm")

    def __init__(self, a, b):
        ab = a * b

        def mul(q, r):
            # the product of two halved quaternions is the usual formula
            # over 4, so its doubled coordinates are that formula halved
            w1, x1, y1, z1 = q
            w2, x2, y2, z2 = r
            w = w1 * w2 - a * x1 * x2 - b * y1 * y2 - ab * z1 * z2
            x = w1 * x2 + x1 * w2 + b * (y1 * z2 - z1 * y2)
            y = w1 * y2 + y1 * w2 + a * (z1 * x2 - x1 * z2)
            z = w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2
            if (w | x | y | z) & 1:
                raise NonIntegral(f"quaternion product leaves (1/2) Z<1, e1, e2, e3>: "
                                  f"({w}, {x}, {y}, {z})/4")
            return (w >> 1, x >> 1, y >> 1, z >> 1)

        def norm(q):
            w, x, y, z = q
            n4 = w * w + a * x * x + b * y * y + ab * z * z
            if n4 & 3:
                raise NonIntegral(f"norm of {q} = {n4}/4 is not an integer")
            return n4 >> 2

        self.a, self.b, self.mul, self.norm = a, b, mul, norm


# p -> the algebra ramified at {p, infinity}: the Hamilton quaternions at
# p = 2, and alpha = e1, beta = e2 with alpha^2 = -3, beta^2 = -1 at p = 3
ALGEBRA = {2: Algebra(1, 1), 3: Algebra(3, 1)}


def in_hurwitz(q):
    """Membership in the Hurwitz order Z<1, i, j, (1 + i + j + k)/2>:
    all four doubled coordinates have the same parity."""
    w, x, y, z = q
    return w % 2 == x % 2 == y % 2 == z % 2


def in_order3(q):
    """Membership in the maximal order Z<1, (1 + alpha)/2, beta,
    (1 + alpha) beta/2> of the algebra with alpha^2 = -3, beta^2 = -1:
    w = x and y = z (mod 2) in doubled coordinates."""
    w, x, y, z = q
    return (w - x) % 2 == 0 and (y - z) % 2 == 0


def elements_of_norm(n, alg, member):
    """All elements of norm n of the order of `alg` whose membership test
    is `member`.  Every doubled coordinate is at most 2 sqrt(n) in size,
    because a, b >= 1."""
    r = isqrt(4 * n)
    norm = alg.norm
    return [q for q in product(range(-r, r + 1), repeat=4) if member(q) and norm(q) == n]


def principal_poly(alg, g):
    """Monic degree-4 integer polynomial of a similitude matrix g =
    (a, b, c, d) over `alg`, as an ascending coefficient tuple.

    The similitude n is the scalar with g g* = n, g* the quaternionic
    conjugate transpose: the rows must be orthogonal and of equal norm,
    or NotSimilitude.  The polynomial is
    x^4 - T x^3 + (T^2 - T2)/2 x^2 - T n x + n^2 with T = tr(g) and
    T2 = tr(g^2), read from the diagonal of g^2, and is cross-checked
    against the entrywise form with middle coefficient
    tr(a) tr(d) - N(b + c-bar) + 2n.  The reduced trace of a quaternion
    is its first doubled coordinate.
    """
    mul, norm = alg.mul, alg.norm
    a, b, c, d = g
    if any(add(mul(a, conj(c)), mul(b, conj(d)))):
        raise NotSimilitude("rows are not orthogonal")
    n = norm(a) + norm(b)
    if n != norm(c) + norm(d):
        raise NotSimilitude("rows have different norms")
    t = a[0] + d[0]
    # tr(c b) = tr(b c), and c b is integral iff b c is: their unhalved
    # coordinates differ by even cross terms
    t2 = mul(a, a)[0] + 2 * mul(b, c)[0] + mul(d, d)[0]
    c2 = exact_quotient(t * t - t2, 2, "principal coefficient ({}^2 - {})/2", t, t2)
    c2_alt = a[0] * d[0] - norm(add(b, conj(c))) + 2 * n
    if c2 != c2_alt:
        raise NotSimilitude(f"inconsistent middle coefficient: {c2} vs {c2_alt}")
    return (n * n, -t * n, c2, -t, 1)


def _p2_families():
    alg = ALGEBRA[2]
    mul = alg.mul
    units = elements_of_norm(1, alg, in_hurwitz)
    if len(units) != 24:
        raise FamilySizeMismatch(f"expected 24 units at p=2, got {len(units)}")
    qi, qk, zero = (0, 2, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0)
    r = sub(qi, qk)
    a0s = [q for q in units if q[0] % 2 == 0]  # +-1, +-i, +-j, +-k
    xs = [neg(qi), qk] + [(s1, -1, s2, 1)  # (s1 - i + s2 j + k)/2
                          for s1 in (1, -1) for s2 in (1, -1)]
    # elements below are already multiplied through by the uniformizer r
    rxs = [(x, add(r, x)) for x in xs]
    fams = [[], [], [], [], []]
    for u in units:
        ru = mul(r, u)
        xus = [(x, rx, mul(rx, u), mul(x, u)) for x, rx in rxs]
        for a0 in a0s:
            ua0 = mul(u, a0)
            rua0 = mul(r, ua0)
            fams[0].append((u, neg(ua0), u, ua0))
            fams[1].append((u, ua0, neg(u), ua0))
            fams[2].append((ru, zero, zero, rua0))
            fams[3].append((zero, rua0, ru, zero))
            for x, rx, rxu, xu in xus:
                fams[4].append((rxu, mul(x, ua0), xu, mul(rx, ua0)))
    _check_sizes(2, fams, (192, 192, 192, 192, 1152))
    return fams


# The lattice constants of in_coset3 (doubled coordinates at p = 3).
_ALPHA = (0, 2, 0, 0)
_S = (2, 0, 2, 0)    # s = 1 + beta
_T = (0, 2, 0, -2)   # t = (1 + beta) alpha
_K = (0, 0, 0, 2)    # alpha beta = 3 (beta alpha)^{-1}


def in_coset3(delta):
    """Whether delta = (a, b, c, d), an integral matrix with delta delta* = 3,
    lies in the coset pi*Gamma_1 at p = 3.

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
      P^2 = 3 O there.  Its division by 3 is still checked.
    - g u* g^{-1} = X^{-1} is integral once X is: u has similitude 1, so
      its principal (reduced characteristic) polynomial is
      x^4 - T x^3 + m x^2 - T x + 1 (see principal_poly), and X, a
      conjugate of u, is a root of it.  Hence
      X^{-1} = T - m X + T X^2 - X^3, where T = tr X and
      m = (T^2 - tr X^2)/2 are integral at 3 with X, 2 being a unit there.
    """
    a, b, c, d = delta
    column = _p3_column(a, c)
    return column is not None and _p3_second_column(column, b, d)


def _p3_column(a, c):
    """(X11 t, X21 t) of in_coset3 for the first column (a, c), or None
    when X11 is not integral at 3.  The second-column test reads a and c
    only through this pair."""
    mul = ALGEBRA[3].mul
    x11 = mul(add(a, mul(_S, c)), _K)
    if not _divisible(x11, 3):
        return None
    return mul(_divided(x11, 3), _T), mul(_divided(mul(mul(_ALPHA, c), _K), 3), _T)


def _p3_second_column(column, b, d):
    """Whether X12 and X22 of in_coset3 are integral at 3, given
    column = _p3_column(a, c) for the matrix (a b; c d)."""
    mul = ALGEBRA[3].mul
    x11t, x21t = column
    return (_divisible(sub(x11t, add(b, mul(_S, d))), 3)
            and _divisible(sub(x21t, mul(_ALPHA, d)), 3))


def _p3_families():
    alg = ALGEBRA[3]
    mul = alg.mul
    zero = (0, 0, 0, 0)
    units = elements_of_norm(1, alg, in_order3)
    if len(units) != 12:
        raise FamilySizeMismatch(f"expected 12 units at p=3, got {len(units)}")
    norm2 = elements_of_norm(2, alg, in_order3)
    norm3 = elements_of_norm(3, alg, in_order3)

    # the four shapes exhaust the integral matrices with delta delta* = 3:
    # row norms split as (3,0)/(0,3), (0,3)/(3,0), (1,2)/(2,1), (2,1)/(1,2)
    fams = [[], [], [], []]
    for A in norm3:
        for D in norm3:
            m = (A, zero, zero, D)
            if in_coset3(m):
                fams[0].append(m)
            m = (zero, A, D, zero)
            if in_coset3(m):
                fams[1].append(m)
    # column first: the shapes (e1 y; c2 e2) and (c2 e2; e1 y) fix their
    # first column before e2 is chosen, so a failing column skips all 12 e2
    for c2 in norm2:
        c2bar = conj(c2)
        for e1 in units:
            col2 = _p3_column(e1, c2)
            col3 = _p3_column(c2, e1)
            if col2 is None and col3 is None:
                continue
            e1c2bar = mul(e1, c2bar)
            for e2 in units:
                y = neg(mul(e1c2bar, e2))  # forced by row orthogonality
                if col2 is not None and _p3_second_column(col2, y, e2):
                    fams[2].append((e1, y, c2, e2))
                if col3 is not None and _p3_second_column(col3, e2, y):
                    fams[3].append((c2, e2, e1, y))
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


COSET_SIZE = {2: 1920, 3: 720}


@lru_cache(maxsize=None)
def _coset(p):
    """(families, tallies, total): the coset's families, per family its
    principal-polynomial tally, and the tally of the whole coset, each
    tally as sorted (polynomial, count) pairs, built in one pass.  Every
    element must have similitude p: the constant coefficient of its
    principal polynomial, n^2 for similitude n >= 0, must be p^2."""
    alg = ALGEBRA[p]
    fams = _p2_families() if p == 2 else _p3_families()
    tallies, total = [], {}
    for fam in fams:
        tally = {}
        for g in fam:
            key = principal_poly(alg, g)
            if key[0] != p * p:
                raise NotSimilitude(f"p={p}: enumerated element has similitude != {p}")
            tally[key] = tally.get(key, 0) + 1
        tallies.append(tuple(sorted(tally.items())))
        for key, cnt in tally.items():
            total[key] = total.get(key, 0) + cnt
    if sum(total.values()) != COSET_SIZE[p]:
        raise FamilySizeMismatch(f"p={p}: coset size {sum(total.values())} != {COSET_SIZE[p]}")
    return tuple(tuple(f) for f in fams), tuple(tallies), tuple(sorted(total.items()))


def family_tallies(p):
    """List (one dict per family) of principal-polynomial tallies."""
    _check_p23(p)
    return [dict(t) for t in _coset(p)[1]]


def principal_tallies(p):
    """Aggregate tally of principal polynomials over the whole coset."""
    _check_p23(p)
    return dict(_coset(p)[2])


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


def trace_vector(p):
    """DEN * tr R as a vector over CHI_INDEX, p in {2, 3}, rebuilt from the
    enumerated coset: the whole-coset tally grouped by CLASS_OF_POLY[p],
    times DEN / COSET_SIZE[p], cut after its last nonzero entry like
    compact.level(p).tr."""
    _check_p23(p)
    by_class = dict.fromkeys(CHI_INDEX, 0)
    for poly, count in _coset(p)[2]:
        by_class[CLASS_OF_POLY[p][poly]] += count
    return _trim(exact_quotient(DEN * by_class[i], COSET_SIZE[p],
                                "DEN * chi_{} share of the coset at p={}", i, p)
                 for i in CHI_INDEX)


def verify_trace_p23(p, f1, f2):
    """Trace of the involution at Young weight (f1, f2), rebuilt from the
    enumerated coset: trace_vector(p) . chi / DEN, an integer."""
    num = sum(map(mul, trace_vector(p), _chi_vector(f1, f2)))
    return exact_quotient(num, DEN, "trace at p={}, ({},{})", p, f1, f2)
