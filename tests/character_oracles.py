"""Character oracles, the independent routes that tests/test_characters.py
and tests/test_acceptance.py check ``paradim.characters`` against.

* chi_series -- the Weyl character formula
  p_{f1}(p_{f2} + p_{f2-2}) - p_{f2-1}(p_{f1+1} + p_{f1-1})
  where 1/phi_i(x) = sum p_f x^f, computed by the exact integer
  recurrence in Z[sqrt(m)] coming from the degree-4 denominator;
* chi_bracket_young -- closed forms indexed directly by (f1, f2), for
  i in {2, 6, 9, 11, 13}.

Both check their arguments with the package's own domain checks, so a
BadIndex or BadYoung is raised as chi_young raises it.
"""
from functools import lru_cache

from paradim.characters import _br, _check_index, _check_young
from paradim.errors import BadIndex
from paradim.exactmath import exact_quotient


# phi_i as ascending coefficient lists (c0..c4) over Z[sqrt(m)]:
# each coefficient is (rational part, sqrt part); m is the radicand.
# All are monic reciprocal with constant term 1.
PHI_COEFFS = {
    1: ([(1, 0), (-4, 0), (6, 0), (-4, 0), (1, 0)], 1),   # (x-1)^4
    2: ([(1, 0), (0, 0), (-2, 0), (0, 0), (1, 0)], 1),    # (x-1)^2(x+1)^2
    3: ([(1, 0), (-2, 0), (2, 0), (-2, 0), (1, 0)], 1),   # (x-1)^2(x^2+1)
    4: ([(1, 0), (-1, 0), (0, 0), (-1, 0), (1, 0)], 1),   # (x-1)^2(x^2+x+1)
    5: ([(1, 0), (-3, 0), (4, 0), (-3, 0), (1, 0)], 1),   # (x-1)^2(x^2-x+1)
    6: ([(1, 0), (0, 0), (2, 0), (0, 0), (1, 0)], 1),     # (x^2+1)^2
    7: ([(1, 0), (2, 0), (3, 0), (2, 0), (1, 0)], 1),     # (x^2+x+1)^2
    8: ([(1, 0), (1, 0), (2, 0), (1, 0), (1, 0)], 1),     # (x^2+1)(x^2+x+1)
    9: ([(1, 0), (0, 0), (1, 0), (0, 0), (1, 0)], 1),     # (x^2+x+1)(x^2-x+1)
    10: ([(1, 0), (1, 0), (1, 0), (1, 0), (1, 0)], 1),    # x^4+x^3+x^2+x+1
    11: ([(1, 0), (0, 0), (0, 0), (0, 0), (1, 0)], 1),    # x^4+1
    12: ([(1, 0), (0, 0), (-1, 0), (0, 0), (1, 0)], 1),   # x^4-x^2+1
    13: ([(1, 0), (0, 1), (3, 0), (0, 1), (1, 0)], 5),    # x^4+sqrt5 x^3+3x^2+sqrt5 x+1
    14: ([(1, 0), (0, 2), (4, 0), (0, 2), (1, 0)], 2),    # (x^2+sqrt2 x+1)^2
    15: ([(1, 0), (0, 1), (1, 0), (0, 1), (1, 0)], 2),    # x^4+sqrt2 x^3+x^2+sqrt2 x+1
    16: ([(1, 0), (0, 1), (2, 0), (0, 1), (1, 0)], 2),    # (x^2+sqrt2 x+1)(x^2+1)
    17: ([(1, 0), (0, 1), (2, 0), (0, 1), (1, 0)], 3),    # (x^2+sqrt3 x+1)(x^2+1)
}


@lru_cache(maxsize=None, typed=True)
def _pf_run(i, negate):
    """The held coefficients of 1/phi_i(+-x) from p_0 = 1, which _pf extends."""
    return [(1, 0)]


def _pf(i, upto, negate=False):
    """Coefficients p_0..p_upto of 1/phi_i(x) (or of 1/phi_i(-x)) as
    (rational, sqrt) integer pairs."""
    cache = _pf_run(i, negate)
    coeffs, m = PHI_COEFFS[i]
    if negate:
        coeffs = [(a, b) if n % 2 == 0 else (-a, -b) for n, (a, b) in enumerate(coeffs)]
    c1, c2, c3, c4 = coeffs[1], coeffs[2], coeffs[3], coeffs[4]
    while len(cache) <= upto:
        f = len(cache)
        ra = rb = 0
        for (ca, cb), back in ((c1, 1), (c2, 2), (c3, 3), (c4, 4)):
            if f - back < 0:
                break
            pa, pb = cache[f - back]
            ra += ca * pa + m * cb * pb
            rb += ca * pb + cb * pa
        cache.append((-ra, -rb))
    return cache


def chi_series(i, f1, f2, negate=False):
    """chi_i(f1, f2) by the Weyl character formula; AssertionError if the
    sqrt(m) part fails to cancel."""
    _check_index(i)
    _check_young(f1, f2)
    p = _pf(i, f1 + 1, negate)
    _, m = PHI_COEFFS[i]

    def at(f):
        return p[f] if f >= 0 else (0, 0)

    def add(u, v):
        return (u[0] + v[0], u[1] + v[1])

    def mul(u, v):
        return (u[0] * v[0] + m * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    val = mul(at(f1), add(at(f2), at(f2 - 2)))
    neg = mul(at(f2 - 1), add(at(f1 + 1), at(f1 - 1)))
    ra, rb = val[0] - neg[0], val[1] - neg[1]
    assert rb == 0, f"chi_{i}({f1},{f2}): sqrt({m}) part {rb} != 0"
    return ra


def _sgn(n):
    return -1 if n % 2 else 1


def chi_bracket_young(i, f1, f2):
    """chi_i(f1, f2) by a closed form in (f1, f2), for i in
    {2, 6, 9, 11, 13}; BadIndex for any other character."""
    _check_index(i)
    _check_young(f1, f2)
    d = f1 - f2
    if i == 2:
        return _sgn(f1) * exact_quotient((f1 + 2) * (f2 + 1), 2, "chi_2({}, {})", f1, f2)
    if i == 6:
        body = f1 + 2 if f2 % 2 == 0 else -(f2 + 1)
        return _sgn((f1 + f2) // 2) * exact_quotient(body, 2, "chi_6({}, {})", f1, f2)
    if i == 9:
        rows = {
            0: [1, 0, 0, -1, 0, 0],
            2: [-1, 1, 0, 1, -1, 0],
            4: [0, -1, 0, 0, 1, 0],
        }
        return _br(rows[d % 6], f2)
    if i == 11:
        if d % 4 == 0:
            return _sgn(d // 4) * _br([1, -1, 0, 0], f2)
        return _sgn((d - 2) // 4) * _br([0, 1, -1, 0], f2)
    if i == 13:
        rows = {
            0: [1, 2, 1, 0, 0, -1, -2, -1, 0, 0],
            2: [2, 0, -1, 1, 0, -2, 0, 1, -1, 0],
            4: [-2, -2, 2, 2, 0, 2, 2, -2, -2, 0],
            6: [-1, 1, 0, -2, 0, 1, -1, 0, 2, 0],
            8: [0, -1, -2, -1, 0, 0, 1, 2, 1, 0],
        }
        return _br(rows[d % 10], f2)
    raise BadIndex(f"no (f1,f2)-indexed bracket form for chi_{i}")
