"""The seventeen Sp(2) characters chi_1 .. chi_17.

Each chi_i is the character of the irreducible representation with Young
parameters (f1, f2), evaluated at any group element whose principal
polynomial is phi_i(+-x).  Two independent evaluation routes are
provided:

* chi_values -- one table, CHI_TABLE: chi_i is a sum of polynomial factors
  F(u, v) times periodic brackets [row]_k over a denominator, in the weight
  coordinates (k, j) = (f2 + 3, f1 - f2), which young(k, j) inverts;
  chi_young is its one-index case;
* chi_series -- the Weyl character formula
  p_{f1}(p_{f2} + p_{f2-2}) - p_{f2-1}(p_{f1+1} + p_{f1-1})
  where 1/phi_i(x) = sum p_f x^f, computed by the exact integer
  recurrence in Z[sqrt(m)] coming from the degree-4 denominator.

They agree at every weight: tests/test_acceptance.py proves it from their periods.
"""
from functools import lru_cache

from .errors import BadIndex, BadYoung, IrrationalResidue
from .exactmath import exact_quotient, is_int


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


def _check_index(i):
    if not is_int(i) or i not in PHI_COEFFS:
        raise BadIndex(f"character index {i} not in 1..17")


def young(k, j):
    """The Young weight (k + j - 3, k - 3) of det^k Sym(j); BadYoung, naming
    (k, j), unless k >= 3 and j >= 0 are integers and j is even."""
    if not (is_int(k) and is_int(j)) or k < 3 or j < 0 or j % 2:
        raise BadYoung(f"need integers k >= 3 and even j >= 0, got (k,j)=({k!r},{j!r})")
    return k + j - 3, k - 3


def _check_young(f1, f2):
    if not (is_int(f1) and is_int(f2)) or not f1 >= f2 >= 0 or (f1 - f2) % 2:
        raise BadYoung(f"need integers f1 >= f2 >= 0 with f1 = f2 (mod 2), got ({f1!r},{f2!r})")


# ---------------------------------------------------------------------------
# Series route (Weyl character formula)
# ---------------------------------------------------------------------------

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
    """Character value via the power-series route (independent oracle)."""
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
    if rb != 0:
        raise IrrationalResidue(f"chi_{i}({f1},{f2}): sqrt({m}) part {rb} != 0")
    return ra


# ---------------------------------------------------------------------------
# Closed forms in (k, j): one table
# ---------------------------------------------------------------------------

def _br(vals, b):
    """[a_0, ..., a_{m-1}; m]_b -- the entry a_i with b = i (mod m)."""
    return vals[b % len(vals)]


def _sgn(n):
    return -1 if n % 2 else 1


# The factors F(u, v) of the table, with u = k - 2 = f2 + 1, v = j + k - 1 = f1 + 2.
def _one(u, v):
    return 1


def _u(u, v):
    return u


def _v(u, v):
    return v


def _uv(u, v):
    return u * v


def _weyl(u, v):
    return u * v * (v * v - u * u)


# i -> (den, terms): chi_i = (sum of F(u, v) * [row]_k over the terms) / den,
# where a term (F, rows) reads its row number (j/2) mod len(rows).  So chi_i
# is a quasi-polynomial in k of period the lcm of its row lengths, and in j
# of period twice its row count; every F has degree <= 3 in k.
CHI_TABLE = {
    1: (6, ((_weyl, ((1,),)),)),
    2: (2, ((_uv, ((-1, 1),)),)),
    3: (2, ((_u, ((1, 0, -1, 0), (-1, 0, 1, 0))), (_v, ((0, -1, 0, 1),)))),
    4: (3, ((_u, ((1, 0, -1), (-1, 1, 0), (0, -1, 1))), (_v, ((1, -1, 0),)))),
    5: (1, ((_u, ((1, 0, -1, -1, 0, 1), (-1, -1, 0, 1, 1, 0), (0, 1, 1, 0, -1, -1))),
            (_v, ((-1, -1, 0, 1, 1, 0),)))),
    6: (2, ((_u, ((1, 0), (-1, 0))), (_v, ((0, 1), (0, -1))))),
    7: (3, ((_u, ((1, 0, 2), (-1, 1, 0), (0, -1, -2))),
            (_v, ((1, 2, 0), (1, -1, 0), (-2, -1, 0))))),
    8: (1, ((_one, ((-1, 0, 0, 1, 1, 1, 1, 0, 0, -1, -1, -1),
                    (1, -1, 0, -1, -1, 0, -1, 1, 0, 1, 1, 0),
                    (-1, 1, 0, 0, 1, -1, 1, -1, 0, 0, -1, 1),
                    (1, 0, 0, 1, -1, 1, -1, 0, 0, -1, 1, -1),
                    (-1, -1, 0, -1, 1, 0, 1, 1, 0, 1, -1, 0),
                    (1, 1, 0, 0, -1, -1, -1, -1, 0, 0, 1, 1))),)),
    9: (1, ((_one, ((-1, 0, 0, 1, 0, 0), (1, -1, 0, -1, 1, 0), (0, 1, 0, 0, -1, 0))),)),
    10: (1, ((_one, ((-1, 0, 0, 1, 0), (1, -1, 0, 0, 0), (0,),
                     (0, 0, 0, -1, 1), (0, 1, 0, 0, -1))),)),
    11: (1, ((_one, ((-1, 0, 0, 1), (1, -1, 0, 0), (1, 0, 0, -1), (-1, 1, 0, 0))),)),
    12: (1, ((_one, ((-1, 0, 0, 1, -2, 2), (1, -1, 0), (2, -1, 0, 0, 1, -2),
                     (1, 0, 0, -1, 2, -2), (-1, 1, 0), (-2, 1, 0, 0, -1, 2))),)),
    13: (1, ((_one, ((-1, 0, 0, 1, 2, 1, 0, 0, -1, -2),
                     (1, -1, 0, 2, 0, -1, 1, 0, -2, 0),
                     (-2, -2, 0, -2, -2, 2, 2, 0, 2, 2),
                     (0, 2, 0, -1, 1, 0, -2, 0, 1, -1),
                     (2, 1, 0, 0, -1, -2, -1, 0, 0, 1))),)),
    14: (1, ((_u, ((0, 0, 1, 1), (0, 1, 1, 0), (0, 0, -1, -1), (0, -1, -1, 0))),
             (_v, ((1, 1, 0, 0), (1, 0, 0, 1), (-1, -1, 0, 0), (-1, 0, 0, -1))))),
    15: (1, ((_one, ((-1, 0, 0, 1, 0, -2, 1, 2, -2, -1, 2, 0), (1, -1, 0),
                     (0, -1, 0, 2, -1, -2, 2, 1, -2, 0, 1, 0),
                     (1, -2, 0, 1, 0, 0, -1, 0, 2, -1, -2, 2), (1, -1, 0),
                     (0, -1, 0, 0, 1, 0, -2, 1, 2, -2, -1, 2),
                     (1, 0, 0, -1, 0, 2, -1, -2, 2, 1, -2, 0), (-1, 1, 0),
                     (0, 1, 0, -2, 1, 2, -2, -1, 2, 0, -1, 0),
                     (-1, 2, 0, -1, 0, 0, 1, 0, -2, 1, 2, -2), (-1, 1, 0),
                     (0, 1, 0, 0, -1, 0, 2, -1, -2, 2, 1, -2))),)),
    16: (1, ((_one, ((-1, 0, 0, 1, 1, 0, 0, -1), (1, -1, 0, 0, -1, 1, 0, 0),
                     (-1, 0, 0, -1, 1, 0, 0, 1), (1, 1, 0, 0, -1, -1, 0, 0))),)),
    17: (1, ((_one, ((-1, 0, 0, 1, 1, -1), (1, -1, 0), (-1, -1, 0, 0, 1, 1),
                     (1, 0, 0, -1, -1, 1), (-1, 1, 0), (1, 1, 0, 0, -1, -1))),)),
}


def chi_values(indices, f1, f2):
    """chi_i(f1, f2) for each i of `indices`, in order, read from CHI_TABLE:
    the Young weight is checked and turned into (k, j) once for the tuple."""
    _check_young(f1, f2)
    k, j = f2 + 3, f1 - f2
    u, v = f2 + 1, f1 + 2
    out = []
    for i in indices:
        _check_index(i)
        den, terms = CHI_TABLE[i]
        num = sum([f(u, v) * _br(rows[j // 2 % len(rows)], k) for f, rows in terms])
        out.append(exact_quotient(num, den, "chi_{}(k={}, j={})", i, k, j))
    return tuple(out)


def chi_young(i, f1, f2):
    """chi_i at the Young weight (f1, f2); BadIndex or BadYoung outside the
    domain."""
    return chi_values((i,), f1, f2)[0]


def chi_bracket_young(i, f1, f2):
    """Alternative closed forms indexed directly by (f1, f2), available
    for i in {2, 6, 9, 11, 13}; kept as an independent cross-check."""
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
