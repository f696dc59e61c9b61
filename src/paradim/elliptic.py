"""Dimensions of elliptic modular forms: level 1, and newforms of prime
level Gamma_0(p) split by Atkin-Lehner sign.

Each dimension is an integer numerator over 12, divided by
exact_quotient (NonIntegral otherwise).  The newspace of Gamma_0(p)
reads one cached record per level, _gamma0(p): p - 1, 3 (1 - (-1/p)),
4 (1 - (-3/p)) and the row of the plus-minus difference.  The difference
at weight k is [k = 2] + row[(k/2) mod len(row)], with the row
(1, -1, 0, 0) at p = 2, (1, -1, 0, -1, 1, 0) at p = 3 (DIFF_ROWS) and
(c, -c), c = a_p h(p) / 2, at any other prime.
dim_new_gamma0_signed splits total and difference into (plus, minus).
"""
from functools import lru_cache

from .arith import _split_symbols, a_p, check_level, class_number
from .characters import _br
from .errors import BadYoung, OddWeight
from .exactmath import exact_quotient, plus_minus


def dim_cusp_level1(k):
    """dim S_k(SL_2(Z)); 0 for odd k and for k <= 0, BadYoung for a
    non-integer k."""
    if not isinstance(k, int):
        raise BadYoung(f"weight k = {k!r} must be an integer")
    if k % 2 or k <= 0:
        return 0
    # 12 dim = (k - 1) + 3 (-1)^(k/2) + 4 [1, 0, -1; 3]_k - 6 + 12 [k = 2]
    num = (k - 1 + 3 * (-1) ** (k // 2) + 4 * _br((1, 0, -1), k) - 6
           + (12 if k == 2 else 0))
    return exact_quotient(num, 12, "dim S_{}(SL2(Z))", k)


def dim_modular_level1(k):
    """dim M_k(SL_2(Z)): the cusp forms plus one Eisenstein series in every
    even weight k >= 0 but 2; BadYoung for a non-integer k."""
    return dim_cusp_level1(k) + (k % 2 == 0 and k >= 0 and k != 2)


DIFF_ROWS = {2: (1, -1, 0, 0), 3: (1, -1, 0, -1, 1, 0)}


@lru_cache(maxsize=None)
def _gamma0(p):
    """The Gamma_0(p) record of the module docstring at the prime p;
    NotPrimeLevel otherwise."""
    check_level(p)
    row = DIFF_ROWS.get(p)
    if row is None:
        c = a_p(p) * class_number(p) // 2
        row = (c, -c)
    s_m1, s_m3 = _split_symbols(p)[:2]
    return p - 1, 3 * (1 - s_m1), 4 * (1 - s_m3), row


def dim_new_gamma0(p, k):
    """dim of the weight-k newspace of Gamma_0(p), trivial character, at a
    prime p (NotPrimeLevel otherwise) and an even integer k (BadYoung for a
    non-integer k, OddWeight for an odd one)."""
    p1, c2, c3, _ = _gamma0(p)
    if not isinstance(k, int):
        raise BadYoung(f"weight k = {k!r} must be an integer")
    if k % 2:
        raise OddWeight(f"k = {k} must be even")
    if k < 2:
        return 0
    # 12 dim = (p - 1)(k - 1) + 3 (-1)^(k/2+1) (1 - (-1/p))
    #          + 4 [-1, 0, 1; 3]_k (1 - (-3/p)) - 12 [k = 2]
    num = (p1 * (k - 1) + (-1) ** (k // 2 + 1) * c2 + _br((-1, 0, 1), k) * c3
           - (12 if k == 2 else 0))
    return exact_quotient(num, 12, "dim S_{}^new(Gamma0({}))", k, p)


def dim_new_gamma0_signed(p, k):
    """(plus, minus) dimensions of the weight-k newspace of Gamma_0(p), for
    the p and k that dim_new_gamma0 takes."""
    total = dim_new_gamma0(p, k)
    if k < 2:
        return 0, 0
    diff = _br(_gamma0(p)[3], k // 2) + (1 if k == 2 else 0)
    return plus_minus(total, diff, "S_{}^new(Gamma0({}))", k, p)
