"""Dimensions of vector-valued Siegel cusp forms of degree 2, level 1,
weight det^k Sym(j), for j in {0, 2, 4}, via their generating functions.

Any other j raises UnsupportedJ.
"""
from functools import lru_cache

from .errors import BadYoung, UnsupportedJ
from .exactmath import RationalGF, from_terms, is_int, series_coeffs


# numerators over (1-t^4)(1-t^6)(1-t^10)(1-t^12) as (exponent, coefficient) pairs
LEVEL1_SERIES = {j: RationalGF(from_terms(terms), [4, 6, 10, 12]) for j, terms in {
    0: [(10, 1), (12, 1), (22, -1), (35, 1)],
    2: [(14, 1), (16, 2), (18, 1), (22, 1), (26, -1), (28, -1),
        (21, 1), (23, 1), (27, 1), (29, 1), (33, -1)],
    4: [(10, 1), (12, 1), (14, 1), (15, 1), (16, 1), (17, 1), (18, 1),
        (19, 1), (20, 1), (21, 1), (23, 1), (30, -1)],
}.items()}

@lru_cache(maxsize=None, typed=True)
def _level1_coeffs(j, size):
    return series_coeffs(LEVEL1_SERIES[j], size)


def _size(k):
    """The size of the _level1_coeffs entry that weight k >= 0 reads: sizes
    double from 128 terms, so a walk up to weight k expands O(log k) times."""
    return max(128, 1 << k.bit_length())


def dim_cusp_sp4(k, j=0):
    """dim of weight det^k Sym(j) level-1 Siegel cusp forms of degree 2;
    0 for k < 0, BadYoung for a non-integer k or j."""
    if not (is_int(k) and is_int(j)):
        raise BadYoung(f"weight (k, j) = ({k!r}, {j!r}) needs integers")
    if j not in LEVEL1_SERIES:
        raise UnsupportedJ(f"j = {j}: no level-1 series")
    if k < 0:
        return 0
    return _level1_coeffs(j, _size(k))[k]
