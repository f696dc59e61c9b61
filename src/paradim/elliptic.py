"""Dimensions of elliptic modular forms: level 1, and newforms of prime
level Gamma_0(p) split by Atkin-Lehner sign."""
from enum import Enum

from .arith import a_p, check_level, class_number, split_symbol
from .characters import _br
from .errors import BadSpace, OddWeight, ParityFailure
from .exactmath import exact_quotient


class ALSign(Enum):
    plus = "plus"
    minus = "minus"


def dim_cusp_level1(k):
    """dim S_k(SL_2(Z)); 0 for odd k and for k <= 0."""
    if k % 2 or k <= 0:
        return 0
    # 12 dim = (k - 1) + 3 (-1)^(k/2) + 4 [1, 0, -1; 3]_k - 6 + 12 [k = 2]
    num = (k - 1 + 3 * (-1) ** (k // 2) + 4 * _br((1, 0, -1), k) - 6
           + (12 if k == 2 else 0))
    return exact_quotient(num, 12, "dim S_{}(SL2(Z))", k)


def dim_modular_level1(k):
    """dim M_k(SL_2(Z)), Eisenstein series included."""
    if k % 2 or k == 2 or k < 0:
        return 0
    if k == 0:
        return 1
    return dim_cusp_level1(k) + 1


def dim_new_gamma0(p, k):
    """dim of the weight-k newspace of Gamma_0(p), trivial character, at a
    prime p (NotPrimeLevel otherwise)."""
    check_level(p)
    if k % 2:
        raise OddWeight(f"k = {k} must be even")
    if k < 2:
        return 0
    # 12 dim = (p - 1)(k - 1) + 3 (-1)^(k/2+1) (1 - (-1/p))
    #          + 4 [-1, 0, 1; 3]_k (1 - (-3/p)) - 12 [k = 2]
    num = ((p - 1) * (k - 1)
           + 3 * (-1) ** (k // 2 + 1) * (1 - split_symbol(-1, p))
           + 4 * _br((-1, 0, 1), k) * (1 - split_symbol(-3, p))
           - (12 if k == 2 else 0))
    return exact_quotient(num, 12, "dim S_{}^new(Gamma0({}))", k, p)


def _new_gamma0_diff(p, k):
    """(plus) - (minus) dimension of the weight-k newspace of Gamma_0(p)."""
    d2 = 1 if k == 2 else 0
    if p == 2:
        return ((-1) ** (k // 2) - (-1) ** (((k - 4) * (k - 2) // 8) % 2)) // 2 + d2
    if p == 3:
        return d2 + {0: 1, 2: -1, 4: 0, 6: -1, 8: 1, 10: 0}[k % 12]
    return (-1) ** (k // 2) * a_p(p) * class_number(p) // 2 + d2


def dim_new_gamma0_signed(p, k, sign):
    """Signed newspace dimension: (total +- difference) / 2.  The sign is
    an ALSign or its value, "plus" or "minus"."""
    total = dim_new_gamma0(p, k)
    if not isinstance(sign, ALSign):  # ALSign() takes ~0.6 us; bias calls this 22 k times
        try:
            sign = ALSign(sign)
        except ValueError:
            raise BadSpace(f"Atkin-Lehner sign must be 'plus' or 'minus', got {sign!r}") from None
    if k < 2:
        return 0
    diff = _new_gamma0_diff(p, k)
    if (total + diff) % 2:
        raise ParityFailure(
            f"Gamma0({p}) weight {k}: total {total} and difference {diff} have opposite parity"
        )
    if sign is ALSign.plus:
        return (total + diff) // 2
    return (total - diff) // 2
