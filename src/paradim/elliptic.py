"""Dimensions of elliptic modular forms: level 1, and newforms of prime
level Gamma_0(p) split by Atkin-Lehner sign.

Each dimension is an integer numerator over 12, divided by
exact_quotient (NonIntegral otherwise).

The newspace as data.  The weight-w newspace of Gamma_0(p), w >= 2 even,
is stated once, per branch of compact._branch (2, 3, "1 mod 4",
"3 mod 4"), by _newspace(w, branch): two sums of (c, x) terms over the
names x of compact.INVARIANTS.  The first is

  12 dim = (p - 1)(w - 1) + 3 e (1 - s_m1) + 4 b (1 - s_m3) - 12 [w = 2],

e = (-1)^(w/2 + 1), b = [-1, 0, 1; 3]_w, over p, 1, s_m1 and s_m3.  The
second is twice the Atkin-Lehner difference plus - minus,
2 [w = 2] + 2 row[(w/2) mod len(row)], where DIFF_ROWS holds the row of
each branch in units of c with 2c as terms: (1, -1, 0, 0) at p = 2,
(1, -1, 0, -1, 1, 0) at p = 3 with c = 1, and (c, -c) at p > 3 with
2c = a_p h(p), that is h_p at p = 1 (mod 4) and 3 h_p - s2_h_p at
p = 3 (mod 4), since a_p = 3 - (2/p) there.  paramodular.formula reads
these terms as vectors over I(p).

The record.  _record(p) holds the six invariants the terms read, by
name: 1, p, s_m1, s_m3, h_p and s2_h_p, with h_p = 0 at p = 2, 3 as in
I(p).  It costs one row of split symbols and one class number, where
compact._invariants(p) also needs B_{2,chi}, h(-2p) and h(-3p), which
grow far faster with p.  _gamma0(p, w) evaluates both sums there and
divides them by 12 and by 2, each through exact_quotient, once per
(p, w): an odd a_p h(p) raises NonIntegral instead of being rounded.
dim_new_gamma0 reads the total from it, and dim_new_gamma0_signed splits
total and difference into (plus, minus) by plus_minus.
"""
from functools import lru_cache

from .arith import _split_symbols, check_level, class_number
from .characters import _br
from .compact import _branch
from .errors import BadYoung, OddWeight
from .exactmath import exact_quotient, is_int, plus_minus


def dim_cusp_level1(k):
    """dim S_k(SL_2(Z)); 0 for odd k and for k <= 0, BadYoung for a
    non-integer k."""
    if not is_int(k):
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


DIFF_ROWS = {2: ((1, -1, 0, 0), ((2, "1"),)), 3: ((1, -1, 0, -1, 1, 0), ((2, "1"),)),
             "1 mod 4": ((1, -1), ((1, "h_p"),)),
             "3 mod 4": ((1, -1), ((3, "h_p"), (-1, "s2_h_p")))}


@lru_cache(maxsize=None, typed=True)
def _newspace(w, branch):
    """(twelve, twice) of the module docstring at an even weight w >= 2 on
    `branch`, each a tuple of (c, x) terms."""
    kept, e, b = int(w == 2), _br((-1, 1), w // 2), _br((-1, 0, 1), w)
    twelve = ((w - 1, "p"), (1 - w + 3 * e + 4 * b - 12 * kept, "1"),
              (-3 * e, "s_m1"), (-4 * b, "s_m3"))
    row, unit = DIFF_ROWS[branch]
    return twelve, ((2 * kept, "1"), *((_br(row, w // 2) * c, x) for c, x in unit))


@lru_cache(maxsize=None, typed=True)
def _record(p):
    """The record of the module docstring at the prime p; NotPrimeLevel
    otherwise."""
    check_level(p)
    s_m1, s_m3, s_2 = _split_symbols(p)[:3]
    h_p = class_number(p) if p > 3 else 0
    return {"1": 1, "p": p, "s_m1": s_m1, "s_m3": s_m3, "h_p": h_p, "s2_h_p": s_2 * h_p}


@lru_cache(maxsize=None, typed=True)
def _gamma0(p, w):
    """(dim, plus - minus) of the weight-w newspace at the prime p, for an
    even w >= 2: _newspace read at _record(p), over 12 and 2."""
    record = _record(p)
    twelve, twice = (sum(c * record[x] for c, x in terms) for terms in _newspace(w, _branch(p)))
    return (exact_quotient(twelve, 12, "dim S_{}^new(Gamma0({}))", w, p),
            exact_quotient(twice, 2, "the trace of W_p on S_{}^new(Gamma0({}))", w, p))


def dim_new_gamma0(p, k):
    """dim of the weight-k newspace of Gamma_0(p), trivial character, at a
    prime p (NotPrimeLevel otherwise) and an even integer k (BadYoung for a
    non-integer k, OddWeight for an odd one)."""
    if is_int(k) and k >= 2 and not k % 2:
        return _gamma0(p, k)[0]
    check_level(p)  # the level is refused before the weight
    if not is_int(k):
        raise BadYoung(f"weight k = {k!r} must be an integer")
    if k % 2:
        raise OddWeight(f"k = {k} must be even")
    return 0


def dim_new_gamma0_signed(p, k):
    """(plus, minus) dimensions of the weight-k newspace of Gamma_0(p), for
    the p and k that dim_new_gamma0 takes."""
    total = dim_new_gamma0(p, k)
    if k < 2:
        return 0, 0
    return plus_minus(total, _gamma0(p, k)[1], "S_{}^new(Gamma0({}))", k, p)
