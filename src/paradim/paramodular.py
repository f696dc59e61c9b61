"""The top layer: signed paramodular dimensions S^± and A^± at a prime
level, Hilbert series of the graded spaces, the sign-bias check, and the
weight-3 vanishing search.

Signed dimensions.  dim_paramodular_signed(p, k, j) adds the level-1
Siegel dimension to the compact side of the opposite sign (M- for the
plus space, M+ for the minus space) at the Young weight
(j + k - 3, k - 3), subtracts the Gritsenko lifts, the signed
weight-(j + 2) newspace of Gamma_0(p) times dim S_{2k+j-2}(SL_2(Z)), and
takes dim S_{2k-2}(SL_2(Z)) + [k = 3] off the minus space at j = 0.  Only
the compact side depends on both the level and the weight, and it is
evaluated on every call; the other terms are read from a per-weight
record, _weight_terms(k, j), and a per-level one, _lifted_newspace(p, j).
_cusp_pair assembles the pair from the three, and is the one home of
that formula.

Grids.  check_bias_region and the graded S and A sequences from k = 3
ask for whole runs of weights at a prime.  _signed_grid(ps, j, ks) reads
the weight records and the Young weights once per call, and per prime
the lifted newspace once and the compact pairs of all of ks from
compact._signed_run; so the level is looked up once per prime, not twice
per weight.  dim_paramodular_signed stays the route of a single weight
(dim, table), and below k = 3 the sequences stay pointwise, where weight
2 may raise MissingJacobiData.

Graded series.  Every graded sequence is read from one held run of
(plus, minus) pairs per (base space, p, j), the base space being M, A or
S (_held_run); M is extended by compact._signed_run, S and A by the grid
of one prime.  A longer request extends the run in place, a shorter one
slices it, and another key replaces it.  So the A, A+ and A- records of
one prime (and M+-, S+-), the fallback denominators hilbert_series tries
and the palindromic checks of A and then A+ share one computation.
hilbert_series is the one fitter: for a denominator with exponent sum s
it reads the sequence up to t^n, n = 2 s + FIT_SLACK, and fits a
numerator of degree below n - s.  Without an embedded presentation it
tries FALLBACK_DENOMINATORS in turn; the comment above that list proves
which of them fits, and tests/test_paramodular.py checks each step by
polynomial division.
"""
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .arith import check_level, primes_up_to
from .characters import young
from .compact import _signed_run, class_and_type, dim_M_signed
from .data import load_json
from .elliptic import dim_cusp_level1, dim_modular_level1, dim_new_gamma0_signed
from .errors import (
    BadSpace,
    BadYoung,
    BiasViolation,
    MissingData,
    MissingJacobiData,
    NegativeDim,
    NonPolynomial,
    ParadimError,
    UnsupportedJ,
)
from .exactmath import RationalGF, fit_numerator, from_terms, is_int
from .siegel1 import dim_cusp_sp4


# Both records are typed: (4.0, 2) would otherwise hit the entry of (4, 2).
@lru_cache(maxsize=None, typed=True)
def _weight_terms(k, j):
    """The Siegel term, the lift multiplier and the minus-space drop of
    dim_paramodular_signed at (k, j)."""
    drop = 0
    if j == 0:
        drop = dim_cusp_level1(2 * k - 2) + (1 if k == 3 else 0)
    return dim_cusp_sp4(k, j), dim_cusp_level1(2 * k + j - 2), drop


@lru_cache(maxsize=None, typed=True)
def _lifted_newspace(p, j):
    """The signed newspace of dim_paramodular_signed at (p, j)."""
    return dim_new_gamma0_signed(p, j + 2)


def dim_paramodular_signed(p, k, j=0):
    """Signed dimensions (plus, minus) of weight det^k Sym(j) paramodular
    cusp forms of prime level p, for integers k >= 3, j >= 0 (BadYoung
    otherwise).  Odd j gives the zero space.  NotPrimeLevel unless p is a
    prime int; NegativeDim if either dimension comes out negative."""
    if not (is_int(k) and is_int(j)) or k < 3 or j < 0:
        raise BadYoung(f"weight (k, j) = ({k!r}, {j!r}) needs integers k >= 3 and j >= 0")
    if j % 2:
        check_level(p)
        return 0, 0
    # the level first: a non-prime p raises NotPrimeLevel at every j
    m_pair = dim_M_signed(p, *young(k, j))
    return _cusp_pair(p, k, j, m_pair, _weight_terms(k, j), _lifted_newspace(p, j))


def _cusp_pair(p, k, j, m_pair, terms, lifted):
    """S^+- at (p, k, j) from the compact pair m_pair = (M+, M-) at the
    Young weight, terms = _weight_terms(k, j) and lifted =
    _lifted_newspace(p, j); NegativeDim if either entry is negative."""
    m_plus, m_minus = m_pair
    sp, lift, minus_drop = terms
    s_plus, s_minus = lifted
    plus = sp + m_minus - s_plus * lift
    minus = sp - minus_drop + m_plus - s_minus * lift
    if plus < 0 or minus < 0:
        raise NegativeDim(f"p={p}, (k,j)=({k},{j}): got ({plus},{minus})")
    return plus, minus


def _signed_grid(ps, j, ks):
    """For each prime p of ps in turn, the list of dim_paramodular_signed(p,
    k, j) over ks, a sequence of integers k >= 3 (j an integer >= 0); nothing
    when ks is empty."""
    if not ks:
        return
    if j % 2:
        for p in ps:
            check_level(p)
            yield [(0, 0)] * len(ks)
        return
    weights = [young(k, j) for k in ks]
    terms = [_weight_terms(k, j) for k in ks]
    for p in ps:
        run = _signed_run(p, weights)
        lifted = _lifted_newspace(p, j)
        yield [_cusp_pair(p, k, j, m_pair, t, lifted) for k, m_pair, t in zip(ks, run, terms)]


def dim_weight3(p):
    """(plus, minus) in weight 3 via the class and type numbers."""
    H, T = class_and_type(p)
    return H - T, T - 1


# Below this prime every weight-2 paramodular cusp form of level p is a
# Gritsenko lift of a Jacobi cusp form in J_{2,p}, and J_{2,p}^cusp is
# S_2^new(Gamma_0(p)) with Atkin-Lehner sign +1 (Skoruppa-Zagier); every
# lift has sign +1.  At p = 277 the first non-lift appears.
LIFTS_ONLY_BELOW = 277


def dim_S_signed(p, k, j=0):
    """Signed dimensions (plus, minus) of S_{k,j}(K(p)) for all integers
    k, j >= 0 (BadYoung otherwise): dim_paramodular_signed from k = 3,
    (0, 0) below weight 2 and for j != 0, and at weight 2 the lifts
    (dim S_2^new(Gamma_0(p))^+, 0) below LIFTS_ONLY_BELOW.  From there on
    weight 2 raises MissingJacobiData."""
    if not (is_int(k) and is_int(j)) or k < 0 or j < 0:
        raise BadYoung(f"weight (k, j) = ({k!r}, {j!r}) needs integers k, j >= 0")
    if k >= 3:
        return dim_paramodular_signed(p, k, j)
    check_level(p)
    if k < 2 or j != 0:
        return 0, 0
    if p >= LIFTS_ONLY_BELOW:
        raise MissingJacobiData(f"the signs of S_2(K({p})) are unknown here: "
                                f"non-lifts exist from p = {LIFTS_ONLY_BELOW}")
    return dim_new_gamma0_signed(p, 2)[0], 0


def dim_A_signed(p, k):
    """Signed dimensions of the full (cusp + Eisenstein) space, j = 0, for
    every integer weight k >= 0: the cusp pair of dim_S_signed plus
    (dim M_k(SL_2(Z)), dim S_k(SL_2(Z))).  Weight 2 is refused from
    LIFTS_ONLY_BELOW on (MissingJacobiData)."""
    return _with_eisenstein(k, dim_S_signed(p, k))


def _with_eisenstein(k, cusp_pair):
    """The pair of dim_A_signed at weight k from that of dim_S_signed."""
    plus, minus = cusp_pair
    return plus + dim_modular_level1(k), minus + dim_cusp_level1(k)


# the graded spaces of hilbert_series
SPACES = ("M", "M+", "M-", "A", "A+", "A-", "S+", "S-")


def _check_space(space, j):
    """BadSpace, BadYoung (naming j) or UnsupportedJ unless `space` graded
    at j exists; S+- at an odd j is the zero series."""
    if space not in SPACES:
        raise BadSpace(f"space must be one of {', '.join(SPACES)}, got {space!r}")
    if not is_int(j) or j < 0 or (space[0] == "M" and j % 2):
        raise BadYoung(f"space {space} is not graded at j = {j!r}")
    if space[0] == "A" and j != 0:
        raise UnsupportedJ(f"space {space} is only graded at j = 0, got j = {j}")


# typed=True keeps 7.0 off the run of 7, so it is refused as a level; one
# entry bounds the memory to one run.
@lru_cache(maxsize=1, typed=True)
def _held_run(base, p, j):
    return []


def _space_sequence(p, space, nmax, j=0):
    """Dimension sequence (index 0..nmax) of a graded space.

    S+/S-/A+/A-/A are graded by the weight k; M+/M-/M by the Young
    parameter f of the weight (f + j, f).
    The held run of (plus, minus) pairs is extended by a whole list, so a
    run that raises holds nothing new and raises again; the suffix picks
    the sum, the plus or the minus entry.
    """
    _check_space(space, j)
    base, sign = space[0], space[1:]
    pairs = _held_run(base, p, j)
    start = len(pairs)
    if base == "M":
        if start <= nmax:
            pairs += _signed_run(p, [(f + j, f) for f in range(start, nmax + 1)])
    else:
        new = [dim_S_signed(p, k, j) for k in range(start, min(3, nmax + 1))]
        for run in _signed_grid([p], j, range(max(3, start), nmax + 1)):
            new += run
        if base == "A":
            new = [_with_eisenstein(k, pair) for k, pair in enumerate(new, start)]
        pairs += new
    pick = {"": sum, "+": itemgetter(0), "-": itemgetter(1)}[sign]
    return [pick(pairs[n]) for n in range(nmax + 1)]


@lru_cache(maxsize=None)
def _printed_registry():
    """(p, space, j) -> record of the embedded Hilbert-series corpus."""
    return {
        (rec["p"], rec["space"], rec.get("j", 0)): rec
        for rec in load_json("hilbert_series.json")
    }


def printed_series(p, space, j=0):
    """The embedded presentation of a graded dimension series, if any."""
    check_level(p)
    _check_space(space, j)
    rec = _printed_registry().get((p, space, j))
    if rec is None:
        raise MissingData(f"no embedded series for p={p}, space={space}, j={j}")
    return RationalGF(from_terms(rec["num"]), rec["den"])

# For primes without a printed presentation, try these in order; four factors
# each keep the sign of F(1/t) = (-1)^m t^l F(t) well defined.  A CHI_TABLE row
# of length L under a factor of degree d in f sums along (f + j, f) over
# (1 - t^L)^(d + 1).  That divides the last entry, and the first for every
# character of CHI_INDEX but chi_16, which enters only TRACE_ROWS[2] with poles
# at the primitive 8th roots of unity.  The level-1 and weight <= 2 terms are
# over the first entry too, and no numerator reaches the fit's degree bound, so
# the first entry fits exactly but for the signed series at p = 2, and the last
# one always does (tests/test_paramodular.py checks each step).
FALLBACK_DENOMINATORS = [
    [4, 6, 10, 12],
    [4, 6, 8, 12],
    [120, 120, 120, 120],
]

FIT_SLACK = 41


class HilbertSeries(namedtuple("HilbertSeries", "p space gf")):
    """A fitted graded dimension series: the generating function `gf` (a
    RationalGF) of `space` at the prime level `p`."""

    __slots__ = ()


def hilbert_series(p, space, j=0):
    """Fit the dimension sequence of a graded space to a rational function
    over a factored denominator: an embedded presentation's, whose numerator
    must be reproduced, or else the first of FALLBACK_DENOMINATORS that fits.
    When no candidate fits, NonPolynomial names p, space, j and the last
    denominator tried before the residual that refused it."""
    rec = _printed_registry().get((p, space, j))
    candidates = [rec["den"]] if rec is not None else FALLBACK_DENOMINATORS
    for denoms in candidates:
        margin = sum(denoms)
        n = 2 * margin + FIT_SLACK
        seq = _space_sequence(p, space, n, j)
        try:
            num = fit_numerator(seq, denoms, n - margin - 1)
            return HilbertSeries(p, space, RationalGF(num, denoms))
        except NonPolynomial as exc:
            error = exc
    raise NonPolynomial(f"p={p}, space={space}, j={j}, den={denoms}: {error}") from error


def bias(p, k):
    """(-1)^k (dim plus - dim minus) in weight k, scalar valued."""
    return _signed_bias(k, dim_paramodular_signed(p, k))


def _signed_bias(k, pair):
    """bias at weight k from the pair (plus, minus) of S_k."""
    plus, minus = pair
    return (-1) ** k * (plus - minus)


def search_weight3_zero(pmax):
    """All primes p <= pmax with vanishing weight-3 plus space."""
    return [p for p in primes_up_to(pmax) if dim_weight3(p)[0] == 0]


def check_bias_region(pmax, kmax):
    """The pairs (p, k), p <= pmax prime and 3 <= k <= kmax, in that order,
    at which bias(p, k) = 0; BiasViolation at the first pair where it is
    negative."""
    if not is_int(kmax):
        raise ParadimError(f"a weight bound must be an integer, got {kmax!r}")
    primes, ks = primes_up_to(pmax), range(3, kmax + 1)
    zeros = []
    for p, pairs in zip(primes, _signed_grid(primes, 0, ks)):
        for k, pair in zip(ks, pairs):
            b = _signed_bias(k, pair)
            if b < 0:
                raise BiasViolation(p, k, b)
            if b == 0:
                zeros.append((p, k))
    return zeros
