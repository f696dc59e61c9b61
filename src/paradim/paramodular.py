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
evaluated on every call; the other weight terms, _weight_terms(k, j),
are read from the per-run record _weight_run, and the newspace from
elliptic's per-level record.  _cusp_pair assembles S^+- from the three.

The formula as data.  formula(k, j) restates that two-line assembly at
one weight for every prime at once, and the test
test_formula_is_the_signed_dimension binds the two: per branch of
compact._branch, the int vectors (plus, minus) over compact.INVARIANTS
whose dot products with I(p), each over den = compact.DEN2 = 5760, are
dim_paramodular_signed(p, k, j).  M+- enter through compact._TRIPLES on
the characters at young(k, j), the weight terms at the invariant 1, and
the newspace, 12 times its total and twice its difference, as the terms
of elliptic._newspace(j + 2, branch) (elliptic, "The newspace as
data").  It serves single weights: the form is slower than the packed
runs on a grid, which keep the assembly above.  dim_weight3 reads
formula(3, 0) from the cached I(p), as two exact divisions, and checks
T <= H <= 2T; a division that fails replays class_and_type(p), whose
pointwise chain names the error.

Grids.  check_bias_region and the graded S and A sequences from k = 3
ask for whole runs of weights at a prime, and each run stays packed from
the characters up to the sign of the bias (compact, "Packed runs").  The
weight side is built once per run and shared by every prime, each
column by one whole-column step: _weight_columns(j, ks) takes the Siegel
term SP as one slice of the level-1 series (siegel1._level1_coeffs at
the size that dim_cusp_sp4 reads for the last k), and the lift
multiplier LIFT, dim S_{2k+j-2}(SL_2(Z)), and the minus drop DROP from
the closed-form column elliptic._level1_column; _weight_run(j, ks) holds
these columns, their maxima and the Eisenstein pair (dim M_k, dim S_k)
of the A spaces, from the same column.  _weight_columns is the one seam
of the weight terms that dim_paramodular_signed (a run of one) and the
grids read; formula reads the pointwise _weight_terms(k, j), which the
tests hold the columns to.
_packed_weights(j, ks, W) packs SP, SP - DROP and LIFT at the width W,
with the top bits of the fields at even k.  Per prime, _cusp_run reads
the signed newspace (s+, s-), compact._signed_packed packs M+- at a W
that also holds what _extra says the weight terms add, and _cusp_pair
forms S+ = SP + M- - s+ LIFT and S- = SP - DROP + M+ - s- LIFT as two
ints.  NegativeDim is read from the top bits of S+-, and the sign of the
bias (-1)^k (S+ - S-) and its zeros from those of S+ - S- and the even-k
mask (compact, "Signs in bulk"); a field is unpacked only to name the
first bad k.  check_bias_region reads only the zero fields, and the
sequences unpack S+- by compact._columns.
A prime's compact errors come first, then NegativeDim and BiasViolation
at its first bad k.  A packed run of one is its value, so
dim_paramodular_signed evaluates a single weight by the same integer
expressions, from the pointwise chain of dim_M_signed, and bias is
(-1)^k (plus - minus) of it; dim_paramodular_signed stays the route of a
single weight (dim, table).

Graded series.  Every graded sequence is read from one cached run per
(base space, p, j), the base space being M, A or S (_graded_run): the
columns (plus, minus) of M from degree 0 (compact._signed_packed), and
of S and A from weight 3 (S from _cusp_run, and zero at an odd j; A from
the cached S run plus the Eisenstein columns of _weight_run).  A run
reaches at least degree _RUN_MIN - 1, the last that the first fallback
fit reads, so one run serves the A, A+ and A- records of a prime (and
M+-, S+-), the expand checks, every embedded fit, the first two fallback
denominators and the palindromic checks; only the last fallback reads a
longer run.  No caller changes a run, and lru_cache holds no run that
raised.  _space_sequence returns the plus or the minus column of a run
as one slice, and their sum as one map(add); below weight 3 the S and A
sequences stay pointwise and uncached, so weight 2 at p >=
LIFTS_ONLY_BELOW raises only when a sequence reaches it.
hilbert_series is the one fitter: for a denominator with exponent sum s
it reads the sequence up to t^n, n = 2 s + FIT_SLACK, and fits a
numerator of degree below n - s.  Without an embedded presentation it
tries FALLBACK_DENOMINATORS in turn; the comment above that list proves
which of them fits, and tests/test_paramodular.py checks each step by
polynomial division.
"""
from collections import namedtuple
from functools import lru_cache
from operator import add, mul, sub
from types import MappingProxyType

from .arith import check_level, primes_up_to
from .characters import young
from .compact import (
    DEN2,
    INVARIANTS,
    _TRIPLES,
    _branch,
    _check_type_number,
    _chi_vector,
    _columns,
    _field,
    _first_field,
    _invariants,
    _pack,
    _repeat,
    _signed_packed,
    _width,
    class_and_type,
    dim_M_signed,
)
from .data import load_json
from .elliptic import (
    _level1_column,
    _newspace,
    dim_cusp_level1,
    dim_modular_level1,
    dim_new_gamma0_signed,
)
from .errors import (
    BadSpace,
    BadYoung,
    BiasViolation,
    MissingData,
    MissingJacobiData,
    NegativeDim,
    NonIntegral,
    NonPolynomial,
    ParadimError,
    UnsupportedJ,
)
from .exactmath import RationalGF, fit_numerator, from_terms, is_int
from .siegel1 import _level1_coeffs, _size, dim_cusp_sp4


def _weight_terms(k, j):
    """The Siegel term, the lift multiplier and the minus-space drop of
    dim_paramodular_signed at (k, j)."""
    drop = 0
    if j == 0:
        drop = dim_cusp_level1(2 * k - 2) + (1 if k == 3 else 0)
    return dim_cusp_sp4(k, j), dim_cusp_level1(2 * k + j - 2), drop


def _check_weight(k, j):
    """BadYoung unless k >= 3 and j >= 0 are integers."""
    if not (is_int(k) and is_int(j)) or k < 3 or j < 0:
        raise BadYoung(f"weight (k, j) = ({k!r}, {j!r}) needs integers k >= 3 and j >= 0")


def dim_paramodular_signed(p, k, j=0):
    """Signed dimensions (plus, minus) of weight det^k Sym(j) paramodular
    cusp forms of prime level p, for integers k >= 3, j >= 0 (BadYoung
    otherwise).  Odd j gives the zero space.  NotPrimeLevel unless p is a
    prime int; NegativeDim if either dimension comes out negative."""
    _check_weight(k, j)
    if j % 2:
        check_level(p)
        return 0, 0
    # the level first: a non-prime p raises NotPrimeLevel at every j
    m_plus, m_minus = dim_M_signed(p, *young(k, j))
    ks, lifted = range(k, k + 1), dim_new_gamma0_signed(p, j + 2)
    width = _width(abs(m_plus) + abs(m_minus) + _extra(j, ks, lifted))
    return _cusp_pair(p, j, ks, (m_plus, m_minus, width, 1 << width - 1), lifted)


def _weight_columns(j, ks):
    """The columns (sp, lift, drop) of _weight_terms(k, j) over the range ks
    of integers k >= 3 (the module docstring, "Grids"); the errors of
    _weight_terms(ks.start, j)."""
    dim_cusp_sp4(ks.start, j)
    sp = _level1_coeffs(j, _size(ks.stop - 1))[ks.start:ks.stop]
    lift = _level1_column(range(2 * ks.start + j - 2, 2 * ks.stop + j - 2, 2))
    drop = [d + (k == 3) for k, d in zip(ks, lift)] if j == 0 else [0] * len(ks)
    return sp, lift, drop


# Every prime of a grid reads the weight records of its run ks; a float j
# gets its own key.
@lru_cache(maxsize=64, typed=True)
def _weight_run(j, ks):
    """(terms, tops, eisenstein): _weight_columns(j, ks), max |.| of each,
    and the columns (dim M_k, dim S_k) of SL_2(Z) that dim_A_signed adds
    to dim_S_signed."""
    terms = _weight_columns(j, ks)
    cusp = _level1_column(ks)
    eisenstein = [c + 1 - k % 2 for k, c in zip(ks, cusp)], cusp
    return terms, [max(map(abs, t), default=0) for t in terms], eisenstein


def _extra(j, ks, lifted):
    """A bound on what the weight terms of ks and lifted =
    dim_new_gamma0_signed(p, j + 2) add to M+- in S+-, and to M- - M+ in
    S+ - S-, at each weight."""
    sp, lift, drop = _weight_run(j, ks)[1]
    return sp + drop + (abs(lifted[0]) + abs(lifted[1])) * lift


@lru_cache(maxsize=64, typed=True)
def _packed_weights(j, ks, width):
    """((sp, kept, lift), even): the Siegel term, the Siegel term less the
    minus drop and the lift multiplier of the weights ks at (k, j), packed
    at `width`, and the top bits of the fields at even k."""
    (sp, lift, drop), _, _ = _weight_run(j, ks)
    top = _repeat(1 << width - 1, width, len(ks))
    # in each pair of fields, the top bit of the one at an even k
    pair = 1 << width - 1 + width * (ks.start % 2)
    even = _repeat(pair, 2 * width, (len(ks) + 1) // 2) & top
    terms = sp, list(map(sub, sp, drop)), lift
    return tuple(_pack(t, width, top) for t in terms), even


def _cusp_pair(p, j, ks, m_run, lifted):
    """(S^+, S^-) over the weights ks at (p, j), each packed into one int,
    from the compact side m_run = (M+, M-, width, offset) packed at the
    Young weights of ks and lifted = dim_new_gamma0_signed(p, j + 2);
    NegativeDim at the first k where either field is negative."""
    m_plus, m_minus, width, top = m_run
    sp, kept, lift = _packed_weights(j, ks, width)[0]
    s_plus, s_minus = lifted
    plus = sp + m_minus - s_plus * lift
    minus = kept + m_plus - s_minus * lift
    signs = (plus + top) & (minus + top) & top
    if signs != top:
        n = _first_field(top ^ signs, width)
        raise NegativeDim(f"p={p}, (k,j)=({ks[n]},{j}): got "
                          f"({_field(plus, n, width, top)},{_field(minus, n, width, top)})")
    return plus, minus


def _cusp_run(p, j, ks):
    """(S^+, S^-, width, offset): _cusp_pair at p over ks, a nonempty range
    of consecutive integers k >= 3 (j an even integer >= 0), as a packed
    run in the form that _signed_packed gives."""
    _weight_run(j, ks)  # UnsupportedJ before the level is read
    lifted = dim_new_gamma0_signed(p, j + 2)
    m_run = _signed_packed(p, j, range(ks.start - 3, ks.stop - 3), _extra(j, ks, lifted))
    return (*_cusp_pair(p, j, ks, m_run, lifted), *m_run[2:])


class Formula(namedtuple("Formula", "den rows")):
    """dim_paramodular_signed(p, k, j) as (<plus, I(p)> / den, <minus, I(p)>
    / den), where (plus, minus) = rows[compact._branch(p)]."""

    __slots__ = ()


@lru_cache(maxsize=128, typed=True)
def formula(k, j=0):
    """The Formula of weight det^k Sym(j): den = 5760, and rows maps each
    branch (2, 3, "1 mod 4", "3 mod 4") to a pair (plus, minus) of int
    tuples over compact.INVARIANTS.  The domain is that of
    dim_paramodular_signed: BadYoung unless k >= 3 and j >= 0 are
    integers, zero rows at an odd j, UnsupportedJ at an even j outside
    {0, 2, 4}."""
    _check_weight(k, j)
    size = len(INVARIANTS)
    if j % 2:
        zero = (0,) * size
        return Formula(DEN2, MappingProxyType(dict.fromkeys(_TRIPLES, (zero, zero))))
    sp, lift, drop = _weight_terms(k, j)
    chi = _chi_vector(*young(k, j))
    one = INVARIANTS.index("1")
    rows = {}
    for branch, (m, tr) in _TRIPLES.items():
        plus, minus = [0] * size, [0] * size
        for i, c, x in m:
            plus[x] += c * chi[i]
            minus[x] += c * chi[i]
        for i, c, x in tr:
            plus[x] -= c * chi[i]
            minus[x] += c * chi[i]
        plus[one] += DEN2 * sp
        minus[one] += DEN2 * (sp - drop)
        # DEN2 s+- = 240 (12 total) +- 1440 (twice the difference)
        for (a, b), terms in zip(((240, 240), (1440, -1440)), _newspace(j + 2, branch)):
            for c, x in terms:
                plus[INVARIANTS.index(x)] -= a * lift * c
                minus[INVARIANTS.index(x)] -= b * lift * c
        rows[branch] = tuple(plus), tuple(minus)
    return Formula(DEN2, MappingProxyType(rows))


def dim_weight3(p):
    """(plus, minus) = (H - T, T - 1) in weight 3, from formula(3, 0) at the
    cached I(p); TypeNumberBound unless T <= H <= 2T.  A failed division
    raises what class_and_type(p) raises, or else NonIntegral naming the
    form."""
    inv = _invariants(p)
    form = formula(3, 0)
    pair = []
    for row in form.rows[_branch(p)]:
        num = sum(map(mul, row, inv))
        if num % form.den:
            class_and_type(p)
            raise NonIntegral(f"formula(3, 0) at p={p}: {num}/{form.den} is not an "
                              "integer, but class_and_type passes")
        pair.append(num // form.den)
    plus, minus = pair
    _check_type_number(p, plus + minus + 1, minus + 1)
    return plus, minus


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
    plus, minus = dim_S_signed(p, k)
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


# typed=True keeps 7.0 off the run of 7, so it is refused as a level; an A
# run keeps its S run cached too, so a cold run_checks fills 62 entries
@lru_cache(maxsize=128, typed=True)
def _graded_run(base, p, j, size):
    """The columns (plus, minus) of the base space M, A or S at (p, j) up
    to degree size - 1: M from degree 0, S and A from weight 3, A as the
    cached S run plus the Eisenstein columns."""
    if base == "M":
        return _columns(_signed_packed(p, j, range(size)))
    if base == "A":
        plus, minus = _graded_run("S", p, j, size)
        eis_plus, eis_minus = _weight_run(j, range(3, size))[2]
        return list(map(add, plus, eis_plus)), list(map(add, minus, eis_minus))
    if j % 2:
        check_level(p)
        return [0] * (size - 3), [0] * (size - 3)
    return _columns(_cusp_run(p, j, range(3, size)))


def _space_sequence(p, space, nmax, j=0):
    """Dimension sequence (index 0..nmax) of a graded space.

    S+/S-/A+/A-/A are graded by the weight k; M+/M-/M by the Young
    parameter f of the weight (f + j, f).  The suffix picks the plus or
    the minus column, or their sum.
    """
    _check_space(space, j)
    base, sign = space[0], space[1:]
    first = 0 if base == "M" else 3
    low = [dim_A_signed(p, k) if base == "A" else dim_S_signed(p, k, j)
           for k in range(min(first, nmax + 1))]
    plus, minus = [pair[0] for pair in low], [pair[1] for pair in low]
    if nmax >= first:
        run = _graded_run(base, p, j, max(nmax + 1, _RUN_MIN))
        plus, minus = (head + column[:nmax + 1 - first] for head, column in zip((plus, minus), run))
    if sign:
        return plus if sign == "+" else minus
    return list(map(add, plus, minus))


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

# the length of sequence that the first fallback fit reads; every graded
# run is at least this long
_RUN_MIN = 2 * sum(FALLBACK_DENOMINATORS[0]) + FIT_SLACK + 1


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
    plus, minus = dim_paramodular_signed(p, k)
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
    if not ks:
        return zeros
    for p in primes:
        plus, minus, width, top = _cusp_run(p, 0, ks)
        diff, even = plus - minus, _packed_weights(0, ks, width)[1]
        up, down = (diff + top) & top, (top - diff) & top
        signs = up & even | down & ~even
        if signs != top:
            n = _first_field(top ^ signs, width)
            raise BiasViolation(p, ks[n], (-1) ** ks[n] * _field(diff, n, width, top))
        zero = up & down
        while zero:
            zeros.append((p, ks[_first_field(zero, width)]))
            zero &= zero - 1
    return zeros
