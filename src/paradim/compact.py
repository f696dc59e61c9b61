"""Quaternionic algebraic modular forms on the non-principal genus:
total dimension, Atkin-Lehner trace, signed dimensions, and the class
and type numbers H, T.

DEN * dim M and DEN * tr R are integer combinations of the characters
chi_i(f1, f2), i in CHI_INDEX: `level(p)` applies the constant matrices
M_ROWS and TRACE_ROWS to the level invariants I(p).  dim_M_total and
trace_R divide a dot product with the cached character vector by DEN
exactly, and dim_M_signed splits the two into (plus, minus).

A single weight keeps that chain of three calls (dim, table):
perfbench/tests/test_harness.py counts one dim_M_total call for a dim
command.

Packed runs.  _signed_packed(p, j, f2s, extra) gives dim_M_signed along
the weights w_n = (f2 + j, f2), f2 in the range f2s, from a few
big-integer products (Kronecker substitution), as a run (M+, M-, W, T):
two packed ints, the width W of their fields and the int T whose every
field is 2^(W - 1); _columns unpacks a run into lists.  The weight side
is shared by every prime: _chi_run reads the columns of CHI_INDEX over
the run from characters.chi_columns, and _packed_run packs each into one
int X_i = sum_n chi_i(w_n) 2^(W n) per width W.  The level side reads
level(p) once and forms the two sparse sums sum m_i X_i and
sum tr_i X_i, each over its nonzero coefficients only (at most 6 and 5
big-int products at p > 3), and takes their sum A and difference B,
whose n-th fields are 2 DEN M+ and 2 DEN M- at w_n, that is
A = sum (m_i + tr_i) X_i and B = sum (m_i - tr_i) X_i; CPython's C
loops do every multiply-add of a column at once.  The quotients of A and
B by 2 DEN are M+ and M- packed at W, which paramodular carries on to
S+- and to the signs of S+- and of the bias without unpacking them.

Why it is exact.  Packing is linear: an integer combination of packed
ints packs the same combination of their fields, and digits in
[-2^(W - 1), 2^(W - 1)) to base 2^W are unique, so a packed int whose
fields lie there determines them.  W is the least multiple of 64 above
the bit length of a bound b >= max_n |chi_i(w_n)| for every i; with a,
a' the bounds sum_i |c_i| max_n |chi_i(w_n)| on the fields of A and B
(c = m + tr and m - tr), also b >= 2a, b >= 2a' and
b >= a // (2 DEN) + a' // (2 DEN) + extra.  So every field of a column,
and |M+| + |M-| + extra at each weight, lie below 2^(W - 1), and every
field of A and of B below 2^(W - 2).  paramodular passes as extra what
the Siegel term, the minus drop and the lifts add, so the fields of S+,
S- and S+ - S- lie in range too.  _pack and _unpack cross between such
digits and bytes; adding 2^(W - 1) to each field and flipping its top
bit gives it in two's complement.  The products are Python ints, so nothing can overflow
silently; array("q") only converts fields of W = 64 bits, which fit.

Checks in bulk.  At w_n let t and r be dim M and tr R as rationals: the
numerators that the pointwise chain divides, over DEN.  The fields of A
and B there are DEN (t + r) and DEN (t - r), so 2 DEN divides both
exactly when t and r are integers of one parity: exactly when
dim_M_signed raises nothing at w_n.  One division of A by 2 DEN checks
all its fields.  Let e be the bit length of 2 DEN, h = 2^(W - 1 - e), so
that 2 DEN h < 2^(W - 1), and H, L the ints whose every field is h and
2h - 1.  The check passes when the remainder is 0 and the quotient q
has q + H | L = L: then q + H has digits in [0, 2h), so q has digits u_n
in [-h, h), and |2 DEN u_n| < 2^(W - 1); the digits 2 DEN u_n represent
A, so by uniqueness they are its fields, and the u_n are M+ (of B, M-).
Conversely, if every field of A is 2 DEN u_n, then |u_n| < 2^(W - 2) /
2^(e - 1) = h, q = sum u_n 2^(W n) and the check passes.  Hence it fails
exactly when dim_M_signed fails at some weight of the run, and
replaying dim_M_signed(p, f2 + j, f2) along the run raises, at the first
such weight, the error of the pointwise chain.  That holds while the
packed columns are the characters that dim_M_signed reads: if the replay
raises nothing, they are not, and NonIntegral names the run instead.

Signs in bulk.  For x packed with fields |v_n| < 2^(W - 1), x + T has
the fields v_n + 2^(W - 1) in [0, 2^W): those are its digits to base
2^W, with no carry between fields (the borrow of a negative field is paid
from its own offset), and the top bit of each is set exactly when
v_n >= 0.  So up = (x + T) & T marks the fields v_n >= 0 (up = T when
none is negative, and the lowest set bit of T & ~up is the top bit of the
first negative one), down = (T - x) & T those v_n <= 0, and up & down
those v_n = 0.  paramodular tests S+- so, and the bias (-1)^k (S+ - S-)
from x = S+ - S- alone: with E the top bits of the fields at even k, the
bias is >= 0 exactly at the top bits of up & E | down & ~E, and 0 at
those of up & down.

The level invariants I(p) = _invariants(p) are a tuple of 20 ints, named
by INVARIANTS, and cached once per prime: level reads them, and so do
the callers of paramodular.formula (dim_weight3).  M_ROWS is one table,
since [p = 2] and [p = 3] are invariants; each branch of the trace,
p = 2, p = 3, p = 1 and p = 3 (mod 4), the key _branch(p), has its own
TRACE_ROWS table and its own flat copy of M_ROWS, which drops the terms
of [p = q] where q is another branch's prime.  No
Fraction is on this path: after one primality test of p, `level` takes
the integer 5 B_{2,chi} from kernels.b2_character_sum by one exact
division.

The record Level(m, tr) holds both coefficient vectors once per prime,
indexed by CHI_INDEX.  The character vector _chi_vector(f1, f2) is one
call of characters.chi_values(CHI_INDEX, f1, f2), the run of one of the
columns that _chi_run reads.

Functional equation.  At j = 0 each scalar character series
F_i(t) = sum_{f >= 0} chi_i(f, f) t^f, i in CHI_INDEX, is rational over
(1 - t^120)^4 with F_i(1/t) = t^3 F_i(t) (tests/test_characters.py).
dim M, tr R and so dim M+, dim M- at weight (f, f) are combinations of
the chi_i(f, f) whose coefficients depend on p only, so at every prime
the series sum_f dim M_f t^f, and those of M+ and M-, satisfy the same
equation: their numerators are palindromic up to a power of t, with
l = 3.
"""
import sys
from array import array
from collections import namedtuple
from functools import lru_cache
from itertools import compress, zip_longest
from operator import mul

from .arith import _split_symbols, check_level, class_number
from .characters import chi_columns, chi_values
from .errors import NonIntegral, TypeNumberBound
from .exactmath import exact_quotient, plus_minus
from .kernels import _field_disc, b2_character_sum

# The characters entering dim M (the first ten) or tr R, in the order of
# the coefficients; chi_5 and chi_8 enter neither.
CHI_INDEX = (1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17)

DEN = 2880
DEN2 = 2 * DEN

# I(p), as _invariants returns it: s_d = (d/p), s_p5 = (p/5), d_q = [p = q], b5 =
# 5 B_{2,chi} of Q(sqrt(p)), h_n = h(n), s2_x = (2/p) x; b5, h_n are 0 at p = 2, 3.
INVARIANTS = ("1", "p", "p2", "s_m1", "s_m3", "s_2", "s_3", "s_p5", "p_s_m1", "p_s_m3",
              "d2", "d3", "d5", "b5", "h_p", "h_2p", "h_3p", "s2_b5", "s2_h_p", "s2_h_3p")

# DEN * dim M and DEN * tr R as chi_i -> ((c, x), ...), the sum of
# chi_i * c * I[x].
M_ROWS = {
    1: ((1, "p2"), (-1, "1")), 2: ((15, "d2"),), 3: ((180, "d2"),), 4: ((320, "d3"),),
    6: ((120, "p"), (-120, "s_m1"), (30, "p_s_m1"), (-30, "1")),
    7: ((120, "p"), (-120, "s_m3"), (40, "p_s_m3"), (-40, "1")),
    9: ((480, "d2"),), 10: ((576, "1"), (-576, "s_p5")), 11: ((360, "1"), (-360, "s_2")),
    12: ((120, "1"), (-120, "s_3"), (120, "s_m1"), (-120, "s_m3")),
}
TRACE_ROWS = {
    2: {2: ((60, "1"),), 6: ((180, "1"),), 9: ((480, "1"),), 11: ((900, "1"),),
        14: ((60, "1"),), 15: ((480, "1"),), 16: ((720, "1"),)},
    3: {2: ((120, "1"),), 6: ((120, "1"),), 9: ((960, "1"),), 11: ((720, "1"),),
        17: ((960, "1"),)},
    "1 mod 4": {2: ((54, "b5"), (-12, "s2_b5")), 6: ((180, "h_p"),), 11: ((360, "h_2p"),),
                9: ((720, "h_3p"), (240, "s2_h_3p")), 13: ((576, "d5"),)},
    "3 mod 4": {2: ((6, "b5"),), 6: ((180, "h_p"), (-180, "s2_h_p")), 9: ((240, "h_3p"),),
                11: ((360, "h_2p"),)},
}


def _triples(rows, branch):
    """rows as flat (chi position, coefficient, invariant position) triples,
    without the terms of d2 and d3 that are 0 on `branch`."""
    return tuple((CHI_INDEX.index(i), c, INVARIANTS.index(x))
                 for i, terms in rows.items() for c, x in terms
                 if x not in ("d2", "d3") or x == f"d{branch}")


# per branch, the triples of M_ROWS and of its TRACE_ROWS table
_TRIPLES = {branch: (_triples(M_ROWS, branch), _triples(rows, branch))
            for branch, rows in TRACE_ROWS.items()}


class Level(namedtuple("Level", "m tr")):
    """dim M = (m . chi) / DEN and tr R = (tr . chi) / DEN at one level.  (Not a
    dataclass or a typing.NamedTuple: those load inspect and typing at import.)"""

    __slots__ = ()


def _branch(p):
    """The key of TRACE_ROWS and _TRIPLES at the prime p."""
    return p if p < 5 else "1 mod 4" if p % 4 == 1 else "3 mod 4"


# typed, so that 7.0 misses the entry of 7 and is refused
@lru_cache(maxsize=None, typed=True)
def _invariants(p):
    """I(p) as a tuple of ints; NotPrimeLevel unless p is a prime int,
    NonIntegral if 5 B_{2,chi} is not an integer."""
    check_level(p)
    s_m1, s_m3, s_2, s_3, s_p5 = _split_symbols(p)
    b5 = h_p = h_2p = h_3p = 0
    if p > 3:
        D0 = _field_disc(p)
        b5 = exact_quotient(5 * b2_character_sum(D0), D0, "5 B_2,chi({})", p)
        h_p, h_2p, h_3p = class_number(p), class_number(2 * p), class_number(3 * p)
    return (1, p, p * p, s_m1, s_m3, s_2, s_3, s_p5, p * s_m1, p * s_m3, int(p == 2),
            int(p == 3), int(p == 5), b5, h_p, h_2p, h_3p, s_2 * b5, s_2 * h_p, s_2 * h_3p)


def _apply(triples, inv):
    """sum(c * inv[x]) at each chi position i of the triples (i, c, x),
    cut after the last nonzero entry, where a dot product may stop."""
    out = [0] * len(CHI_INDEX)
    for i, c, x in triples:
        out[i] += c * inv[x]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


@lru_cache(maxsize=None)
def level(p):
    """The coefficient record of the prime level p; NotPrimeLevel for any
    other p."""
    inv = _invariants(p)
    m, tr = _TRIPLES[_branch(p)]
    return Level(_apply(m, inv), _apply(tr, inv))


# typed, so that (2.0, 2.0) misses the entry of (2, 2) and is refused
@lru_cache(maxsize=None, typed=True)
def _chi_vector(f1, f2):
    """The characters of CHI_INDEX at (f1, f2), which chi_values checks."""
    return chi_values(CHI_INDEX, f1, f2)


def dim_M_total(p, f1, f2):
    """Total dimension of the space of algebraic modular forms with Young
    parameters (f1, f2) at prime level p (both genera conventions fixed
    to the non-principal one)."""
    num = sum(map(mul, level(p).m, _chi_vector(f1, f2)))
    return exact_quotient(num, DEN, "dim M({},{},{})", p, f1, f2)


def trace_R(p, f1, f2):
    """Trace of the Atkin-Lehner operator on the same space."""
    num = sum(map(mul, level(p).tr, _chi_vector(f1, f2)))
    return exact_quotient(num, DEN, "trace R({},{},{})", p, f1, f2)


def dim_M_signed(p, f1, f2):
    """Signed (Atkin-Lehner eigenspace) dimensions (plus, minus): half the
    sum and half the difference of dim_M_total and trace_R."""
    return plus_minus(dim_M_total(p, f1, f2), trace_R(p, f1, f2), "M({},{},{})", p, f1, f2)


# The run records are keyed by the range f2s, typed so that j = 2.0 misses
# the entry of j = 2; a run is asked for at every prime of a grid.
@lru_cache(maxsize=64, typed=True)
def _chi_run(j, f2s):
    """(columns, tops): the columns of CHI_INDEX along the weights
    (f2 + j, f2), f2 in the range f2s, and max |chi_i| over each."""
    columns = chi_columns(CHI_INDEX, f2s.start + j, f2s.start, len(f2s))
    return columns, tuple(max(map(abs, column), default=0) for column in columns)


@lru_cache(maxsize=64, typed=True)
def _packed_run(j, f2s, width):
    """(X, offset): the columns of the run packed at `width`, and the offset
    that _pack and _unpack take there."""
    offset = _repeat(1 << width - 1, width, len(f2s))
    return tuple(_pack(column, width, offset) for column in _chi_run(j, f2s)[0]), offset


def _width(bound):
    """W for `bound` (see "Why it is exact"): fields of W bits hold every v
    with |v| <= bound."""
    return 64 * (bound.bit_length() // 64 + 1)


def _repeat(field, width, n):
    """sum_t field 2^(width t) over t < n, for 0 <= field < 2^width."""
    return int.from_bytes(field.to_bytes(width // 8, "little") * n, "little")


def _field(x, n, width, top):
    """Field n of x packed at `width`, top the top bit of every field."""
    return ((x + top) >> width * n & (1 << width) - 1) - (1 << width - 1)


def _first_field(bits, width):
    """The index of the field that holds the lowest set bit of bits > 0."""
    return ((bits & -bits).bit_length() - 1) // width


def _native(width):
    """Whether a field of `width` bits is one little-endian array("q") item."""
    return width == 64 and sys.byteorder == "little" and array("q").itemsize == 8


def _pack(values, width, offset):
    """sum_n values[n] 2^(width n), for |values[n]| < 2^(width - 1): the
    fields in two's complement, each top bit flipped by `offset` (one
    2^(width - 1) per field), and the offset taken off again."""
    if _native(width):
        data = array("q", values).tobytes()
    else:
        data = b"".join(v.to_bytes(width // 8, "little", signed=True) for v in values)
    return (int.from_bytes(data, "little") ^ offset) - offset


def _unpack(x, width, offset):
    """The values that _pack(values, width, offset) packs into x, one per
    field of the offset."""
    data = ((x + offset) ^ offset).to_bytes(offset.bit_length() // 8, "little")
    if _native(width):
        return array("q", data).tolist()
    size = width // 8
    return [int.from_bytes(data[i:i + size], "little", signed=True)
            for i in range(0, len(data), size)]


def _signed_packed(p, j, f2s, extra=0):
    """(plus, minus, width, offset): the columns of dim_M_signed(p, f2 + j,
    f2) over the range f2s, packed at `width` with the top bit of every
    field in `offset`, from one lookup of level(p).  Fields
    of that width also hold every v with |v| <= |M+| + |M-| + extra at
    each weight of the run.  A failed bulk check replays dim_M_signed
    along the run."""
    m, tr = level(p)
    tops = _chi_run(j, f2s)[1]
    combos = [[a + b for a, b in zip_longest(m, tr, fillvalue=0)],
              [a - b for a, b in zip_longest(m, tr, fillvalue=0)]]
    bounds = [sum(map(mul, map(abs, c), tops)) for c in combos]
    width = _width(max(max(tops, default=0), 2 * max(bounds),
                       sum(b // DEN2 for b in bounds) + extra))
    packed, offset = _packed_run(j, f2s, width)
    # H and L of "Checks in bulk": h and 2h - 1 in every field
    h = offset >> DEN2.bit_length()
    low = (h << 1) - (offset >> width - 1)
    # sum m_i X_i and sum tr_i X_i over their nonzero coefficients
    total, trace = (sum(map(mul, compress(c, c), compress(packed, c))) for c in (m, tr))
    quotients = []
    for value in (total + trace, total - trace):
        q, r = divmod(value, DEN2)
        if r or (q + h) | low != low:
            for f2 in f2s:
                dim_M_signed(p, f2 + j, f2)
            raise NonIntegral(f"packed run p={p}, j={j}, f2 in {f2s}: the bulk check "
                              "fails, but dim_M_signed passes at every weight")
        quotients.append(q)
    return (*quotients, width, offset)


def _columns(run):
    """The columns (plus, minus) of a packed run (plus, minus, width,
    offset) as lists."""
    plus, minus, width, offset = run
    return _unpack(plus, width, offset), _unpack(minus, width, offset)


def class_and_type(p):
    """Class number H and type number T of the non-principal genus: the
    plus space at weight (0, 0) has dimension T, the minus space H - T."""
    T, H_minus_T = dim_M_signed(p, 0, 0)
    H = T + H_minus_T
    _check_type_number(p, H, T)
    return H, T


def _check_type_number(p, H, T):
    """TypeNumberBound unless T <= H <= 2T."""
    if not T <= H <= 2 * T:
        raise TypeNumberBound(f"p = {p}: H = {H} and T = {T} violate T <= H <= 2T")
