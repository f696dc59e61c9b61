from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from paradim import compact, paramodular
from paradim.arith import primes_up_to
from paradim.characters import CHI_TABLE, young
from paradim.cli import main
from paradim.compact import (
    CHI_INDEX,
    DEN,
    M_ROWS,
    TRACE_ROWS,
    Level,
    _signed_run,
    dim_M_signed,
)
from paradim.data import load_json
from paradim.elliptic import (
    dim_cusp_level1,
    dim_modular_level1,
    dim_new_gamma0,
    dim_new_gamma0_signed,
)
from paradim.errors import (
    BadSpace,
    BadYoung,
    BiasViolation,
    MissingData,
    MissingJacobiData,
    NegativeDim,
    NonIntegral,
    NotPrimeLevel,
    ParadimError,
    ParityFailure,
    UnsupportedJ,
)
from paradim.exactmath import RationalGF, is_palindromic, series_coeffs
from paradim.paramodular import (
    FALLBACK_DENOMINATORS,
    _lifted_newspace,
    _signed_grid,
    _weight_terms,
    bias,
    check_bias_region,
    dim_A_signed,
    dim_paramodular_signed,
    dim_S_signed,
    dim_weight3,
    hilbert_series,
    printed_series,
    search_weight3_zero,
)
from paradim.siegel1 import LEVEL1_SERIES, dim_cusp_sp4


def test_odd_j_is_zero():
    assert dim_paramodular_signed(7, 5, 3) == (0, 0)


@pytest.mark.parametrize("k, j", [(1, 1), (4, -1), (-5, 3), (2, 0), (5, -2)])
def test_weight_outside_domain_is_refused(k, j):
    # odd j with k < 3 or j < 0 used to give the zero space
    with pytest.raises(BadYoung):
        dim_paramodular_signed(7, k, j)


@pytest.mark.parametrize("k, j", [(4, 0.5), (4.5, 0), (4.0, 0), ("4", 0), (4, 2.0)])
def test_non_integer_weight_is_refused(k, j):
    # (4, 0.5) used to give the zero space and (4.5, 0) a bare TypeError
    with pytest.raises(BadYoung):
        dim_paramodular_signed(7, k, j)


@pytest.mark.parametrize("k", [0.0, 1.0, 2.0, 2.5, 4.0, "4"])
def test_non_integer_weight_of_full_space_is_refused(k):
    # 0.0, 1.0 and 2.0 used to give (1, 0), (0, 0) and the Jacobi value
    with pytest.raises(BadYoung):
        dim_A_signed(37, k)


@pytest.mark.parametrize("func, args", [
    pytest.param(dim_cusp_level1, (12.0,), id="dim_cusp_level1(12.0)"),
    pytest.param(dim_cusp_level1, (13.0,), id="dim_cusp_level1(13.0)"),
    pytest.param(dim_modular_level1, (12.0,), id="dim_modular_level1(12.0)"),
    pytest.param(dim_modular_level1, (0.0,), id="dim_modular_level1(0.0)"),
    pytest.param(dim_new_gamma0, (7, 4.0), id="dim_new_gamma0(7,4.0)"),
    pytest.param(dim_new_gamma0_signed, (7, 4.0), id="dim_new_gamma0_signed(7,4.0)"),
    pytest.param(dim_cusp_sp4, (10, 2.0), id="dim_cusp_sp4(10,2.0)"),
    pytest.param(dim_cusp_sp4, (10.0,), id="dim_cusp_sp4(10.0)"),
    pytest.param(hilbert_series, (7, "A", 0.0), id="hilbert_series(7,A,0.0)"),
    pytest.param(dim_S_signed, (7, 2.0), id="dim_S_signed(7,2.0)"),
    pytest.param(dim_S_signed, (7, 2, 2.0), id="dim_S_signed(7,2,2.0)"),
    pytest.param(dim_S_signed, (7, -1), id="dim_S_signed(7,-1)"),
])
def test_non_integer_weight_is_typed_error(func, args):
    # the level-1, Gamma_0(p) and Sp(4, Z) dimensions raised a bare
    # TypeError or returned a number, and the series was returned
    with pytest.raises(BadYoung):
        func(*args)


def test_signed_entry_points_return_int_pairs():
    values = [dim_paramodular_signed(7, 4), dim_paramodular_signed(61, 4, 2),
              dim_paramodular_signed(7, 5, 3), dim_M_signed(83, 1, 1),
              dim_M_signed(7, 0, 0), dim_A_signed(37, 2), dim_A_signed(11, 6),
              dim_weight3(167), dim_new_gamma0_signed(11, 12)]
    for value in values:
        assert type(value) is tuple and len(value) == 2, value
        assert all(type(x) is int for x in value), value


@pytest.mark.parametrize("p, k", [(65, 8), (9, 4), (1, 4), (0, 4), (-7, 4), (7.0, 4)])
def test_non_prime_level_is_refused(p, k):
    # 65 used to give (124, 27); 9, 1 and 0 a misleading DSquare; 7.0 a
    # bare TypeError
    with pytest.raises(NotPrimeLevel):
        dim_paramodular_signed(p, k)
    # the level is checked before the weight: j = 6 used to raise UnsupportedJ
    for j in (1, 2, 4, 6):
        with pytest.raises(NotPrimeLevel):
            dim_paramodular_signed(p, k, j)
    for weight in (0, 1, 2, k):
        with pytest.raises(NotPrimeLevel):
            dim_A_signed(p, weight)


def test_warm_records_still_refuse_non_int_input():
    # an untyped record keyed (7, 4.0) would hit the entry of (7, 4)
    dim_paramodular_signed(7, 4, 2)
    for args in ((7, 4.0, 2), (7, 4, 2.0)):
        with pytest.raises(BadYoung):
            dim_paramodular_signed(*args)
    with pytest.raises(NotPrimeLevel):
        dim_paramodular_signed(7.0, 4, 2)
    with pytest.raises(BadYoung):
        _weight_terms(4.0, 2)
    with pytest.raises(BadYoung):
        _weight_terms(4, 2.0)
    with pytest.raises(NotPrimeLevel):
        _lifted_newspace(7.0, 2)


def test_table_spot_checks():
    cases = {
        (7, 4): (1, 0),
        (83, 4): (18, 1),
        (607, 4): (565, 161),
        (47, 5): (1, 15),
        (47, 6): (27, 3),
        (277, 8): (1761, 768),
        (47, 10): (128, 39),
    }
    for (p, k), (sp, sm) in cases.items():
        assert dim_paramodular_signed(p, k) == (sp, sm), (p, k)


def test_weight3():
    assert dim_weight3(7) == (0, 0)
    assert dim_weight3(167) == (1, 18)  # smallest prime with a plus form
    for p in (2, 3, 5, 191, 241):
        assert dim_weight3(p)[0] == 0, p


def test_weight3_search():
    zeros = search_weight3_zero(260)
    assert 241 in zeros and 251 not in zeros
    assert all(p <= 163 or p in (179, 181, 191, 193, 199, 211, 229, 241)
               for p in zeros)


def test_weight3_routes_agree():
    # search zero3 reads (H - T, T - 1) from class_and_type; bias reads the
    # general assembly with its [k = 3] term
    for p in primes_up_to(3499):
        assert dim_weight3(p) == dim_paramodular_signed(p, 3), p


def test_weight3_search_bound_must_be_integer():
    # 10.5 used to raise a bare TypeError
    with pytest.raises(ParadimError):
        search_weight3_zero(10.5)


def test_weight3_zero_list_is_exhaustive_to_20000():
    # the exhaustive oracle for a certified list: no weight-3 plus form
    # vanishes between 241 and 20 000
    assert search_weight3_zero(20000) == load_json("weight3.json")["zero"]


def test_newform_dimensions_nonnegative():
    # level-1 old forms embed once into each sign, except that the
    # Saito-Kurokawa part (j = 0, even k) misses the minus space; the
    # remaining newform dimensions must be nonnegative
    for p in primes_up_to(60):
        for j in (0, 2):
            for k in range(3, 25):
                plus, minus = dim_paramodular_signed(p, k, j)
                sp2 = dim_cusp_sp4(k, j)
                sk = dim_cusp_level1(2 * k - 2) if j == 0 and k % 2 == 0 else 0
                assert plus - sp2 >= 0, (p, k, j, "plus")
                assert minus - (sp2 - sk) >= 0, (p, k, j, "minus")


def test_dim_A_low_weights():
    assert dim_A_signed(7, 0) == (1, 0)
    assert dim_A_signed(7, 1) == (0, 0)
    assert dim_A_signed(7, 2) == (0, 0)
    # weight-2 cusp forms are Gritsenko lifts, all in the plus space
    plus, minus = dim_A_signed(37, 2)
    assert plus > 0 and minus == 0
    # beyond the old embedded Jacobi table (p <= 97), read from the newspace
    assert dim_A_signed(101, 2) == (dim_new_gamma0_signed(101, 2)[0], 0) == (1, 0)
    with pytest.raises(MissingJacobiData):
        dim_A_signed(277, 2)
    with pytest.raises(BadYoung):
        dim_A_signed(7, -1)


def test_cusp_pair_every_weight():
    for p in (2, 3, 37, 101, 277):
        for j in (0, 1, 2, 4):
            for k in range(3, 20):
                assert dim_S_signed(p, k, j) == dim_paramodular_signed(p, k, j)
            assert dim_S_signed(p, 0, j) == dim_S_signed(p, 1, j) == (0, 0)
            if j:
                assert dim_S_signed(p, 2, j) == (0, 0)
        for k in range(0, 30):
            if p < 277 or k != 2:
                plus, minus = dim_S_signed(p, k)
                assert dim_A_signed(p, k) == (plus + dim_modular_level1(k),
                                              minus + dim_cusp_level1(k))
    with pytest.raises(MissingJacobiData):
        dim_S_signed(277, 2)
    with pytest.raises(NotPrimeLevel):
        dim_S_signed(9, 1)


def test_bias_nonnegative_small():
    for p in primes_up_to(50):
        for k in range(3, 40):
            assert bias(p, k) >= 0, (p, k)


def test_bias_zero_pairs_small():
    assert check_bias_region(7, 10) == [
        (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9),
        (3, 3), (3, 4), (3, 5), (3, 7), (5, 3), (5, 4), (7, 3),
    ]


@pytest.mark.parametrize("kmax", [5.5, 10.0, "10"])
def test_bias_region_weight_bound_must_be_integer(kmax):
    # 5.5 and "10" raised a bare TypeError from range, and 10.0 as well
    with pytest.raises(ParadimError):
        check_bias_region(10, kmax)


@pytest.mark.parametrize("lifted", [(10**6, 0), (0, 10**6)])
def test_a_negative_dimension_is_refused(monkeypatch, lifted):
    # more lifts than the whole space holds would leave S^+ or S^- negative;
    # at k = 12 each lift counts dim S_22(SL_2(Z)) = 1 times
    monkeypatch.setattr(paramodular, "_lifted_newspace", lambda p, j: lifted)
    with pytest.raises(NegativeDim, match=r"p=7, \(k,j\)=\(12,0\)"):
        dim_paramodular_signed(7, 12)


def test_a_negative_bias_is_refused(monkeypatch, capsys):
    # one pair with minus > plus in even weight inside the rectangle, put in
    # by the assembly that the pointwise route and the grid share
    monkeypatch.setattr(paramodular, "_cusp_pair",
                        lambda p, k, *terms: (0, 1) if (p, k) == (3, 4) else (0, 0))
    assert bias(3, 4) == -1
    with pytest.raises(BiasViolation) as exc:
        check_bias_region(5, 6)
    assert (exc.value.p, exc.value.k, exc.value.value) == (3, 4, -1)
    assert main(["bias", "--pmax", "5", "--kmax", "6"]) == 3
    assert capsys.readouterr() == ("", "error: bias(3, 4) = -1 < 0\n")


# p = 2, 3, 5 and both classes mod 4 of the generic branch
GRID_PRIMES = primes_up_to(200)
GRID_KS = range(3, 131)


@pytest.mark.parametrize("j", [0, 2, 4])
def test_grid_is_the_pointwise_route(j):
    grid = list(_signed_grid(GRID_PRIMES, j, GRID_KS))
    assert grid == [[dim_paramodular_signed(p, k, j) for k in GRID_KS] for p in GRID_PRIMES]
    weights = [young(k, j) for k in GRID_KS]
    for p in GRID_PRIMES:
        assert _signed_run(p, weights) == [dim_M_signed(p, *w) for w in weights], p


def test_grid_at_odd_j_is_zero():
    assert list(_signed_grid([2, 7, 199], 3, range(3, 7))) == [[(0, 0)] * 4] * 3
    assert [dim_paramodular_signed(7, k, 3) for k in range(3, 7)] == [(0, 0)] * 4
    with pytest.raises(NotPrimeLevel):
        list(_signed_grid([7, 9], 3, range(3, 7)))
    assert list(_signed_grid([9], 0, range(3, 3))) == []


def _raised(call):
    """(type, message) of the ParadimError that call() raises."""
    with pytest.raises(ParadimError) as exc:
        call()
    return type(exc.value), str(exc.value)


def _both_routes(p, j, ks, compact_too=True):
    """What dim_paramodular_signed at each k of ks in turn, and the grid of
    p, raise; with compact_too, also what dim_M_signed and _signed_run
    raise at the Young weights of ks."""
    weights = [young(k, j) for k in ks]
    routes = [lambda: [dim_paramodular_signed(p, k, j) for k in ks],
              lambda: list(_signed_grid([p], j, ks))]
    if compact_too:
        routes += [lambda: [dim_M_signed(p, *w) for w in weights],
                   lambda: _signed_run(p, weights)]
    return [_raised(route) for route in routes]


@pytest.mark.parametrize("dm, dtr, error, message", [
    (1, 0, NonIntegral, "dim M(7,0,0) = 2881/2880 is not an integer"),
    (0, 1, NonIntegral, "trace R(7,0,0) = 2881/2880 is not an integer"),
    (DEN, 0, ParityFailure, "M(7,0,0): total 2 and difference 1 have opposite parity"),
])
def test_a_bent_level_raises_alike_on_both_routes(monkeypatch, dm, dtr, error, message):
    # chi_1 is the degree of the representation, 1 at (0, 0): one more on
    # its coefficient gives an odd numerator, DEN more flips the parity
    lev = compact.level(7)
    bent = Level((lev.m[0] + dm,) + lev.m[1:], (lev.tr[0] + dtr,) + lev.tr[1:])
    monkeypatch.setattr(compact, "level", lambda p: bent)
    assert set(_both_routes(7, 0, range(3, 12))) == {(error, message)}


def test_a_bent_character_raises_alike_at_its_weight(monkeypatch):
    # one more chi_1 at (5, 5) alone: the routes agree up to k = 8 and both
    # stop there
    chi = compact._chi_vector

    def bent(f1, f2):
        values = chi(f1, f2)
        return (values[0] + 1,) + values[1:] if (f1, f2) == (5, 5) else values

    monkeypatch.setattr(compact, "_chi_vector", bent)
    (error, message), = set(_both_routes(7, 0, range(3, 12)))
    assert error is NonIntegral and message.startswith("dim M(7,5,5) = ")


def test_a_negative_dimension_raises_alike_on_both_routes(monkeypatch):
    terms = paramodular._weight_terms
    monkeypatch.setattr(paramodular, "_weight_terms",
                        lambda k, j: (-10**6, 0, 0) if k == 9 else terms(k, j))
    assert set(_both_routes(7, 0, range(3, 20), compact_too=False)) == {
        (NegativeDim, "p=7, (k,j)=(9,0): got (-1000000,-999995)")}


def test_printed_series_expansion():
    gf = printed_series(2, "S+")
    seq = series_coeffs(gf, 13)
    assert seq[8] == 1 and seq[10] == 1 and seq[12] == 2
    with pytest.raises(MissingData):
        printed_series(101, "S+")


def test_printed_series_checks_level_space_and_j():
    # (7, "A", 0.0) and (7.0, "A", 0) hashed like (7, "A", 0) and returned
    # that series; an unknown space raised MissingData
    with pytest.raises(NotPrimeLevel):
        printed_series(7.0, "A")
    with pytest.raises(BadYoung):
        printed_series(7, "A", 0.0)
    with pytest.raises(BadSpace):
        printed_series(7, "Q")
    with pytest.raises(UnsupportedJ):
        printed_series(7, "A", 2)
    # M is not graded at an odd j; this used to raise MissingData
    with pytest.raises(BadYoung):
        printed_series(7, "M", 3)


def test_hilbert_series_matches_printed():
    for p, space in ((2, "M"), (5, "A+"), (5, "S-"), (7, "A")):
        hs = hilbert_series(p, space)
        printed = printed_series(p, space)
        assert hs.gf.numerator == printed.numerator
        assert hs.gf.denom_exponents == printed.denom_exponents


def test_hilbert_series_equality():
    # RationalGF compared by identity, so two fits of one series differed
    assert hilbert_series(7, "A") == hilbert_series(7, "A")
    assert hilbert_series(7, "A") != hilbert_series(7, "A+")
    for rec in load_json("hilbert_series.json"):
        p, space, j = rec["p"], rec["space"], rec.get("j", 0)
        assert printed_series(p, space, j) == hilbert_series(p, space, j).gf, (p, space, j)


def test_hilbert_series_fields():
    hs = hilbert_series(7, "A")
    assert (hs.p, hs.space) == (7, "A")
    assert hs.gf.numerator == printed_series(7, "A").numerator


def test_hilbert_series_fallback():
    # no printed presentation for p = 11; the fit must still succeed and
    # reproduce the directly computed dimensions
    hs = hilbert_series(11, "S+")
    from paradim.paramodular import _space_sequence
    n = 60
    assert series_coeffs(hs.gf, n + 1) == _space_sequence(11, "S+", n)
    assert len(hs.gf.denom_exponents) % 2 == 0


def _degree_in_f(factor):
    """The degree in f of a CHI_TABLE factor F(u, v) along the graded weights
    (f + j, f), where u = f + 1 and v = f + j + 2: the number of finite
    differences in f it takes to vanish, less one, the largest over j < 24
    (its f^e coefficient is a polynomial in j of degree below 5)."""
    degree = 0
    for j in range(0, 24, 2):
        vals, d = [factor(f + 1, f + j + 2) for f in range(8)], -1
        while any(vals):
            vals, d = [b - a for a, b in zip(vals, vals[1:])], d + 1
        degree = max(degree, d)
    return degree


def _product(exponents):
    """prod (1 - t^a) over the exponents, as an ascending coefficient list."""
    c = [1]
    for a in exponents:
        c = [x - (c[i - a] if i >= a else 0) for i, x in enumerate(c + [0] * a)]
    return c


def _divides(divisor, exponents):
    """Whether prod (1 - t^L) over `divisor` divides prod (1 - t^a) over
    `exponents`, by exact division: c / (1 - t^L) is the prefix sum of c with
    stride L, a polynomial iff its last L coefficients vanish, as they then
    do from there on."""
    c = _product(exponents)
    for length in divisor:
        for i in range(length, len(c)):
            c[i] += c[i - length]
        if len(c) <= length or any(c[-length:]):
            return False
        c = c[:-length]
    return True


def test_fallback_denominators_are_true_denominators():
    # The proof behind FALLBACK_DENOMINATORS, by polynomial division alone.
    # Every graded series is a combination, with coefficients fixed by p and
    # j, of the character series sum_f chi_i(f + j, f) t^f, the level-1
    # Siegel series, sum_k dim M_k or dim S_k(SL_2(Z)) t^k, the lift factor
    # sum_k dim S_{2k+j-2} t^k times the signed newspace, and a polynomial
    # of degree <= 2 at weights <= 2; the S and A spaces shift the character
    # series by t^3.  Each piece is proper over its denominator but the
    # level-1 series (numerator degree <= 35 over 32), so over `first` no
    # numerator passes degree 35, and over `last` none passes 483, both below
    # the fit's degree bound.  A fit over a true denominator with such a
    # numerator is exact.
    first, last = FALLBACK_DENOMINATORS[0], FALLBACK_DENOMINATORS[-1]
    assert FALLBACK_DENOMINATORS == [[4, 6, 10, 12], [4, 6, 8, 12], [120] * 4]
    bound = paramodular.FIT_SLACK - 1  # hilbert_series fits degrees <= sum(den) + bound
    assert 35 < sum(first) + bound and 483 < sum(last) + bound
    # A CHI_TABLE term is a row of length L read at k = f + 3 under a factor of
    # degree d in f, so its series is over (1 - t^L)^(d + 1).
    for i in CHI_INDEX:
        for factor, rows in CHI_TABLE[i][1]:
            d = _degree_in_f(factor)
            for row in rows:
                assert _divides([len(row)] * (d + 1), last), (i, row)
                assert i == 16 or _divides([len(row)] * (d + 1), first), (i, row)
    # chi_16's rows have length 8 and are antiperiodic, so its series is over
    # 1 + t^4, which does not divide `first` (nor does 1 - t^8 divide
    # (1 - t^4) first); chi_16 enters only the trace at p = 2.  So only the
    # signed series at p = 2 have poles off the roots of `first`.
    ((factor, rows),) = CHI_TABLE[16][1]
    assert _degree_in_f(factor) == 0
    assert all(len(row) == 8 and row[4:] == tuple(-x for x in row[:4]) for row in rows)
    assert not _divides([8], first + [4]) and _divides([8], FALLBACK_DENOMINATORS[1])
    assert 16 not in M_ROWS and [b for b, rows in TRACE_ROWS.items() if 16 in rows] == [2]
    # the level-1 and weight <= 2 pieces
    for gf in LEVEL1_SERIES.values():
        assert list(gf.denom_exponents) == first and len(gf.numerator) - 1 <= 35
    assert _divides([4, 6], first) and _divides([2, 3], first)
    n = 120
    assert series_coeffs(RationalGF((1,), [4, 6]), n) == [dim_modular_level1(k) for k in range(n)]
    assert series_coeffs(RationalGF((0,) * 12 + (1,), [4, 6]), n) == [
        dim_cusp_level1(k) for k in range(n)]
    for j in (0, 2, 4):
        lift = RationalGF((0,) * ((14 - j) // 2) + (1,), [2, 3])
        assert series_coeffs(lift, n) == [_weight_terms(k, j)[1] for k in range(n)]


def test_full_plus_minus_series_at_2_agree_on_600_terms():
    # The one fit the per-term argument leaves open: A+ and A- at p = 2 are
    # signed, yet fit over [4, 6, 8, 12], which lacks the period 5 of chi_10,
    # because that part cancels against the level-1 series.  Both sides are
    # N / (1 - t^120)^4: the true series with deg N <= 483 (the test above),
    # the fit with deg N = deg Q + 480 - sum(den).  Agreement on more terms
    # than both degrees forces equal numerators.
    for space in ("A+", "A-"):
        gf = hilbert_series(2, space).gf
        assert list(gf.denom_exponents) == FALLBACK_DENOMINATORS[1]
        assert max(483, len(gf.numerator) - 1 + 480 - sum(gf.denom_exponents)) < 600
        assert series_coeffs(gf, 600) == paramodular._space_sequence(2, space, 599)


@pytest.mark.parametrize("p, space, j, den", [
    (3, "M", 2, [4, 6, 10, 12]), (2, "A+", 0, [4, 6, 8, 12]), (2, "M+", 6, [120] * 4)])
def test_first_fallback_denominator_to_fit(p, space, j, den):
    # one unprinted witness for each candidate
    assert (p, space, j) not in paramodular._printed_registry()
    assert list(hilbert_series(p, space, j).gf.denom_exponents) == den


def test_full_plus_series_at_2_takes_two_fit_attempts(monkeypatch):
    # [4, 6, 10, 12] lacks chi_16's poles, and [4, 6, 8, 12] fits (five
    # attempts while three candidates that never fit first came before it)
    tried = []
    fit = paramodular.fit_numerator

    def counted(seq, denoms, max_deg):
        tried.append(denoms)
        return fit(seq, denoms, max_deg)

    monkeypatch.setattr(paramodular, "fit_numerator", counted)
    hilbert_series(2, "A+")
    assert tried == [[4, 6, 10, 12], [4, 6, 8, 12]]


def test_hilbert_series_minus_beyond_jacobi_table():
    # the weight-2 minus space is 0 below the first non-lift, where every
    # weight-2 form is a lift of sign +1, and refused from p = 277 on
    gf = hilbert_series(101, "S-").gf
    coeffs = series_coeffs(gf, 41)
    assert coeffs[:3] == [0, 0, 0]
    assert coeffs[3:] == [dim_paramodular_signed(101, k)[1] for k in range(3, 41)]
    with pytest.raises(MissingJacobiData):
        hilbert_series(277, "S-")


def test_hilbert_series_plus_beyond_jacobi_table():
    # the weight-2 plus space is the plus part of S_2^new(Gamma_0(p)) below
    # p = 277, also beyond the old embedded Jacobi table (p <= 97)
    gf = hilbert_series(101, "S+").gf
    coeffs = series_coeffs(gf, 41)
    assert coeffs[:3] == [0, 0, dim_new_gamma0_signed(101, 2)[0]] == [0, 0, 1]
    assert coeffs[3:] == [dim_paramodular_signed(101, k)[0] for k in range(3, 41)]
    with pytest.raises(MissingJacobiData):
        hilbert_series(277, "S+")


def test_weight2_below_the_first_non_lift():
    stored = load_json("palindromic.json")
    pal_full, pal_plus = [], []
    for p in primes_up_to(276):
        assert dim_A_signed(p, 2) == (dim_new_gamma0_signed(p, 2)[0], 0), p
        assert series_coeffs(hilbert_series(p, "S+").gf, 3)[2] == dim_A_signed(p, 2)[0]
        hilbert_series(p, "A-")
        if is_palindromic(hilbert_series(p, "A").gf):
            pal_full.append(p)
        if is_palindromic(hilbert_series(p, "A+").gf):
            pal_plus.append(p)
    # no palindromic numerator between 100 and 276 beyond the lists for p < 100
    assert pal_full == stored["A"]
    assert pal_plus == stored["A_plus"]
    for space in ("S+", "S-", "A", "A+", "A-"):
        with pytest.raises(MissingJacobiData):
            hilbert_series(277, space)


def test_full_space_series_at_211():
    for space, pick in (("A", sum), ("A+", itemgetter(0)), ("A-", itemgetter(1))):
        gf = hilbert_series(211, space).gf
        assert series_coeffs(gf, 121) == [pick(dim_A_signed(211, k)) for k in range(121)], space
    assert dim_A_signed(211, 2) == (dim_new_gamma0_signed(211, 2)[0], 0)
    assert dim_A_signed(211, 2)[0] > 0


def test_unknown_space_is_refused():
    # an unknown space used to give the S- series
    from paradim.paramodular import _space_sequence
    for space in ("bogus", "S", "s+", "", None):
        with pytest.raises(ParadimError):
            hilbert_series(5, space)
        with pytest.raises(ParadimError):
            _space_sequence(5, space, 10)


def test_palindromic_examples():
    assert is_palindromic(hilbert_series(2, "A").gf)
    assert is_palindromic(hilbert_series(13, "A").gf)
    assert not is_palindromic(hilbert_series(11, "A").gf)
    assert is_palindromic(hilbert_series(11, "A+").gf)


def test_vector_valued_grading():
    with pytest.raises(UnsupportedJ):
        hilbert_series(7, "A", j=2)
    gf = printed_series(2, "S+", j=2)
    from paradim.paramodular import _space_sequence
    assert series_coeffs(gf, 41) == _space_sequence(2, "S+", 40, j=2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(primes_up_to(200)), st.integers(3, 40),
       st.sampled_from([0, 2, 4]))
def test_signed_dims_nonnegative(p, k, j):
    plus, minus = dim_paramodular_signed(p, k, j)
    assert plus >= 0 and minus >= 0
