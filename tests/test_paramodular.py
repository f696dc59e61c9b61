from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from paradim import paramodular
from paradim.arith import primes_up_to
from paradim.cli import main
from paradim.compact import dim_M_signed
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
    NotPrimeLevel,
    ParadimError,
    UnsupportedJ,
)
from paradim.exactmath import is_palindromic, series_coeffs
from paradim.paramodular import (
    _lifted_newspace,
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
from paradim.siegel1 import dim_cusp_sp4


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
    # one pair with minus > plus in even weight inside the rectangle
    monkeypatch.setattr(paramodular, "dim_paramodular_signed",
                        lambda p, k, j=0: (0, 1) if (p, k) == (3, 4) else (0, 0))
    with pytest.raises(BiasViolation) as exc:
        check_bias_region(5, 6)
    assert (exc.value.p, exc.value.k, exc.value.value) == (3, 4, -1)
    assert main(["bias", "--pmax", "5", "--kmax", "6"]) == 3
    assert capsys.readouterr() == ("", "error: bias(3, 4) = -1 < 0\n")


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
