from operator import add, itemgetter, mul

import pytest
from hypothesis import given, settings, strategies as st

from paradim import characters, compact, paramodular
from paradim.arith import primes_up_to
from paradim.characters import CHI_TABLE, young
from paradim.cli import main
from paradim.compact import (
    CHI_INDEX,
    DEN,
    M_ROWS,
    TRACE_ROWS,
    Level,
    _columns,
    _signed_packed,
    class_and_type,
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
    TypeNumberBound,
    UnsupportedJ,
)
from paradim.exactmath import RationalGF, is_palindromic, series_coeffs
from paradim.paramodular import (
    FALLBACK_DENOMINATORS,
    _cusp_run,
    _graded_run,
    _packed_weights,
    _weight_terms,
    bias,
    check_bias_region,
    dim_A_signed,
    dim_paramodular_signed,
    dim_S_signed,
    dim_weight3,
    formula,
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
    # search zero3 reads formula(3, 0) at I(p); bias reads the general
    # assembly with its [k = 3] term, and class_and_type the compact side at
    # (0, 0), from which (H - T, T - 1) was read before
    for p in primes_up_to(3499):
        H, T = class_and_type(p)
        assert dim_weight3(p) == dim_paramodular_signed(p, 3) == (H - T, T - 1), p


def _branch_key(p):
    """The key of formula's rows at the prime p, written out."""
    return p if p < 5 else f"{p % 4} mod 4"


def test_formula_is_the_signed_dimension():
    # 5 244 cases: every prime below 200 (2, 3 and 5 among them), 3 <= k <= 40
    # and j = 0, 2, 4
    for p in primes_up_to(199):
        inv = compact._invariants(p)
        for k in range(3, 41):
            for j in (0, 2, 4):
                form = formula(k, j)
                got = [sum(map(mul, row, inv)) for row in form.rows[_branch_key(p)]]
                assert got == [form.den * d for d in dim_paramodular_signed(p, k, j)], (p, k, j)


def test_formula_is_int_data_on_every_branch():
    form = formula(7, 2)
    assert form.den == compact.DEN2 == 5760
    assert list(form.rows) == list(TRACE_ROWS) == [2, 3, "1 mod 4", "3 mod 4"]
    for plus, minus in form.rows.values():
        for row in (plus, minus):
            assert type(row) is tuple and len(row) == len(compact.INVARIANTS)
            assert all(type(c) is int for c in row)
    with pytest.raises(TypeError):
        form.rows[2] = form.rows[3]  # the cached record cannot be changed
    assert formula(7, 2) is form


def test_formula_is_zero_at_an_odd_j():
    # as dim_paramodular_signed, at any odd j, 7 included
    zero = (0,) * len(compact.INVARIANTS)
    for j in (3, 7):
        assert set(formula(5, j).rows.values()) == {(zero, zero)}


def _bent_invariants(p, **delta):
    """I(p) with delta[x] added to the invariant x."""
    return tuple(v + delta.get(x, 0) for x, v in zip(compact.INVARIANTS, compact._invariants(p)))


@pytest.mark.parametrize("delta, H, T", [(32, 1, 2), (-32, 1, 0)])
def test_weight3_checks_the_type_number_bound(monkeypatch, delta, H, T):
    # h_p enters the plus form at p = 3 (mod 4) with -180 and the minus form
    # with +180: 32 more or less moves (0, 0) at p = 7 by one out of the bound
    bent = _bent_invariants(7, h_p=delta)
    monkeypatch.setattr(paramodular, "_invariants", lambda p: bent)
    with pytest.raises(TypeNumberBound, match=rf"^p = 7: H = {H} and T = {T} violate "):
        dim_weight3(7)


@pytest.mark.parametrize("delta, error, message", [
    (1, NonIntegral, "dim M(7,0,0) = 2881/2880 is not an integer"),
    (DEN, ParityFailure, "M(7,0,0): total 2 and difference 1 have opposite parity"),
])
def test_weight3_replays_the_pointwise_error(monkeypatch, delta, error, message):
    # p2 enters dim M with chi_1 = 1 at (0, 0) and both forms with 1: a failed
    # division hands over to class_and_type, which reads the same I(p)
    bent = _bent_invariants(7, p2=delta)
    for module in (compact, paramodular):
        monkeypatch.setattr(module, "_invariants", lambda p: bent)
    compact.level.cache_clear()  # level(7) would be read from the true I(7)
    try:
        assert _raised(lambda: dim_weight3(7)) == _raised(lambda: class_and_type(7)) == (
            error, message)
    finally:
        compact.level.cache_clear()  # and now from the bent one


def test_weight3_names_a_bent_form(monkeypatch):
    form = formula(3, 0)
    plus, minus = form.rows["3 mod 4"]
    bent = form._replace(rows={**form.rows, "3 mod 4": ((plus[0] + 1,) + plus[1:], minus)})
    monkeypatch.setattr(paramodular, "formula", lambda k, j: bent)
    with pytest.raises(NonIntegral, match=r"^formula\(3, 0\) at p=7: 1/5760 is not an "):
        dim_weight3(7)


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
    monkeypatch.setattr(paramodular, "dim_new_gamma0_signed", lambda p, k: lifted)
    with pytest.raises(NegativeDim, match=r"p=7, \(k,j\)=\(12,0\)"):
        dim_paramodular_signed(7, 12)


def test_a_negative_bias_is_refused(monkeypatch, capsys):
    # one pair with minus > plus in even weight inside the rectangle, put in
    # by the column assembly that the pointwise route and the grid share
    # (S+, S-) packed at the width of the compact side: 0, and 1 at (3, 4)
    monkeypatch.setattr(paramodular, "_cusp_pair", lambda p, j, ks, m_run, lifted: (
        0, (1 << m_run[2] * ks.index(4)) if p == 3 and 4 in ks else 0))
    assert bias(3, 4) == -1
    with pytest.raises(BiasViolation) as exc:
        check_bias_region(5, 6)
    assert (exc.value.p, exc.value.k, exc.value.value) == (3, 4, -1)
    assert main(["bias", "--pmax", "5", "--kmax", "6"]) == 3
    assert capsys.readouterr() == ("", "error: bias(3, 4) = -1 < 0\n")


# p = 2, 3, 5 and both classes mod 4 of the generic branch
GRID_PRIMES = primes_up_to(200)
GRID_KS = range(3, 131)


def _pairs(columns):
    """The (plus, minus) pairs of a run given as the columns (plus, minus)."""
    return list(zip(*columns))


def _f2s(ks):
    """The range of f2 in the Young weights of the range ks."""
    return range(ks.start - 3, ks.stop - 3)


@pytest.mark.parametrize("j", [0, 2, 4])
def test_grid_is_the_pointwise_route(j):
    weights = [young(k, j) for k in GRID_KS]
    for p in GRID_PRIMES:
        assert _pairs(_columns(_cusp_run(p, j, GRID_KS))) == [
            dim_paramodular_signed(p, k, j) for k in GRID_KS], p
        assert _pairs(_columns(_signed_packed(p, j, _f2s(GRID_KS)))) == [
            dim_M_signed(p, *w) for w in weights], p


def test_grid_at_odd_j_is_zero():
    for p in (2, 7, 199):
        assert _graded_run("S", p, 3, 7) == ([0] * 4, [0] * 4), p
    assert [dim_paramodular_signed(7, k, 3) for k in range(3, 7)] == [(0, 0)] * 4
    with pytest.raises(NotPrimeLevel):
        _graded_run("S", 9, 3, 7)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(primes_up_to(1000)), min_size=1, max_size=3),
       st.integers(3, 600), st.integers(0, 80), st.sampled_from([0, 2, 4]))
def test_grid_is_the_pointwise_route_on_random_runs(ps, start, length, j):
    ks = range(start, min(start + length, 600) + 1)
    for p in ps:
        assert _pairs(_columns(_cusp_run(p, j, ks))) == [
            dim_paramodular_signed(p, k, j) for k in ks], p


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(primes_up_to(1000)), min_size=1, max_size=3),
       st.integers(0, 150), st.booleans(), st.sampled_from([0, 0, 1, 5, 40]),
       st.sampled_from([0, 2, 4]))
def test_packed_runs_are_the_pointwise_route(ps, half, even, length, j):
    # runs of one (length 0) and longer ones, from an odd or an even k: S+-
    # packed field by field as the pointwise route gives them, and the mask
    # of the bias sign with its top bit in exactly the fields at even k
    start = 3 + 2 * half + even
    ks = range(start, start + length + 1)
    for p in ps:
        run = _cusp_run(p, j, ks)
        assert _pairs(_columns(run)) == [dim_paramodular_signed(p, k, j) for k in ks]
        width = run[2]
        assert _packed_weights(0, ks, width)[1] == sum(
            1 << width * n + width - 1 for n, k in enumerate(ks) if k % 2 == 0)


def _region(pmax, kmax):
    """check_bias_region by the pointwise route, in its order at each
    prime: the compact side, then S+-, then the bias, each at its first bad
    k."""
    zeros, ks = [], range(3, kmax + 1)
    for p in primes_up_to(pmax):
        for k in ks:
            dim_M_signed(p, *young(k, 0))
        for k in ks:
            dim_paramodular_signed(p, k)
        for k in ks:
            b = bias(p, k)
            if b < 0:
                raise BiasViolation(p, k, b)
            if not b:
                zeros.append((p, k))
    return zeros


def _outcome(call):
    """What call() returns, or the type, message and attributes of the
    ParadimError that it raises."""
    try:
        return call()
    except ParadimError as exc:
        return type(exc), str(exc), vars(exc)


def test_the_bias_region_is_the_pointwise_route():
    assert check_bias_region(500, 120) == _region(500, 120)


@pytest.mark.parametrize("j", [0, 2, 4])
def test_a_wide_level_takes_a_wider_field(monkeypatch, j):
    # m and tr times 2^70 keep every quotient integral and every split
    # even, and put the fields of a packed run beyond 64 bits
    true_level, packed_run, widths = compact.level, compact._packed_run, []

    def recorded(j, f2s, width):
        widths.append(width)
        return packed_run(j, f2s, width)

    ps, ks = [2, 3, 5, 7, 199], range(3, 131)
    unscaled = dim_M_signed(199, *young(130, j))
    monkeypatch.setattr(compact, "level", lambda p: Level(
        *([c << 70 for c in row] for row in true_level(p))))
    monkeypatch.setattr(compact, "_packed_run", recorded)
    assert dim_M_signed(199, *young(130, j)) == tuple(v << 70 for v in unscaled)
    for p in ps:
        assert _pairs(_columns(_cusp_run(p, j, ks))) == [
            dim_paramodular_signed(p, k, j) for k in ks], p
        assert _pairs(_columns(_signed_packed(p, j, _f2s(ks)))) == [
            dim_M_signed(p, *young(k, j)) for k in ks], p
    if j == 0:
        assert _outcome(lambda: check_bias_region(199, 130)) == _outcome(
            lambda: _region(199, 130))
    assert min(widths) >= 128


def test_the_bulk_check_holds_at_every_width_edge(monkeypatch):
    # m and tr times 2^s, s < 140, move the bound on the fields of A and B
    # across 140 powers of two; a field that came within a factor 2 of
    # 2^(W - 1) would fail the check on integral dimensions
    true_level, f2s = compact.level, range(60)
    unscaled = {p: [dim_M_signed(p, f2, f2) for f2 in f2s] for p in (3, 199)}
    for p in unscaled:
        for s in range(140):
            monkeypatch.setattr(compact, "level", lambda p, s=s: Level(
                *([c << s for c in row] for row in true_level(p))))
            assert _pairs(_columns(_signed_packed(p, 0, f2s))) == [
                (plus << s, minus << s) for plus, minus in unscaled[p]], (p, s)


def _raised(call):
    """(type, message) of the ParadimError that call() raises."""
    with pytest.raises(ParadimError) as exc:
        call()
    return type(exc.value), str(exc.value)


def _both_routes(p, j, ks, compact_too=True):
    """What dim_paramodular_signed at each k of ks in turn, and the grid of
    p, raise; with compact_too, also what dim_M_signed and the packed M
    run raise at the Young weights of ks."""
    weights = [young(k, j) for k in ks]
    routes = [lambda: [dim_paramodular_signed(p, k, j) for k in ks],
              lambda: _columns(_cusp_run(p, j, ks))]
    if compact_too:
        routes += [lambda: [dim_M_signed(p, *w) for w in weights],
                   lambda: _columns(_signed_packed(p, j, _f2s(ks)))]
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


@pytest.fixture
def fresh_runs():
    """No packed run before or after the test: one packed from the true
    characters or weight terms would hide a fault put into them.  The
    records are taken before the test, which may patch them."""
    records = (compact._chi_vector, compact._chi_run, compact._packed_run,
               paramodular._weight_run, paramodular._packed_weights)
    for record in records:
        record.cache_clear()
    yield
    for record in records:
        record.cache_clear()


def _patch_characters(monkeypatch, columns):
    """Make `columns` the characters.chi_columns that both routes read: the
    single weights through chi_values, the runs through compact."""
    for module in (characters, compact):
        monkeypatch.setattr(module, "chi_columns", columns)


def test_a_bent_character_raises_alike_at_its_weight(monkeypatch, fresh_runs):
    # one more chi_1 at (5, 5) alone: the routes agree up to k = 8 and both
    # stop there
    chi = characters.chi_columns

    def bent(indices, f1, f2, n):
        columns = chi(indices, f1, f2, n)
        if indices[0] == 1 and f1 == f2 <= 5 < f2 + n:
            columns[0] = tuple(v + (f == 5) for f, v in enumerate(columns[0], f2))
        return columns

    _patch_characters(monkeypatch, bent)
    (error, message), = set(_both_routes(7, 0, range(3, 12)))
    assert error is NonIntegral and message.startswith("dim M(7,5,5) = ")


def test_residues_that_cancel_in_the_packed_sum_are_refused(monkeypatch, fresh_runs):
    # DEN dim M = DEN tr R = 29 at (1, 1) and 1 at (2, 2): neither field of
    # 2 DEN M+ is divisible by 2 DEN, but 2 (29 2^64 + 2^128) is, so the
    # packed sum alone would pass; the digits of its quotient must not
    monkeypatch.setattr(compact, "level", lambda p: Level((1,), (1,)))
    _patch_characters(monkeypatch, lambda indices, f1, f2, n: (
        [tuple({1: 29, 2: 1}.get(f, 0) for f in range(f2, f2 + n))]
        + [(0,) * n] * (len(indices) - 1)))
    assert 2 * (29 * 2**64 + 2**128) % (2 * DEN) == 0
    assert _raised(lambda: _columns(_signed_packed(7, 0, range(3)))) == _raised(
        lambda: [dim_M_signed(7, f2, f2) for f2 in range(3)]) == (
        NonIntegral, "dim M(7,1,1) = 29/2880 is not an integer")


def test_a_packing_fault_is_not_blamed_on_dim_M(monkeypatch, fresh_runs):
    # one more chi_1 at (1, 1) in the packed column alone: dim_M_signed
    # holds at every weight of the run, so the error names the packed run
    packed_run = compact._packed_run
    pointwise = [dim_M_signed(7, f2, f2) for f2 in range(10)]

    def faulty(j, f2s, width):
        columns, offset = packed_run(j, f2s, width)
        return (columns[0] + (1 << width),) + columns[1:], offset

    monkeypatch.setattr(compact, "_packed_run", faulty)
    with pytest.raises(NonIntegral, match=r"^packed run p=7, j=0, f2 in range\(0, 10\): "):
        _columns(_signed_packed(7, 0, range(10)))
    assert [dim_M_signed(7, f2, f2) for f2 in range(10)] == pointwise


def _bend_weight_terms(monkeypatch, bend):
    """Make the weight terms at (k, j) bend(k, j, terms) on both routes, at
    their one seam paramodular._weight_columns."""
    columns = paramodular._weight_columns
    monkeypatch.setattr(paramodular, "_weight_columns", lambda j, ks: tuple(map(list, zip(*[
        bend(k, j, terms) for k, terms in zip(ks, zip(*columns(j, ks)))]))))


def test_a_negative_dimension_raises_alike_on_both_routes(monkeypatch, fresh_runs):
    _bend_weight_terms(monkeypatch, lambda k, j, terms: (-10**6, 0, 0) if k == 9 else terms)
    assert set(_both_routes(7, 0, range(3, 20), compact_too=False)) == {
        (NegativeDim, "p=7, (k,j)=(9,0): got (-1000000,-999995)")}


@pytest.mark.parametrize("bends, kmax, expected", [
    # S+ = -1 at k = 28 between S+ = 1 at k = 27 and 29, S- kept
    ({28: (-15, 0, -15)}, 40, (NegativeDim, "p=2, (k,j)=(28,0): got (-1,4)")),
    # S- = -1 at k = 27 between S- = 2 and 4, S+ kept
    ({27: (0, 0, 7)}, 40, (NegativeDim, "p=2, (k,j)=(27,0): got (1,-1)")),
    # a bias of -1 at an even and at an odd k, between positive ones
    ({20: (0, 0, -6)}, 40, (BiasViolation, "bias(2, 20) = -1 < 0")),
    ({23: (0, 0, 4)}, 40, (BiasViolation, "bias(2, 23) = -1 < 0")),
    # a zero bias with S+ = S- = 5 at the first k, and with S+ = S- = 10 at
    # the last
    ({3: (5, 0, 0)}, 10, [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9)]),
    ({24: (0, 0, -8)}, 24, [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9), (2, 13),
                            (2, 24)]),
    # fields beyond 64 bits: the width bounds S+- and their difference too
    ({30: (-2**70, 0, -2**70)}, 40,
     (NegativeDim, "p=2, (k,j)=(30,0): got (-1180591620717411303409,4)")),
    ({k: (2**70, 0, 0) for k in range(3, 41)}, 40,
     [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9), (2, 13)]),
])
def test_each_mask_reads_what_the_pointwise_route_gives(monkeypatch, fresh_runs, bends,
                                                        kmax, expected):
    # the weight terms at (k, 0) moved by (Siegel term, lifts, minus drop) at
    # p = 2, the only prime of the region
    _bend_weight_terms(monkeypatch, lambda k, j, terms: tuple(
        map(add, terms, bends.get(k, (0, 0, 0)) if j == 0 else (0, 0, 0))))
    packed, pointwise = (_outcome(lambda: region(2, kmax))
                         for region in (check_bias_region, _region))
    assert packed == pointwise
    assert packed[:2] == expected if isinstance(packed, tuple) else packed == expected
    if expected[0] is NegativeDim:
        assert set(_both_routes(2, 0, range(3, kmax + 1), compact_too=False)) == {expected}


@pytest.fixture(scope="module")
def pointwise_weights():
    """(j, k) -> (_weight_terms(k, j), (dim M_k, dim S_k) of SL_2(Z)) for
    k < 1000, one call per weight."""
    return {(j, k): (_weight_terms(k, j), (dim_modular_level1(k), dim_cusp_level1(k)))
            for j in (0, 2, 4) for k in range(1000)}


@pytest.mark.parametrize("j", [0, 2, 4])
@pytest.mark.parametrize("start", [3, 4, 125, 128, 300])
def test_weight_run_is_the_pointwise_route(pointwise_weights, j, start):
    # every length from 1 to 600: the runs cross the steps 128, 256, 512
    # and 1024 of the level-1 Siegel series
    run = paramodular._weight_run.__wrapped__
    for length in range(1, 601):
        ks = range(start, start + length)
        terms, tops, (modular, cusp) = run(j, ks)
        expected = [pointwise_weights[j, k] for k in ks]
        assert list(zip(*terms)) == [t for t, _ in expected], (j, ks)
        assert list(zip(modular, cusp)) == [e for _, e in expected], (j, ks)
        assert tops == [max(map(abs, column)) for column in zip(*[t for t, _ in expected])]


@pytest.mark.parametrize("j", [6, 2.0, 0.0, "0"])
def test_weight_run_refuses_what_the_pointwise_route_refuses(j):
    for ks in (range(3, 4), range(3, 200), range(10, 20)):
        assert _outcome(lambda: paramodular._weight_run(j, ks)) == _outcome(
            lambda: [_weight_terms(k, j) for k in ks])
        assert isinstance(_outcome(lambda: paramodular._weight_run(j, ks)), tuple)


def _pointwise_sequence(p, space, nmax, j):
    """The graded sequence of `space` to nmax, one dim_M_signed, dim_A_signed
    or dim_S_signed call per degree."""
    if space[0] == "M":
        pairs = [dim_M_signed(p, n + j, n) for n in range(nmax + 1)]
    elif space[0] == "A":
        pairs = [dim_A_signed(p, k) for k in range(nmax + 1)]
    else:
        pairs = [dim_S_signed(p, k, j) for k in range(nmax + 1)]
    return [{"": a + b, "+": a, "-": b}[space[1:]] for a, b in pairs]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 277])
@pytest.mark.parametrize("j", [0, 2, 4])
def test_space_sequence_is_the_pointwise_route(p, j):
    # lengths on both sides of the run's floor _RUN_MIN
    for space in paramodular.SPACES:
        for nmax in (-1, 0, 2, 3, 40, 130):
            assert _outcome(lambda: paramodular._space_sequence(p, space, nmax, j)) == _outcome(
                lambda: (paramodular._check_space(space, j),
                         _pointwise_sequence(p, space, nmax, j))[1]), (p, space, nmax, j)


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
