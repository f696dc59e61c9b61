from math import lcm

import pytest
from hypothesis import given, strategies as st

from paradim import characters, compact
from paradim.arith import primes_up_to
from paradim.characters import CHI_TABLE, chi_values, chi_young, young
from paradim.errors import BadIndex, BadYoung, NonIntegral
from paradim.exactmath import fit_numerator, is_palindromic, palindromic_ell
from paradim.paramodular import hilbert_series

from character_oracles import PHI_COEFFS, chi_bracket_young, chi_series


def test_weight_params():
    # the weight parameters (k, j) = (5, 4) as a Young weight
    assert young(5, 4) == (6, 2)


@pytest.mark.parametrize("k, j", [(2, 0), (4, 3), (4.0, 0), (4, -2)])
def test_weight_params_refuses(k, j):
    with pytest.raises(BadYoung, match=rf"got \(k,j\)=\({k!r},{j!r}\)"):
        young(k, j)


def test_phi_polys_are_reciprocal():
    # each phi_i is monic with constant term 1 and palindromic coefficients
    for i in range(1, 18):
        coeffs, _ = PHI_COEFFS[i]
        assert coeffs[0] == coeffs[4] == (1, 0)
        assert coeffs[1] == coeffs[3]


def test_phi_poly_roots_on_unit_circle():
    # phi_1 = (x-1)^4 vanishes at 1: its coefficients sum to 0
    coeffs, m = PHI_COEFFS[1]
    assert m == 1
    assert sum(a for a, _ in coeffs) == 0 and all(b == 0 for _, b in coeffs)


def test_bad_index():
    with pytest.raises(BadIndex):
        chi_young(18, 0, 0)
    with pytest.raises(BadIndex):
        chi_series(0, 0, 0)


def test_trivial_rep():
    # f1 = f2 = 0 is the trivial representation: every character is 1
    for i in range(1, 18):
        assert chi_series(i, 0, 0) == 1
        assert chi_young(i, 0, 0) == 1


def test_chi1_is_weyl_dimension():
    # chi_1 evaluates the identity class: the Weyl dimension polynomial
    f1, f2 = young(3, 2)  # (2, 0), Sym(2) x trivial
    assert chi_young(1, f1, f2) == chi_series(1, f1, f2) == 10


@given(st.integers(3, 25), st.integers(0, 12).map(lambda t: 2 * t),
       st.integers(1, 17))
def test_series_equals_closed(k, j, i):
    f1, f2 = young(k, j)
    assert chi_young(i, f1, f2) == chi_series(i, f1, f2)


@given(st.integers(3, 25), st.integers(0, 12).map(lambda t: 2 * t),
       st.integers(1, 17))
def test_negation_invariance(k, j, i):
    # f1 + f2 is even, so the character is insensitive to x -> -x
    f1, f2 = young(k, j)
    assert chi_series(i, f1, f2, negate=True) == chi_series(i, f1, f2)


def test_table_period_and_degree():
    # The periods are read off CHI_TABLE: in k the lcm of a character's row
    # lengths, in j twice its row count.  With its own k-period d as step
    # the fourth difference in k of chi_i vanishes for every even j below
    # twice the common period 120: chi_i is a quasi-polynomial of degree
    # <= 3 in k.  As d divides 120, so does the difference with step 120.
    # That FALLBACK_DENOMINATORS suffice is proved term by term in
    # tests/test_paramodular.py::test_fallback_denominators_are_true_denominators.
    k_period = {i: lcm(*(len(row) for _, rows in terms for row in rows))
                for i, (_, terms) in CHI_TABLE.items()}
    j_period = {i: lcm(*(2 * len(rows) for _, rows in terms))
                for i, (_, terms) in CHI_TABLE.items()}
    assert lcm(*k_period.values()) == lcm(*j_period.values()) == 120
    for i, d in k_period.items():
        for j in range(0, 240, 2):
            vals = [chi_young(i, *young(k, j)) for k in range(3, 3 + 5 * d)]
            for k in range(d):
                diff = sum(c * vals[k + t * d] for t, c in enumerate((1, -4, 6, -4, 1)))
                assert diff == 0, (i, j, k + 3)


def test_table_division_is_checked(monkeypatch):
    # chi_1(3, 2) = 60 / 6; over 7 the evaluator refuses to round
    monkeypatch.setitem(CHI_TABLE, 1, (7, CHI_TABLE[1][1]))
    with pytest.raises(NonIntegral, match=r"chi_1\(k=3, j=2\)"):
        chi_young(1, 2, 0)


def test_scalar_characters_satisfy_the_functional_equation():
    # At j = 0, F_i(t) = sum_f chi_i(f, f) t^f over (1 - t^120)^4 has a
    # numerator Q of degree <= 477 = 480 - 3 with t^477 Q(1/t) = Q(t), i.e.
    # F_i(1/t) = t^3 F_i(t) (see the compact module docstring).
    vecs = [chi_values(compact.CHI_INDEX, f, f) for f in range(1002)]
    for n, i in enumerate(compact.CHI_INDEX):
        num = fit_numerator([v[n] for v in vecs], [120] * 4, 477)
        padded = num + (0,) * (478 - len(num))
        assert padded == padded[::-1], i


def test_minus_series_inherits_the_functional_equation():
    # its numerator 3t + ... + 3t^28 is t times a palindrome
    gf = hilbert_series(23, "M-").gf
    assert gf.numerator[0] == 0
    assert is_palindromic(gf) and palindromic_ell(gf) == 3


def test_compact_series_are_palindromic_at_j_0_only():
    # the functional equation holds for every prime at j = 0, not beyond
    for p in primes_up_to(99):
        for space in ("M", "M+", "M-"):
            gf = hilbert_series(p, space).gf
            assert is_palindromic(gf) and palindromic_ell(gf) == 3, (p, space)
    assert not is_palindromic(hilbert_series(7, "M", 2).gf)


def test_vector_equals_chi_young():
    for f2 in range(60):
        for f1 in range(f2, f2 + 40, 2):
            vec = compact._chi_vector(f1, f2)
            assert vec == tuple(chi_young(i, f1, f2) for i in compact.CHI_INDEX), (f1, f2)
    assert chi_values(range(1, 18), 6, 2) == tuple(chi_young(i, 6, 2) for i in range(1, 18))


def test_vector_checks_the_weight_once(monkeypatch):
    seen = []
    check = characters._check_young
    monkeypatch.setattr(characters, "_check_young",
                        lambda f1, f2: (seen.append((f1, f2)), check(f1, f2)))
    compact._chi_vector.__wrapped__(4, 2)
    assert seen == [(4, 2)]
    with pytest.raises(BadYoung):
        compact._chi_vector.__wrapped__(1, 0)
    assert seen == [(4, 2), (1, 0)]


def test_vector_division_is_checked(monkeypatch):
    monkeypatch.setitem(CHI_TABLE, 1, (7, CHI_TABLE[1][1]))
    with pytest.raises(NonIntegral, match=r"chi_1\(k=3, j=2\)"):
        compact._chi_vector.__wrapped__(2, 0)


def test_bracket_forms_agree():
    for i in (2, 6, 9, 11, 13):
        for f2 in range(0, 15):
            for f1 in range(f2, f2 + 21, 2):
                assert chi_bracket_young(i, f1, f2) == chi_young(i, f1, f2), (i, f1, f2)


def test_bracket_forms_limited():
    with pytest.raises(BadIndex):
        chi_bracket_young(1, 0, 0)


def test_young_validation():
    with pytest.raises(BadYoung):
        chi_young(2, 1, 0)  # parity mismatch
    with pytest.raises(BadYoung):
        chi_series(2, 0, 2)  # f1 < f2


@pytest.mark.parametrize("f1, f2", [(2.5, 0.5), (2.0, 0), (2, "0")])
def test_non_integer_young_is_refused(f1, f2):
    # (2.5, 0.5) used to get past the domain check
    with pytest.raises(BadYoung):
        chi_young(2, f1, f2)
    with pytest.raises(BadYoung):
        chi_series(2, f1, f2)


@pytest.mark.parametrize("k, j", [(5.5, 2), (5, 2.0), ("5", 2)])
def test_non_integer_weight_params_are_refused(k, j):
    with pytest.raises(BadYoung):
        young(k, j)
