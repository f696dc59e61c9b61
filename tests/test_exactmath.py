from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paradim.errors import BadPresentation, NonPolynomial, ParadimError
from paradim.exactmath import (
    RationalGF,
    fit_numerator,
    from_terms,
    is_int,
    is_palindromic,
    palindromic_ell,
    series_coeffs,
)

small_ints = st.integers(min_value=-50, max_value=50)


@pytest.mark.parametrize("x, ok", [(7, True), (-3, True), (0, True), (2**70, True),
                                   (True, False), (False, False), (7.0, False),
                                   ("7", False), (None, False)])
def test_is_int_refuses_bool_and_float(x, ok):
    assert is_int(x) is ok


class TestNumerator:
    def test_trailing_zeros_trimmed(self):
        assert RationalGF([1, 2, 0, 0], [1]).numerator == (1, 2)
        assert RationalGF([0, 0], [1]).numerator == ()

    def test_zero_degree_is_minus_one(self):
        assert palindromic_ell(RationalGF([0, 0], [4, 6])) == 10 + 1

    def test_series_reads_zero_past_the_numerator(self):
        gf = RationalGF([1, 2, 3], [7])
        assert series_coeffs(gf, 2) == [1, 2]
        assert series_coeffs(gf, 5) == [1, 2, 3, 0, 0]
        assert series_coeffs(gf, 0) == series_coeffs(gf, -1) == []

    def test_from_terms(self):
        assert from_terms([(3, 1), (0, 2), (3, 4), (5, 0)]) == (2, 0, 0, 5)
        assert from_terms([]) == ()

    def test_replace_normalises(self):
        gf = RationalGF([1], [6, 4])
        assert gf._replace(numerator=[1, 2, 0]) == RationalGF([1, 2], [4, 6])
        assert gf._replace(denom_exponents=[3, 1]).denom_exponents == (1, 3)
        with pytest.raises(BadPresentation):
            gf._replace(denom_exponents=[0])


class TestBadPresentation:
    def test_is_a_domain_error_and_a_value_error(self):
        assert issubclass(BadPresentation, ParadimError)
        assert issubclass(BadPresentation, ValueError)

    @pytest.mark.parametrize("num", [[1, 0.5], [Fraction(1, 2)], ["1"], [None], [True]])
    def test_numerator_entries_are_ints(self, num):
        with pytest.raises(BadPresentation):
            RationalGF(num, [1])

    @pytest.mark.parametrize("den", [[0], [4, -6], [2.0], [4, "6"], [None], [True]])
    def test_denominator_exponents_are_positive_ints(self, den):
        with pytest.raises(BadPresentation):
            RationalGF([1], den)

    @pytest.mark.parametrize("terms", [[(3, 1), (-1, 5)], [(1.0, 1)], [("2", 1)]])
    def test_from_terms_exponents_are_nonnegative_ints(self, terms):
        with pytest.raises(BadPresentation):
            from_terms(terms)

    @pytest.mark.parametrize("den", [[0], [2, -1], [2.0]])
    def test_fit_denominator_exponents_are_positive_ints(self, den):
        seq = series_coeffs(RationalGF([1], [2]), 30)
        with pytest.raises(BadPresentation):
            fit_numerator(seq, den, 2)

    @pytest.mark.parametrize("max_deg", [-1, 2.0, "2", None])
    def test_fit_degree_bound_is_a_nonnegative_int(self, max_deg):
        seq = series_coeffs(RationalGF([1], [2]), 30)
        with pytest.raises(BadPresentation):
            fit_numerator(seq, [2], max_deg)

    def test_fit_too_short_is_bad_presentation(self):
        with pytest.raises(BadPresentation, match="need more than 10 terms"):
            fit_numerator([1, 2, 3], [2, 3], 5)


class TestRationalGF:
    def test_geometric_series(self):
        gf = RationalGF([1], [1])
        assert series_coeffs(gf, 5) == [1, 1, 1, 1, 1]

    def test_two_factor_partition_count(self):
        # partitions into parts 2 and 3
        gf = RationalGF([1], [2, 3])
        assert series_coeffs(gf, 10) == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2]

    def test_fit_round_trip(self):
        num = [1, 0, -2, 5]
        den = [2, 3, 4]
        seq = series_coeffs(RationalGF(num, den), 40)
        assert fit_numerator(seq, den, 10) == (1, 0, -2, 5)

    def test_fit_rejects_non_polynomial(self):
        with pytest.raises(NonPolynomial):
            # 1/(1-t)^2 has numerator degree 0 over a single (1-t) factor
            seq = series_coeffs(RationalGF([1], [1, 1]), 30)
            fit_numerator(seq, [1], 5)

    def test_fit_needs_enough_terms(self):
        with pytest.raises(ValueError):
            fit_numerator([1, 2, 3], [2, 3], 5)

    @given(
        st.lists(small_ints, min_size=1, max_size=8),
        st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=4),
    )
    def test_fit_inverts_expand(self, num, den):
        deg = len(num) - 1
        n = deg + sum(den) + 5
        seq = series_coeffs(RationalGF(num, den), n)
        want = tuple(num)
        while want and not want[-1]:
            want = want[:-1]
        assert fit_numerator(seq, den, deg) == want

    def test_equality_compares_the_presentation(self):
        gf = RationalGF([1, 0, 1], [6, 4])
        assert gf == RationalGF((1, 0, 1, 0), (4, 6))
        assert hash(gf) == hash(RationalGF([1, 0, 1], [4, 6]))
        assert gf != RationalGF([1, 0, 2], [4, 6])
        assert gf != RationalGF([1, 0, 1], [4, 6, 6])
        # the same power series over other factors is another presentation
        assert RationalGF([1], [1]) != RationalGF([1, 1], [2])
        assert gf != (1, 0, 1)

    def test_palindromic(self):
        assert is_palindromic(RationalGF([1, 2, 1], [2, 2]))
        assert not is_palindromic(RationalGF([1, 2], [2, 2]))
        assert not is_palindromic(RationalGF([], [2]))
        # t^s P(t) with P a palindrome: the leading zeros are not compared
        assert is_palindromic(RationalGF([0, 0, 1, 2, 1], [2, 2]))
        assert not is_palindromic(RationalGF([0, 1, 2], [2, 2]))

    def test_palindromic_ell(self):
        gf = RationalGF([1, 0, 1], [4, 6])
        assert palindromic_ell(gf) == 10 - 2
        # t (1 + t)^2 / (1 - t^2)^2 is invariant under t -> 1/t: l = 4 - 1 - 3
        assert palindromic_ell(RationalGF([0, 1, 2, 1], [2, 2])) == 0
        assert palindromic_ell(RationalGF([0, 0, 1, 0, 1], [4, 6])) == 10 - 2 - 4


def _series_by_steps(gf, n):
    """series_coeffs one coefficient at a time: c[i] += c[i - a] for each
    factor 1/(1 - t^a), i from a up."""
    c = list(gf.numerator[:max(n, 0)]) + [0] * (n - len(gf.numerator))
    for a in gf.denom_exponents:
        for i in range(a, n):
            c[i] += c[i - a]
    return c


@pytest.mark.parametrize("den", [[1], [2, 3], [4, 6, 10, 12], [4, 4, 6, 12], [120] * 4, [7, 300]])
def test_series_coeffs_is_the_prefix_sum_by_steps(den):
    # lengths below, at and past each exponent, and past the numerator
    num = (3, -1, 0, 2, 0, 0, -5, 1)
    for n in (-1, 0, 1, 5, 6, 7, 12, 81, 128, 301, 1001):
        for numerator in (num, (0,) * 40 + num):
            gf = RationalGF(numerator, den)
            assert series_coeffs(gf, n) == _series_by_steps(gf, n), (den, n)

