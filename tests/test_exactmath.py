import pytest
from hypothesis import given, strategies as st

from paradim.errors import NonPolynomial
from paradim.exactmath import (
    Poly,
    RationalGF,
    fit_numerator,
    is_palindromic,
    palindromic_ell,
    series_coeffs,
)

small_ints = st.integers(min_value=-50, max_value=50)


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).degree == -1

    def test_getitem_out_of_range_is_zero(self):
        p = Poly([1, 2, 3])
        assert p[5] == 0 and p[-1] == 0


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
        assert fit_numerator(seq, den, 10) == Poly(num)

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
        assert fit_numerator(seq, den, deg) == Poly(num)

    def test_equality_compares_the_presentation(self):
        gf = RationalGF([1, 0, 1], [6, 4])
        assert gf == RationalGF(Poly([1, 0, 1, 0]), (4, 6))
        assert hash(gf) == hash(RationalGF([1, 0, 1], [4, 6]))
        assert gf != RationalGF([1, 0, 2], [4, 6])
        assert gf != RationalGF([1, 0, 1], [4, 6, 6])
        # the same power series over other factors is another presentation
        assert RationalGF([1], [1]) != RationalGF([1, 1], [2])
        assert gf != Poly([1, 0, 1])

    def test_palindromic(self):
        assert is_palindromic(RationalGF([1, 2, 1], [2, 2]))
        assert not is_palindromic(RationalGF([1, 2], [2, 2]))
        assert not is_palindromic(RationalGF([], [2]))

    def test_palindromic_ell(self):
        gf = RationalGF([1, 0, 1], [4, 6])
        assert palindromic_ell(gf) == 10 - 2
