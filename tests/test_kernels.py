import pytest
from hypothesis import given, strategies as st

from paradim import _kernels_py, kernels
from paradim.arith import primes_up_to
from paradim.errors import BadDiscriminant


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-40, 40))
def test_kronecker_multiplicative_in_top(a, b, n):
    k = kernels.kronecker
    assert k(a * b, n) == k(a, n) * k(b, n)


def test_kronecker_odd_prime_is_legendre():
    for p in (3, 5, 7, 11, 13, 31):
        squares = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert kernels.kronecker(a, p) == expected


def test_class_number_from_disc_matches_pure():
    for D in range(-6000, -2):
        if D % 4 in (0, 1):
            assert (kernels.class_number_from_disc(D)
                    == _kernels_py.class_number_from_disc(D)), D


def test_b2_character_sum_matches_pure():
    for p in primes_up_to(3000):
        if p < 5:
            continue
        D0 = p if p % 4 == 1 else 4 * p
        assert (kernels.b2_character_sum(D0, D0)
                == _kernels_py.b2_character_sum(D0, D0)), p


@pytest.mark.parametrize("D0, f", [(13, 1), (13, 26), (44, 11), (9, 9), (20, 20),
                                   (16, 16), (1, 1), (0, 0), (-3, -3)])
def test_b2_character_sum_rejects_bad_input(D0, f):
    with pytest.raises(BadDiscriminant):
        kernels.b2_character_sum(D0, f)


@pytest.mark.parametrize("D", [0, 5, -1, -2])
def test_class_number_from_disc_rejects_bad_input(D):
    with pytest.raises(BadDiscriminant):
        kernels.class_number_from_disc(D)

