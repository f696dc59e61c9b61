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


# every fifth prime up to 3 500, and the last few
LEVEL_SAMPLE = sorted({*primes_up_to(3500)[::5], 3457, 3461, 3463, 3467, 3469, 3491, 3499})


def test_class_number_from_disc_matches_pure_on_level_discriminants():
    # the discriminants of Q(sqrt(-d)), d in {p, 2p, 3p}, reach |D| = 42 000
    for p in LEVEL_SAMPLE:
        for d in {p, 2 * p, 3 * p} - {9}:
            D = -d if d % 4 == 3 else -4 * d
            assert (kernels.class_number_from_disc(D)
                    == _kernels_py.class_number_from_disc(D)), D


@pytest.mark.parametrize("D0", [-3, -4, -7, -8, -15, -20, -23])
def test_class_number_from_disc_matches_pure_on_orders(D0):
    # D0 f^2: the unit index is 3 at D0 = -3, 2 at D0 = -4 and 1 otherwise
    for f in range(1, 21):
        D = D0 * f * f
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


@pytest.mark.parametrize("D", [0, 5, -1, -2, -7.0, -3.0, "-7"])
def test_class_number_from_disc_rejects_bad_input(D):
    with pytest.raises(BadDiscriminant):
        kernels.class_number_from_disc(D)

