import pytest

from paradim import elliptic
from paradim.arith import primes_up_to
from paradim.compact import INVARIANTS, _branch, _invariants
from paradim.elliptic import (
    dim_cusp_level1,
    dim_modular_level1,
    dim_new_gamma0,
    dim_new_gamma0_signed,
)
from paradim.errors import NonIntegral, NotPrimeLevel, OddWeight, ParityFailure


def test_level1_cusp_dims():
    expected = {0: 0, 2: 0, 4: 0, 6: 0, 8: 0, 10: 0, 12: 1, 14: 0,
                16: 1, 18: 1, 20: 1, 22: 1, 24: 2, 26: 1, 28: 2}
    for k, d in expected.items():
        assert dim_cusp_level1(k) == d, k
    assert dim_cusp_level1(13) == 0  # odd weight
    assert dim_cusp_level1(-2) == dim_cusp_level1(-12) == 0


def test_level1_modular_dims():
    assert dim_modular_level1(0) == 1
    assert dim_modular_level1(2) == 0
    assert dim_modular_level1(4) == 1
    assert dim_modular_level1(12) == 2
    assert dim_modular_level1(-4) == dim_modular_level1(-12) == 0
    for k in range(4, 60, 2):
        assert dim_modular_level1(k) == dim_cusp_level1(k) + 1


def test_newspace_weight2_is_genus_of_x0():
    genus = {2: 0, 3: 0, 5: 0, 7: 0, 11: 1, 13: 0, 23: 2, 37: 2, 97: 7}
    for p, g in genus.items():
        assert dim_new_gamma0(p, 2) == g, p


def test_newspace_known_values():
    assert dim_new_gamma0(2, 8) == 1   # the weight-8 level-2 newform
    assert dim_new_gamma0(11, 4) == 2
    assert dim_new_gamma0(5, 2) == 0


def test_signed_newspace_known_splits():
    # X_0(37): one rank-0 and one rank-1 newform with opposite signs
    assert dim_new_gamma0_signed(37, 2) == (1, 1)
    # X_0(11): the single newform has sign +1 (w_11-eigenvalue -1)
    total = dim_new_gamma0(11, 2)
    sp, _ = dim_new_gamma0_signed(11, 2)
    assert total == 1 and sp in (0, 1)


def test_signed_newspace_sums_and_nonneg():
    for p in primes_up_to(100):
        for k in range(2, 31, 2):
            sp, sm = dim_new_gamma0_signed(p, k)
            assert sp >= 0 and sm >= 0, (p, k)
            assert sp + sm == dim_new_gamma0(p, k), (p, k)


def test_opposite_parity_is_refused(monkeypatch):
    # one newform more than the (1, 1) of X_0(37) cannot be split by sign
    monkeypatch.setattr(elliptic, "dim_new_gamma0", lambda p, k: 3)
    with pytest.raises(ParityFailure, match=r"S_2\^new\(Gamma0\(37\)\): total 3"):
        dim_new_gamma0_signed(37, 2)


def test_odd_weight_rejected():
    with pytest.raises(OddWeight):
        dim_new_gamma0(7, 3)
    with pytest.raises(OddWeight):
        dim_new_gamma0_signed(7, 5)


def test_non_prime_level_is_refused():
    for p in (15, 9, 1, 0):
        for k in (0, 2, 4):
            with pytest.raises(NotPrimeLevel):
                dim_new_gamma0(p, k)
            with pytest.raises(NotPrimeLevel):
                dim_new_gamma0_signed(p, k)


def _clear_caches():
    for value in vars(elliptic).values():
        if hasattr(value, "cache_clear") and value.__module__ == elliptic.__name__:
            value.cache_clear()


def test_an_odd_twice_difference_is_refused(monkeypatch):
    # a_p h(5) = h(5) = 2; an h of 3 leaves twice the difference odd, which
    # a floor division would take for the difference of the true h
    _clear_caches()
    monkeypatch.setattr(elliptic, "class_number", lambda d: 3)
    try:
        with pytest.raises(NonIntegral, match=r"S_4\^new\(Gamma0\(5\)\) = 3/2 is not"):
            dim_new_gamma0_signed(5, 4)
    finally:
        _clear_caches()


def test_newspace_terms_read_the_invariants():
    # the newspace terms at I(p) give what elliptic's own record gives
    for p in primes_up_to(999):
        inv = dict(zip(INVARIANTS, _invariants(p)))
        for w in range(2, 41, 2):
            twelve, twice = (sum(c * inv[x] for c, x in terms)
                             for terms in elliptic._newspace(w, _branch(p)))
            plus, minus = dim_new_gamma0_signed(p, w)
            assert (twelve, twice) == (12 * dim_new_gamma0(p, w), 2 * (plus - minus)), (p, w)
