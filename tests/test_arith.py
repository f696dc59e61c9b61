from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from paradim import kernels
from paradim.arith import (
    _split_symbols,
    a_p,
    bernoulli_b2_chi,
    check_level,
    class_number,
    fundamental_discriminant,
    is_prime,
    primes_up_to,
    split_symbol,
    squarefree_part,
)
from paradim.errors import (
    DSquare,
    NotPrimeLevel,
    NotSquarefree,
    ParadimError,
    UnsupportedPrime,
)
from paradim.kernels import kronecker


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1
    assert squarefree_part(30) == 30


@given(st.integers(min_value=1, max_value=3000))
def test_squarefree_part_divides(n):
    d0 = squarefree_part(n)
    assert n % d0 == 0
    q = n // d0
    assert round(q ** 0.5) ** 2 == q


def test_fundamental_discriminant():
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(12) == 12  # sqrt(12) = 2 sqrt(3)
    with pytest.raises(DSquare):
        fundamental_discriminant(9)


def test_split_symbol():
    # -1 is a square mod p iff p = 1 (mod 4)
    assert split_symbol(-1, 5) == 1
    assert split_symbol(-1, 7) == -1
    assert split_symbol(-1, 2) == 0
    assert split_symbol(2, 7) == 1
    assert split_symbol(2, 5) == -1


def test_split_symbols_match_split_symbol():
    # every prime below 10^5, 2, 3 and 5 included: the row of p mod 120 is
    # each symbol computed directly, and split_symbol below 10 000
    primes = primes_up_to(99999)
    assert primes[:3] == [2, 3, 5]
    for p in primes:
        assert _split_symbols(p) == (kronecker(-4, p), kronecker(-3, p), kronecker(8, p),
                                     kronecker(12, p), kronecker(p, 5)), p
    for p in primes_up_to(9999):
        assert _split_symbols(p) == (
            split_symbol(-1, p), split_symbol(-3, p), split_symbol(2, p),
            split_symbol(3, p), split_symbol(p, 5)), p


def test_class_number_known_values():
    known = {1: 1, 2: 1, 3: 1, 5: 2, 6: 2, 7: 1, 11: 1, 23: 3,
             47: 5, 71: 7, 89: 12, 163: 1}
    for d, h in known.items():
        assert class_number(d) == h, d


def test_class_number_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        class_number(12)
    with pytest.raises(NotSquarefree):
        class_number(0)


def test_bernoulli_b2_chi():
    # directly against the defining sum over a period
    for p in (5, 7, 13, 23, 29):
        D0 = fundamental_discriminant(p)
        f = p if p % 4 == 1 else 4 * p
        expected = sum(kronecker(D0, a) * Fraction(a * a, f) for a in range(1, f + 1))
        assert bernoulli_b2_chi(p) == expected
    with pytest.raises(UnsupportedPrime):
        bernoulli_b2_chi(2)


@pytest.mark.parametrize("n", [15, 9, 4, 1, 0, -5])
def test_non_prime_level_is_refused(n):
    # a_p(9) returned 1, a_p(4) 4, and bernoulli_b2_chi(15) B_2 of Q(sqrt(15))
    with pytest.raises(NotPrimeLevel):
        a_p(n)
    with pytest.raises(NotPrimeLevel):
        bernoulli_b2_chi(n)


def test_a_p():
    assert a_p(5) == 1 and a_p(13) == 1
    assert a_p(7) == 2 and a_p(23) == 2
    assert a_p(3) == 4 and a_p(11) == 4
    with pytest.raises(UnsupportedPrime):
        a_p(2)


def test_primes():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []
    assert [n for n in range(5000) if is_prime(n)] == primes_up_to(4999)
    # two primes, the square of a prime, and two Carmichael numbers, which
    # pass a Fermat test
    assert [is_prime(n) for n in (1_000_003, 2**31 - 1, 1009**2, 561, 41_041)] == [
        True, True, False, False, False]
    assert len(primes_up_to(607)) == 111


def test_is_prime_refuses_a_huge_composite_from_a_small_table():
    # the table grows toward sqrt(n) only as far as the least prime factor
    # asks: 10^12 + 1 = 73 * 137 * 99990001 stops at the bound 4096, where a
    # table to sqrt(10^12) would hold 2^20 entries
    before = len(kernels._spf)
    assert not is_prime(10**12 + 1) and not is_prime(2 * 10**12)
    assert len(kernels._spf) <= max(before, 8192)


@pytest.mark.parametrize("x", [7.0, 7.5, "7"])
def test_non_integer_input_is_typed_error(x):
    # each used to raise a bare TypeError, except that squarefree_part and
    # split_symbol computed with 7.0 as if it were 7
    class_number(7)
    bernoulli_b2_chi(7)
    with pytest.raises(NotPrimeLevel):
        check_level(x)
    with pytest.raises(NotSquarefree):
        class_number(x)
    with pytest.raises(ParadimError):
        primes_up_to(x)
    with pytest.raises(ParadimError):
        squarefree_part(x)
    with pytest.raises(ParadimError):
        split_symbol(x, 7)
    # a_p(7.0) returned 2 and split_symbol(2, 7.0) returned 1
    with pytest.raises(NotPrimeLevel):
        a_p(x)
    with pytest.raises(NotPrimeLevel):
        bernoulli_b2_chi(x)
    with pytest.raises(ParadimError):
        split_symbol(2, x)
