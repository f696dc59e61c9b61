"""Number-theoretic ingredients: splitting symbols, imaginary quadratic
class numbers, generalized Bernoulli numbers B_{2,chi}, and a_p."""
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import DSquare, NotPrimeLevel, NotSquarefree, ParadimError, UnsupportedPrime
from .kernels import _reduced_forms, b2_character_sum, kronecker, squarefree_part


def fundamental_discriminant(d):
    """Fundamental discriminant of Q(sqrt(d)); DSquare if the field is Q."""
    d0 = squarefree_part(d)
    if d0 == 1:
        raise DSquare(f"{d} is a perfect square")
    return d0 if d0 % 4 == 1 else 4 * d0


def split_symbol(d, p):
    """(d/p): 1, -1, 0 as p splits, is inert, or ramifies in Q(sqrt(d))."""
    if not isinstance(p, int):
        raise ParadimError(f"the prime of a split symbol must be an integer, got {p!r}")
    if d == 0:
        raise DSquare("d must be nonzero")
    return kronecker(fundamental_discriminant(d), p)


@lru_cache(maxsize=None)
def class_number(d):
    """h(sqrt(-d)): class number of the imaginary quadratic field Q(sqrt(-d))."""
    if not isinstance(d, int) or d < 1:
        raise NotSquarefree(f"d must be a positive integer, got {d!r}")
    if squarefree_part(d) != d:
        raise NotSquarefree(f"{d} is not squarefree")
    # d squarefree makes D fundamental, so h(D) is its number of reduced
    # forms; class_number_from_disc would factor D again to find that out
    return _reduced_forms(-d if d % 4 == 3 else -4 * d)


@lru_cache(maxsize=None)
def bernoulli_b2_chi(p):
    """B_{2,chi} for chi the quadratic character attached to Q(sqrt(p)).

    The conductor is p for p = 1 (mod 4) and 4p for p = 3 (mod 4); the
    linear term of the defining sum vanishes for even chi.
    """
    if p in (2, 3):
        raise UnsupportedPrime(f"B_2,chi is not consumed for p = {p}")
    D0 = fundamental_discriminant(p)
    f = p if p % 4 == 1 else 4 * p
    return Fraction(b2_character_sum(D0, f), f)


def a_p(p):
    """1, 2, 4 according to p = 1 (mod 4), 7 (mod 8), 3 (mod 8)."""
    if not isinstance(p, int):
        raise NotPrimeLevel(f"a_p needs an integer prime, got {p!r}")
    if p == 2:
        raise UnsupportedPrime("a_p is undefined at p = 2")
    if p % 4 == 1:
        return 1
    return 2 if p % 8 == 7 else 4


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


def check_level(p):
    """NotPrimeLevel unless p is a prime int, the only levels treated here."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeLevel(f"level {p!r} is not prime")


def primes_up_to(n):
    """Ascending list of primes <= n (simple sieve); ParadimError unless n
    is an int."""
    if not isinstance(n, int):
        raise ParadimError(f"a prime bound must be an integer, got {n!r}")
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]
