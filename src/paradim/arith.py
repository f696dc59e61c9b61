"""Number-theoretic ingredients of a prime level: split symbols,
imaginary quadratic class numbers, generalized Bernoulli numbers
B_{2,chi}, a_p, and the primality test.

The quadratic symbols of a level have one route, _split_symbols(p), a
cached row of p mod 120, which elliptic._record (the first three) and
compact._invariants read.  a_p has no caller in the package, since
elliptic reads a_p h(p) from the invariants: it serves only the
difference oracle of tests/test_assembly_oracle.py and the benchmark's
tracer.  Primes have one source, the
smallest-prime-factor table of paradim.kernels, which primes_up_to slices
and is_prime reads: below the end of the table a lookup answers, past it
trial division by the table's primes up to a squaring bound.
check_level refuses a level through is_prime.
"""
from bisect import bisect_right
from functools import lru_cache
from math import isqrt

from .errors import DSquare, NotPrimeLevel, NotSquarefree, ParadimError, UnsupportedPrime
from .exactmath import is_int
from .kernels import (_field_disc, _least_factor, _primes_to, _reduced_forms, b2_character_sum,
                      kronecker, squarefree_part)


def fundamental_discriminant(d):
    """Fundamental discriminant of Q(sqrt(d)); DSquare if the field is Q."""
    d0 = squarefree_part(d)
    if d0 == 1:
        raise DSquare(f"{d} is a perfect square")
    return _field_disc(d0)


def split_symbol(d, p):
    """(d/p): 1, -1, 0 as p splits, is inert, or ramifies in Q(sqrt(d))."""
    if not is_int(p):
        raise ParadimError(f"the prime of a split symbol must be an integer, got {p!r}")
    if d == 0:
        raise DSquare("d must be nonzero")
    return kronecker(fundamental_discriminant(d), p)


def _split_symbols(p):
    """(-4/p), (-3/p), (8/p), (12/p) and (p/5) at the prime p: split_symbol(d, p)
    for d = -1, -3, 2, 3, and split_symbol(p, 5), as (4p/5) = (p/5).

    Each is a Kronecker symbol of a fundamental discriminant D = -4, -3, 8, 12
    in the bottom, a character mod |D|, or the Legendre symbol mod 5 in the
    top, so each is periodic in p with a period dividing 120.  The primes that
    share a factor with 120 are 2, 3 and 5, and each is alone in its residue
    class, where the row holds its own symbols; so the row of p mod 120 is
    exact at every prime."""
    return _symbol_row(p % 120)


@lru_cache(maxsize=None)
def _symbol_row(r):
    """The five symbols of _split_symbols at r, computed directly."""
    return kronecker(-4, r), kronecker(-3, r), kronecker(8, r), kronecker(12, r), kronecker(r, 5)


@lru_cache(maxsize=None)
def class_number(d):
    """h(sqrt(-d)): class number of the imaginary quadratic field Q(sqrt(-d))."""
    if not is_int(d) or d < 1:
        raise NotSquarefree(f"d must be a positive integer, got {d!r}")
    if squarefree_part(d) != d:
        raise NotSquarefree(f"{d} is not squarefree")
    # d squarefree makes D fundamental, so h(D) is its number of reduced
    # forms; class_number_from_disc would factor D again to find that out
    return _reduced_forms(_field_disc(-d))


# typed, so that 5.0 misses the entry of 5 and is refused
@lru_cache(maxsize=None, typed=True)
def bernoulli_b2_chi(p):
    """B_{2,chi} = b2_character_sum(D0) / D0 for chi the quadratic character of
    Q(sqrt(p)), p a prime other than 2, 3, of conductor D0 = p or 4p as p = 1 or 3
    (mod 4); the linear term of the defining sum vanishes for even chi.
    NotPrimeLevel for a p that is not a prime int, UnsupportedPrime at 2 and 3."""
    check_level(p)
    if p in (2, 3):
        raise UnsupportedPrime(f"B_2,chi is not consumed for p = {p}")
    D0 = _field_disc(p)
    from fractions import Fraction  # no command calls this; fractions loads decimal
    return Fraction(b2_character_sum(D0), D0)


def a_p(p):
    """1, 2, 4 as the prime p > 2 is 1 (mod 4), 7 (mod 8) or 3 (mod 8)."""
    check_level(p)
    if p == 2:
        raise UnsupportedPrime("a_p is undefined at p = 2")
    if p % 4 == 1:
        return 1
    return 2 if p % 8 == 7 else 4


def is_prime(n):
    """Whether the integer n is prime.  Below the end of the kernels' table
    that is whether n is its own least prime factor.  Past it, no prime of
    the table up to sqrt(n) may divide n: the table is grown to sqrt(n) by
    squaring the bound from 64, so a composite with a small factor is
    refused before the table reaches the root of a large n.  A prime past
    the table grows it to the power of two past sqrt(n), 4 bytes an entry
    plus the list of its primes: is_prime(10**15 + 37) builds a table of
    2^25 entries with 2 063 689 primes, about 222 MiB more peak memory
    and 4.7 s in a fresh process (Python 3.11, one Xeon core)."""
    if n < 2:
        return False
    q = _least_factor(n)
    if q is not None:
        return q == n
    root, bound = isqrt(n), 1
    while bound < root:
        bound = min(max(bound * bound, 64), root)
        primes = _primes_to(bound)
        if not all(n % q for q in primes[:bisect_right(primes, bound)]):
            return False
    return True


def check_level(p):
    """NotPrimeLevel unless p is a prime int, the only levels treated here."""
    if not is_int(p) or not is_prime(p):
        raise NotPrimeLevel(f"level {p!r} is not prime")


def primes_up_to(n):
    """Ascending list of primes <= n, sliced off the kernels' prime table;
    ParadimError unless n is an int."""
    if not is_int(n):
        raise ParadimError(f"a prime bound must be an integer, got {n!r}")
    primes = _primes_to(n)
    return primes[:bisect_right(primes, n)]
