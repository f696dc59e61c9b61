"""Arithmetic kernels: the Kronecker symbol, the class number h(D) of an
imaginary quadratic discriminant, and the quadratic character sum behind
the generalized Bernoulli number B_{2,chi}.

The naive versions in ``paradim._kernels_py`` are kept as test oracles.
"""
from array import array
from math import gcd, isqrt

from .errors import BadDiscriminant, NonIntegral


def kronecker(a, n):
    """Kronecker symbol (a/n) for any integers a, n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # strip factors of 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol on the odd part by quadratic reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def class_number_from_disc(D):
    """Class number of the imaginary quadratic order of discriminant D < 0.

    Counts the reduced primitive forms (a, b, c), b^2 - 4ac = D, with
    |b| <= a <= c and b >= 0 when |b| = a or a = c, taking b first
    (Cohen, GTM 138, Alg. 5.3.5): for each b >= 0 with b = D (mod 2) and
    3 b^2 <= |D|, the a are the divisors of N = (b^2 - D)/4 with
    max(b, 1) <= a <= sqrt(N).  A form with 0 < b < a < c stands for
    itself and (a, -b, c).
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D} is not a negative discriminant")
    h = 0
    for b in range(D % 2, isqrt(-D // 3) + 1, 2):
        N = (b * b - D) // 4
        for a in range(max(b, 1), isqrt(N) + 1):
            if N % a:
                continue
            c = N // a
            if gcd(a, b, c) != 1:
                continue
            h += 1 if b == 0 or a == b or a == c else 2
    return h


# _spf[n] is the smallest prime factor of n (for n >= 2); grown on demand.
_spf = array("i", [0, 1])


def _grow_spf(n):
    """Make _spf reach n, at least doubling its length."""
    global _spf
    size = max(n + 1, 2 * len(_spf))
    spf = array("i", range(size))
    primes = [q for q in range(2, isqrt(size - 1) + 1)
              if all(q % r for r in range(2, isqrt(q) + 1))]
    # largest prime first, so the smallest one writes last
    for q in reversed(primes):
        spf[q * q::q] = array("i", [q]) * len(range(q * q, size, q))
    _spf = spf


def _sigma1(n):
    """Sum of the divisors of n >= 1, from its factorisation by _spf."""
    if n >= len(_spf):
        _grow_spf(n)
    spf = _spf
    total = 1
    while n > 1:
        q = spf[n]
        term = power = 1
        while n % q == 0:
            n //= q
            power *= q
            term += power
        total *= term
    return total


def _is_fundamental(D):
    """Whether D > 1 is the discriminant of a real quadratic field."""
    if D % 4 == 1:
        m = D
    elif D % 16 in (8, 12):
        m = D // 4
    else:
        return False
    return D > 1 and all(m % (d * d) for d in range(2, isqrt(m) + 1))


def b2_character_sum(D0, f):
    """sum_{a=1}^{f} (D0/a) * a^2 for f = D0 a positive fundamental
    discriminant; it equals D0 * B_{2,chi} for chi = (D0/.).

    Cohen (Math. Ann. 217, 1975): B_{2,chi} = 24 zeta_K(-1) and
    zeta_K(-1) = (1/60) S with S = sum sigma_1((D0 - s^2)/4) over all
    integers s = D0 (mod 2) with s^2 < D0, so the sum is (2/5) D0 S.
    """
    if f != D0:
        raise BadDiscriminant(f"only the full conductor f = D0 is supported, "
                              f"got D0 = {D0}, f = {f}")
    if not _is_fundamental(D0):
        raise BadDiscriminant(f"{D0} is not a positive fundamental discriminant")
    S = 0
    for s in range(D0 % 2, isqrt(D0 - 1) + 1, 2):
        term = _sigma1((D0 - s * s) // 4)
        S += term if s == 0 else 2 * term
    q, r = divmod(2 * D0 * S, 5)
    if r:
        raise NonIntegral(f"2 * {D0} * {S} / 5 is not an integer")
    return q
