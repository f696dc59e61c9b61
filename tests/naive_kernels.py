"""Naive kernels, the oracles that tests/test_kernels.py checks
``paradim.kernels`` against.

They count by definition: h(D) checks every pair (a, b) with
|b| <= a <= sqrt(|D|/3), the B_{2,chi} sum makes one Kronecker call
per residue, and the squarefree part divides out squares s^2 without
asking whether s is prime.
"""
from math import gcd, isqrt

from paradim.kernels import kronecker


def class_number_from_disc(D):
    """Class number of the imaginary quadratic order of discriminant D < 0,
    by counting reduced primitive forms (A, B, C), B^2 - 4AC = D:
    -A < B <= A <= C, with B >= 0 when A = C."""
    h = 0
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        four_a = 4 * a
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % four_a:
                continue
            c = num // four_a
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                h += 1
    return h


def b2_character_sum(D0, f):
    """sum_{a=1}^{f} (D0/a) * a^2 for the Kronecker character mod f."""
    return sum(kronecker(D0, a) * a * a for a in range(1, f + 1))


def squarefree_part(d):
    """d over the largest square that divides it (0 for d = 0): every s^2
    with s >= 2 is divided out while it divides, until s^2 passes what is
    left."""
    n, s = abs(d), 2
    while s * s <= n:
        while n % (s * s) == 0:
            n //= s * s
        s += 1
    return -n if d < 0 else n


def squarefree_parts(m):
    """[squarefree_part(n) for n in range(m + 1)]: each s^2 <= m is written
    on its multiples in increasing s, so each n keeps its largest square
    divisor."""
    square = [1] * (m + 1)
    for s in range(2, isqrt(m) + 1):
        square[s * s::s * s] = [s * s] * (m // (s * s))
    return [n // q for n, q in zip(range(m + 1), square)]
