"""Naive kernels, kept as test oracles for ``paradim.kernels``.

They count by definition and stay off the hot path: h(D) checks every
pair (a, b) with |b| <= a <= sqrt(|D|/3), and the B_{2,chi} sum makes one
Kronecker call per residue.
"""
from math import gcd, isqrt

from .kernels import kronecker


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
