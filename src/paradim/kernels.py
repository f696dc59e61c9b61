"""Arithmetic kernels: the Kronecker symbol, the class number h(D) of an
imaginary quadratic discriminant, and the quadratic character sum behind
the generalized Bernoulli number B_{2,chi}.

h(D) of a fundamental D counts reduced forms (a, b, c) by a, from two
rows of each a: the root-count row, #{b mod 2a : b^2 = r (mod 4a)} for
every r mod 4a, and the row of squares, b^2 mod 4a for 0 <= b <= a
(_reduced_forms).  The rows are built once and kept, so they pay off when
one process asks many discriminants, as search zero3, bias and verify
do.  They grow at most to twice the rows already built, or to
_ROW_FLOOR, and stop at a = _ROW_TOP, that is |D| < 3 (_ROW_TOP + 1)^2,
about 3.1 million; a D past either bound is counted in O(sqrt|D|) memory
by _sieved_forms and builds no row.  So a process that asks a few large
discriminants pays no rows for them, and one that asks them in ascending
order, as search zero3 does, builds the rows as it goes.
A non-fundamental D = D0 f^2 goes through h(D0) and the conductor formula
(class_number_from_disc).

The field discriminant has one home, _field_disc: h(D) finds D0 with it,
b2_character_sum checks its argument with it, and arith.class_number,
arith.bernoulli_b2_chi, arith.fundamental_discriminant and
compact._invariants read it.

All of these read one set of tables grown on demand.  _spf holds the
least prime factor of each n below a power of two, and _primes the primes
below its end, which every prime bound of the package reads; _grow
extends both together.  The table also answers primality
(arith.is_prime, through _least_factor) and the squarefree part of an n
below its end, so the domain checks of a level cost O(log n) there;
past it squarefree_part trial-divides by the primes to the cube root.
_root_counts[a] and _squares[a] are the two rows of each
0 < a < len(_squares) <= _ROW_TOP + 1 (index 0 holds empty rows),
made to reach sqrt(|D|/3) for the largest |D| asked.  _sigma[n] is
sigma_1(n), which b2_character_sum sums (_sigma1_to).  The rows of a take
4a + 2(a + 1) bytes, so the rows reaching |D| take about |D| bytes, 3 MB
at _ROW_TOP, the order of the sigma_1 table of b2_character_sum(D0) for
D0 near |D|.

tests/test_kernels.py checks these kernels against the naive versions
in tests/naive_kernels.py, which count by definition.
"""
from array import array
from bisect import bisect_right
from itertools import accumulate, repeat
from math import isqrt
from operator import getitem, mod

from .errors import BadDiscriminant, ParadimError
from .exactmath import exact_quotient, is_int


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


def squarefree_part(d):
    """The squarefree d0 with d = s^2 * d0 (sign preserved; 0 for d = 0);
    ParadimError unless d is an int.

    Below the end of _spf, |d| is factored by walking the table.  Past it,
    trial division by the primes up to the cube root of what is left
    leaves at most two prime factors, q^2 exactly when a square is left.
    That is one division per prime to the cube root: 458 primes and about
    25 to 50 us at |d| near 2^35 (Python 3.11, one Xeon core), and a prime
    table of about 27 MiB at |d| near 2^61.
    """
    if not is_int(d):
        raise ParadimError(f"{d!r} is not an integer")
    n = abs(d)
    d0 = -1 if d < 0 else 1
    spf = _spf
    if n < len(spf):
        if not n:
            return 0
        while n > 1:
            q = spf[n]
            n //= q
            if n % q:
                d0 *= q
            else:  # q^2 divides n
                n //= q
        return d0
    for q in _primes_to(1 << (n.bit_length() // 3 + 1)):  # past n^(1/3)
        if q * q * q > n:
            break
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e % 2:
            d0 *= q
    r = isqrt(n)
    return d0 if r * r == n else d0 * n


def _least_factor(n):
    """The least prime factor of 1 < n < len(_spf); None past the table."""
    return _spf[n] if n < len(_spf) else None


def _field_disc(d0):
    """The discriminant of Q(sqrt(d0)) for a squarefree d0 other than 1."""
    return d0 if d0 % 4 == 1 else 4 * d0


def class_number_from_disc(D):
    """Class number h(D) of the imaginary quadratic order of discriminant
    D < 0 (BadDiscriminant for anything else).

    For D = D0 f^2 with D0 fundamental and f > 1 it is (Cox, *Primes of
    the form x^2 + ny^2*, Thm 7.24)
        h(D) = h(D0) f / u * prod_{q | f} (1 - (D0/q) / q),
    with the unit index u = 3 at D0 = -3, 2 at D0 = -4 and 1 otherwise.
    """
    if not is_int(D) or D >= 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"{D!r} is not a negative discriminant")
    D0 = _field_disc(squarefree_part(D))
    f = isqrt(D // D0)
    h = _reduced_forms(D0)
    if f == 1:
        return h
    h *= f
    rest = f
    for q in _primes_to(isqrt(f)):
        if q * q > rest:
            break
        if rest % q == 0:
            h = h // q * (q - kronecker(D0, q))
            while rest % q == 0:
                rest //= q
    if rest > 1:  # a prime
        h = h // rest * (rest - kronecker(D0, rest))
    return h // (3 if D0 == -3 else 2 if D0 == -4 else 1)


def _reduced_forms(D):
    """Number of reduced forms (a, b, c), b^2 - 4ac = D, |b| <= a <= c and
    b >= 0 when |b| = a or a = c, for a fundamental D < 0 (all of them are
    primitive).

    While 4a^2 < |D| every b in (-a, a] with b^2 = D (mod 4a) has c > a,
    so each such a adds the entry of its root-count row at D mod 4a; one
    C-level pass adds them all.  For the a with |D| <= 4a^2 <= 4|D|/3,
    c >= a asks b >= b0 = ceil(sqrt(4a^2 - |D|)), and the roots b in [b0, a]
    are counted in the row of squares of a.  Each gives the forms (a, b, c)
    and (a, -b, c), one form only when b = a, or when c = a, that is
    b0^2 = 4a^2 - |D| (then b0 is a root, as 4a^2 - |D| = D (mod 4a));
    b = 0 occurs only with c = a.
    """
    n = -D
    amax = isqrt((n - 1) // 4)  # the a with 4 a^2 < |D|
    top = isqrt(n // 3)
    # the rows grow at most to twice what earlier calls built
    if top > min(_ROW_TOP, max(_ROW_FLOOR, 2 * (len(_squares) - 1))):
        return _sieved_forms(D, amax, top)
    counts, squares = _root_rows_to(top)
    h = sum(map(getitem, counts[1:amax + 1], map(mod, repeat(D), range(4, 4 * amax + 1, 4))))
    for a in range(amax + 1, top + 1):
        four_a = 4 * a
        r = D % four_a
        if not counts[a][r]:
            continue
        row = squares[a]
        t = a * four_a - n
        b0 = isqrt(t - 1) + 1 if t else 0  # the least b with c >= a
        h += 2 * row[b0:].count(r) - (row[a] == r) - (b0 < a and b0 * b0 == t)
    return h


def _sieved_forms(D, amax, top):
    """_reduced_forms(D) without the rows, for its amax and top.

    The root count rho(a) = #{b mod 2a : b^2 = D (mod 4a)} is
    multiplicative: rho(q^e) = 1 + (D/q) for q not dividing D (q = 2
    included), and 1 for e = 1, 0 for e >= 2 when q | D.  The primes q up
    to sqrt(amax) act on a list of rho; a larger prime divides each
    a <= amax at most once, as a = q m with m < q, so it adds
    (D/q) * sum_{m <= amax/q} rho(m).  The a past amax try each b of the
    parity of D from b0 = ceil(sqrt(4a^2 - |D|)), except where the small
    primes of a already make rho(a) = 0.
    """
    root = isqrt(amax)
    primes = _primes_to(amax)
    small = bisect_right(primes, root)
    big = bisect_right(primes, amax)
    rho = [1] * (top + 1)
    rho[0] = 0
    for q in primes[:small]:
        chi = kronecker(D, q)
        if chi == 1:
            rho[q::q] = [2 * r for r in rho[q::q]]
        elif chi == -1:
            rho[q::q] = [0] * len(range(q, top + 1, q))
        else:
            rho[q * q::q * q] = [0] * len(range(q * q, top + 1, q * q))
    h = sum(rho[:amax + 1])
    below = list(accumulate(rho[:root + 1]))
    for q in primes[small:big]:
        h += kronecker(D, q) * below[amax // q]
    for a in range(amax + 1, top + 1):
        if not rho[a]:
            continue
        four_a = 4 * a
        t = a * four_a + D
        b = isqrt(t - 1) + 1 if t else 0  # the least b with c >= a
        for b in range(b + (b - D) % 2, a + 1, 2):
            num = b * b - D
            if num % four_a == 0:
                h += 1 if b == a or num == a * four_a else 2
    return h


_ROW_TOP = 1024
_ROW_FLOOR = 64
_spf = array("i", [0, 1])
_primes = []
_root_counts = [array("B")]
_squares = [array("H")]
_sigma = array("q", [0, 1])


def _grow(n):
    """Make _spf reach n, at least doubling its length to a power of two
    (so that its size does not depend on the order of the calls), sieved by
    the primes to sqrt(size) of the old table, grown first if too short."""
    global _spf, _primes
    size = max(1 << n.bit_length(), 2 * len(_spf))
    root = isqrt(size - 1)
    if root >= len(_spf):
        _grow(root)
    spf = array("i", range(size))
    # largest prime first, so the smallest one writes last
    for q in reversed(_primes[:bisect_right(_primes, root)]):
        spf[q * q::q] = array("i", [q]) * len(range(q * q, size, q))
    _spf = spf
    _primes = [q for q in range(2, size) if spf[q] == q]


def _primes_to(m):
    """Ascending list of every prime below len(_spf), which exceeds m."""
    if m >= len(_spf):
        _grow(m)
    return _primes


def _root_rows(a):
    """The root-count row of 0 < a <= _ROW_TOP as bytes, and its row of
    squares as an array of 16-bit entries.  b and 2a - b have one
    square mod 4a, so b = 0 and b = a count once in the first row and every
    other b of the second row twice.  No entry wraps: a count first reaches
    256 at a = 24576 = 2^13 * 3, and 4a - 1 < 2^16 while a <= 16384; past
    those, bytes and array raise rather than wrap."""
    four_a = 4 * a
    squares = [b * b % four_a for b in range(a + 1)]
    counts = [0] * four_a
    for s in squares:
        counts[s] += 2
    counts[0] -= 1
    counts[squares[a]] -= 1
    return bytes(counts), array("H", squares)


def _root_rows_to(a):
    """The lists of root-count rows and of rows of squares, made to reach a."""
    for m in range(len(_squares), a + 1):
        counts, squares = _root_rows(m)
        _root_counts.append(counts)
        _squares.append(squares)
    return _root_counts, _squares


def _sigma1_to(n):
    """The table of sigma_1, made to reach n: at least doubled, to a power
    of two no longer than _spf, which is grown first if too short.

    sigma_1(q^e m) = sigma_1(q^e) sigma_1(m) for q not dividing m, and
    sigma_1(q^e) = (q + 1) sigma_1(q^(e-1)) - q sigma_1(q^(e-2)) for e >= 2,
    so with q = spf(n), sigma(n) = (q+1) sigma(n/q) - q sigma(n/q^2) [q^2 | n].
    """
    if n >= len(_sigma):
        if n >= len(_spf):
            _grow(n)
        spf, sigma = _spf, _sigma
        for m in range(len(sigma), min(max(1 << n.bit_length(), 2 * len(sigma)), len(spf))):
            q = spf[m]
            k = m // q
            sigma.append((q + 1) * sigma[k] - q * sigma[k // q] if k % q == 0
                         else (q + 1) * sigma[k])
    return _sigma


def b2_character_sum(D0):
    """sum_{a=1}^{D0} (D0/a) * a^2 for D0 a positive fundamental
    discriminant, the conductor of chi = (D0/.); it equals D0 * B_{2,chi}.

    Cohen (Math. Ann. 217, 1975): B_{2,chi} = 24 zeta_K(-1) = 2 S / 5, S the sum of
    sigma_1((D0 - s^2)/4) over the integers s = D0 (mod 2) with s^2 < D0, so the sum
    is (2/5) D0 S.  So 5 B_{2,chi} = 2 S is an even integer; that is why
    compact.DEN = 2880 is one constant for every prime.
    """
    if not is_int(D0) or not (D0 > 1 and _field_disc(squarefree_part(D0)) == D0):
        raise BadDiscriminant(f"{D0!r} is not a positive fundamental discriminant")
    sigma = _sigma1_to(D0 // 4)
    S = 2 * sum(sigma[(D0 - s * s) // 4] for s in range(D0 % 2, isqrt(D0 - 1) + 1, 2))
    if D0 % 2 == 0:  # the term of s = 0 is counted once
        S -= sigma[D0 // 4]
    return exact_quotient(2 * D0 * S, 5, "2 * {} * {} / 5", D0, S)
