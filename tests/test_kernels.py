from array import array
from collections import Counter
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from paradim import kernels
from paradim.arith import primes_up_to
from paradim.errors import BadDiscriminant

import naive_kernels


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(-40, 40))
def test_kronecker_multiplicative_in_top(a, b, n):
    k = kernels.kronecker
    if n == -1 and a * b == 0:
        # (a/-1) is the sign of a, with (0/-1) = 1: here, and only here in
        # this range, (0/-1) differs from (0/-1)(b/-1) for a negative b
        assert k(a * b, n) == 1
    else:
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
                    == naive_kernels.class_number_from_disc(D)), D


# every fifth prime up to 3 500, and the last few
LEVEL_SAMPLE = sorted({*primes_up_to(3500)[::5], 3457, 3461, 3463, 3467, 3469, 3491, 3499})


def test_class_number_from_disc_matches_pure_on_level_discriminants():
    # the discriminants of Q(sqrt(-d)), d in {p, 2p, 3p}, reach |D| = 42 000
    for p in LEVEL_SAMPLE:
        for d in {p, 2 * p, 3 * p} - {9}:
            D = -d if d % 4 == 3 else -4 * d
            assert (kernels.class_number_from_disc(D)
                    == naive_kernels.class_number_from_disc(D)), D


@pytest.mark.parametrize("D0", [-3, -4, -7, -8, -15, -20, -23])
def test_class_number_from_disc_matches_pure_on_orders(D0):
    # D0 f^2: the unit index is 3 at D0 = -3, 2 at D0 = -4 and 1 otherwise
    for f in range(1, 21):
        D = D0 * f * f
        assert (kernels.class_number_from_disc(D)
                == naive_kernels.class_number_from_disc(D)), D


def test_b2_character_sum_matches_pure():
    for p in primes_up_to(3000):
        if p < 5:
            continue
        D0 = p if p % 4 == 1 else 4 * p
        assert kernels.b2_character_sum(D0) == naive_kernels.b2_character_sum(D0, D0), p


# ids D0-f, f = D0 being the conductor the sum runs to
@pytest.mark.parametrize("D0", [9, 20, 16, 1, 0, -3, "5", None, 12.0],
                         ids=lambda D0: f"{D0}-{D0}")
def test_b2_character_sum_rejects_bad_input(D0):
    with pytest.raises(BadDiscriminant):
        kernels.b2_character_sum(D0)


def _was_fundamental(D):
    """The real quadratic field discriminant test _field_disc replaced."""
    if D % 4 == 1:
        m = D
    elif D % 16 in (8, 12):
        m = D // 4
    else:
        return False
    return D > 1 and kernels.squarefree_part(m) == m


def test_field_disc_matches_the_rules_it_replaced():
    for d in range(-3000, 3000):
        d0 = kernels.squarefree_part(d)
        if d0 in (0, 1):
            continue
        # arith.fundamental_discriminant, kernels.class_number_from_disc
        # and arith.bernoulli_b2_chi (d0 = p)
        assert kernels._field_disc(d0) == (d0 if d0 % 4 == 1 else 4 * d0), d
        if d > 0 and d0 == d:  # arith.class_number, at -d
            assert kernels._field_disc(-d) == (-d if d % 4 == 3 else -4 * d), d
    for D in range(-50, 20000):
        is_field_disc = D > 1 and kernels._field_disc(kernels.squarefree_part(D)) == D
        assert is_field_disc == _was_fundamental(D), D


def _naive_primes(n):
    return [q for q in range(2, n + 1) if all(q % r for r in range(2, isqrt(q) + 1))]


@pytest.fixture
def fresh_table(monkeypatch):
    """The prime, root-row and sigma_1 tables as at import, restored
    after the test."""
    monkeypatch.setattr(kernels, "_spf", array("i", [0, 1]))
    monkeypatch.setattr(kernels, "_primes", [])
    monkeypatch.setattr(kernels, "_root_counts", [array("B")])
    monkeypatch.setattr(kernels, "_squares", [array("H")])
    monkeypatch.setattr(kernels, "_sigma", array("q", [0, 1]))


def test_prime_table_grows_in_one_jump(fresh_table):
    # the primes that sieve the new table reach past the end of the old one
    assert kernels._sigma1_to(5000)[5000] == sum(d for d in range(1, 5001) if 5000 % d == 0)
    size = len(kernels._spf)
    assert size == 8192
    for n in range(2, size):
        q = 2
        while n % q:
            q += 1
        assert kernels._spf[n] == q, n
    for n in (-3, 0, 1, 2, 3, 100, size - 1):
        assert primes_up_to(n) == _naive_primes(n), n
    assert kernels._primes == _naive_primes(size - 1)


@pytest.mark.parametrize("first", ["_sigma1_to", "_primes_to"])
def test_prime_table_size_is_independent_of_call_order(fresh_table, first):
    calls = {"_sigma1_to": lambda: kernels._sigma1_to(3000),
             "_primes_to": lambda: kernels._primes_to(300)}
    calls[first]()
    calls["_primes_to" if first == "_sigma1_to" else "_sigma1_to"]()
    assert len(kernels._spf) == 4096
    assert kernels._primes == _naive_primes(4095)


def _brute_root_rows(a):
    four_a = 4 * a
    roots = Counter(b * b % four_a for b in range(2 * a))
    return [roots[r] for r in range(four_a)], [b * b % four_a for b in range(a + 1)]


def test_root_rows_match_brute_force(fresh_table):
    counts, squares = kernels._root_rows_to(300)
    assert len(counts) == len(squares) == 301
    for a in range(1, 301):
        assert (list(counts[a]), list(squares[a])) == _brute_root_rows(a), a


def test_root_rows_grow_in_order(fresh_table):
    # a longer request extends the rows already built and keeps them; the
    # tables reach exactly the a asked for, whatever the order of the calls
    first = [row[:] for row in kernels._root_rows_to(20)[0]]
    counts, squares = kernels._root_rows_to(50)
    assert counts[:21] == first
    assert kernels._root_rows_to(10) == (counts, squares)
    assert [len(row) for row in counts] == [4 * a for a in range(51)]
    assert [len(row) for row in squares] == [0, *range(2, 52)]


def test_root_rows_hold_every_entry_up_to_the_cap(fresh_table):
    # the rows stop at _ROW_TOP; there a square stays below 2^16 and a root
    # count below 256 (it is 52 at most, reached at a = 1014)
    top = kernels._ROW_TOP
    assert 4 * top - 1 < 2**16
    counts, squares = kernels._root_rows_to(top)
    assert len(counts) == len(squares) == top + 1
    assert max(max(row) for row in counts[1:]) == max(counts[1014]) == 52
    for a in (1014, top):
        assert (list(counts[a]), list(squares[a])) == _brute_root_rows(a), a


def test_sieved_forms_match_the_rows_below_40000():
    for D in range(-39999, 0):
        if D % 4 in (0, 1) and kernels._field_disc(kernels.squarefree_part(D)) == D:
            n = -D
            amax, top = isqrt((n - 1) // 4), isqrt(n // 3)
            assert kernels._sieved_forms(D, amax, top) == kernels._reduced_forms(D), D


@pytest.mark.parametrize("D, rows_built", [(-3151871, True), (-3151879, False)])
def test_class_numbers_past_the_row_cap_build_no_rows(fresh_table, D, rows_built):
    # the fundamental D on each side of |D| = 3 (_ROW_TOP + 1)^2
    assert (isqrt(-D // 3) <= kernels._ROW_TOP) == rows_built
    assert kernels.class_number_from_disc(D) == naive_kernels.class_number_from_disc(D)
    assert len(kernels._squares) == (kernels._ROW_TOP + 1 if rows_built else 1)


def _form_counts(n):
    """h(D) for every discriminant -n < D < 0, indexed by -D, from one pass
    over the reduced forms: for each (a, b), the c >= a (c > a when b < 0)
    step -D by 4a.  That counts the imprimitive forms too, f (a, b, c) for
    each primitive form of D / f^2, which are then taken off in order."""
    total = [0] * n
    for a in range(1, isqrt(n // 3) + 1):
        for b in range(1 - a, a + 1):
            first = 4 * a * (a if b >= 0 else a + 1) - b * b
            total[first::4 * a] = [x + 1 for x in total[first::4 * a]]
    h = total[:]
    for m in range(1, n):
        if h[m]:
            for f in range(2, isqrt((n - 1) // m) + 1):
                h[m * f * f] -= h[m]
    return h


def test_class_number_from_disc_matches_form_count_below_40000():
    h = _form_counts(40000)
    for D in range(-39999, 0):
        if D % 4 in (0, 1):
            assert kernels.class_number_from_disc(D) == h[-D], D
    # the one-pass count is the oracle's count, from one in fifty on
    for D in [*range(-39999, -6000, 50), -39999, -39996]:
        if D % 4 in (0, 1):
            assert naive_kernels.class_number_from_disc(D) == h[-D], D


@pytest.mark.parametrize("D, form, h", [
    (-3, (1, 1, 1), 1),       # b = a and c = a
    (-4, (1, 0, 1), 1),       # b = 0, so c = a
    (-95, (5, 5, 6), 8),      # b = a past 4a^2 < |D|
    (-143, (6, 1, 6), 10),    # c = a past 4a^2 < |D|
    (-16, (2, 0, 2), 1),      # b = 0 and c = a in an order, f = 2
])
def test_class_number_from_disc_counts_the_boundary_forms_once(D, form, h):
    a, b, c = form
    assert b * b - 4 * a * c == D
    assert kernels.class_number_from_disc(D) == naive_kernels.class_number_from_disc(D) == h


def test_sigma1_table_matches_divisor_sum(fresh_table):
    n = 5000
    naive = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            naive[m] += d
    sigma = kernels._sigma1_to(n)
    assert list(sigma[1:n + 1]) == naive[1:]


def test_sigma1_table_grows_to_a_power_of_two(fresh_table):
    kernels._primes_to(5000)
    assert len(kernels._spf) == 8192
    # no longer than needed: to n's power of two, or double the old length
    assert len(kernels._sigma1_to(100)) == 128
    assert len(kernels._sigma1_to(130)) == 256
    assert len(kernels._sigma1_to(255)) == 256
    # never past the prime table, which grows first
    assert len(kernels._sigma1_to(9000)) == len(kernels._spf) == 16384


@pytest.mark.parametrize("D", [0, 5, -1, -2, -7.0, -3.0, "-7"])
def test_class_number_from_disc_rejects_bad_input(D):
    with pytest.raises(BadDiscriminant):
        kernels.class_number_from_disc(D)

