from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from paradim import quaternion
from paradim.compact import CHI_INDEX, DEN, level, trace_R
from paradim.errors import (FamilySizeMismatch, NonIntegral, NotPrimeLevel,
                            NotSimilitude, ParadimError)
from paradim.quaternion import (
    ALGEBRA,
    CLASS_OF_POLY,
    COSET_SIZE,
    Algebra,
    _ALPHA,
    _K,
    _S,
    _T,
    add,
    conj,
    elements_of_norm,
    enumerate_pi_gamma,
    family_tallies,
    in_coset3,
    in_hurwitz,
    in_order3,
    neg,
    principal_poly,
    principal_tallies,
    sub,
    trace_vector,
    verify_trace_p23,
)

H, Q3 = ALGEBRA[2], ALGEBRA[3]
units = st.integers(-3, 3)


def q2(w, x, y, z):
    """The Hamilton quaternion w + x i + y j + z k (integer coordinates)."""
    return (2 * w, 2 * x, 2 * y, 2 * z)


# Hurwitz quaternions: doubled coordinates all of one parity
hurwitz = st.builds(lambda parity, cs: tuple(2 * c + parity for c in cs),
                    st.integers(0, 1), st.tuples(units, units, units, units))


def mat_mul(alg, g, h):
    """The product of two 2x2 matrices over `alg`, as (a, b, c, d) tuples."""
    mul = alg.mul
    a, b, c, d = g
    e, f, u, v = h
    return (add(mul(a, e), mul(b, u)), add(mul(a, f), mul(b, v)),
            add(mul(c, e), mul(d, u)), add(mul(c, f), mul(d, v)))


class TestQuat:
    def test_hamilton_relations(self):
        i, j = q2(0, 1, 0, 0), q2(0, 0, 1, 0)
        k = H.mul(i, j)
        assert k == q2(0, 0, 0, 1)
        assert H.mul(i, i) == q2(-1, 0, 0, 0)
        assert H.mul(j, i) == neg(k)
        assert H.mul(H.mul(i, j), i) == H.mul(i, H.mul(j, i))

    def test_norm_and_trace(self):
        q = q2(1, 2, 3, 4)
        assert H.norm(q) == 1 + 4 + 9 + 16
        assert q[0] == 2  # the reduced trace is the first doubled coordinate
        assert H.mul(q, conj(q)) == q2(H.norm(q), 0, 0, 0)
        h = (1, 1, 1, 1)  # (1 + i + j + k)/2
        assert H.norm(h) == 1 and h[0] == 1
        assert H.mul(H.mul(h, h), h) == q2(-1, 0, 0, 0)

    def test_generic_parameters(self):
        assert (H.a, H.b) == (1, 1) and (Q3.a, Q3.b) == (3, 1)
        # e1^2 = -3, e2^2 = -1 (the ramified-at-3 algebra)
        a = (0, 2, 0, 0)
        assert Q3.mul(a, a) == (-6, 0, 0, 0)
        b = (0, 0, 2, 0)
        assert Q3.norm(Q3.mul(a, b)) == Q3.norm(a) * Q3.norm(b)
        omega = (1, 1, 0, 0)  # (1 + e1)/2, a root of x^2 - x + 1
        assert Q3.mul(omega, omega) == sub(omega, (2, 0, 0, 0))

    def test_product_outside_half_lattice_raises(self):
        # (1/2) (e/2) = e/4 for e = 1, e1, e2, e3: one doubled coordinate,
        # and a different one each time, is odd
        for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            with pytest.raises(NonIntegral):
                H.mul((1, 0, 0, 0), e)
        with pytest.raises(NonIntegral):
            H.norm((1, 0, 0, 0))  # N(1/2) = 1/4

    @given(hurwitz, hurwitz)
    def test_norm_multiplicative(self, x, y):
        assert H.norm(H.mul(x, y)) == H.norm(x) * H.norm(y)
        assert in_hurwitz(H.mul(x, y))

    @given(hurwitz, hurwitz, hurwitz)
    def test_associative(self, x, y, z):
        assert H.mul(H.mul(x, y), z) == H.mul(x, H.mul(y, z))


class TestOrder:
    def test_hurwitz_units(self):
        assert len(elements_of_norm(1, H, in_hurwitz)) == 24
        assert in_hurwitz((1, -1, 1, -1))
        assert not in_hurwitz((1, 0, 0, 0))

    def test_elements_of_norm(self):
        # Hurwitz quaternions of norm 2: 24 of them
        assert len(elements_of_norm(2, H, in_hurwitz)) == 24
        # the maximal order at 3 has 12 units
        units3 = elements_of_norm(1, Q3, in_order3)
        assert len(units3) == 12
        assert all(Q3.norm(q) == 1 and in_order3(q) for q in units3)
        assert in_order3((1, 1, 2, 0))
        assert not in_order3((1, 0, 1, 1))


def test_similitude():
    one, zero = q2(1, 0, 0, 0), q2(0, 0, 0, 0)
    # the identity has similitude 1: (x - 1)^4
    assert principal_poly(H, (one, zero, zero, one)) == (1, -4, 6, -4, 1)
    # rows of equal norm that are not orthogonal
    with pytest.raises(NotSimilitude, match="orthogonal"):
        principal_poly(H, (one, zero, one, zero))
    with pytest.raises(NotSimilitude, match="different norms"):
        principal_poly(H, (one, zero, zero, q2(1, 1, 0, 0)))


def test_middle_coefficient_is_cross_checked():
    # a norm twice the true one passes the row tests (both sides double)
    # but not tr(a) tr(d) - N(b + c-bar) + 2n = (T^2 - T2)/2
    bad = Algebra(1, 1)
    bad.norm = lambda q: 2 * H.norm(q)
    one, zero = q2(1, 0, 0, 0), q2(0, 0, 0, 0)
    with pytest.raises(NotSimilitude, match="middle coefficient"):
        principal_poly(bad, (one, zero, zero, one))


def test_principal_poly_of_scalar():
    two, zero = q2(2, 0, 0, 0), q2(0, 0, 0, 0)
    # 2 * identity: (x - 2)^4 with similitude 4
    assert principal_poly(H, (two, zero, zero, two)) == (16, -32, 24, -8, 1)


@lru_cache(maxsize=None)
def p2_coset():
    return [g for fam in enumerate_pi_gamma(2) for g in fam]


@given(st.integers(0, 1919), st.integers(0, 1919))
def test_square_trace_matches_full_square(i, j):
    # g = g_i g_j, a product of two elements of the p = 2 coset, has
    # similitude 4; its x^3 and x^2 coefficients are -T and (T^2 - tr(g g))/2,
    # with g g the full matrix product
    g = mat_mul(H, p2_coset()[i], p2_coset()[j])
    gg = mat_mul(H, g, g)
    t, t2 = g[0][0] + g[3][0], gg[0][0] + gg[3][0]
    assert principal_poly(H, g) == (16, -4 * t, (t * t - t2) // 2, -t, 1)
    assert (t * t - t2) % 2 == 0


# (w + x alpha + y beta + z alpha beta)/2, alpha^2 = -3, beta^2 = -1
ONE3, ZERO3, ALPHA, BETA = (2, 0, 0, 0), (0, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)


def star(m):
    """Conjugate transpose."""
    a, b, c, d = m
    return (conj(a), conj(c), conj(b), conj(d))


def test_p3_lattice_constants():
    assert _ALPHA == ALPHA
    assert _S == add(ONE3, BETA)
    assert _T == Q3.mul(_S, ALPHA)
    assert _K == Q3.mul(ALPHA, BETA)
    # alpha beta = 3 (beta alpha)^{-1}
    assert Q3.mul(_K, Q3.mul(BETA, ALPHA)) == (6, 0, 0, 0)


@lru_cache(maxsize=None)
def p3_candidates():
    """Every matrix the p = 3 search considers, unpruned, in its order:
    (family, matrix) pairs, 10 656 of them."""
    units = elements_of_norm(1, Q3, in_order3)
    norm2 = elements_of_norm(2, Q3, in_order3)
    norm3 = elements_of_norm(3, Q3, in_order3)
    out = []
    for A in norm3:
        for D in norm3:
            out.append((0, (A, ZERO3, ZERO3, D)))
            out.append((1, (ZERO3, A, D, ZERO3)))
    for c2 in norm2:
        c2bar = conj(c2)
        for e1 in units:
            for e2 in units:
                y = neg(Q3.mul(Q3.mul(e1, c2bar), e2))
                out.append((2, (e1, y, c2, e2)))
                out.append((3, (c2, e2, e1, y)))
    return out


def lattice_integrality(delta):
    """Which entries of X = g u g^{-1} (u = delta gamma0^{-1}) are integral
    at 3, as (X11, X12, X21, X22), and whether g u* g^{-1} is integral
    (None when X is not), straight from the matrices: g = (1, 1+beta;
    0, alpha), gamma0 = diag(beta alpha, alpha).  Every matrix is kept
    integral by scaling 9 X = (g delta)(3 gamma0^{-1})(3 g^{-1})."""
    def prod(*ms):
        out = ms[0]
        for m in ms[1:]:
            out = mat_mul(Q3, out, m)
        return out

    def integral(q):
        return all(c % 9 == 0 for c in q)

    s = add(ONE3, BETA)
    g = (ONE3, s, ZERO3, ALPHA)
    g_inv3 = ((6, 0, 0, 0), Q3.mul(s, ALPHA), ZERO3, neg(ALPHA))
    k = (Q3.mul(ALPHA, BETA), ZERO3, ZERO3, neg(ALPHA))
    entries = tuple(map(integral, prod(g, delta, prod(k, g_inv3))))
    if not all(entries):
        return entries, None
    return entries, all(map(integral, prod(g, star(k), star(delta), g_inv3)))


@lru_cache(maxsize=None)
def p3_integrality():
    return [lattice_integrality(m) for _, m in p3_candidates()]


def test_p3_search_matches_unpruned_oracle():
    """The column-first search returns exactly the candidates in the
    coset, element by element and in the order of the full triple loop."""
    cands = p3_candidates()
    assert len(cands) == 10656
    fams = [[], [], [], []]
    for (fam, m), (entries, inverse) in zip(cands, p3_integrality()):
        in_coset = all(entries) and inverse
        assert in_coset3(m) == in_coset
        if in_coset:
            fams[fam].append(m)
    assert [list(f) for f in enumerate_pi_gamma(3)] == fams


def test_p3_each_coset_check_is_needed():
    """in_coset3 tests X11, X12 and X22 only: X21 is always integral and
    the inverse is integral whenever X is.  Each tested entry is the only
    non-integral one for some candidate, so no test can be dropped."""
    pattern = Counter(entries for entries, _ in p3_integrality())
    assert all(x21 for _, _, x21, _ in pattern)
    assert all(inverse for entries, inverse in p3_integrality() if all(entries))
    for alone in ((False, True, True, True), (True, False, True, True),
                  (True, True, True, False)):
        assert pattern[alone] > 0, alone
    assert pattern[(True, True, True, True)] == 720


def test_coset_sizes():
    assert [len(f) for f in enumerate_pi_gamma(2)] == [192, 192, 192, 192, 1152]
    assert [len(f) for f in enumerate_pi_gamma(3)] == [36, 36, 324, 324]
    for p in (2, 3):
        assert sum(len(f) for f in enumerate_pi_gamma(p)) == COSET_SIZE[p]


def test_coset_refuses_an_element_of_other_similitude(monkeypatch):
    # the identity has similitude 1; the uncached pass must refuse it
    one, zero = q2(1, 0, 0, 0), q2(0, 0, 0, 0)
    monkeypatch.setattr(quaternion, "_p2_families",
                        lambda: [[(one, zero, zero, one)]])
    with pytest.raises(NotSimilitude):
        quaternion._coset.__wrapped__(2)


def test_family_sizes_are_checked(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(quaternion, "in_hurwitz", lambda q: False)  # no units
        with pytest.raises(FamilySizeMismatch, match="24 units"):
            quaternion._coset.__wrapped__(2)
    with monkeypatch.context() as m:
        m.setattr(quaternion, "in_coset3", lambda m: False)  # empty (3,0) shapes
        with pytest.raises(FamilySizeMismatch, match="family sizes"):
            quaternion._coset.__wrapped__(3)
    monkeypatch.setitem(quaternion.COSET_SIZE, 2, 1919)
    with pytest.raises(FamilySizeMismatch, match="coset size"):
        quaternion._coset.__wrapped__(2)


def test_x21_division_is_checked(monkeypatch):
    # X21 = alpha c alpha beta / 3 is integral for every c; with alpha
    # replaced by 1, c = 1 makes it beta/3, which the division refuses
    monkeypatch.setattr(quaternion, "_ALPHA", ONE3)
    a = neg(Q3.mul(_S, ONE3))  # X11 = 0
    with pytest.raises(NonIntegral):
        quaternion._p3_column(a, ONE3)


def test_one_principal_poly_call_per_coset_element(monkeypatch):
    # the benchmark's quaternion.principal_poly.calls counts these calls
    verify_trace_p23(2, 4, 2), verify_trace_p23(3, 4, 2)
    calls = []
    original = quaternion.principal_poly

    def counted(alg, g):
        calls.append(g)
        return original(alg, g)

    monkeypatch.setattr(quaternion, "principal_poly", counted)
    quaternion._coset.__wrapped__(2), quaternion._coset.__wrapped__(3)
    assert len(calls) == 1920 + 720
    calls.clear()
    verify_trace_p23(2, 6, 2), verify_trace_p23(3, 6, 2)
    assert calls == []


def test_every_poly_is_classified():
    for p in (2, 3):
        for key in principal_tallies(p):
            assert key in CLASS_OF_POLY[p], (p, key)


def test_family_tallies_p2():
    # printed decomposition of the 1920 similitude-2 elements; the
    # (x^2 -+ 2)^2 / x^4 + 4 split of the 192-element diagonal family is
    # the intermediate 24/144/24
    fams = family_tallies(2)
    assert fams[3] == {
        (4, 0, -4, 0, 1): 24,   # (x^2 - 2)^2
        (4, 0, 0, 0, 1): 144,   # x^4 + 4
        (4, 0, 4, 0, 1): 24,    # (x^2 + 2)^2
    }
    assert principal_tallies(2) == {
        (4, 0, 0, 0, 1): 600,
        (4, 8, 8, 4, 1): 20, (4, -8, 8, -4, 1): 20,
        (4, -4, 4, -2, 1): 240, (4, 4, 4, 2, 1): 240,
        (4, 0, 4, 0, 1): 120, (4, 0, -4, 0, 1): 40,
        (4, -4, 2, -2, 1): 160, (4, 4, 2, 2, 1): 160,
        (4, 0, 2, 0, 1): 320,
    }


def test_family_tallies_p3():
    fams = family_tallies(3)
    assert fams[0] == {(9, 0, 6, 0, 1): 12, (9, 9, 6, 3, 1): 12,
                       (9, -9, 6, -3, 1): 12}
    assert fams[1] == {(9, 0, -6, 0, 1): 12, (9, 0, 3, 0, 1): 24}
    assert principal_tallies(3) == {
        (9, 0, 6, 0, 1): 30, (9, 9, 6, 3, 1): 120, (9, -9, 6, -3, 1): 120,
        (9, 0, -6, 0, 1): 30, (9, 0, 0, 0, 1): 180, (9, 0, 3, 0, 1): 240,
    }


def test_trace_matches_formula_small():
    for p in (2, 3):
        for f in range(0, 12):
            assert verify_trace_p23(p, f, f) == trace_R(p, f, f), (p, f)
            assert verify_trace_p23(p, f + 2, f) == trace_R(p, f + 2, f), (p, f)


def test_trace_matches_formula_on_coset_grid():
    # the coset workload's whole weight range: f2 < 80, even f1 - f2 <= 40
    for p in (2, 3):
        for f2 in range(80):
            for f1 in range(f2, f2 + 41, 2):
                assert verify_trace_p23(p, f1, f2) == trace_R(p, f1, f2), (p, f1, f2)


def test_coset_tally_is_the_trace_vector():
    # verify_trace_p23 is (trace_vector(p) . chi) / DEN and trace_R is
    # (level(p).tr . chi) / DEN over CHI_INDEX.  trace_vector groups the
    # whole-coset tally by class and scales it to DEN; it equals level(p).tr
    # entry by entry, so the two traces agree at every weight, not only on
    # the grids above.
    want = {2: {2: 60, 6: 180, 9: 480, 11: 900, 14: 60, 15: 480, 16: 720},
            3: {2: 120, 6: 120, 9: 960, 11: 720, 17: 960}}
    for p in (2, 3):
        assert set(CLASS_OF_POLY[p].values()) <= set(CHI_INDEX)
        vector = trace_vector(p)
        assert vector == level(p).tr
        assert {i: c for i, c in zip(CHI_INDEX, vector) if c} == want[p]
        assert sum(vector) == DEN  # every coset element is counted once


def test_unsupported_prime_is_typed():
    with pytest.raises(ParadimError):
        enumerate_pi_gamma(5)
    with pytest.raises(ParadimError):
        verify_trace_p23(5, 0, 0)
    with pytest.raises(ParadimError):
        trace_vector(5)


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, "2"])
def test_non_int_prime_is_refused_before_the_caches(p):
    # verify_trace_p23(2.0, 4, 2) returned a trace and enumerate_pi_gamma(3.0)
    # the p = 3 families, served by untyped caches from the entries of 2, 3
    principal_tallies(2), principal_tallies(3)
    for call in (lambda: enumerate_pi_gamma(p), lambda: family_tallies(p),
                 lambda: principal_tallies(p), lambda: verify_trace_p23(p, 4, 2),
                 lambda: trace_vector(p)):
        with pytest.raises(NotPrimeLevel):
            call()
