from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from paradim import quaternion
from paradim.compact import trace_R
from paradim.errors import NonIntegral, NotPrimeLevel, NotSimilitude, ParadimError
from paradim.quaternion import (
    CLASS_OF_POLY,
    COSET_SIZE,
    Quat,
    QuatMat2,
    _ALPHA,
    _K,
    _S,
    _T,
    elements_of_norm,
    enumerate_pi_gamma,
    family_tallies,
    in_coset3,
    in_hurwitz,
    in_order3,
    principal_poly,
    principal_tallies,
    verify_trace_p23,
)

units = st.integers(-3, 3)


def q2(w, x, y, z):
    """The Hamilton quaternion w + x i + y j + z k (integer coordinates)."""
    return Quat(2 * w, 2 * x, 2 * y, 2 * z, 1, 1)


# Hurwitz quaternions: doubled coordinates all of one parity
hurwitz = st.builds(
    lambda parity, cs: Quat(*(2 * c + parity for c in cs), 1, 1),
    st.integers(0, 1), st.tuples(units, units, units, units))


class TestQuat:
    def test_hamilton_relations(self):
        i, j = q2(0, 1, 0, 0), q2(0, 0, 1, 0)
        k = i * j
        assert k == q2(0, 0, 0, 1)
        assert i * i == q2(-1, 0, 0, 0)
        assert j * i == -k
        assert (i * j) * i == i * (j * i)

    def test_norm_and_trace(self):
        q = q2(1, 2, 3, 4)
        assert q.norm() == 1 + 4 + 9 + 16
        assert q.trace() == 2
        assert q * q.conjugate() == q2(q.norm(), 0, 0, 0)
        h = Quat(1, 1, 1, 1, 1, 1)  # (1 + i + j + k)/2
        assert h.norm() == 1 and h.trace() == 1
        assert h * h * h == q2(-1, 0, 0, 0)

    def test_generic_parameters(self):
        # e1^2 = -3, e2^2 = -1 (the ramified-at-3 algebra)
        a = Quat(0, 2, 0, 0, 3, 1)
        assert a * a == Quat(-6, 0, 0, 0, 3, 1)
        b = Quat(0, 0, 2, 0, 3, 1)
        assert (a * b).norm() == a.norm() * b.norm()
        omega = Quat(1, 1, 0, 0, 3, 1)  # (1 + e1)/2, a root of x^2 - x + 1
        assert omega * omega == omega - Quat(2, 0, 0, 0, 3, 1)

    def test_product_outside_half_lattice_raises(self):
        # (1/2) (e/2) = e/4 for e = 1, e1, e2, e3: one doubled coordinate,
        # and a different one each time, is odd
        for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            with pytest.raises(NonIntegral):
                Quat(1, 0, 0, 0, 1, 1) * Quat(*e, 1, 1)

    @given(hurwitz, hurwitz)
    def test_norm_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()
        assert in_hurwitz(x * y)

    @given(hurwitz, hurwitz, hurwitz)
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)


class TestOrder:
    def test_hurwitz_units(self):
        assert len(elements_of_norm(1, 1, 1, in_hurwitz)) == 24
        assert in_hurwitz(Quat(1, -1, 1, -1, 1, 1))
        assert not in_hurwitz(Quat(1, 0, 0, 0, 1, 1))

    def test_elements_of_norm(self):
        # Hurwitz quaternions of norm 2: 24 of them
        assert len(elements_of_norm(2, 1, 1, in_hurwitz)) == 24
        # the maximal order at 3 has 12 units
        units3 = elements_of_norm(1, 3, 1, in_order3)
        assert len(units3) == 12
        assert all(q.norm() == 1 and in_order3(q) for q in units3)
        assert in_order3(Quat(1, 1, 2, 0, 3, 1))
        assert not in_order3(Quat(1, 0, 1, 1, 3, 1))


def test_similitude():
    one = q2(1, 0, 0, 0)
    zero = q2(0, 0, 0, 0)
    assert QuatMat2(one, zero, zero, one).similitude() == 1
    with pytest.raises(NotSimilitude):
        QuatMat2(one, one, zero, one).similitude()  # rows not orthogonal
    with pytest.raises(NotSimilitude):
        QuatMat2(one, zero, zero, q2(1, 1, 0, 0)).similitude()  # norms differ


def test_principal_poly_of_scalar():
    two = q2(2, 0, 0, 0)
    zero = q2(0, 0, 0, 0)
    g = QuatMat2(two, zero, zero, two)
    # 2 * identity: (x - 2)^4 with similitude 4
    assert principal_poly(g) == (16, -32, 24, -8, 1)


@given(hurwitz, hurwitz, hurwitz, hurwitz)
def test_square_trace_matches_full_square(a, b, c, d):
    g = QuatMat2(a, b, c, d)
    assert g.square_trace() == (g * g).trace()


def q3(w, x, y, z):
    """(w + x alpha + y beta + z alpha beta)/2, alpha^2 = -3, beta^2 = -1."""
    return Quat(w, x, y, z, 3, 1)


ONE3, ZERO3, ALPHA, BETA = q3(2, 0, 0, 0), q3(0, 0, 0, 0), q3(0, 2, 0, 0), q3(0, 0, 2, 0)


def star(m):
    """Conjugate transpose."""
    return QuatMat2(m.a.conjugate(), m.c.conjugate(), m.b.conjugate(), m.d.conjugate())


def test_p3_lattice_constants():
    assert _ALPHA == ALPHA
    assert _S == ONE3 + BETA
    assert _T == _S * ALPHA
    assert _K == ALPHA * BETA
    assert _K * (BETA * ALPHA) == q3(6, 0, 0, 0)  # alpha beta = 3 (beta alpha)^{-1}


@lru_cache(maxsize=None)
def p3_candidates():
    """Every matrix the p = 3 search considers, unpruned, in its order:
    (family, matrix) pairs, 10 656 of them."""
    units = elements_of_norm(1, 3, 1, in_order3)
    norm2 = elements_of_norm(2, 3, 1, in_order3)
    norm3 = elements_of_norm(3, 3, 1, in_order3)
    out = []
    for A in norm3:
        for D in norm3:
            out.append((0, QuatMat2(A, ZERO3, ZERO3, D)))
            out.append((1, QuatMat2(ZERO3, A, D, ZERO3)))
    for c2 in norm2:
        c2bar = c2.conjugate()
        for e1 in units:
            for e2 in units:
                y = -(e1 * c2bar * e2)
                out.append((2, QuatMat2(e1, y, c2, e2)))
                out.append((3, QuatMat2(c2, e2, e1, y)))
    return out


def lattice_integrality(delta):
    """Which entries of X = g u g^{-1} (u = delta gamma0^{-1}) are integral
    at 3, as (X11, X12, X21, X22), and whether g u* g^{-1} is integral
    (None when X is not), straight from the matrices: g = (1, 1+beta;
    0, alpha), gamma0 = diag(beta alpha, alpha).  Every matrix is kept
    integral by scaling 9 X = (g delta)(3 gamma0^{-1})(3 g^{-1})."""
    g = QuatMat2(ONE3, ONE3 + BETA, ZERO3, ALPHA)
    g_inv3 = QuatMat2(q3(6, 0, 0, 0), (ONE3 + BETA) * ALPHA, ZERO3, -ALPHA)
    k = QuatMat2(ALPHA * BETA, ZERO3, ZERO3, -ALPHA)
    x9 = g * delta * (k * g_inv3)
    entries = tuple(q.divisible_by(9) for q in (x9.a, x9.b, x9.c, x9.d))
    if not all(entries):
        return entries, None
    y9 = g * star(k) * star(delta) * g_inv3
    return entries, all(q.divisible_by(9) for q in (y9.a, y9.b, y9.c, y9.d))


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
    key = lambda m: tuple((q.w, q.x, q.y, q.z) for q in (m.a, m.b, m.c, m.d))
    for got, want in zip(enumerate_pi_gamma(3), fams):
        assert [key(m) for m in got] == [key(m) for m in want]


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
                        lambda: [[QuatMat2(one, zero, zero, one)]])
    with pytest.raises(NotSimilitude):
        quaternion._coset.__wrapped__(2)


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


def test_unsupported_prime_is_typed():
    with pytest.raises(ParadimError):
        enumerate_pi_gamma(5)
    with pytest.raises(ParadimError):
        verify_trace_p23(5, 0, 0)


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0, "2"])
def test_non_int_prime_is_refused_before_the_caches(p):
    # verify_trace_p23(2.0, 4, 2) returned a trace and enumerate_pi_gamma(3.0)
    # the p = 3 families, served by untyped caches from the entries of 2, 3
    principal_tallies(2), principal_tallies(3)
    for call in (lambda: enumerate_pi_gamma(p), lambda: family_tallies(p),
                 lambda: principal_tallies(p), lambda: verify_trace_p23(p, 4, 2)):
        with pytest.raises(NotPrimeLevel):
            call()
