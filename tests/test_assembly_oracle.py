"""The paper's formulas for dim M, tr R, dim S_k(SL_2(Z)) and the
Gamma_0(p) newspace, transcribed term by term with `Fraction`, as the
oracle for the integer assembly of `compact.level` and `elliptic`.

They read the ingredients from `paradim.arith` and the characters from
`chi_young` directly, so they share neither the coefficient records nor
the cached character vectors with the code they check.  The oracle for
S^± adds its terms as `dim_paramodular_signed` did before it read them
from its per-run weight record.
"""
from fractions import Fraction

import pytest

from paradim.arith import a_p, bernoulli_b2_chi, class_number, primes_up_to, split_symbol
from paradim.characters import _br, chi_young
from paradim.compact import CHI_INDEX, DEN, dim_M_signed, dim_M_total, level, trace_R
from paradim.elliptic import dim_cusp_level1, dim_new_gamma0, dim_new_gamma0_signed
from paradim import paramodular
from paradim.errors import BadYoung, MissingJacobiData, NotPrimeLevel
from paradim.paramodular import (
    LIFTS_ONLY_BELOW,
    SPACES,
    _space_sequence,
    _weight_run,
    dim_A_signed,
    dim_paramodular_signed,
    hilbert_series,
)
from paradim.siegel1 import dim_cusp_sp4


def dim_M_oracle(p, f1, f2):
    chi = {i: chi_young(i, f1, f2) for i in (1, 2, 3, 4, 6, 7, 9, 10, 11, 12)}
    d2 = 1 if p == 2 else 0
    d3 = 1 if p == 3 else 0
    s_m1 = split_symbol(-1, p)
    s_m3 = split_symbol(-3, p)
    s_2 = split_symbol(2, p)
    s_3 = split_symbol(3, p)
    s_p5 = split_symbol(p, 5)
    return (
        Fraction(p * p - 1, 2880) * chi[1]
        + Fraction(d2, 192) * chi[2]
        + Fraction(d2, 16) * chi[3]
        + Fraction(d3, 9) * chi[4]
        + (Fraction(p - s_m1, 24) + Fraction(p * s_m1 - 1, 96)) * chi[6]
        + (Fraction(p - s_m3, 24) + Fraction(p * s_m3 - 1, 72)) * chi[7]
        + Fraction(d2, 6) * chi[9]
        + Fraction(1 - s_p5, 5) * chi[10]
        + Fraction(1 - s_2, 8) * chi[11]
        + Fraction(1 - s_3 + s_m1 - s_m3, 24) * chi[12]
    )


def trace_R_oracle(p, f1, f2):
    def chi(i):
        return chi_young(i, f1, f2)

    if p == 2:
        return (
            Fraction(chi(2), 48)
            + Fraction(chi(6), 16)
            + Fraction(chi(9), 6)
            + Fraction(5 * chi(11), 16)
            + Fraction(chi(14), 48)
            + Fraction(chi(15), 6)
            + Fraction(chi(16), 4)
        )
    if p == 3:
        return (
            Fraction(chi(2), 24)
            + Fraction(chi(6), 24)
            + Fraction(chi(9), 3)
            + Fraction(chi(11), 4)
            + Fraction(chi(17), 3)
        )
    b2 = bernoulli_b2_chi(p)
    s2 = split_symbol(2, p)
    h_p = class_number(p)
    h_2p = class_number(2 * p)
    h_3p = class_number(3 * p)
    if p % 4 == 1:
        return (
            Fraction(chi(2), 96) * (9 - 2 * s2) * b2
            + Fraction(h_p, 16) * chi(6)
            + Fraction(h_2p, 8) * chi(11)
            + Fraction(h_3p, 12) * (3 + s2) * chi(9)
            + (Fraction(chi(13), 5) if p == 5 else 0)
        )
    return (
        Fraction(chi(2), 96) * b2
        + Fraction(h_p, 16) * (1 - s2) * chi(6)
        + Fraction(h_2p, 8) * chi(11)
        + Fraction(h_3p, 12) * chi(9)
    )


def dim_cusp_level1_oracle(k):
    if k % 2 or k == 0:
        return 0
    return (
        Fraction(k - 1, 12)
        + Fraction((-1) ** (k // 2), 4)
        + Fraction(_br([1, 0, -1], k), 3)
        - Fraction(1, 2)
        + (1 if k == 2 else 0)
    )


def dim_new_gamma0_oracle(p, k):
    if k < 2:
        return 0
    return (
        Fraction((p - 1) * (k - 1), 12)
        + Fraction((-1) ** (k // 2 + 1), 4) * (1 - split_symbol(-1, p))
        + Fraction(_br([-1, 0, 1], k), 3) * (1 - split_symbol(-3, p))
        - (1 if k == 2 else 0)
    )


def new_gamma0_diff_oracle(p, k):
    """(plus) - (minus) dimension of the weight-k newspace of Gamma_0(p), k >= 2."""
    d2 = 1 if k == 2 else 0
    if p == 2:
        return Fraction((-1) ** (k // 2) - (-1) ** ((k - 4) * (k - 2) // 8), 2) + d2
    if p == 3:
        return d2 + {0: 1, 2: -1, 4: 0, 6: -1, 8: 1, 10: 0}[k % 12]
    return (-1) ** (k // 2) * Fraction(a_p(p) * class_number(p), 2) + d2


def test_compact_matches_oracle_on_young_grid():
    # the criterion-09 grid: every prime p <= 300, every (f1, f2) with f1 <= 40;
    # it holds all four branches of the trace formula and the chi_13 term at p = 5
    for p in primes_up_to(300):
        for f1 in range(41):
            for f2 in range(f1 % 2, f1 + 1, 2):
                assert dim_M_total(p, f1, f2) == dim_M_oracle(p, f1, f2), (p, f1, f2)
                assert trace_R(p, f1, f2) == trace_R_oracle(p, f1, f2), (p, f1, f2)


def test_level_matrix_matches_oracle_coefficients(monkeypatch):
    # chi_young as the unit vector of chi_i turns each oracle into its
    # coefficient of chi_i, which DEN times must be the entry of the record
    for pos, i in enumerate(CHI_INDEX):
        monkeypatch.setitem(globals(), "chi_young", lambda n, f1, f2, i=i: int(n == i))
        for p in primes_up_to(999):
            lev = level(p)
            for vec, oracle in ((lev.m, dim_M_oracle), (lev.tr, trace_R_oracle)):
                entry = vec[pos] if pos < len(vec) else 0
                assert DEN * oracle(p, 0, 0) == entry, (p, i, oracle.__name__)


def test_class_and_trace_match_oracle_at_trivial_weight():
    for p in primes_up_to(1000):
        assert dim_M_total(p, 0, 0) == dim_M_oracle(p, 0, 0), p
        assert trace_R(p, 0, 0) == trace_R_oracle(p, 0, 0), p


def test_elliptic_matches_oracle():
    for k in range(201):
        assert dim_cusp_level1(k) == dim_cusp_level1_oracle(k), k
    for p in primes_up_to(200):
        for k in range(0, 201, 2):
            assert dim_new_gamma0(p, k) == dim_new_gamma0_oracle(p, k), (p, k)


def test_signed_newspace_matches_oracle():
    for p in primes_up_to(200):
        for k in range(0, 201, 2):
            total = dim_new_gamma0_oracle(p, k)
            diff = new_gamma0_diff_oracle(p, k) if k >= 2 else 0
            expected = ((total + diff) / 2, (total - diff) / 2)
            assert dim_new_gamma0_signed(p, k) == expected, (p, k)


def paramodular_signed_oracle(p, k, j):
    """S^± for even j, every term read from its uncached public function."""
    sp = dim_cusp_sp4(k, j)
    m_plus, m_minus = dim_M_signed(p, j + k - 3, k - 3)
    grit = dim_cusp_level1(2 * k + j - 2)
    s_plus, s_minus = dim_new_gamma0_signed(p, j + 2)
    dj0 = 1 if j == 0 else 0
    plus = sp + m_minus - s_plus * grit
    minus = (sp - dj0 * dim_cusp_level1(2 * k - 2) - dj0 * (1 if k == 3 else 0)
             + m_plus - s_minus * grit)
    return plus, minus


def test_cached_assembly_matches_term_by_term_oracle():
    grid = [(p, k, j) for p in primes_up_to(200) for k in range(3, 61) for j in (0, 2, 4)]
    # each walk starts from an empty weight record, so neither order can
    # read an entry the other one left behind
    for walk in (grid, grid[::-1]):
        _weight_run.cache_clear()
        for p, k, j in walk:
            assert dim_paramodular_signed(p, k, j) == paramodular_signed_oracle(p, k, j), (p, k, j)


def space_sequence_oracle(p, space, nmax, j=0):
    """The graded dimension sequence as a ladder of cases on the space
    and the weight, with M's total and trace read from dim_M_total and
    trace_R."""
    out = []
    for n in range(nmax + 1):
        if space in ("M", "M+", "M-"):
            total, trace = dim_M_total(p, n + j, n), trace_R(p, n + j, n)
            out.append({"M": total, "M+": (total + trace) // 2,
                        "M-": (total - trace) // 2}[space])
        elif space in ("A", "A+", "A-"):
            ap, am = dim_A_signed(p, n)
            out.append({"A": ap + am, "A+": ap, "A-": am}[space])
        elif n < 2 or (n == 2 and j != 0):
            out.append(0)
        elif n == 2 and space == "S-":
            if p >= LIFTS_ONLY_BELOW:
                raise MissingJacobiData(p)
            out.append(0)
        elif n == 2:
            out.append(dim_A_signed(p, 2)[0])
        else:
            plus, minus = dim_paramodular_signed(p, n, j)
            out.append(plus if space == "S+" else minus)
    return out


@pytest.mark.parametrize("p", [2, 3, 11, 53])
def test_space_sequence_matches_oracle(p):
    for space in SPACES:
        for j in ((0, 2) if space[0] in "MS" else (0,)):
            assert _space_sequence(p, space, 30, j) == space_sequence_oracle(p, space, 30, j), (
                p, space, j)


def test_graded_run_matches_oracle_in_any_call_order():
    # one run is cached per (base, p, j): each call must read the columns of
    # its own key, whether it asks for more or fewer terms than the last
    # call, follows a call at another prime or at another j
    paramodular._graded_run.cache_clear()
    calls = [(11, "M", 5, 0), (11, "M+", 20, 0), (11, "M-", 8, 0), (11, "M", 30, 0),
             (11, "M", 0, 0), (11, "M", -1, 0), (53, "M", 12, 0), (11, "M+", 12, 0),
             (53, "M-", 25, 0), (11, "M", 10, 2), (11, "M", 10, 0), (11, "M-", 15, 2),
             (11, "S+", 15, 2), (11, "S+", 15, 0), (11, "S-", 20, 0), (53, "S-", 20, 0),
             (11, "S-", 25, 2), (11, "A", 9, 0), (11, "A+", 30, 0), (53, "A-", 30, 0),
             (11, "A-", 4, 0), (53, "S+", 18, 2), (53, "S+", 30, 2)]
    for p, space, nmax, j in calls:
        assert _space_sequence(p, space, nmax, j) == space_sequence_oracle(p, space, nmax, j), (
            p, space, nmax, j)


def test_graded_run_keeps_the_domain_checks():
    # the graded run is typed: 7.0 misses the runs of 7
    paramodular._graded_run.cache_clear()
    hilbert_series(7, "A")
    with pytest.raises(NotPrimeLevel):
        hilbert_series(7.0, "A")
    _space_sequence(7, "M", 3)
    with pytest.raises(NotPrimeLevel):
        _space_sequence(7.0, "M", 3)
    with pytest.raises(BadYoung):
        _space_sequence(7, "M", 3, 2.0)


def test_graded_run_does_not_hold_a_refused_weight():
    # weight 2 is refused at p = 389 on every call, and a sequence that
    # stops below it is still served
    paramodular._graded_run.cache_clear()
    for _ in range(2):
        with pytest.raises(MissingJacobiData):
            _space_sequence(389, "S+", 5)
    assert _space_sequence(389, "S+", 1) == [0, 0]
