"""Acceptance gate: end-to-end reproduction of every published table,
series, list, and enumeration, all checked by exact equality.

Each test covers one criterion; the whole file is budgeted to run in
well under two minutes.
"""
import time
from math import comb, lcm

from paradim.arith import primes_up_to
from paradim.characters import CHI_TABLE, chi_young, young
from paradim.compact import class_and_type, dim_M_signed, dim_M_total, trace_R
from paradim.corpus import run_checks
from paradim.data import load_csv, load_json
from paradim.elliptic import dim_new_gamma0, dim_new_gamma0_signed
from paradim.exactmath import fit_numerator, is_palindromic, series_coeffs
from paradim.paramodular import (
    _space_sequence,
    check_bias_region,
    dim_paramodular_signed,
    dim_weight3,
    hilbert_series,
    printed_series,
    search_weight3_zero,
)
from paradim.quaternion import (
    enumerate_pi_gamma,
    family_tallies,
    verify_trace_p23,
)

from character_oracles import _pf, chi_bracket_young, chi_series


# (p, dim J_{2,p}): the published weight-2 index-p Jacobi cusp form
# dimensions, p <= 97
JACOBI_WEIGHT2 = (
    (2, 0), (3, 0), (5, 0), (7, 0), (11, 0), (13, 0), (17, 0), (19, 0),
    (23, 0), (29, 0), (31, 0), (37, 1), (41, 0), (43, 1), (47, 0), (53, 1),
    (59, 0), (61, 1), (67, 2), (71, 0), (73, 2), (79, 1), (83, 1), (89, 1),
    (97, 3),
)


def dim_jacobi_weight2(p):
    """dim J_{2,p} by Eichler-Zagier (The Theory of Jacobi Forms, Thm 9.3):
    the sum over j = 0..p of dim M_{2+2j}(SL_2(Z)) - ceil(j^2 / 4p), with
    dim M_2 = 0."""
    def dim_mk(k):
        return 0 if k == 2 else k // 12 + (k % 12 != 2)
    return sum(dim_mk(2 + 2 * j) + (-j * j // (4 * p)) for j in range(p + 1))


def _table_rows(name):
    return [{k: int(v) for k, v in row.items()} for row in load_csv(name)]


def test_criterion_01_weight4_table_fast():
    rows = _table_rows("table_k4.csv")
    assert len(rows) == 108
    assert [r["p"] for r in rows] == [p for p in primes_up_to(607) if p >= 7]
    start = time.perf_counter()
    for r in rows:
        m_plus, m_minus = dim_M_signed(r["p"], 1, 1)
        d = dim_paramodular_signed(r["p"], 4)
        assert (m_plus + m_minus, m_plus - m_minus) == (r["H"], r["R"]), r["p"]
        assert d == (r["S_plus"], r["S_minus"]), r["p"]
    assert time.perf_counter() - start < 1.0


def test_criterion_02_higher_weight_tables():
    for name, k in (("table_k5.csv", 5), ("table_k6.csv", 6),
                    ("table_k8.csv", 8)):
        for r in _table_rows(name):
            m_plus, m_minus = dim_M_signed(r["p"], k - 3, k - 3)
            d = dim_paramodular_signed(r["p"], k)
            assert (m_plus + m_minus, m_plus - m_minus) == (r["H"], r["R"]), (name, r["p"])
            assert d == (r["S_plus"], r["S_minus"]), (name, r["p"])
    for name, k in (("table_k7.csv", 7), ("table_k10.csv", 10)):
        for r in _table_rows(name):
            m_plus, m_minus = dim_M_signed(r["p"], k - 3, k - 3)
            d = dim_paramodular_signed(r["p"], k)
            assert (m_plus + m_minus, m_plus - m_minus, m_plus, m_minus) == (
                r["H"], r["R"], r["M_plus"], r["M_minus"]), (name, r["p"])
            assert dim_new_gamma0_signed(r["p"], 2) == (
                r["s2_plus"], r["s2_minus"]), (name, r["p"])
            assert d == (r["S_plus"], r["S_minus"]), (name, r["p"])
    # the corrected weight-8 level-277 values
    assert dim_paramodular_signed(277, 8) == (1761, 768)


def test_criterion_03_generating_function_corpus():
    records = load_json("hilbert_series.json")
    assert len(records) == 54
    for rec in records:
        p, space, j = rec["p"], rec["space"], rec.get("j", 0)
        gf = printed_series(p, space, j)
        seq = _space_sequence(p, space, 80, j)
        # expansion direction
        assert series_coeffs(gf, 81) == seq, (p, space, j)
        # fitting direction
        margin = sum(rec["den"])
        n = 2 * margin + 41
        fit = fit_numerator(_space_sequence(p, space, n, j), rec["den"],
                            n - margin - 1)
        assert fit == gf.numerator, (p, space, j)
        if "note" in rec:
            # source text known-corrupt: the stored numerator is the
            # recomputed one; assert self-consistency, report the rest
            assert is_palindromic(gf), (p, space, j)
            print(f"note for ({p}, {space}, j={j}): {rec['note']}")
    noted = [r for r in records if "note" in r]
    assert [(r["p"], r["space"]) for r in noted] == [(23, "A+")]


def test_criterion_04_weight3_lists():
    start = time.perf_counter()
    zeros = search_weight3_zero(3500)
    expected = [p for p in primes_up_to(163)] + [179, 181, 191, 193, 199,
                                                 211, 229, 241]
    assert zeros == expected
    stored = load_json("weight3.json")
    assert zeros == stored["zero"]
    dim1, dim2 = [], []
    for p in primes_up_to(450):
        plus = dim_weight3(p)[0]
        if plus == 1:
            dim1.append(p)
        elif plus == 2:
            dim2.append(p)
    assert dim1 == stored["dim_plus_1"]
    assert dim2 == stored["dim_plus_2"]
    assert time.perf_counter() - start < 5.0


def test_criterion_05_bias():
    # nonnegativity on the large rectangle (check_bias_region raises on
    # any violation), exact zero set on the published one
    check_bias_region(500, 120)
    zeros = check_bias_region(300, 100)
    stored = [(int(r["p"]), int(r["k"]))
              for r in load_csv("bias_zero_pairs.csv")]
    assert zeros == stored
    assert zeros == [
        (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9), (2, 13),
        (3, 3), (3, 4), (3, 5), (3, 7), (5, 3), (5, 4), (7, 3), (11, 3),
    ]


def test_criterion_06_palindromic_classification():
    stored = load_json("palindromic.json")
    pal_full, pal_plus = [], []
    for p in primes_up_to(97):
        if is_palindromic(hilbert_series(p, "A").gf):
            pal_full.append(p)
        if is_palindromic(hilbert_series(p, "A+").gf):
            pal_plus.append(p)
    assert pal_full == stored["A"] == [2, 3, 5, 7, 13]
    assert pal_plus == stored["A_plus"] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 47, 59, 71
    ]
    # the plus-space list is exactly the vanishing locus of the weight-2
    # index-p Jacobi dimensions
    jzero = [p for p, d in JACOBI_WEIGHT2 if d == 0]
    assert pal_plus == jzero


def test_weight2_jacobi_rows_equal_newspace():
    # J_{2,p}^cusp is S_2^new(Gamma_0(p)) with Atkin-Lehner sign +1
    # (Skoruppa-Zagier), which dim_A_signed(p, 2) reads below p = 277
    assert [p for p, _ in JACOBI_WEIGHT2] == primes_up_to(97)
    for p, d in JACOBI_WEIGHT2:
        assert dim_new_gamma0_signed(p, 2)[0] == d, p
    for p in primes_up_to(400):
        assert dim_jacobi_weight2(p) == dim_new_gamma0_signed(p, 2)[0], p


def test_criterion_07_quaternion_enumeration():
    assert [len(f) for f in enumerate_pi_gamma(2)] == [192, 192, 192, 192, 1152]
    assert [len(f) for f in enumerate_pi_gamma(3)] == [36, 36, 324, 324]
    fams2 = family_tallies(2)
    # columns (1), (2), (3), (4), (5) of the published 1920-element table
    assert fams2[0] == fams2[1] == {
        (4, 0, 0, 0, 1): 54, (4, 8, 8, 4, 1): 1, (4, -8, 8, -4, 1): 1,
        (4, -4, 4, -2, 1): 24, (4, 4, 4, 2, 1): 24, (4, 0, 4, 0, 1): 6,
        (4, 0, -4, 0, 1): 2, (4, -4, 2, -2, 1): 20, (4, 4, 2, 2, 1): 20,
        (4, 0, 2, 0, 1): 40,
    }
    assert fams2[2] == {
        (4, 0, 0, 0, 1): 24, (4, 8, 8, 4, 1): 12, (4, -8, 8, -4, 1): 12,
        (4, -4, 4, -2, 1): 48, (4, 4, 4, 2, 1): 48, (4, 0, 4, 0, 1): 48,
    }
    # the intermediate 24 / 144 / 24 split of the diagonal family
    assert fams2[3] == {(4, 0, -4, 0, 1): 24, (4, 0, 0, 0, 1): 144,
                       (4, 0, 4, 0, 1): 24}
    assert fams2[4] == {
        (4, 0, 0, 0, 1): 324, (4, 8, 8, 4, 1): 6, (4, -8, 8, -4, 1): 6,
        (4, -4, 4, -2, 1): 144, (4, 4, 4, 2, 1): 144, (4, 0, 4, 0, 1): 36,
        (4, 0, -4, 0, 1): 12, (4, -4, 2, -2, 1): 120, (4, 4, 2, 2, 1): 120,
        (4, 0, 2, 0, 1): 240,
    }
    fams3 = family_tallies(3)
    assert fams3[0] == {(9, 0, 6, 0, 1): 12, (9, 9, 6, 3, 1): 12,
                        (9, -9, 6, -3, 1): 12}
    assert fams3[1] == {(9, 0, -6, 0, 1): 12, (9, 0, 3, 0, 1): 24}
    assert fams3[2] == {
        (9, 0, 6, 0, 1): 18, (9, 0, -6, 0, 1): 18, (9, 9, 6, 3, 1): 36,
        (9, -9, 6, -3, 1): 36, (9, 0, 0, 0, 1): 144, (9, 0, 3, 0, 1): 72,
    }
    assert fams3[3] == {
        (9, 9, 6, 3, 1): 72, (9, -9, 6, -3, 1): 72, (9, 0, 0, 0, 1): 36,
        (9, 0, 3, 0, 1): 144,
    }
    # the enumerated coset reproduces the trace formula
    for p in (2, 3):
        for f in range(0, 41):
            assert verify_trace_p23(p, f, f) == trace_R(p, f, f), (p, f)
            assert verify_trace_p23(p, f + 2, f) == trace_R(p, f + 2, f), (p, f)
            assert verify_trace_p23(p, f + 4, f) == trace_R(p, f + 4, f), (p, f)


def _pole(i, negate):
    """(N, e), the least N and then the least e, with 1/phi_i(+-x) = Q(x) /
    (1 - x^N)^e for a polynomial Q of degree <= eN - 4.  The series times
    (1 - x^N)^e is checked to vanish at x^(eN-3) .. x^eN; beyond eN the
    recurrence of phi_i, whose constant term is 1, carries that on."""
    for n in range(1, 121):
        for e in range(1, 5):
            p = _pf(i, e * n, negate)
            terms = [(comb(e, t) * (-1) ** t, t * n) for t in range(e + 1)]
            tail = [sum(c * p[f - s][h] for c, s in terms if f >= s)
                    for f in range(e * n - 3, e * n + 1) for h in (0, 1)]
            if not any(tail):
                return n, e
    raise AssertionError(f"no pole order found for phi_{i}")


def test_criterion_08_character_oracles():
    # chi_young (CHI_TABLE) equals chi_series at every weight (k, j), and so
    # does chi_bracket_young where it exists, because each side is a
    # polynomial in (k, j) on a class of k and of j mod a period.
    # - CHI_TABLE: on a class of k mod dk (the lcm of chi_i's row lengths)
    #   and j mod dj (twice its row count), every factor F(u, v) has degree
    #   <= 3 in k and in j, with u = k - 2 and v = j + k - 1; the Weyl term
    #   u v (v - u)(v + u) has v - u = j + 1.
    # - chi_series: by _pole, 1/phi_i(+-x) = Q / (1 - x^N)^e with deg Q <=
    #   eN - 4, so on a class of f mod N its coefficient p_f is a polynomial
    #   in f of degree < e for every f > deg Q - eN, i.e. f >= -3 with p_f = 0
    #   below 0.  chi_series reads p_f only at f >= -2, at f1 = k + j - 3
    #   and f2 = k - 3, so it has degree <= e - 1 in j and <= 2e - 2 in k,
    #   and no weight lies below the range where this holds.
    # - chi_bracket_young: read off its code, periods dividing (dk, dj) and
    #   degree <= 2 in k and <= 1 in j.
    # On a class of k mod lcm(dk, N) and j mod lcm(dj, N) (both signs) the
    # differences are polynomials of degree <= max(3, 2e - 2) in k and <= 3
    # in j (e <= deg phi_i = 4), so they vanish if they vanish on a block of
    # max(4, 2e - 1) x 4 weights of that class.
    for i, (_, terms) in CHI_TABLE.items():
        poles = [_pole(i, negate) for negate in (False, True)]
        n = lcm(*(n for n, _ in poles))
        k_step = lcm(n, *(len(row) for _, rows in terms for row in rows))
        j_step = lcm(n, *(2 * len(rows) for _, rows in terms))
        k_block = max(4, *(2 * e - 1 for _, e in poles))
        for k0 in range(3, 3 + k_step):
            for j0 in range(0, j_step, 2):
                for k in range(k0, k0 + k_block * k_step, k_step):
                    for j in range(j0, j0 + 4 * j_step, j_step):
                        f1, f2 = young(k, j)
                        closed = chi_young(i, f1, f2)
                        assert closed == chi_series(i, f1, f2), (i, k, j)
                        assert closed == chi_series(i, f1, f2, negate=True), (i, k, j)
                        if i in (2, 6, 9, 11, 13):
                            assert chi_bracket_young(i, f1, f2) == closed, (i, k, j)


def test_criterion_09_structural_invariants():
    for p in primes_up_to(300):
        for f1 in range(0, 41):
            for f2 in range(f1 % 2, f1 + 1, 2):
                total, trace = dim_M_total(p, f1, f2), trace_R(p, f1, f2)
                assert (total + trace) % 2 == 0, (p, f1, f2)
                plus, minus = dim_M_signed(p, f1, f2)
                assert plus >= 0 and minus >= 0, (p, f1, f2)
    for p in primes_up_to(1000):
        H, T = class_and_type(p)
        assert T <= H <= 2 * T, p
    for p in primes_up_to(200):
        for k in range(2, 41, 2):
            sp, sm = dim_new_gamma0_signed(p, k)
            assert sp >= 0 and sm >= 0, (p, k)
            assert sp + sm == dim_new_gamma0(p, k), (p, k)


def test_criterion_10_vector_valued_series():
    for p in (2, 3):
        for j in (2, 4):
            for space in ("S+", "S-"):
                gf = printed_series(p, space, j)
                assert series_coeffs(gf, 61) == _space_sequence(p, space, 60, j), (
                    p, space, j)


def test_full_corpus_green():
    total, failures = run_checks()
    assert failures == []
    assert total >= 400
