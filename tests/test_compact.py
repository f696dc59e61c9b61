import pytest
from hypothesis import given, settings, strategies as st

from paradim import arith, compact, kernels
from paradim.arith import is_prime, primes_up_to
from paradim.compact import (
    INVARIANTS,
    M_ROWS,
    Level,
    _TRIPLES,
    class_and_type,
    dim_M_signed,
    dim_M_total,
    level,
    trace_R,
)
from paradim.errors import BadYoung, NonIntegral, NotPrimeLevel, ParityFailure, TypeNumberBound

young = st.tuples(st.integers(0, 20), st.integers(0, 10)).map(
    lambda t: (t[1] + 2 * t[0], t[1])
)


def test_trivial_weight_is_class_number():
    # (f1, f2) = (0, 0) counts the classes in the genus
    known_H = {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 2, 23: 2, 47: 4}
    for p, H in known_H.items():
        assert dim_M_total(p, 0, 0) == H, p
    # H - T counts the weight-3 plus forms: 1 at 167, 2 at 227
    assert class_and_type(167) == (20, 19)
    assert class_and_type(227) == (32, 30)


def test_class_and_type_small():
    assert class_and_type(2) == (1, 1)
    assert class_and_type(3) == (1, 1)
    H, T = class_and_type(11)
    assert (H, T) == (1, 1)
    H, T = class_and_type(13)
    assert T <= H <= 2 * T


def test_class_and_type_bound_is_checked(monkeypatch):
    # H = 5, trace -3 gives T = 1 < H / 2; the check must survive python -O
    monkeypatch.setattr(compact, "dim_M_total", lambda p, f1, f2: 5)
    monkeypatch.setattr(compact, "trace_R", lambda p, f1, f2: -3)
    with pytest.raises(TypeNumberBound):
        class_and_type(13)


def test_opposite_parity_is_refused(monkeypatch):
    # a total and a trace of opposite parity split into no (plus, minus)
    monkeypatch.setattr(compact, "dim_M_total", lambda p, f1, f2: 4)
    monkeypatch.setattr(compact, "trace_R", lambda p, f1, f2: 1)
    with pytest.raises(ParityFailure, match=r"M\(13,2,0\): total 4 and difference 1"):
        dim_M_signed(13, 2, 0)
    with pytest.raises(ParityFailure, match=r"M\(13,0,0\)"):
        class_and_type(13)


def test_composite_level_is_refused():
    # dim_M_signed(15, 1, 1) used to raise NonIntegral "19/9", and level 7.0
    # a bare TypeError
    for p in (15, 1, 0, -3, 4, 7.0):
        with pytest.raises(NotPrimeLevel):
            level(p)
    with pytest.raises(NotPrimeLevel):
        dim_M_total(7.0, 0, 0)
    with pytest.raises(NotPrimeLevel):
        dim_M_signed(15, 1, 1)
    with pytest.raises(NotPrimeLevel):
        trace_R(9, 0, 0)
    with pytest.raises(NotPrimeLevel):
        class_and_type(65)


def test_level_record_is_integer_data():
    lev = level(5)
    assert all(type(c) is int for c in (*lev.m, *lev.tr))
    # one index for both formulas: every character but chi_5 and chi_8
    assert compact.CHI_INDEX == tuple(i for i in range(1, 18) if i not in (5, 8))
    # m covers dim M; tr ends at its last nonzero entry, chi_13 at p = 5
    assert (len(lev.m), len(lev.tr)) == (10, compact.CHI_INDEX.index(13) + 1)
    assert level(5) is lev


def test_invariants_are_checked_ints(monkeypatch):
    # I(p) is integer data at every branch, p = 5 included
    for p in (2, 3, 5, 7, 13, 101, 103):
        assert all(type(x) is int for x in compact._invariants(p)), p
    for p in (15, 7.0):
        with pytest.raises(NotPrimeLevel):
            compact._invariants(p)
    # 5 B_{2,chi} = 5 b2_character_sum(D0) / D0 goes through an exact
    # division: a sum of 1 at D0 = 13 is refused, never truncated
    monkeypatch.setattr(compact, "b2_character_sum", lambda D0: 1)
    compact._invariants.cache_clear()  # the loop above cached I(13)
    with pytest.raises(NonIntegral, match=r"5 B_2,chi\(13\) = 5/13"):
        level.__wrapped__(13)


@pytest.mark.parametrize("fn", [dim_M_total, trace_R], ids=lambda fn: fn.__name__)
def test_one_lookup_per_call(fn):
    # warm, a call reads the level record and the character vector once
    # each: one record and one vector serve both formulas
    fn(7, 4, 2)
    before = level.cache_info().hits, compact._chi_vector.cache_info().hits
    fn(7, 4, 2)
    after = level.cache_info().hits, compact._chi_vector.cache_info().hits
    assert (after[0] - before[0], after[1] - before[1]) == (1, 1)


def test_m_tables_drop_the_other_branches_indicators():
    # [p = 2] and [p = 3] are 0 off their own branch, so each branch's M
    # table keeps only the terms that can be nonzero there
    n_terms = sum(map(len, M_ROWS.values()))
    reads = {branch: {INVARIANTS[x] for _, _, x in m} for branch, (m, _) in _TRIPLES.items()}
    assert {branch: len(m) for branch, (m, _) in _TRIPLES.items()} == {
        2: n_terms - 1, 3: n_terms - 3, "1 mod 4": n_terms - 4, "3 mod 4": n_terms - 4}
    assert "d2" in reads[2] and "d3" in reads[3]
    assert not {"d2", "d3"} & (reads["1 mod 4"] | reads["3 mod 4"])


def test_inexact_assembly_raises(monkeypatch):
    lev = level(7)
    bent = Level((lev.m[0] + 1,) + lev.m[1:], (lev.tr[0] + 1,) + lev.tr[1:])
    monkeypatch.setattr(compact, "level", lambda p: bent)
    with pytest.raises(NonIntegral, match=r"dim M\(7,0,0\) = 2881/2880"):
        dim_M_total(7, 0, 0)
    with pytest.raises(NonIntegral, match=r"trace R\(7,0,0\)"):
        trace_R(7, 0, 0)


def test_signed_consistency():
    for p in (2, 3, 7, 11, 101):
        for f1, f2 in ((0, 0), (2, 0), (3, 1), (4, 4), (10, 2)):
            plus, minus = dim_M_signed(p, f1, f2)
            assert plus + minus == dim_M_total(p, f1, f2)
            assert plus - minus == trace_R(p, f1, f2)
            assert plus >= 0 and minus >= 0


def test_known_table_rows():
    # weight (1,1): the weight-4 scalar case
    assert (dim_M_total(7, 1, 1), trace_R(7, 1, 1)) == (1, -1)
    assert (dim_M_total(83, 1, 1), trace_R(83, 1, 1)) == (19, -17)
    assert dim_M_signed(83, 1, 1) == (1, 18)
    # weight (2,2): the weight-5 scalar case
    assert (dim_M_total(47, 2, 2), trace_R(47, 2, 2)) == (16, 14)
    assert dim_M_signed(47, 2, 2) == (15, 1)


def test_young_validation():
    with pytest.raises(BadYoung):
        dim_M_total(7, 1, 0)
    with pytest.raises(BadYoung):
        trace_R(7, 0, 2)


@pytest.mark.parametrize("f1, f2", [(2.5, 0.5), (3, 0.5), (2.0, 2.0)])
def test_non_integer_young_is_refused(f1, f2):
    # (2.5, 0.5) used to get past the domain check
    for fn in (dim_M_signed, dim_M_total, trace_R):
        with pytest.raises(BadYoung):
            fn(7, f1, f2)


@settings(max_examples=40)
@given(st.sampled_from(primes_up_to(150)), young)
def test_parity_and_positivity(p, fs):
    f1, f2 = fs
    total, trace = dim_M_total(p, f1, f2), trace_R(p, f1, f2)
    assert (total + trace) % 2 == 0
    plus, minus = dim_M_signed(p, f1, f2)
    assert (plus, minus) == ((total + trace) // 2, (total - trace) // 2)
    assert 0 <= plus and 0 <= minus
    assert abs(trace) <= total


def test_a_cold_level_pays_only_for_its_kernels(monkeypatch):
    # its domain checks read the prime table without growing it, and its
    # kernels go through the cached arith.class_number that the benchmark's
    # tracer wraps: h(p), h(2p), h(3p) and one B_2,chi sum
    p = 1999
    kernels._primes_to(p)
    end = len(kernels._spf)
    assert is_prime(p) and len(kernels._spf) == end
    calls = []

    def counted(D0):
        calls.append(D0)
        return kernels.b2_character_sum(D0)

    monkeypatch.setattr(compact, "b2_character_sum", counted)
    compact.level.cache_clear()
    compact._invariants.cache_clear()
    arith.class_number.cache_clear()
    level(p)
    assert arith.class_number.cache_info().misses == 3
    assert calls == [4 * p]
    assert len(kernels._spf) == end
