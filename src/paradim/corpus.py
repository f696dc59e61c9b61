"""Re-derivation of every embedded data value from the formulas.

Each check compares one stored value (a table entry, a series, a list)
with an independent computation; `run_checks` drives them all and is
what the `paradim verify` command and the test suite use.
"""
from collections import namedtuple

from .arith import primes_up_to
from .compact import dim_M_signed
from .data import load_csv, load_json
from .elliptic import dim_new_gamma0_signed
from .exactmath import fit_numerator, is_palindromic, series_coeffs
from .paramodular import (
    _space_sequence,
    check_bias_region,
    dim_paramodular_signed,
    dim_weight3,
    hilbert_series,
    printed_series,
)

Check = namedtuple("Check", "name ok expected got")

TABLES = [
    ("table_k4.csv", 4, False),
    ("table_k5.csv", 5, False),
    ("table_k6.csv", 6, False),
    ("table_k8.csv", 8, False),
    ("table_k7.csv", 7, True),
    ("table_k10.csv", 10, True),
]


def _row_values(p, k, long):
    f = k - 3
    m_plus, m_minus = dim_M_signed(p, f, f)
    s_plus, s_minus = dim_paramodular_signed(p, k)
    vals = {"H": m_plus + m_minus, "R": m_plus - m_minus,
            "S_plus": s_plus, "S_minus": s_minus}
    if long:
        vals["M_plus"] = m_plus
        vals["M_minus"] = m_minus
        vals["s2_plus"], vals["s2_minus"] = dim_new_gamma0_signed(p, 2)
    return vals


def table_checks():
    for filename, k, long in TABLES:
        for row in load_csv(filename):
            p = int(row["p"])
            computed = _row_values(p, k, long)
            for col, got in computed.items():
                expected = int(row[col])
                yield Check(f"{filename}:p={p}:{col}",
                            got == expected, expected, got)


def series_checks(nmax=80):
    for rec in load_json("hilbert_series.json"):
        p, space, j = rec["p"], rec["space"], rec.get("j", 0)
        tag = f"series:p={p}:{space}:j={j}"
        gf = printed_series(p, space, j)
        margin = sum(rec["den"])
        n = 2 * margin + 41
        seq = _space_sequence(p, space, max(n, nmax), j)
        head = seq[:nmax + 1]
        got = series_coeffs(gf, nmax + 1)
        yield Check(f"{tag}:expand", got == head, head, got)
        fit = fit_numerator(seq[:n + 1], rec["den"], n - margin - 1)
        yield Check(f"{tag}:fit", fit == gf.numerator, gf.numerator, fit)


def weight3_checks(pmax=450):
    stored = load_json("weight3.json")
    computed = {0: [], 1: [], 2: []}
    for p in primes_up_to(pmax):
        plus = dim_weight3(p)[0]
        if plus in computed:
            computed[plus].append(p)
    yield Check("weight3:zero", computed[0] == stored["zero"],
                stored["zero"], computed[0])
    yield Check("weight3:dim1", computed[1] == stored["dim_plus_1"],
                stored["dim_plus_1"], computed[1])
    yield Check("weight3:dim2", computed[2] == stored["dim_plus_2"],
                stored["dim_plus_2"], computed[2])


def bias_checks(pmax=300, kmax=100):
    stored = [(int(r["p"]), int(r["k"])) for r in load_csv("bias_zero_pairs.csv")]
    got = check_bias_region(pmax, kmax)
    yield Check("bias:zero-pairs", got == stored, stored, got)


def palindromic_checks():
    stored = load_json("palindromic.json")
    pal_a, pal_ap = [], []
    for p in primes_up_to(97):
        if is_palindromic(hilbert_series(p, "A").gf):
            pal_a.append(p)
        if is_palindromic(hilbert_series(p, "A+").gf):
            pal_ap.append(p)
    yield Check("palindromic:A", pal_a == stored["A"], stored["A"], pal_a)
    yield Check("palindromic:A+", pal_ap == stored["A_plus"],
                stored["A_plus"], pal_ap)


def iter_checks(only=None):
    groups = [table_checks, series_checks, weight3_checks, bias_checks,
              palindromic_checks]
    for group in groups:
        for check in group():
            if only is None or only in check.name:
                yield check


def run_checks(only=None):
    """(total, failures) over the whole embedded corpus."""
    total = 0
    failures = []
    for check in iter_checks(only):
        total += 1
        if not check.ok:
            failures.append(check)
    return total, failures
