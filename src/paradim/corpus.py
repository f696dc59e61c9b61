"""Re-derivation of every embedded data value from the formulas.

Each check compares one stored value (a table entry, a series, a list)
with an independent computation; `run_checks` drives them all and is
what the `paradim verify` command and the test suite use.

Each embedded series is checked twice: its expansion to SERIES_NMAX
terms against the computed sequence, and its numerator against the one
that hilbert_series fits, so `hilbert --fit` prints what the check
compares.  When the printed denominator does not fit, that fit check and
the palindromic check reading the same series fail with the
NonPolynomial message as the value got; it names the prime, the space,
j and the denominator tried before the residual that refused the fit.
"""
from collections import namedtuple

from .arith import primes_up_to
from .characters import young
from .compact import dim_M_signed
from .data import load_csv, load_json
from .elliptic import dim_new_gamma0_signed
from .errors import NonPolynomial
from .exactmath import is_palindromic, series_coeffs
from .paramodular import (_space_sequence, check_bias_region, dim_paramodular_signed,
                          dim_weight3, hilbert_series, printed_series)

Check = namedtuple("Check", "name ok expected got")

# the weights whose tables also list M^± and the weight-2 newspace
LONG_WEIGHTS = (7, 10)
TABLES = [(f"table_k{k}.csv", k) for k in (4, 5, 6, 8, 7, 10)]

# the columns of a table row, in the order they are checked
COLUMNS = ("H", "R", "S_plus", "S_minus")
LONG_COLUMNS = COLUMNS + ("M_plus", "M_minus", "s2_plus", "s2_minus")


def _selected(name, only):
    """Whether the check called `name` is run under the filter `only`."""
    return only is None or only in name


def _row_values(p, k):
    m_plus, m_minus = dim_M_signed(p, *young(k, 0))
    s_plus, s_minus = dim_paramodular_signed(p, k)
    vals = {"H": m_plus + m_minus, "R": m_plus - m_minus,
            "S_plus": s_plus, "S_minus": s_minus}
    if k in LONG_WEIGHTS:
        vals["M_plus"], vals["M_minus"] = m_plus, m_minus
        vals["s2_plus"], vals["s2_minus"] = dim_new_gamma0_signed(p, 2)
    return vals


def table_checks(only=None):
    for filename, k in TABLES:
        columns = LONG_COLUMNS if k in LONG_WEIGHTS else COLUMNS
        for row in load_csv(filename):
            p = int(row["p"])
            cols = [col for col in columns if _selected(f"{filename}:p={p}:{col}", only)]
            if not cols:
                continue
            computed = _row_values(p, k)
            for col in cols:
                expected, got = int(row[col]), computed[col]
                yield Check(f"{filename}:p={p}:{col}", got == expected, expected, got)


def series_checks(only=None):
    for rec in load_json("hilbert_series.json"):
        p, space, j = rec["p"], rec["space"], rec.get("j", 0)
        tag = f"series:p={p}:{space}:j={j}"
        expand, fit = _selected(f"{tag}:expand", only), _selected(f"{tag}:fit", only)
        if not (expand or fit):
            continue
        gf = printed_series(p, space, j)
        if expand:
            head = _space_sequence(p, space, SERIES_NMAX, j)
            got = series_coeffs(gf, SERIES_NMAX + 1)
            yield Check(f"{tag}:expand", got == head, head, got)
        if fit:
            try:
                got = hilbert_series(p, space, j).gf.numerator
            except NonPolynomial as exc:  # the printed denominator does not fit
                got = str(exc)
            yield Check(f"{tag}:fit", got == gf.numerator, gf.numerator, got)


# (check name, dimension of the plus space, key of weight3.json)
WEIGHT3 = (("weight3:zero", 0, "zero"), ("weight3:dim1", 1, "dim_plus_1"),
           ("weight3:dim2", 2, "dim_plus_2"))
# the terms compared by each series expand check, and the coverage of
# weight3.json (p <= 450) and bias_zero_pairs.csv (p <= 300, k <= 100)
SERIES_NMAX = 80
WEIGHT3_PMAX = 450
BIAS_PMAX, BIAS_KMAX = 300, 100


def weight3_checks(only=None):
    wanted = [entry for entry in WEIGHT3 if _selected(entry[0], only)]
    if not wanted:
        return
    stored = load_json("weight3.json")
    computed = {0: [], 1: [], 2: []}
    for p in primes_up_to(WEIGHT3_PMAX):
        plus = dim_weight3(p)[0]
        if plus in computed:
            computed[plus].append(p)
    for name, plus, key in wanted:
        yield Check(name, computed[plus] == stored[key], stored[key], computed[plus])


def bias_checks(only=None):
    if not _selected("bias:zero-pairs", only):
        return
    stored = [(int(r["p"]), int(r["k"])) for r in load_csv("bias_zero_pairs.csv")]
    got = check_bias_region(BIAS_PMAX, BIAS_KMAX)
    yield Check("bias:zero-pairs", got == stored, stored, got)


# space -> key of palindromic.json
PALINDROMIC = {"A": "A", "A+": "A_plus"}


def palindromic_checks(only=None):
    found = {space: [] for space in PALINDROMIC
             if _selected(f"palindromic:{space}", only)}
    if not found:
        return
    stored = load_json("palindromic.json")
    for p in primes_up_to(97):
        for space, pal in found.items():
            try:
                if is_palindromic(hilbert_series(p, space).gf):
                    pal.append(p)
            except NonPolynomial as exc:  # its message names p
                pal.append(str(exc))
    for space, pal in found.items():
        want = stored[PALINDROMIC[space]]
        yield Check(f"palindromic:{space}", pal == want, want, pal)


def iter_checks(only=None):
    """Every check whose name contains `only` (all of them for None).  A
    table row, a series record or a group none of whose check names
    contains `only` is skipped before anything is computed for it."""
    groups = [table_checks, series_checks, weight3_checks, bias_checks,
              palindromic_checks]
    for group in groups:
        yield from group(only=only)


def run_checks(only=None):
    """(total, failures) over the whole embedded corpus."""
    total = 0
    failures = []
    for check in iter_checks(only):
        total += 1
        if not check.ok:
            failures.append(check)
    return total, failures
