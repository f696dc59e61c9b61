from collections import Counter
from hashlib import sha256

import pytest

from paradim import compact, corpus, paramodular
from paradim.arith import primes_up_to
from paradim.corpus import iter_checks, run_checks, series_checks, table_checks
from paradim.paramodular import hilbert_series


def test_table_checks_pass():
    checks = list(table_checks())
    assert len(checks) >= 400
    assert all(c.ok for c in checks)


def test_series_checks_pass():
    checks = list(series_checks())
    assert len(checks) == 2 * 54
    assert all(c.ok for c in checks)


def test_fit_check_fails_on_a_perturbed_dimension():
    # one wrong dimension in the cached run that hilbert_series fits (a low
    # weight, so that a numerator still fits) must fail the :fit check
    name = "series:p=2:M:j=0:fit"
    paramodular._graded_run.cache_clear()
    try:
        (good,) = series_checks(only=name)
        assert good.ok
        plus, _ = paramodular._graded_run("M", 2, 0, paramodular._RUN_MIN)
        plus[3] += 1
        (bad,) = series_checks(only=name)
        assert not bad.ok
        assert bad.expected == good.expected and bad.got != good.got
    finally:
        paramodular._graded_run.cache_clear()


def test_only_filter():
    names = [c.name for c in iter_checks(only="weight3")]
    assert names and all("weight3" in n for n in names)


def test_run_checks_green():
    total, failures = run_checks(only="table_k5")
    assert failures == [] and total > 0


@pytest.fixture(scope="module")
def every_check():
    return list(iter_checks())


def test_full_run_names_are_unchanged(every_check):
    # the 902 names, in order, as they were when every check was computed
    # and then filtered
    names = "\n".join(c.name for c in every_check).encode()
    assert len(every_check) == 902
    assert sha256(names).hexdigest() == (
        "88d103122ecc73c29fe9fb4774895a456747e65108580224fb900aad02c64bdc")


@pytest.mark.parametrize("only, total", [
    (None, 902), ("table_k4", 432), ("series:p=7", 16), ("weight3", 3), ("bias", 1),
    ("palindromic", 2), ("A+", 27), ("nomatch", 0)])
def test_only_keeps_the_checks_of_the_full_run(every_check, only, total):
    # selecting before computing must give what filtering every check gave
    want = [c for c in every_check if only is None or only in c.name]
    assert len(want) == total
    assert list(iter_checks(only)) == want
    assert run_checks(only) == (total, [])


# the functions through which the corpus computes anything
COMPUTING = ("dim_M_signed", "dim_paramodular_signed", "dim_new_gamma0_signed",
             "printed_series", "_space_sequence", "dim_weight3", "check_bias_region",
             "hilbert_series")


@pytest.mark.parametrize("only, calls", [
    ("nomatch", {}),
    ("table_k4.csv:p=7:", {"dim_M_signed": 1, "dim_paramodular_signed": 1}),
    ("table_k7.csv:p=7:s2", {"dim_M_signed": 1, "dim_paramodular_signed": 1,
                             "dim_new_gamma0_signed": 1}),
    ("series:p=7:A:j=0:fit", {"printed_series": 1, "hilbert_series": 1}),
    ("weight3:dim2", {"dim_weight3": len(primes_up_to(450))}),
    ("bias", {"check_bias_region": 1}),
    ("palindromic:A+", {"hilbert_series": len(primes_up_to(97))}),
])
def test_only_computes_nothing_it_does_not_select(monkeypatch, only, calls):
    seen = Counter()
    for name in COMPUTING:
        def counted(*args, _name=name, _fn=getattr(corpus, name), **kwargs):
            seen[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(corpus, name, counted)
    assert all(c.ok for c in iter_checks(only))
    assert dict(seen) == calls


def _count_dim_M_total(monkeypatch):
    """A counter of the total dimensions of M computed, with no run cached:
    the calls of compact.dim_M_total and the weights of each run that
    paramodular evaluates with compact._signed_run (the M sequences) or
    compact._signed_packed (the S and A sequences)."""
    seen = Counter()
    total = compact.dim_M_total

    def counted(*args):
        seen["calls"] += 1
        return total(*args)

    def counted_run(run):
        def counted(p, j, f2s, *extra):
            seen["calls"] += len(f2s)
            return run(p, j, f2s, *extra)
        return counted

    monkeypatch.setattr(compact, "dim_M_total", counted)
    for name in ("_signed_run", "_signed_packed"):
        monkeypatch.setattr(paramodular, name, counted_run(getattr(paramodular, name)))
    paramodular._graded_run.cache_clear()
    return seen


def test_verify_computes_each_graded_dimension_once(monkeypatch):
    # a count, not a time: 16 890 signed M dimensions for 6 604 distinct
    # weights when each space and each fallback denominator recomputed its
    # sequence; 10 756 with one cached run per key.  Each distinct weight is
    # computed at least once, so a count that misses a route falls below 6 604.
    seen = _count_dim_M_total(monkeypatch)
    assert run_checks() == (902, [])
    assert 6604 <= seen["calls"] <= 12000


def test_verify_evaluates_one_graded_run_per_key(monkeypatch):
    # a cold run_checks reads one run per (base space, p, j) that a graded
    # sequence reads (84 when a run was extended in place) and evaluates
    # one per M key and per (p, j) of an S/A pair, as A is built on the
    # cached S run (41 when A had its own grid), and check_bias_region one
    # run of its own
    runs, keys = Counter(), set()
    for name in ("_signed_run", "_cusp_runs"):
        def counted(*args, _fn=getattr(paramodular, name)):
            runs["calls"] += 1
            return _fn(*args)
        monkeypatch.setattr(paramodular, name, counted)
    sequence = paramodular._space_sequence

    def recorded(p, space, nmax, j=0):
        if nmax >= (0 if space[0] == "M" else 3):
            keys.add((space[0], p, j))
        return sequence(p, space, nmax, j)

    for module in (paramodular, corpus):
        monkeypatch.setattr(module, "_space_sequence", recorded)
    paramodular._graded_run.cache_clear()
    assert run_checks() == (902, [])
    assert len(keys) == 41
    evaluated = {("M" if base == "M" else "S", p, j) for base, p, j in keys}
    assert len(evaluated) == 37
    assert runs["calls"] == len(evaluated) + 1


def test_one_run_serves_every_embedded_fit():
    # the expand checks and every embedded fit read degrees below _RUN_MIN,
    # so a new record whose fit reads further would not share the run
    assert paramodular._RUN_MIN > corpus.SERIES_NMAX
    for rec in paramodular._printed_registry().values():
        assert paramodular._RUN_MIN > 2 * sum(rec["den"]) + paramodular.FIT_SLACK, rec


def test_fallback_denominators_share_one_run(monkeypatch):
    # two candidate denominators are tried, with sequences of length 105 and
    # 101; without a shared run, the five candidates of the longer list made
    # 481 calls.  The cached run computes weights 3..105 once each.
    seen = _count_dim_M_total(monkeypatch)
    hilbert_series(2, "A+")
    assert 103 <= seen["calls"] <= 110
