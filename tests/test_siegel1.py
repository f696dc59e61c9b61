import pytest

from paradim import siegel1
from paradim.errors import UnsupportedJ
from paradim.exactmath import series_coeffs
from paradim.siegel1 import LEVEL1_SERIES, dim_cusp_sp4


def test_scalar_valued_known_dims():
    # the Igusa generators: first cusp forms in weights 10, 12, 35
    for k in range(0, 10):
        assert dim_cusp_sp4(k) == 0, k
    assert dim_cusp_sp4(10) == 1
    assert dim_cusp_sp4(11) == 0
    assert dim_cusp_sp4(12) == 1
    assert dim_cusp_sp4(35) == 1
    assert dim_cusp_sp4(20) == 3


def test_scalar_series_palindromic_shape():
    gf = LEVEL1_SERIES[0]
    assert gf.denom_exponents == (4, 6, 10, 12)


def test_vector_valued_first_dims():
    # j = 2: no cusp forms below weight 14
    assert all(dim_cusp_sp4(k, 2) == 0 for k in range(0, 10))
    assert dim_cusp_sp4(14, 2) == 1
    # j = 4: the first vector-valued cusp form is Ibukiyama's weight (10, 4)
    assert dim_cusp_sp4(10, 4) == 1
    assert all(dim_cusp_sp4(k, 4) == 0 for k in range(0, 10))


def test_series_coeffs_nonnegative():
    for j, gf in LEVEL1_SERIES.items():
        assert all(c >= 0 for c in series_coeffs(gf, 100)), j


def test_unsupported_j():
    for j in (1, 6, 26, -2):
        with pytest.raises(UnsupportedJ):
            dim_cusp_sp4(10, j)


def test_negative_weight_is_zero():
    # a negative index used to wrap round to the end of the coefficient list
    for j in LEVEL1_SERIES:
        assert all(dim_cusp_sp4(k, j) == 0 for k in range(-130, 0)), j
    assert dim_cusp_sp4(-1) == 0
    assert dim_cusp_sp4(-5, 2) == 0


def test_an_ascending_walk_expands_each_series_a_few_times(monkeypatch):
    # the expansions double in length from 128 terms, so k = 0..1000 reads
    # four of them per j; one expansion per new k >= 128 made 874
    calls = []
    expand = siegel1.series_coeffs

    def counted(gf, n):
        calls.append(n)
        return expand(gf, n)

    monkeypatch.setattr(siegel1, "series_coeffs", counted)
    siegel1._level1_coeffs.cache_clear()
    for j, gf in LEVEL1_SERIES.items():
        calls.clear()
        assert [dim_cusp_sp4(k, j) for k in range(1001)] == expand(gf, 1001), j
        assert len(calls) <= 4, (j, len(calls))
