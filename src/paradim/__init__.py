"""Exact dimensions of paramodular cusp forms of prime level with
Atkin-Lehner sign, via algebraic modular forms on the compact twist."""
from .compact import class_and_type, dim_M_signed, dim_M_total, trace_R
from .characters import chi_bracket_young, chi_young
from .elliptic import dim_cusp_level1, dim_new_gamma0_signed
from .errors import ParadimError
from .paramodular import (
    HilbertSeries,
    bias,
    check_bias_region,
    dim_A_signed,
    dim_paramodular_signed,
    dim_weight3,
    hilbert_series,
    search_weight3_zero,
)
from .quaternion import family_tallies, principal_tallies, verify_trace_p23
from .siegel1 import dim_cusp_sp4

__version__ = "0.1.0"

__all__ = [
    "HilbertSeries",
    "ParadimError",
    "bias",
    "check_bias_region",
    "chi_bracket_young",
    "chi_young",
    "class_and_type",
    "dim_A_signed",
    "dim_M_signed",
    "dim_M_total",
    "dim_cusp_level1",
    "dim_cusp_sp4",
    "dim_new_gamma0_signed",
    "dim_paramodular_signed",
    "dim_weight3",
    "family_tallies",
    "hilbert_series",
    "principal_tallies",
    "search_weight3_zero",
    "trace_R",
    "verify_trace_p23",
]
