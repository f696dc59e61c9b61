"""Exact dimensions of paramodular cusp forms of prime level with
Atkin-Lehner sign, via algebraic modular forms on the compact twist.

The layers, each explained in its module docstring: kernels (Kronecker
symbol, h(D), the B_{2,chi} sum), arith (the ingredients of one level),
characters (chi_1 .. chi_17), compact (dim M and tr R), elliptic
(elliptic forms of level 1 and Gamma_0(p)), siegel1 (Siegel cusp forms
of level 1), paramodular (S+-, A+-, the graded series), corpus (the
embedded data re-derived) and cli; quaternion is the independent
enumeration at p = 2, 3.

Every memo of the package is an lru_cache, which cache_info() reports;
only the growable tables of kernels are kept by hand
(tests/test_imports.py refuses any other module-level container).  A
module that only some commands need is imported at first use: json and
csv by verify and hilbert, which read the data files, and by the JSON and
CSV output formats; pathlib where a data file is read; fractions only in
the message of a failed exact division and in arith.bernoulli_b2_chi.
So dim, table, search and bias in text load none of them.
"""
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
