"""Every function of paradim.__all__ at an integer argument replaced by a
bool, a float equal to an integer, or a negative integer.

A bool is refused with a ParadimError: bool subclasses int, and True
would otherwise pass as 1.  A float or a negative integer either raises
a ParadimError or gives what the call at the integer int(x) gives.
Huge integers are left out: a large prime level grows the prime table of
paradim.kernels to its square root, and 2^61 - 1 ends in MemoryError."""
import inspect

import pytest
from hypothesis import given, settings, strategies as st

import paradim
from paradim.errors import ParadimError

# an in-domain call of each function of paradim.__all__, small enough that
# the calls around it stay cheap
IN_DOMAIN = {
    "bias": (7, 4),
    "check_bias_region": (7, 6),
    "chi_bracket_young": (2, 4, 2),
    "chi_young": (2, 4, 2),
    "class_and_type": (7,),
    "dim_A_signed": (7, 4),
    "dim_M_signed": (7, 4, 2),
    "dim_M_total": (7, 4, 2),
    "dim_cusp_level1": (12,),
    "dim_cusp_sp4": (10, 0),
    "dim_new_gamma0_signed": (11, 2),
    "dim_paramodular_signed": (7, 4, 0),
    "dim_weight3": (7,),
    "family_tallies": (2,),
    "hilbert_series": (7, "M", 0),
    "principal_tallies": (3,),
    "search_weight3_zero": (50,),
    "trace_R": (7, 4, 2),
    "verify_trace_p23": (2, 4, 2),
}
# (name, position) of each integer argument
SLOTS = [(name, i) for name, args in IN_DOMAIN.items()
         for i, a in enumerate(args) if type(a) is int]


def test_every_function_has_an_in_domain_call():
    functions = {name for name in paradim.__all__
                 if inspect.isfunction(getattr(paradim, name))}
    assert set(IN_DOMAIN) == functions


def _call(name, i, x):
    args = list(IN_DOMAIN[name])
    args[i] = x
    return getattr(paradim, name)(*args)


def _outcome(name, i, x):
    """What the call gives, or the ParadimError type it raises."""
    try:
        return "returns", _call(name, i, x)
    except ParadimError as exc:
        return "raises", type(exc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SLOTS), st.booleans())
def test_a_bool_is_refused(slot, b):
    # dim_paramodular_signed(7, 4, False) used to return (1, 0)
    with pytest.raises(ParadimError):
        _call(*slot, b)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SLOTS),
       st.one_of(st.integers(-60, 60).map(float), st.integers(-10**6, -1)))
def test_a_float_or_a_negative_is_refused_or_kept(slot, x):
    kind, got = _outcome(*slot, x)
    if kind == "returns":
        assert _outcome(*slot, int(x)) == (kind, got)
