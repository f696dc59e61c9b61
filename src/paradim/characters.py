"""The seventeen Sp(2) characters chi_1 .. chi_17.

Each chi_i is the character of the irreducible representation with Young
parameters (f1, f2), evaluated at any group element whose principal
polynomial is phi_i(+-x).  One table, CHI_TABLE, gives them: chi_i is a
sum of polynomial factors F(u, v) times periodic brackets [row]_k over a
denominator, in the weight coordinates (k, j) = (f2 + 3, f1 - f2), which
young(k, j) inverts.  chi_columns reads it a column at a time along a
run of weights (f1 + t, f2 + t); chi_values is its run of one, and
chi_young the one-index case of that.

The oracles of the table live in tests/character_oracles.py: the Weyl
character formula and closed forms indexed by (f1, f2).
tests/test_acceptance.py proves from their periods that the table and
the Weyl formula agree at every weight.
"""
from .errors import BadIndex, BadYoung
from .exactmath import exact_quotient, is_int


def _check_index(i):
    if not is_int(i) or i not in CHI_TABLE:
        raise BadIndex(f"character index {i} not in 1..17")


def young(k, j):
    """The Young weight (k + j - 3, k - 3) of det^k Sym(j); BadYoung, naming
    (k, j), unless k >= 3 and j >= 0 are integers and j is even."""
    if not (is_int(k) and is_int(j)) or k < 3 or j < 0 or j % 2:
        raise BadYoung(f"need integers k >= 3 and even j >= 0, got (k,j)=({k!r},{j!r})")
    return k + j - 3, k - 3


def _check_young(f1, f2):
    if not (is_int(f1) and is_int(f2)) or not f1 >= f2 >= 0 or (f1 - f2) % 2:
        raise BadYoung(f"need integers f1 >= f2 >= 0 with f1 = f2 (mod 2), got ({f1!r},{f2!r})")


def _br(vals, b):
    """[a_0, ..., a_{m-1}; m]_b -- the entry a_i with b = i (mod m)."""
    return vals[b % len(vals)]


# The factors F(u, v) of the table, with u = k - 2 = f2 + 1, v = j + k - 1 = f1 + 2.
def _one(u, v):
    return 1


def _u(u, v):
    return u


def _v(u, v):
    return v


def _uv(u, v):
    return u * v


def _weyl(u, v):
    return u * v * (v * v - u * u)


# i -> (den, terms): chi_i = (sum of F(u, v) * [row]_k over the terms) / den,
# where a term (F, rows) reads its row number (j/2) mod len(rows).  So chi_i
# is a quasi-polynomial in k of period the lcm of its row lengths, and in j
# of period twice its row count; every F has degree <= 3 in k.
CHI_TABLE = {
    1: (6, ((_weyl, ((1,),)),)),
    2: (2, ((_uv, ((-1, 1),)),)),
    3: (2, ((_u, ((1, 0, -1, 0), (-1, 0, 1, 0))), (_v, ((0, -1, 0, 1),)))),
    4: (3, ((_u, ((1, 0, -1), (-1, 1, 0), (0, -1, 1))), (_v, ((1, -1, 0),)))),
    5: (1, ((_u, ((1, 0, -1, -1, 0, 1), (-1, -1, 0, 1, 1, 0), (0, 1, 1, 0, -1, -1))),
            (_v, ((-1, -1, 0, 1, 1, 0),)))),
    6: (2, ((_u, ((1, 0), (-1, 0))), (_v, ((0, 1), (0, -1))))),
    7: (3, ((_u, ((1, 0, 2), (-1, 1, 0), (0, -1, -2))),
            (_v, ((1, 2, 0), (1, -1, 0), (-2, -1, 0))))),
    8: (1, ((_one, ((-1, 0, 0, 1, 1, 1, 1, 0, 0, -1, -1, -1),
                    (1, -1, 0, -1, -1, 0, -1, 1, 0, 1, 1, 0),
                    (-1, 1, 0, 0, 1, -1, 1, -1, 0, 0, -1, 1),
                    (1, 0, 0, 1, -1, 1, -1, 0, 0, -1, 1, -1),
                    (-1, -1, 0, -1, 1, 0, 1, 1, 0, 1, -1, 0),
                    (1, 1, 0, 0, -1, -1, -1, -1, 0, 0, 1, 1))),)),
    9: (1, ((_one, ((-1, 0, 0, 1, 0, 0), (1, -1, 0, -1, 1, 0), (0, 1, 0, 0, -1, 0))),)),
    10: (1, ((_one, ((-1, 0, 0, 1, 0), (1, -1, 0, 0, 0), (0,),
                     (0, 0, 0, -1, 1), (0, 1, 0, 0, -1))),)),
    11: (1, ((_one, ((-1, 0, 0, 1), (1, -1, 0, 0), (1, 0, 0, -1), (-1, 1, 0, 0))),)),
    12: (1, ((_one, ((-1, 0, 0, 1, -2, 2), (1, -1, 0), (2, -1, 0, 0, 1, -2),
                     (1, 0, 0, -1, 2, -2), (-1, 1, 0), (-2, 1, 0, 0, -1, 2))),)),
    13: (1, ((_one, ((-1, 0, 0, 1, 2, 1, 0, 0, -1, -2),
                     (1, -1, 0, 2, 0, -1, 1, 0, -2, 0),
                     (-2, -2, 0, -2, -2, 2, 2, 0, 2, 2),
                     (0, 2, 0, -1, 1, 0, -2, 0, 1, -1),
                     (2, 1, 0, 0, -1, -2, -1, 0, 0, 1))),)),
    14: (1, ((_u, ((0, 0, 1, 1), (0, 1, 1, 0), (0, 0, -1, -1), (0, -1, -1, 0))),
             (_v, ((1, 1, 0, 0), (1, 0, 0, 1), (-1, -1, 0, 0), (-1, 0, 0, -1))))),
    15: (1, ((_one, ((-1, 0, 0, 1, 0, -2, 1, 2, -2, -1, 2, 0), (1, -1, 0),
                     (0, -1, 0, 2, -1, -2, 2, 1, -2, 0, 1, 0),
                     (1, -2, 0, 1, 0, 0, -1, 0, 2, -1, -2, 2), (1, -1, 0),
                     (0, -1, 0, 0, 1, 0, -2, 1, 2, -2, -1, 2),
                     (1, 0, 0, -1, 0, 2, -1, -2, 2, 1, -2, 0), (-1, 1, 0),
                     (0, 1, 0, -2, 1, 2, -2, -1, 2, 0, -1, 0),
                     (-1, 2, 0, -1, 0, 0, 1, 0, -2, 1, 2, -2), (-1, 1, 0),
                     (0, 1, 0, 0, -1, 0, 2, -1, -2, 2, 1, -2))),)),
    16: (1, ((_one, ((-1, 0, 0, 1, 1, 0, 0, -1), (1, -1, 0, 0, -1, 1, 0, 0),
                     (-1, 0, 0, -1, 1, 0, 0, 1), (1, 1, 0, 0, -1, -1, 0, 0))),)),
    17: (1, ((_one, ((-1, 0, 0, 1, 1, -1), (1, -1, 0), (-1, -1, 0, 0, 1, 1),
                     (1, 0, 0, -1, -1, 1), (-1, 1, 0), (1, 1, 0, 0, -1, -1))),)),
}


def chi_columns(indices, f1, f2, n):
    """The columns chi_i(f1 + t, f2 + t), t < n, for each i of `indices` in
    order, read from CHI_TABLE column by column.  The run keeps j = f1 - f2,
    so checking its first Young weight checks them all; chi_values is the
    run of one."""
    _check_young(f1, f2)
    k0, j = f2 + 3, f1 - f2
    ks = range(k0, k0 + n)
    # each factor F(u, v), at u = k - 2 and v = j + k - 1, once per run
    factors = {}
    columns = []
    for i in indices:
        _check_index(i)
        den, terms = CHI_TABLE[i]
        nums = [0] * n
        for f, rows in terms:
            xs = factors.get(f)
            if xs is None:
                xs = factors[f] = [f(k - 2, k + j - 1) for k in ks]
            row = rows[j // 2 % len(rows)]
            for t, k in enumerate(ks):
                nums[t] += xs[t] * row[k % len(row)]
        if den > 1:
            nums = [exact_quotient(num, den, "chi_{}(k={}, j={})", i, k, j)
                    for num, k in zip(nums, ks)]
        columns.append(tuple(nums))
    return columns


def chi_values(indices, f1, f2):
    """chi_i(f1, f2) for each i of `indices`, in order."""
    return tuple([column[0] for column in chi_columns(indices, f1, f2, 1)])


def chi_young(i, f1, f2):
    """chi_i at the Young weight (f1, f2); BadIndex or BadYoung outside the
    domain."""
    return chi_values((i,), f1, f2)[0]

