"""The Cayley-Dickson doubling with signs (-1, -1, -1) against the published
Fano triples, and the octonion laws of the exact product its table defines."""

from fractions import Fraction

import pytest

from fano import FANO_TABLE, FANO_TRIPLES, basis_octonion, oct_conj, product
from mnl.algebra import OCTONIONS, QUATERNIONS, cayley_dickson

TABLE = cayley_dickson(OCTONIONS)


def mul(x, y):
    return product(TABLE, x, y)


def f_constant(a, b, c):
    """Structure constant f_abc (a, b, c in 1..7) of the doubled table."""
    idx, sign = TABLE[a][b]
    return sign if idx == c else 0


def test_positive_triples():
    for (a, b, c) in FANO_TRIPLES:
        assert TABLE[a][b] == (c, 1)
        assert TABLE[b][a] == (c, -1)
    assert TABLE == FANO_TABLE


def test_quaternions_are_the_first_block():
    assert cayley_dickson(QUATERNIONS) == tuple(row[:4] for row in FANO_TABLE[:4])


def test_f_totally_antisymmetric():
    for a in range(1, 8):
        for b in range(1, 8):
            for c in range(1, 8):
                f = f_constant(a, b, c)
                assert f_constant(b, a, c) == -f
                assert f_constant(a, c, b) == -f


def test_imaginary_squares():
    for a in range(1, 8):
        assert TABLE[a][a] == (0, -1)


def test_unit_element():
    v = [Fraction(n) for n in (3, -1, 2, 0, 5, -4, 1, 7)]
    one = basis_octonion(0)
    assert mul(one, v) == v
    assert mul(v, one) == v


def test_norm_multiplicative():
    def norm2(x):
        return sum(c * c for c in x)

    x = [Fraction(n, 2) for n in (1, -3, 2, 0, 1, 4, -1, 2)]
    y = [Fraction(n, 3) for n in (2, 1, -1, 5, 0, 1, 2, -2)]
    assert norm2(mul(x, y)) == norm2(x) * norm2(y)


def test_conjugate_gives_inverse():
    x = [Fraction(n) for n in (2, 1, -1, 3, 0, 1, 2, -2)]
    n2 = sum(c * c for c in x)
    prod = mul(x, oct_conj(x))
    assert prod[0] == n2
    assert all(c == 0 for c in prod[1:])


@pytest.mark.parametrize("a,b,c", [(1, 2, 4), (1, 3, 5), (2, 3, 4)])
def test_alternative_but_not_associative(a, b, c):
    # associator alternates: [x,x,y] = 0, while generic triples associate badly
    ea, eb, ec = basis_octonion(a), basis_octonion(b), basis_octonion(c)
    assert mul(mul(ea, ea), eb) == mul(ea, mul(ea, eb))
    left = mul(mul(ea, eb), ec)
    right = mul(ea, mul(eb, ec))
    assert left != right


@pytest.mark.parametrize("signs,dim", [((), 1), ((-1,), 2), (QUATERNIONS, 4),
                                       (OCTONIONS, 8), ((-1, -1, -1, -1), 16)])
def test_doubling_unit_and_dimension(signs, dim):
    table = cayley_dickson(signs)
    assert len(table) == dim and all(len(row) == dim for row in table)
    for a in range(dim):
        assert table[0][a] == table[a][0] == (a, 1)
        assert table[a][a] == (0, 1 if a == 0 else -1)


def test_split_signs_change_the_squares():
    # in the split octonions (-1, -1, +1) the units of the last doubling square to +1
    table = cayley_dickson((-1, -1, 1))
    assert [table[a][a] for a in range(1, 8)] == [(0, -1)] * 3 + [(0, 1)] * 4
