"""The Cayley-Dickson doubling with signs (-1, -1, -1) against the published
Fano triples, and the octonion laws of the exact product its tensor defines."""

from fractions import Fraction

import numpy as np
import pytest

from fano import FANO_TABLE, FANO_TRIPLES, basis_octonion, oct_conj
from mnl.algebra import OCTONIONS, QUATERNIONS, cayley_dickson
from oracles import sign_tensor

A = cayley_dickson(OCTONIONS)


def mul(x, y):
    """sum_abc x_a y_b A[a, b, c] e_c, exactly."""
    return [sum(x[a] * y[b] * int(A[a, b, c]) for a in range(8) for b in range(8) if x[a] and y[b])
            for c in range(8)]


def test_positive_triples():
    for (a, b, c) in FANO_TRIPLES:
        assert A[a, b].tolist() == np.eye(8, dtype=int)[c].tolist()
        assert A[b, a].tolist() == (-np.eye(8, dtype=int)[c]).tolist()
    assert A.dtype == np.int64 and np.array_equal(A, sign_tensor(FANO_TABLE))


def test_quaternions_are_the_first_block():
    assert np.array_equal(cayley_dickson(QUATERNIONS), sign_tensor(FANO_TABLE)[:4, :4, :4])


def test_f_totally_antisymmetric():
    # f_abc = A[a, b, c] for a, b, c in 1..7
    f = A[1:, 1:, 1:]
    assert np.array_equal(f.transpose(1, 0, 2), -f)
    assert np.array_equal(f.transpose(0, 2, 1), -f)


def test_imaginary_squares():
    for a in range(1, 8):
        assert A[a, a].tolist() == [-1] + [0] * 7


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
    T = cayley_dickson(signs)
    assert T.shape == (dim, dim, dim) and T.dtype == np.int64
    one = np.eye(dim, dtype=np.int64)
    assert np.array_equal(T[0], one) and np.array_equal(T[:, 0], one)
    for a in range(dim):
        assert T[a, a].tolist() == [1 if a == 0 else -1] + [0] * (dim - 1)


def test_split_signs_change_the_squares():
    # in the split octonions (-1, -1, +1) the units of the last doubling square to +1
    T = cayley_dickson((-1, -1, 1))
    assert [T[a, a].tolist() for a in range(1, 8)] == [[-1] + [0] * 7] * 3 + [[1] + [0] * 7] * 4
