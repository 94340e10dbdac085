"""Answers obtained apart from the program.

Jordan-Wigner operators are rebuilt here from scipy.sparse.kron, and the
Mal'tsev and Jacobi identities are evaluated with integer numpy tensors on
seeded random vectors; neither path calls into `mnl`.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

# Chein doubles M(G, 2) are associative exactly when G is abelian
ABELIAN = {"z1": True, "z2": True, "z3": True, "z4": True, "z5": True,
           "z6": True, "z7": True, "z8": True, "klein4": True, "z2xz4": True,
           "z2xz2xz2": True, "s3": False, "d4": False, "q8": False}

SO8_DIM = 28         # closure of the octonion L/R generators: so(8)
SO3_SO3_DIM = 6      # closure of the quaternion L/R generators: so(3) + so(3)
TANGENT_TOL = 1e-5
TANGENT_ORDER = 2.0  # central second difference


def jw_lowering(modes):
    """a_m = Z x .. x Z x sigma x I x .. x I, as int64 CSR matrices."""
    z = sp.csr_matrix(np.array([[1, 0], [0, -1]], dtype=np.int64))
    sigma = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=np.int64))
    ident = sp.identity(2, dtype=np.int64, format="csr")
    ops = []
    for m in range(modes):
        acc = sp.identity(1, dtype=np.int64, format="csr")
        for f in [z] * m + [sigma] + [ident] * (modes - m - 1):
            acc = sp.kron(acc, f, format="csr")
        ops.append(acc)
    return ops


def site_density_times_i(lowering, n, x, mat):
    """K with s0 = -i K for s0 = -i a+(x) mat^T a(x), mat integer n x n."""
    dim = lowering[0].shape[0]
    acc = sp.csr_matrix((dim, dim), dtype=np.int64)
    for A in range(n):
        for B in range(n):
            v = mat[B][A]
            if v:
                if v != int(v):
                    raise ValueError("oracle densities need integer generators")
                acc = acc + int(v) * (lowering[x * n + A].T @ lowering[x * n + B])
    acc = acc.tocsr()
    acc.eliminate_zeros()
    return acc


def same_int(a, b):
    diff = (sp.csr_matrix(a, dtype=np.int64) - sp.csr_matrix(b, dtype=np.int64)).tocsr()
    diff.eliminate_zeros()
    return diff.nnz == 0


def program_density_is(op, k):
    """GQSparse (re + i im)/den equals -i k exactly."""
    return op.re.nnz == 0 and same_int(op.im, -k * op.den)


def _int_tensor(c, scale):
    """scale * c as an integer array c[i, j, k]; scale clears denominators."""
    out = np.zeros((c.dim,) * 3, dtype=np.int64)
    for (i, j, k), v in c.entries.items():
        w = v * scale
        if w.denominator != 1:
            raise ValueError("scale does not clear the denominators")
        out[i, j, k] = int(w)
    return out


def _br(c, x, y):
    return np.einsum("ijk,...j,...k->...i", c, x, y)


def _jac(c, x, y, z):
    return _br(c, x, _br(c, y, z)) + _br(c, y, _br(c, z, x)) + _br(c, z, _br(c, x, y))


def identities(c_tensor, rng, samples=64):
    """(is_lie, is_maltsev) of a structure tensor, decided on seeded random
    integer vectors: a polynomial identity that fails somewhere fails on a
    random point with overwhelming probability, and one that holds holds
    everywhere.  Both identities are homogeneous in c, so integer scaling of
    the constants does not change the verdicts."""
    den = math.lcm(1, *(v.denominator for v in c_tensor.entries.values()))
    c = _int_tensor(c_tensor, den)
    r = c_tensor.dim
    x, y, z = (rng.integers(-3, 4, size=(samples, r)) for _ in range(3))
    lie = not _jac(c, x, y, z).any()
    lhs = _br(c, _jac(c, x, y, z), x)
    rhs = _jac(c, x, y, _br(c, x, z))
    return lie, not (lhs - rhs).any()
