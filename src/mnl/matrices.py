"""Exact dense integer kernels.  A rational tensor or matrix stack is held as
an integer array over its common denominator (`scaled`).  Every contraction
and linear combination bounds its result before it computes (`fits_int64`,
the bound the sparse Fock operators apply too, raising instead): below 2^62
it runs in int64, otherwise over Python ints (object dtype), so no value can
wrap and nothing is floating point.  Identities are decided CHUNK cases at a
time, in their walk order, so a failing input stops early and the
temporaries stay small."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .report import fail, ok

BOUND = 1 << 62    # no intermediate int64 value may reach this
CHUNK = 64         # cases decided per contraction


def fits_int64(*bounds):
    """True when each bound on an exact integer result (so on its partial
    sums) is below 2^62."""
    return max(bounds) < BOUND


def magnitude(a):
    return int(np.abs(a).max()) if a.size else 0


def scaled(shape, entries):
    """(D A, D) for the rational array A of `shape`, zero but at the
    (index, value) pairs of `entries`, over their least common denominator D."""
    entries = [(idx, Fraction(v)) for idx, v in entries]
    den = math.lcm(1, *(v.denominator for _, v in entries))
    ints = [(idx, v.numerator * (den // v.denominator)) for idx, v in entries]
    out = np.zeros(shape, dtype=np.int64 if fits_int64(0, *(abs(v) for _, v in ints)) else object)
    for idx, v in ints:
        out[idx] = v
    return out, den


def stacked(mats, dim):
    """`scaled` of a list of dim x dim rational matrices, as one array."""
    return scaled((len(mats), dim, dim), (((t, i, j), v) for t, m in enumerate(mats)
                                          for i, row in enumerate(m)
                                          for j, v in enumerate(row) if v))


def contract(spec, *operands):
    """np.einsum(spec, *operands), spec with '->', for integer arrays: an entry
    sums K products, K the summed index sizes' product, so K prod max(max|op|, 1)
    bounds it and every pairwise step of a longer contraction."""
    inputs, output = spec.split("->")
    sizes = {}
    for sub, op in zip(inputs.split(","), operands):
        letters = sub.replace("...", "")
        sizes.update(zip(letters, op.shape[op.ndim - len(letters):]))
    bound = math.prod(n for letter, n in sizes.items() if letter not in output)
    bound *= math.prod(max(magnitude(op), 1) for op in operands)
    dtype = np.int64 if fits_int64(bound) else object
    return np.einsum(spec, *(op.astype(dtype, copy=False) for op in operands),
                     optimize=len(operands) > 2)


def lincomb(terms):
    """sum q*A over the (q, A) pairs, q integers and A broadcastable integer
    arrays; sum |q| max(max|A|, 1) bounds it."""
    terms = list(terms)
    bound = sum(abs(q) * max(magnitude(a), 1) for q, a in terms)
    dtype = np.int64 if fits_int64(bound) else object
    return sum(q * a.astype(dtype, copy=False) for q, a in terms)


def mat_mul(a, b):
    """The product of (stacks of) integer matrices."""
    return contract("...ik,...kj->...ij", a, b)


def commutator(a, b):
    return lincomb([(1, mat_mul(a, b)), (-1, mat_mul(b, a))])


def first_failure_chunked(prop, cases, fails, weight=None, budget=None):
    """Walk (witness, *case) in order and fail with the witness of the first
    case that fails, deciding up to CHUNK cases at a time: fails(cases), for
    a list of cases without their witnesses, is True where one fails.  With
    `weight`, a chunk also ends once its cases' weights reach `budget`."""
    cases = iter(cases)
    while True:
        chunk, total = [], 0
        for item in cases:
            chunk.append(item)
            total += weight(item[1:]) if weight else 0
            if len(chunk) == CHUNK or (weight and total >= budget):
                break
        if not chunk:
            return ok(prop)
        bad = np.flatnonzero(fails([case for _, *case in chunk]))
        if bad.size:
            return fail(prop, witness=chunk[bad[0]][0])
