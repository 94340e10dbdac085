"""Exact dense integer kernels.  A rational tensor or matrix stack is held as
an integer array over its common denominator (`scaled`), and a contraction of
such arrays is a matrix product (`mat_mul`) of their reshapes.  Every product
and linear combination bounds its result before it computes (`fits_int64`,
the bound the sparse Fock operators apply too, raising instead): below 2^62
it runs in int64, otherwise over Python ints (object dtype), so no value can
wrap.  Rows of label coefficients, mostly zero, are held as (row, column,
value) triples (`Rows`), a product with them runs over those (`rows_times`),
and one fraction-free echelon (`Echelon`) reduces integer rows exactly.
Identities are decided CHUNK cases at a time, in their walk order, or in
blocks of at most _BLOCK entries an array (`birep.commutator_scan`, the
Mal'tsev scan), so a failing input stops early and the temporaries stay small.

One tier runs in floating point, and it is exact: `mat_mul` multiplies in
float64 (BLAS) when its bound K max|a| max|b| is below 2^53, and casts the
product back to int64.  Every input, every product of two entries and every
partial sum of at most K of them is an integer of magnitude at most that
bound, and every such integer is a float64, so no order of summation,
blocking or fused multiply-add can round any of them.  A product of fewer
than _GEMM multiply-adds stays in int64: it is as fast there, and a process
whose products are all that small never faults in OpenBLAS's kernels (about
0.3 MB of resident memory)."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .report import fail, ok

BOUND = 1 << 62    # no intermediate int64 value may reach this
CHUNK = 64         # cases decided per contraction
_FLOAT = 1 << 53   # every integer below this in magnitude is a float64
_GEMM = 1 << 13    # multiply-adds from which float64 matmul beats int64
_BLOCK = 1 << 14   # entries in any one array of a block product (128 KB in int64)


def ragged(starts, counts):
    """The positions starts[k] + j for j < counts[k], for each k in order."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(len(out))
    return out


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


class Rows(NamedTuple):
    """`size` integer rows held sparse, v[i] at (n[i], t[i]) in row order; repeats sum."""
    n: np.ndarray
    t: np.ndarray
    v: np.ndarray
    size: int

    @classmethod
    def of(cls, R):    # a dense integer matrix
        n, t = np.nonzero(R)
        return cls(n, t, R[n, t], len(R))

    @classmethod
    def summed(cls, size, width, terms):    # terms' (n, t, v) summed, one nonzero a position
        key = np.concatenate([n * width + t for n, t, _ in terms])
        # Python's sort: np.argsort's kernel is 0.19 MB more code where nothing else loads it
        order = np.array(sorted(range(len(key)), key=key.tolist().__getitem__), dtype=np.int64)
        key, v = key[order], np.concatenate([v for _, _, v in terms])[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        key, v = key[first], np.add.reduceat(v, first) if len(v) else v
        return cls(key[v != 0] // width, key[v != 0] % width, v[v != 0], size)

    def block(self, lo, hi):    # rows lo to hi - 1, numbered from 0
        i, j = np.count_nonzero(self.n < lo), np.count_nonzero(self.n < hi)
        return Rows(self.n[i:j] - lo, self.t[i:j], self.v[i:j], min(hi, self.size) - lo)


def rows_times(R, X):
    """sum_t R[n, t] X[t] for integer rows R (`Rows` or dense) and an array X, over
    R's entries, CHUNK rows at a time: (the most entries in a row of R) max|R|
    max|X| bounds it, max|X| taken over the X[t] that an entry of R reads."""
    n, t, coeff, size = R if isinstance(R, Rows) else Rows.of(R)
    counts = np.bincount(n, minlength=size)
    met = magnitude(X[np.bincount(t, minlength=len(X)) > 0])
    bound = int(counts.max(initial=0)) * max(magnitude(coeff), 1) * max(met, 1)
    dtype = np.int64 if fits_int64(bound) else object
    coeff = coeff.astype(dtype, copy=False).reshape((-1,) + (1,) * (X.ndim - 1))
    out = np.zeros((size,) + X.shape[1:], dtype=dtype)
    start = np.cumsum(counts) - counts
    for lo in range(0, size, CHUNK):
        used = lo + np.flatnonzero(counts[lo:lo + CHUNK])
        if used.size:
            nz = slice(start[used[0]], start[used[-1]] + counts[used[-1]])
            products = X[t[nz]].astype(dtype, copy=False)    # a new array: X[t] copies
            products *= coeff[nz]
            out[used] = np.add.reduceat(products, start[used] - nz.start, axis=0)
    return out


def lincomb(terms):
    """sum q*A over the (q, A) pairs, q integers and A integer arrays of one
    shape, summed into a new array; sum |q| max(max|A|, 1) bounds it."""
    terms = list(terms)
    bound = sum(abs(q) * max(magnitude(a), 1) for q, a in terms)
    dtype = np.int64 if fits_int64(bound) else object
    (q, a), *rest = terms
    out = q * a.astype(dtype, copy=False)
    for q, a in rest:
        out += q * a.astype(dtype, copy=False)
    return out


def mat_mul(a, b):
    """The product of (broadcast stacks of) integer matrices by np.matmul, K
    max|a| max|b| bounding it for K = a.shape[-1]: in float64 below 2^53 from
    _GEMM multiply-adds, cast back to int64 (exact, see above)."""
    return _times(b)(a)


def _times(b, left=False):
    """x -> mat_mul(x, b), or mat_mul(b, x) if left, b's magnitude and float64 copy once."""
    mb, fb = max(magnitude(b), 1), []
    def times(x):
        a, c = (b, x) if left else (x, b)
        bound = a.shape[-1] * max(magnitude(x), 1) * mb
        if bound < _FLOAT and max(a.size * c.shape[-1], c.size * a.shape[-2]) >= _GEMM:
            fb[:] = fb or [b.astype(np.float64)]
            return np.matmul(*(fb[0], x.astype(np.float64))[::1 if left else -1]).astype(np.int64)
        dtype = np.int64 if fits_int64(bound) else object
        return np.matmul(a.astype(dtype, copy=False), c.astype(dtype, copy=False))
    return times


def commutator(a, b):
    return lincomb([(1, mat_mul(a, b)), (-1, mat_mul(b, a))])


def _clear(X, B, pivots):
    """X's rows with the pivot columns of B's rows cleared, each over the gcd
    of its entries: L X - sum_i X[:, p_i] (L / h_i) B_i, h_i = B_i[p_i] and
    L = lcm h, so max(max|X|, 1) L bounds the coefficients."""
    h = [int(B[i, p]) for i, p in enumerate(pivots)]
    L = math.lcm(1, *h)
    dtype = np.int64 if fits_int64(max(magnitude(X), 1) * L) else object
    coeff = X[:, pivots].astype(dtype) * np.array([L // v for v in h], dtype=dtype)
    X = lincomb([(L, X), (-1, rows_times(coeff, B))])
    g = np.gcd.reduce(X, axis=1)
    return X // np.where(g == 0, 1, g)[:, None]


class Echelon:
    """The integer reduced row echelon form of the rows added so far: each
    row primitive, and every other row zero at its pivot, its first nonzero
    column.  Row i over its pivot entry is row i of the unique Fraction RREF
    of the span, whatever order the rows came in."""

    def __init__(self, width):
        self.rows = np.zeros((0, width), dtype=np.int64)
        self.pivots = []

    def add(self, block):
        """Reduce the integer rows of `block` against the form in one product,
        then admit them in order; True for each row that grew the span.  A zero
        row cannot, nor can one that repeats an earlier reduced (so primitive)
        row up to sign: neither enters the admission loop."""
        X = _clear(np.asarray(block), self.rows, self.pivots)
        grew = np.zeros(len(X), dtype=bool)
        if not X.any():
            return grew
        lead = np.sign(X[np.arange(len(X)), np.argmax(X != 0, axis=1)])    # 0 on a zero row
        signed = (X * lead[:, None]).tolist()
        # the first row on each line, in order: the dict keeps the last k written
        keep = sorted({tuple(signed[k]): k for k in np.flatnonzero(lead)[::-1]}.values())
        X = X[keep]
        for k in range(len(X)):
            nonzero = np.flatnonzero(X[k])    # an admitted row may have cleared it
            if nonzero.size:
                p = int(nonzero[0])
                v = X[k:k + 1]
                # clear p from the form's rows and from the later candidates
                rest = _clear(np.concatenate([self.rows, X[k + 1:]]), v, [p])
                self.rows = np.concatenate([rest[:len(self.rows)], v])
                self.pivots.append(p)
                X = np.concatenate([X[:k + 1], rest[len(self.rows) - 1:]])
                grew[keep[k]] = True
        return grew


def first_failure_chunked(prop, cases, fails, chunk=CHUNK):
    """Walk (witness, *case) in order and fail with the witness of the first
    case that fails, deciding up to `chunk` cases at a time: fails(cases),
    for the chunk's cases, is True where one fails."""
    cases = iter(cases)
    while True:
        block = [(witness, case) for witness, *case in itertools.islice(cases, chunk)]
        if not block:
            return ok(prop)
        bad = np.flatnonzero(fails([case for _, case in block]))
        if bad.size:
            return fail(prop, witness=block[bad[0]][0])
