"""Linear relations among commutators of labelled operators, decided a chunk
of cases at a time as one exact sparse contraction per site.

The density ETC, locality and charge-algebra checks of `etc` each walk their
cases through one `RelationKernel`.  A case is a list of terms:

    ("c", q, a, b)   q [ops[a], ops[b]]
    ("o", q, a)      q ops[a]
    ("i", q, a)      q i ops[a]

with q an int or Fraction and a, b indices into the kernel's operators.  It
holds when its sum is zero by `SiteOp.is_zero`'s rule: at every site the
residual is c_x I, and the c_x sum to zero.  A plain `GQSparse` counts as the
one factor of a one-site space, so there the residual must be zero.

Per-site operators.  Each site holds the integer parts of the factors its
operators have there at one common denominator D (the lcm of all the
factors' denominators).  An operator without a factor at a site adds
nothing there.

Per-site commutator rows.  A chunk's distinct commutators, [b, a] read as
-[a, b] and [a, a] as zero, are computed at each site as stacked products:
one block-diagonal stack of the left factors against one vertical stack of
the right factors, and the reverse, with the products of empty re or im
parts skipped.  The result is one vertical stack of d x d blocks at D^2.

Coefficient contraction.  The chunk's coefficients over the lcm K of their
denominators form one integer matrix C with a row per case and a column per
commutator block or operator.  An operator enters as its own block, its
coefficient times D (so at D^2); i times it takes its im part into the real
residual with the sign flipped and its re part into the imaginary one.  Then
(C x I_d) V, with V the vertical stack, holds every case's residual at
K D^2, re and im apart.  The blocks stay d x d rather than flattened to
rows of d^2 entries: scipy's product keeps an accumulator as wide as its
result, which would be 2^32 entries for the full-space operators at 2^16.
`_scalar_blocks` reads c_x off each block and checks that the block is
c_x I; the c_x of all sites must sum to zero.

Int64 bound.  Before anything is computed, every case is bounded: an entry
of [A, B] is at most (count_A + count_B) mag_A mag_B, with mag the largest
entry at D and count the most entries in a row of re and im together, and
a case's residual, summed over the sites, is at most the sum of |coefficient|
times its blocks' bounds, which also bounds every partial sum of the
products.  The cases before the first one whose bound reaches 2^62
(`matrices.fits_int64`) are decided; OverflowError is raised when none of
them fails.  There is no slower path (scipy has no object dtype), so no
value can wrap.

Chunk size.  `first_failure` takes up to `matrices.CHUNK` cases a chunk, in
walk order, and ends a chunk early once the cases' weights (d per term plus
the entries of the term's operators) reach `BUDGET`, which keeps the stacked
products and the contraction small at every dimension.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .fock import SiteOp, _matmul
from .matrices import first_failure_chunked, fits_int64
from .report import InputError

BUDGET = 1 << 15   # weight of one chunk of cases


def _site_factors(op):
    """(site dimension, sites, {site: factor}) of a SiteOp; a GQSparse is the
    one factor of a one-site space."""
    if isinstance(op, SiteOp):
        return op.site_dim, op.sites, op.factors
    return op.dim, 1, {0: op}


def _vstack(mats):
    """CSR matrices with equal column counts, stacked vertically."""
    shape = (sum(m.shape[0] for m in mats), mats[0].shape[1])
    if not any(m.nnz for m in mats):
        return sp.csr_matrix(shape, dtype=np.int64)
    offsets = np.cumsum([0] + [m.nnz for m in mats[:-1]])
    return sp.csr_matrix((np.concatenate([m.data for m in mats]),
                          np.concatenate([m.indices for m in mats]),
                          np.concatenate([[0]] + [m.indptr[1:] + off
                                                  for m, off in zip(mats, offsets)])),
                         shape=shape)


def _stacks(mats):
    """(block-diagonal, vertical) stacks of d x d CSR matrices; the two share
    their data and row pointers."""
    col = _vstack(mats)
    d = col.shape[1]
    shift = np.repeat(np.arange(len(mats)) * d, [m.nnz for m in mats])
    diag = sp.csr_matrix((col.data, col.indices + shift.astype(col.indices.dtype), col.indptr),
                         shape=(col.shape[0], col.shape[0]))
    return diag, col


def _scalar_blocks(R, d, n):
    """(c, ok) for the n stacked d x d blocks of R: ok[k] when block k is
    c[k] I exactly.  c[k] is read at the block's (0, 0) entry; every other
    diagonal entry must equal it and every off-diagonal entry be zero."""
    coo = R.tocoo()
    keep = coo.data != 0
    rows, cols, data = coo.row[keep], coo.col[keep], coo.data[keep]
    block, i = np.divmod(rows, d)
    diag = i == cols
    c = np.zeros(n, dtype=np.int64)
    corner = diag & (i == 0)
    c[block[corner]] = data[corner]
    ok = np.ones(n, dtype=bool)
    ok[block[~diag | (data != c[block])]] = False
    return c, ok & ((c == 0) | (np.bincount(block[diag], minlength=n) == d))


class RelationKernel:
    """The kernel over `ops`: SiteOps on one site layout, or GQSparse
    operators of one dimension; see the module docstring."""

    def __init__(self, ops):
        layouts = {_site_factors(op)[:2] for op in ops}
        if len(layouts) != 1:
            raise InputError("operator dimension mismatch")
        (self.site_dim, _), = layouts
        factors = [_site_factors(op)[2] for op in ops]
        self.den = math.lcm(1, *(f.den for fs in factors for f in fs.values()))
        self.nnz = [sum(f.nnz for f in fs.values()) for fs in factors]
        self.parts = {}    # site -> {operator: (re, im, mag, count)} at den
        for a, fs in enumerate(factors):
            for x, f in fs.items():
                m = self.den // f.den
                if not fits_int64(f.mag * m):
                    raise OverflowError("exact sparse result could exceed the int64 range")
                count = int((np.diff(f.re.indptr) + np.diff(f.im.indptr)).max())
                re, im = (f.re, f.im) if m == 1 else (f.re * m, f.im * m)
                self.parts.setdefault(x, {})[a] = (re, im, f.mag * m, count)

    def weight(self, case):
        """A case's share of a chunk: d per term plus its operators' entries."""
        return sum(self.site_dim + sum(self.nnz[a] for a in term[2:]) for term in case)

    def first_failure(self, prop, cases):
        """`first_failure_chunked` over (witness, *terms) in walk order."""
        return first_failure_chunked(prop, cases, self.fails, self.weight, BUDGET)

    def fails(self, cases):
        """True for each case whose sum is not zero.  A case whose bound
        reaches 2^62 ends the chunk: the cases before it are decided, and
        OverflowError is raised when none of them fails."""
        n = len(cases)
        terms = []
        for k, case in enumerate(cases):
            for kind, q, *ops in case:
                if kind == "c" and ops[0] > ops[1]:
                    ops, q = ops[::-1], -q
                if q and not (kind == "c" and ops[0] == ops[1]):
                    terms.append((k, kind, q, tuple(ops)))
        K = math.lcm(1, *(q.denominator for _, _, q, _ in terms))
        bound = [0] * n
        plans = []
        for x, at in self.parts.items():
            live = [term for term in terms if all(a in at for a in term[3])]
            if not live:
                continue
            # commutator columns first, in the order of their blocks in V
            order = sorted({(kind, ops) for _, kind, _, ops in live},
                           key=lambda col: (col[0] != "c", col))
            column = {col: i for i, col in enumerate(order)}
            row_bound = [self._bound(at, *col) for col in order]
            # an operator's coefficient carries D, which brings it to D^2
            entries = [(k, column[kind, ops],
                        q.numerator * (K // q.denominator) * (1 if kind == "c" else self.den))
                       for k, kind, q, ops in live]
            for k, col, v in entries:
                bound[k] += abs(v) * row_bound[col]
            plans.append((x, order, entries))
        limit = next((k for k, b in enumerate(bound) if not fits_int64(b)), n)
        if limit < n:
            head = self.fails(cases[:limit]) if limit else np.zeros(0, dtype=bool)
            if not head.any():
                raise OverflowError("exact sparse result could exceed the int64 range")
            return np.concatenate([head, np.zeros(n - limit, dtype=bool)])
        c = np.zeros((2, n), dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        for x, order, entries in plans:
            for part, (cx, okx) in enumerate(self._contract(x, order, entries, n)):
                c[part] += cx
                ok &= okx
        return ~ok | (c != 0).any(axis=0)

    def _bound(self, at, kind, ops):
        """The largest entry of a column's block: an operator at D, or a
        commutator at D^2."""
        if kind != "c":
            return at[ops[0]][2]
        (_, _, ma, ca), (_, _, mb, cb) = at[ops[0]], at[ops[1]]
        return (ca + cb) * ma * mb

    def _contract(self, x, order, entries, n):
        """(c, ok) of the re and the im residuals at site x (`_scalar_blocks`)."""
        at, d = self.parts[x], self.site_dim
        pairs = [ops for kind, ops in order if kind == "c"]
        re, im = [], []
        if pairs:
            A, B = ([_stacks([at[pair[side]][p] for pair in pairs]) for p in (0, 1)]
                    for side in (0, 1))
            ab = _matmul([s[0] for s in A], [s[1] for s in B])
            ba = _matmul([s[0] for s in B], [s[1] for s in A])
            del A, B
            re.append(ab[0] - ba[0])
            im.append(ab[1] - ba[1])
            del ab, ba
        # i (r + i m) = -m + i r: the im part of an "i" operator enters the
        # real residual, with its sign flipped by the coefficient
        times_i = np.array([kind == "i" for kind, _ in order])
        for kind, (a,) in order[len(pairs):]:
            r, i = at[a][:2]
            re.append(i if kind == "i" else r)
            im.append(r if kind == "i" else i)
        k, col, v = (np.array(e, dtype=np.int64) for e in zip(*entries))
        out = []
        for V, w in ((_vstack(re), np.where(times_i[col], -v, v)), (_vstack(im), v)):
            if not V.nnz:
                out.append((np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)))
                continue
            coeffs = sp.csr_matrix((w, (k, col)), shape=(n, len(order)))
            spread = sp.kron(coeffs, sp.identity(d, dtype=np.int64), format="csr")
            out.append(_scalar_blocks(spread @ V, d, n))
        return out
