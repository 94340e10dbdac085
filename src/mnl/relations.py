"""Linear relations among commutators of labelled operators, decided a chunk
of cases at a time as one exact sparse product per site.

The density ETC, locality and charge-algebra checks of `etc`, and the
anticommutation scan of `fock.car_check` and `fock.canonical_etc_check`, each
walk their cases through one `RelationKernel`.  A case is a list of terms:

    ("c", q, a, b)   q [ops[a], ops[b]]
    ("a", q, a, b)   q {ops[a], ops[b]}, on one site only
    ("o", q, a)      q ops[a]
    ("i", q, a)      q i ops[a]

with q an int or Fraction and a, b indices into the kernel's operators.  It
holds when its sum is zero by `SiteOp.is_zero`'s rule: at every site the
residual is c_x I, and the c_x sum to zero.  A plain `GQSparse` counts as the
one factor of a one-site space, so there the residual must be zero.

Per-site operators.  Each site stacks the integer parts of the nonzero
factors its operators have there, at one common denominator D (the lcm of
all the factors' denominators), once: R = [F_0; ..; F_{P-1}; I], re and im
apart, a d x d block per operator and I_d last.  An operator without a
factor at a site adds nothing there.

One product per site.  A chunk's coefficients are taken over the lcm K of
their denominators, and one COO placement (`fock._place`) builds L, with a
row of d x d blocks per case and a column per block of R.  A term q [a, b]
of case k puts K q a at block (k, b) and -K q b at block (k, a), so that it
adds K q (ab - ba) to the case's rows of L R; [a, a] is skipped without
arithmetic.  A term q {a, b} puts +K q b there instead, adding K q (ab + ba),
and is not skipped when a == b.  A term q o puts K q D o at block (k, I),
and q i o puts K q D times i o = -m + i r there, for o = r + i m.  One
product L R (`fock._matmul`) then holds every case's residual at K D^2, re
and im apart.  The blocks stay d x d rather than flattened to rows of d^2
entries: scipy's product keeps an accumulator as wide as its result, which
would be 2^32 entries for the full-space operators at 2^16.
`_scalar_blocks` reads c_x off each block and checks that the block is c_x
I; the c_x of all sites must sum to zero.

Int64 bound.  Before anything is computed, every case is bounded: an entry
of K q [a, b] is at most |K q| (count_a + count_b) mag_a mag_b, with mag the
largest entry at D and count the most entries in a row of re and im
together, and one of K q D o at most |K q| D mag_o.  A case's bound, the sum
of its terms' bounds over the sites, also bounds every partial sum of L's
assembly (an entry of L is a sum of |K q| mag_a and |K q| D mag_o, and count
and mag are at least 1 for a nonzero factor), of the product and of the c_x.
The cases before the first one whose bound reaches 2^62
(`matrices.fits_int64`) are decided; OverflowError is raised when none of
them fails.  There is no slower path (scipy has no object dtype), so no value
can wrap.  A term q {a, b} has the bound of q [a, b].

Chunk size.  `first_failure` takes up to `matrices.CHUNK` cases a chunk, in
walk order, and ends a chunk early once the cases' weights (d per term plus
the entries of the term's operators) reach `BUDGET`, which keeps L and the
product small at every dimension.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .fock import SiteOp, _matmul, _place
from .matrices import first_failure_chunked, fits_int64
from .report import InputError

BUDGET = 1 << 15   # weight of one chunk of cases


def _site_factors(op):
    """(site dimension, sites, {site: factor}) of a SiteOp; a GQSparse is the
    one factor of a one-site space."""
    if isinstance(op, SiteOp):
        return op.site_dim, op.sites, op.factors
    return op.dim, 1, {0: op}


def _scalar_blocks(M, d, n):
    """(c, ok) for the n stacked d x d blocks of M: ok[k] when block k is
    c[k] I exactly.  c[k] is read at the block's (0, 0) entry; every other
    diagonal entry must equal it and every off-diagonal entry be zero."""
    coo = M.tocoo()
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
        (self.site_dim, self.site_count), = layouts
        d = self.site_dim
        factors = [_site_factors(op)[2] for op in ops]
        self.den = math.lcm(1, *(f.den for fs in factors for f in fs.values()))
        self.nnz = [sum(f.nnz for f in fs.values()) for fs in factors]
        parts = {}    # site -> {operator: (block, re, im, mag, count)} at den
        for a, fs in enumerate(factors):
            for x, f in fs.items():
                m = self.den // f.den
                if not fits_int64(f.mag * m):
                    raise OverflowError("exact sparse result could exceed the int64 range")
                if f.nnz:
                    at = parts.setdefault(x, {})
                    count = int((np.diff(f.re.indptr) + np.diff(f.im.indptr)).max())
                    re, im = (f.re, f.im) if m == 1 else (f.re * m, f.im * m)
                    at[a] = (len(at), re, im, f.mag * m, count)
        ident = sp.identity(d, dtype=np.int64, format="csr")
        self.sites = []    # (the site's operators, its R as (re, im))
        for at in parts.values():
            shape = ((len(at) + 1) * d, d)
            self.sites.append((at, (
                _place(shape, d, [(j, 0, 1, re) for j, re, _, _, _ in at.values()]
                       + [(len(at), 0, 1, ident)]),
                _place(shape, d, [(j, 0, 1, im) for j, _, im, _, _ in at.values()]))))

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
        n, d = len(cases), self.site_dim
        terms = [(k, kind, q, ops) for k, case in enumerate(cases) for kind, q, *ops in case
                 if q and not (kind == "c" and ops[0] == ops[1])]
        if self.site_count > 1 and any(kind == "a" for _, kind, _, _ in terms):
            raise InputError("an anticommutator of site sums is not site-local")
        K = math.lcm(1, *(q.denominator for _, _, q, _ in terms))
        bound = [0] * n
        plans = []
        for at, R in self.sites:
            P, re, im = len(at), [], []
            for k, kind, q, ops in terms:
                if not all(a in at for a in ops):
                    continue
                v = q.numerator * (K // q.denominator)
                if kind in ("c", "a"):
                    # K q [a, b]: K q a against b's rows of R, -K q b against
                    # a's; K q {a, b} the same with +K q b
                    (ja, ra, ia, ma, ca), (jb, rb, ib, mb, cb) = at[ops[0]], at[ops[1]]
                    w = -v if kind == "c" else v
                    bound[k] += abs(v) * (ca + cb) * ma * mb
                    re += [(k, jb, v, ra), (k, ja, w, rb)]
                    im += [(k, jb, v, ia), (k, ja, w, ib)]
                    continue
                # K q D o against the identity, so at D^2; i (r + i m) = -m + i r
                _, r, i, m, _ = at[ops[0]]
                v *= self.den
                bound[k] += abs(v) * m
                re.append((k, P, -v, i) if kind == "i" else (k, P, v, r))
                im.append((k, P, v, r) if kind == "i" else (k, P, v, i))
            if re:
                plans.append((R, re, im))
        limit = next((k for k, b in enumerate(bound) if not fits_int64(b)), n)
        if limit < n:
            head = self.fails(cases[:limit]) if limit else np.zeros(0, dtype=bool)
            if not head.any():
                raise OverflowError("exact sparse result could exceed the int64 range")
            return np.concatenate([head, np.zeros(n - limit, dtype=bool)])
        c = np.zeros((2, n), dtype=np.int64)
        ok = np.ones(n, dtype=bool)
        for R, re, im in plans:
            L = [_place((n * d, R[0].shape[0]), d, blocks) for blocks in (re, im)]
            for part, res in enumerate(_matmul(L, R)):
                cx, okx = _scalar_blocks(res, d, n)
                c[part] += cx
                ok &= okx
        return ~ok | (c != 0).any(axis=0)
