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

Per-site operators.  Each site stacks, once, the nonempty integer parts of
the nonzero factors its operators have there, at one common denominator D
(the lcm of all the factors' denominators): R = [P_0; P_1; ..], a d x d
block per part.  A factor r + i m gives r with phase 0 and m with
phase 1, so that it is the sum of i^phase times its parts.

One product per site.  A chunk's coefficients are taken over the lcm K of
their denominators, and one COO placement (`fock._place`) builds L: a row of
d x d blocks for each case's re or im residual that some block reaches, and
a column per block of R.  A term q [a, b] puts K q a against b's blocks and
-K q b against a's, adding K q (ab - ba); [a, a] is skipped without
arithmetic.  A term q {a, b} puts +K q b there instead, adding K q (ab + ba),
and is not skipped when a == b.  A term q o puts K q D I_d against each of
o's own blocks (d entries of L each, not o's nonzeros), and q i o the same
with one more phase.  Phase rule: a part of phase f against a block of
phase g lands in the re row when f + g is even and the im row when it is
odd, negated when f + g is 2 or 3 (i^2 = -1).  One real product L R then
holds every case's residual at K D^2, re and im apart.  The blocks stay
d x d rather than flattened to rows of d^2 entries: scipy's product keeps an
accumulator as wide as its result, which would be 2^32 entries for the
full-space operators at 2^16.  `fails` reads each site's residuals as soon
as their product is formed: `_scalar_blocks` reads c_x off each block and
checks that the block is c_x I; the c_x of all sites must sum to zero.

Int64 bound.  Before anything is computed, every case is bounded: an entry
of K q [a, b] is at most |K q| (count_a + count_b) mag_a mag_b, with mag the
largest entry at D and count the most entries in a row of re and im
together, and one of K q D o at most |K q| D mag_o.  A case's bound, the sum
of its terms' bounds over the sites, also bounds every partial sum of L's
assembly (an entry of L is a sum of |K q| mag_a and |K q| D, and count and mag
are at least 1 for a nonzero factor), of the product and of the c_x.
The cases before the first one whose bound reaches 2^62
(`matrices.fits_int64`) are decided; BoundError is raised when none of
them fails.  There is no slower path (scipy has no object dtype), so no value
can wrap.  A term q {a, b} has the bound of q [a, b].

Chunk size.  `first_failure` takes up to `matrices.CHUNK` cases a chunk, in
walk order, and ends a chunk early once the weights of what the cases
compute (`RelationKernel.weight`) reach `BUDGET`, which keeps L and the
product small at every dimension.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

from .fock import SiteOp, _place
from .matrices import first_failure_chunked, fits_int64
from .report import BoundError, InputError

BUDGET = 1 << 15   # weight of one chunk of cases


def _site_factors(op):
    """(site dimension, sites, {site: factor}) of a SiteOp; a GQSparse is the
    one factor of a one-site space."""
    if isinstance(op, SiteOp):
        return op.site_dim, op.sites, op.factors
    return op.dim, 1, {0: op}


def _computed(case):
    """A case's terms that take arithmetic: q != 0, and [a, a] = 0 skipped."""
    return [(kind, q, ops) for kind, q, *ops in case
            if q and not (kind == "c" and ops[0] == ops[1])]


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
        factors = [_site_factors(op)[2] for op in ops]
        self.den = math.lcm(1, *(f.den for fs in factors for f in fs.values()))
        self.nnz = [{x: f.nnz for x, f in fs.items() if f.nnz} for fs in factors]
        d, self.ident = self.site_dim, sp.identity(self.site_dim, dtype=np.int64, format="csr")
        sites = {}    # site -> ({operator: ([(block, phase, part)], mag, count)}, [parts])
        for a, fs in enumerate(factors):
            for x, f in fs.items():
                m = self.den // f.den
                if not fits_int64(f.mag * m):
                    raise BoundError()
                if f.nnz:
                    at, stack = sites.setdefault(x, ({}, []))
                    parts = [(phase, p if m == 1 else p * m)
                             for phase, p in enumerate((f.re, f.im)) if p.nnz]
                    at[a] = ([(len(stack) + j, phase, p) for j, (phase, p) in enumerate(parts)],
                             f.mag * m, int((np.diff(f.re.indptr) + np.diff(f.im.indptr)).max()))
                    stack += [p for _, p in parts]
        self.sites = [(at, _place((len(stack) * d, d), d,
                                  [(j, 0, 1, p) for j, p in enumerate(stack)]))
                      for at, stack in sites.values()]    # (the site's operators, its R)

    def weight(self, case):
        """Per computed term, d plus its operators' entries at each site they all share."""
        return sum(self.site_dim + sum(self.nnz[a][x] for a in ops)
                   for _, _, ops in _computed(case)
                   for x in self.nnz[ops[0]] if all(x in self.nnz[a] for a in ops))

    def first_failure(self, prop, cases):
        """`first_failure_chunked` over (witness, *terms) in walk order."""
        return first_failure_chunked(prop, cases, self.fails, self.weight, BUDGET)

    def fails(self, cases):
        """True for each case whose residual breaks the c_x I rule.  The cases
        before the first one whose bound reaches 2^62 are decided, and
        BoundError is raised when none of them fails."""
        n, d = len(cases), self.site_dim
        terms = [(k, *term) for k, case in enumerate(cases) for term in _computed(case)]
        if self.site_count > 1 and any(kind == "a" for _, kind, _, _ in terms):
            raise InputError("an anticommutator of site sums is not site-local")
        K = math.lcm(1, *(q.denominator for _, _, q, _ in terms))
        bound, plans = [0] * n, []
        for at, R in self.sites:
            blocks = []    # (case, phase, block of R, coefficient, part)
            for k, kind, q, ops in terms:
                if not all(a in at for a in ops):
                    continue
                v = q.numerator * (K // q.denominator)
                if kind in ("c", "a"):
                    # K q [a, b]: K q a against b's blocks of R, -K q b against
                    # a's, each pair of parts at the sum of their phases;
                    # K q {a, b} the same with +K q b
                    (pa, ma, ca), (pb, mb, cb) = at[ops[0]], at[ops[1]]
                    w = -v if kind == "c" else v
                    bound[k] += abs(v) * (ca + cb) * ma * mb
                    for (ja, fa, ra), (jb, fb, rb) in itertools.product(pa, pb):
                        blocks += [(k, fa + fb, jb, v, ra), (k, fa + fb, ja, w, rb)]
                else:
                    # K q D I against each of o's blocks, so at D^2
                    parts, m, _ = at[ops[0]]
                    bound[k] += abs(v) * self.den * m
                    blocks += [(k, f + (kind == "i"), j, v * self.den, self.ident)
                               for j, f, _ in parts]
            plans.append((R, blocks))
        limit = next((k for k, b in enumerate(bound) if not fits_int64(b)), n)
        c, ok = np.zeros(2 * limit, dtype=np.int64), np.ones(2 * limit, dtype=bool)
        for R, blocks in plans:
            blocks = [block for block in blocks if block[0] < limit]
            if blocks:
                # L's rows of blocks: the re (2k) and im (2k + 1) residuals some block reaches
                used, row = np.unique([2 * k + f % 2 for k, f, *_ in blocks], return_inverse=True)
                L = [(i, j, -v if f & 2 else v, p) for i, (_, f, j, v, p) in zip(row, blocks)]
                P = _place((len(used) * d, R.shape[0]), d, L) @ R
                cx, okx = _scalar_blocks(P, d, len(used))
                c[used] += cx
                ok[used] &= okx
        bad = ~ok.reshape(limit, 2).all(axis=1) | c.reshape(limit, 2).any(axis=1)
        if limit < n and not bad.any():
            raise BoundError()
        return np.concatenate([bad, np.zeros(n - limit, dtype=bool)])
