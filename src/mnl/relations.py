"""Linear relations among commutators of labelled operators, decided a chunk
of cases at a time, each distinct one-site residual once per kernel.

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

Keys.  The operators' nonzero factors are interned by identity.  At each
site a case reaches, its residual has a key: the sorted tuple of its terms
there as (kind, interned factors, q), a commutator oriented to u <= v with q
negated, and the whole key negated, with sign -1 beside it, when its first q
is negative.  `memo` keeps (c_re, c_im, ok) of each key decided, c_x as an
exact Fraction.  A memo hit is exact: the residual is linear in the q and a
function of the key's kinds and factors alone, objects the kernel holds.  A
case holds when all its keys are ok and its signed c_x sum to zero.

One product per chunk.  R stacks the nonempty integer parts of each distinct
factor once, for all sites, at one common denominator D (the lcm of the
factors' denominators): R = [P_0; P_1; ..], a d x d block per part; a factor
r + i m gives r with phase 0 and m with phase 1.  Over the lcm K of the
chunk's coefficients, one COO placement (`fock._place`) builds L, a row of
d x d blocks for the re or im residual of each key not yet decided.  A term
q [u, v] puts K q u against v's blocks and -K q v against u's ([a, a] is
skipped); q {u, v} puts +K q v there instead (not skipped when a == b); q o
puts K q D I_d against each of o's blocks, and q i o the same with one more
phase.  A part of phase f against a block of phase g lands in the re row
when f + g is even and the im row when it is odd, negated when f + g is 2 or
3.  One real product L R holds every new residual at K D^2, and
`_scalar_blocks` reads c_x off each block and checks that it is c_x I.  The
blocks stay d x d: scipy's product keeps an accumulator as wide as its
result, 2^32 entries for rows of d^2 at the full-space dimension 2^16.
`first_failure` takes up to `matrices.CHUNK` cases a chunk, in walk order,
and ends a chunk early once the weights of the keys its cases newly compute
(`RelationKernel.weight`) reach `BUDGET`.

Int64 bound.  Before anything is computed, every case is bounded, memo hits
included: an entry of K q [a, b] is at most |K q| (count_a + count_b) mag_a
mag_b, with mag the largest entry at D and count the most entries in a row
of re and im together, and one of K q D o at most |K q| D mag_o.  A case's
bound, the sum of its terms' bounds over the sites, also bounds every
partial sum of L's assembly (an entry of L is a sum of |K q| mag_a and
|K q| D, and count and mag are at least 1 for a nonzero factor), of the
product and of the c_x.  The cases before the first one whose bound reaches
2^62 (`matrices.fits_int64`) are decided; BoundError is raised when none of
them fails.  There is no slower path (scipy has no object dtype), so no
value can wrap.  A term q {a, b} has the bound of q [a, b].
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .fock import SiteOp, _place
from .matrices import first_failure_chunked, fits_int64
from .report import BoundError, InputError

BUDGET = 1 << 15   # weight of one chunk of cases


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
        layouts = {(op.site_dim, op.sites) if isinstance(op, SiteOp) else (op.dim, 1)
                   for op in ops}
        if len(layouts) != 1:
            raise InputError("operator dimension mismatch")
        (self.site_dim, self.site_count), = layouts
        factors = [op.factors if isinstance(op, SiteOp) else {0: op} for op in ops]
        self.den = math.lcm(1, *(f.den for fs in factors for f in fs.values()))
        d, self.ident = self.site_dim, sp.identity(self.site_dim, dtype=np.int64, format="csr")
        interned, stack, self.factors = {}, [], []    # id -> number; R's parts; per number

        def intern(f):
            # ([(block of R, phase, part)], mag at D, count, nnz)
            if id(f) not in interned:
                m = self.den // f.den
                if not fits_int64(f.mag * m):
                    raise BoundError()
                parts = [(phase, p if m == 1 else p * m)
                         for phase, p in enumerate((f.re, f.im)) if p.nnz]
                interned[id(f)] = len(self.factors)
                self.factors.append(([(len(stack) + j, *part) for j, part in enumerate(parts)],
                                     f.mag * m, int((np.diff(f.re.indptr)
                                                     + np.diff(f.im.indptr)).max()), f.nnz))
                stack.extend(p for _, p in parts)
            return interned[id(f)]
        self.at = [{x: intern(f) for x, f in fs.items() if f.nnz} for fs in factors]
        self.R = _place((len(stack) * d, d), d, [(j, 0, 1, p) for j, p in enumerate(stack)])
        self.memo = {}    # key -> (c_re, c_im, ok)
        self._chunk, self._met = {}, set()    # cases weighed, and keys met, since `fails`

    def _plan(self, case):
        """(the lcm of the case's denominators, [(sign, key)] over the sites
        it reaches), a key's terms as (kind, factors, numerator, denominator);
        terms with q = 0, and [a, a], take no arithmetic."""
        den, at = 1, {}
        for kind, q, *ops in case:
            if not q or (kind == "c" and ops[0] == ops[1]):
                continue
            p, r = q.numerator, q.denominator
            den = math.lcm(den, r)
            if kind == "a" and self.site_count > 1:
                raise InputError("an anticommutator of site sums is not site-local")
            other = self.at[ops[-1]]    # the operator itself for "o" and "i"
            for x, u in self.at[ops[0]].items():
                if (v := other.get(x)) is not None:
                    fs = (u,) if len(ops) == 1 else (u, v) if u <= v else (v, u)
                    at.setdefault(x, []).append((kind, fs, -p if kind == "c" and u > v else p, r))
        keys = [sorted(terms) for terms in at.values()]
        return den, [(-1, tuple((kind, fs, -p, r) for kind, fs, p, r in key)) if key[0][2] < 0
                     else (1, tuple(key)) for key in keys]

    def weight(self, case):
        """Per term of each key the case newly computes, d plus its factors'
        entries (a key decided, or met earlier in the chunk, weighs 0)."""
        seen = self._chunk.get(id(case))
        if not seen or seen[0] is not case:
            plan = self._plan(case)
            new = {key for _, key in plan[1] if key not in self.memo and key not in self._met}
            self._met |= new
            seen = self._chunk[id(case)] = case, plan, sum(
                self.site_dim + sum(self.factors[u][3] for u in fs)
                for key in new for _, fs, *_ in key)
        return seen[2]

    def first_failure(self, prop, cases):
        """`first_failure_chunked` over (witness, *terms) in walk order."""
        self._chunk, self._met = {}, set()
        return first_failure_chunked(prop, cases, self.fails, self.weight, BUDGET)

    def fails(self, cases):
        """True for each case whose residual breaks the c_x I rule.  The cases
        before the first one whose bound reaches 2^62 are decided, and
        BoundError is raised when none of them fails."""
        n, d, D = len(cases), self.site_dim, self.den
        chunk, self._chunk, self._met = self._chunk, {}, set()
        plans = [seen[1] if (seen := chunk.get(id(case))) and seen[0] is case
                 else self._plan(case) for case in cases]
        K = math.lcm(1, *(den for den, _ in plans))

        def bound(kind, fs, p, r):
            (_, ma, ca, _), (_, mb, cb, _) = self.factors[fs[0]], self.factors[fs[-1]]
            return abs(p) * (K // r) * ((ca + cb) * ma * mb if kind in ("c", "a") else D * ma)
        limit = next((k for k, (_, keys) in enumerate(plans)
                      if not fits_int64(sum(bound(*term) for _, key in keys for term in key))), n)
        # the keys this chunk decides, in the order the cases meet them
        new = list(dict.fromkeys(key for _, keys in plans[:limit] for _, key in keys
                                 if key not in self.memo))
        blocks = []    # (key, phase, block of R, coefficient, part)
        for i, key in enumerate(new):
            for kind, fs, p, r in key:
                v = p * (K // r)
                if kind in ("c", "a"):
                    # K q [u, v]: K q u against v's blocks of R, -K q v against
                    # u's, each pair of parts at the sum of their phases;
                    # K q {u, v} the same with +K q v
                    w = -v if kind == "c" else v
                    for (ja, fa, ra), (jb, fb, rb) in itertools.product(
                            self.factors[fs[0]][0], self.factors[fs[1]][0]):
                        blocks += [(i, fa + fb, jb, v, ra), (i, fa + fb, ja, w, rb)]
                else:
                    # K q D I against each of o's blocks, so at D^2
                    blocks += [(i, f + (kind == "i"), j, v * D, self.ident)
                               for j, f, _ in self.factors[fs[0]][0]]
        if new:
            c, ok = np.zeros(2 * len(new), dtype=np.int64), np.ones(2 * len(new), dtype=bool)
            # L's rows of blocks: the re (2i) and im (2i + 1) residuals some block reaches
            used, row = np.unique([2 * i + f % 2 for i, f, *_ in blocks], return_inverse=True)
            L = [(r, j, -v if f & 2 else v, p) for r, (_, f, j, v, p) in zip(row, blocks)]
            c[used], ok[used] = _scalar_blocks(_place((len(used) * d, self.R.shape[0]), d, L)
                                               @ self.R, d, len(used))
            for i, key in enumerate(new):
                re, im = (Fraction(int(v), K * D * D) if v else 0 for v in c[2 * i:2 * i + 2])
                self.memo[key] = re, im, bool(ok[2 * i] and ok[2 * i + 1])
        bad = np.zeros(n, dtype=bool)
        for k, (_, keys) in enumerate(plans[:limit]):
            re = im = 0
            holds = True
            for sign, key in keys:
                c_re, c_im, ok = self.memo[key]
                re, im, holds = re + sign * c_re, im + sign * c_im, holds and ok
            bad[k] = not holds or re != 0 or im != 0
        if limit < n and not bad.any():
            raise BoundError()
        return bad
