"""Linear relations among commutators of labelled operators, decided a chunk
of cases at a time, each distinct one-site residual once per ledger.

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

Ledger.  The kernels over one set of operators share a `Ledger`: the density
ETC, locality and charge-algebra kernels of `etc` read one, held by the
density set and handed on to its charges, and any other kernel makes its own.
It interns the operators' nonzero factors by value up to a unit phase: a
factor is i^k times a canonical factor whose first stored entry (row-major,
re and im together) has re > 0 and im >= 0; the first factor met of each
class stands for it, and every other is i^j times that one.  Factors are
found by a CRC of their canonical parts' column indices and entries and then
compared with the interned arrays, so a class is exact and no copy of a
factor is kept.  A ledger holds no right sides: each check gathers its own.

Sector.  A ledger may hold a sector, the sorted basis states of one site's
n modes that every residual is decided on; `etc.charge_densities` gives its
set the 1 + n + n(n-1)/2 states of at most two particles (`fock._states(n,
2)`), and every other ledger holds the whole space.  That is exact for
densities.  Each one is a fermion bilinear -i a† M^T a, at most times a unit
phase, so it conserves particle number, and so do the sums and products of
them: a residual is block diagonal over the number sectors, and restricted
to a union of them it is the same sum of the restricted factors.  Given the
CAR, a residual of the density ETC, locality and charge-algebra cases is a
number-conserving polynomial of normal-ordered degree <= 4 in the ladder
operators, c + sum x_AB a†_A a_B + sum x_ABCD a†_A a†_B a_C a_D.  Its
vacuum entry is c, its entries between one-particle states give the x_AB
and those between two-particle states then give the x_ABCD, so it is c I
exactly when it is c I on the states of at most two particles; c_x is read
at the vacuum, the first state of the sector.  The ledger slices the re and
im parts of each class to the sector once, when it interns the class, with
one mask over their CSR arrays, and raises InputError when a stored entry
joins two states of different particle counts, for which no sector is
exact; the kernel raises it when its site is not of the sector's 2^n
states.  R, L, the identity block, `_scalar_blocks` and the weights see the
d x d slices (d = 37 at 8 modes, 137 at 16); interning, the digests, keys,
counts, mag and the 2^62 bound read the whole factors, which bound their
slices.

Keys.  At each site a case reaches, its residual has a key: the sorted
tuple of its terms there as (kind, interned factors, |p|, r, phase) for
q = p / r, where phase t means i^t and sums the sign of p, the phases of the
term's factors, one for an "i" term (which becomes an "o" term) and two for a
commutator oriented to u <= v.  The key is then rotated by i^-t so that its
first term has phase 0 (of the first terms that agree but for their phase,
the rotation giving the least key), and the case reads it rotated back by
i^t.  The ledger's `memo` keeps (c_re, c_im, ok) of each key decided, c_x as
an exact Fraction.  A memo hit is exact: the residual is linear in the q and
a function of the key's kinds and factors alone, which the ledger holds.  A
case holds when all its keys are ok and its rotated c_x sum to zero.

One product per chunk.  A kernel stacks R when a chunk first has a key to
compute: the nonempty integer parts of each class of its factors on the
ledger's sector, once for all sites, at one common denominator D (the lcm
of the factors' denominators): R = [P_0; P_1; ..], a d x d block per part;
a factor r + i m gives r with phase 0 and m with phase 1.  Over the lcm K
of the chunk's coefficients, one COO placement (`fock._place`) builds L, a
row of d x d blocks for the re or im residual of each key not yet decided.
A term |p|/r [u, v] at phase t puts K |p|/r u against v's blocks and
-K |p|/r v against u's; |p|/r {u, v} puts +K |p|/r v there instead (not
skipped when a == b); |p|/r o puts K |p|/r D I_d against each of o's
blocks.  A part of phase f against a block of phase g lands in the re row
when f + g + t is even and the im row when it is odd, negated when
(f + g + t) mod 4 is 2 or 3.  One real product L R holds every new
residual at K D^2, and `_scalar_blocks` reads c_x off each block and checks
that it is c_x I.  The blocks stay d x d: scipy's product keeps an
accumulator as wide as its result, 2^32 entries for rows of d^2 at the
full-space dimension 2^16.  `first_failure` takes up to `matrices.CHUNK`
cases a chunk, in walk order, and ends a chunk early once the weights of
the keys its cases newly compute (`RelationKernel.weight`) reach `BUDGET`.

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
value can wrap.  A term q {a, b} has the bound of q [a, b].  Mag, count and
den are the same for every factor of a class.
"""

from __future__ import annotations

import itertools
import math
import zlib
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .fock import SiteOp, _place
from .matrices import first_failure_chunked, fits_int64
from .report import BoundError, InputError

BUDGET = 1 << 15   # weight of one chunk of cases

# the (part, sign) pairs of i^-k f, for the canonical phase k of f
_CANONICAL_PARTS = (((0, 1), (1, 1)), ((1, 1), (0, -1)), ((0, -1), (1, -1)), ((1, -1), (0, 1)))


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


def _phase(f):
    """The k of f = i^k g for which g's first stored entry, in row-major
    order over re and im together, has re > 0 and im >= 0 (f nonzero)."""
    def first(part):
        # (flat position, entry) of the part's first stored entry; past the end if empty
        if not part.nnz:
            return f.dim * f.dim, 0
        row = int(np.searchsorted(part.indptr, 1)) - 1
        return row * f.dim + int(part.indices[0]), int(part.data[0])
    (at_re, re), (at_im, im) = first(f.re), first(f.im)
    a, b = re if at_re <= at_im else 0, im if at_im <= at_re else 0
    return 0 if a > 0 and b >= 0 else 1 if a <= 0 and b > 0 else 2 if a < 0 and b <= 0 else 3


def _rotated(terms, t):
    """The sorted key terms rotated by i^-t."""
    return tuple(sorted([(kind, fs, p, r, (s - t) % 4) for kind, fs, p, r, s in terms])
                 if t else terms)


def _parts(f, k):
    """The (part, sign) pairs of i^-k f."""
    return [((f.re, f.im)[j], s) for j, s in _CANONICAL_PARTS[k]]


class Ledger:
    """What the kernels over one set of operators share (see the module
    docstring): `factors`, the first factor met of each class, with `counts`,
    the most entries in a row of its re and im together, `parts`, its re and
    im on the `sector`, and `entries`, their nnz; and the `memo` of the keys
    decided.  It holds operators and verdicts only; each check gathers its
    own right sides.  `sector`, the sorted basis states of one site's n modes
    that the residuals are decided on, is None for the whole space."""

    def __init__(self, sector=None):
        self.factors, self.counts, self.entries, self.memo = [], [], [], {}
        self.parts, self._phases, self._digests = [], [], {}    # per class; digest -> classes
        self.sector = sector = None if sector is None else np.asarray(sector, dtype=np.int64)
        if sector is not None:
            # per state of the 2^n, its particle count and its position in the sector
            self.site_dim = 1 << int(sector[-1]).bit_length()
            self._count = np.bitwise_count(np.arange(self.site_dim))
            self._at = np.full(self.site_dim, -1)
            self._at[sector] = np.arange(len(sector))

    def _restrict(self, part):
        """part's rows and columns at the sector, with one mask over its CSR
        arrays; InputError when an entry joins states of different particle
        counts, where no sector is exact."""
        rows = np.repeat(np.arange(self.site_dim), np.diff(part.indptr))
        if (self._count[rows] != self._count[part.indices]).any():
            raise InputError("a sector needs operators that conserve particle number")
        rows, cols = self._at[rows], self._at[part.indices]
        keep = (rows >= 0) & (cols >= 0)
        d = len(self.sector)
        indptr = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=d), out=indptr[1:])
        return sp.csr_matrix((part.data[keep], cols[keep], indptr), shape=(d, d))

    def intern(self, f):
        """(class, j) with f = i^j times the class's first factor."""
        k = _phase(f)
        parts, crc = _parts(f, k), 0    # crc of their column indices and entries
        for part, sign in parts:
            crc = zlib.crc32(part.indices.astype(np.int64, copy=False), crc)
            crc = zlib.crc32(part.data if sign > 0 else -part.data, crc)
        classes = self._digests.setdefault((f.den, *(p.nnz for p, _ in parts), crc), [])
        for u in classes:
            F, kF = self.factors[u], self._phases[u]
            if all(np.array_equal(p.indptr, P.indptr) and np.array_equal(p.indices, P.indices)
                   and np.array_equal(p.data, P.data if s == S else -P.data)
                   for (p, s), (P, S) in zip(parts, _parts(F, kF))):
                return u, (k - kF) % 4
        classes.append(len(self.factors))
        self.factors.append(f)
        self.counts.append(int((np.diff(f.re.indptr) + np.diff(f.im.indptr)).max()))
        parts = (f.re, f.im) if self.sector is None else tuple(map(self._restrict, (f.re, f.im)))
        self.parts.append(parts)
        self.entries.append(parts[0].nnz + parts[1].nnz)
        self._phases.append(k)
        return len(self.factors) - 1, 0


class RelationKernel:
    """The kernel over `ops`: SiteOps on one site layout, or GQSparse
    operators of one dimension, with the `ledger` it shares (a new one by
    default); see the module docstring."""

    def __init__(self, ops, ledger=None):
        layouts = {(op.site_dim, op.sites) if isinstance(op, SiteOp) else (op.dim, 1)
                   for op in ops}
        if len(layouts) != 1:
            raise InputError("operator dimension mismatch")
        (self.site_dim, self.site_count), = layouts
        self.ledger = ledger = Ledger() if ledger is None else ledger
        if ledger.sector is not None and self.site_dim != ledger.site_dim:
            raise InputError("the ledger's sector is not of one site's modes")
        # the side of a block of R and L: the sector's size, or the site's dimension
        self.d = self.site_dim if ledger.sector is None else len(ledger.sector)
        factors = [op.factors if isinstance(op, SiteOp) else {0: op} for op in ops]
        interned = {}    # id -> (class, phase), for the factors `factors` holds

        def intern(f):
            if id(f) not in interned:
                interned[id(f)] = ledger.intern(f)
            return interned[id(f)]
        self.at = [{x: intern(f) for x, f in fs.items() if f.nnz} for fs in factors]
        self.classes = list(dict.fromkeys(u for u, _ in interned.values()))
        self.den = math.lcm(1, *(f.den for fs in factors for f in fs.values()))
        reps = ledger.factors
        self.mag = {u: reps[u].mag * (self.den // reps[u].den) for u in self.classes}    # at D
        if not fits_int64(0, *self.mag.values()):
            raise BoundError()
        self.R = self.parts = None    # stacked when a chunk first computes
        self._chunk, self._met = {}, set()    # cases weighed, and keys met, since `fails`

    memo = property(lambda self: self.ledger.memo)

    def _stack(self):
        """R, and per class [(block of R, phase, part)], its parts at D."""
        stack, self.parts = [], {}
        for u in self.classes:
            m = self.den // self.ledger.factors[u].den
            parts = [(phase, p if m == 1 else p * m)
                     for phase, p in enumerate(self.ledger.parts[u]) if p.nnz]
            self.parts[u] = [(len(stack) + j, *part) for j, part in enumerate(parts)]
            stack.extend(p for _, p in parts)
        d = self.d
        self.R = _place((len(stack) * d, d), d, [(j, 0, 1, p) for j, p in enumerate(stack)])
        self.ident = sp.identity(d, dtype=np.int64, format="csr")

    def _plan(self, case):
        """(the lcm of the case's denominators, [(t, key)] over the sites it
        reaches): the residual there is i^t times the key's; a key's terms are
        (kind, classes, |p|, r, phase); terms with q = 0, and [a, a], take no
        arithmetic."""
        den, at = 1, {}
        for kind, q, *ops in case:
            if not q or (kind == "c" and ops[0] == ops[1]):
                continue
            p, r, t = q.numerator, q.denominator, 0
            den = math.lcm(den, r)
            if kind == "a" and self.site_count > 1:
                raise InputError("an anticommutator of site sums is not site-local")
            if p < 0:
                p, t = -p, 2
            if kind == "i":
                kind, t = "o", t + 1
            if len(ops) == 1:
                for x, (u, j) in self.at[ops[0]].items():
                    at.setdefault(x, []).append((kind, (u,), p, r, (t + j) % 4))
                continue
            other, turn = self.at[ops[1]], 2 if kind == "c" else 0
            for x, (u, j) in self.at[ops[0]].items():
                if (w := other.get(x)) is not None:
                    v, k = w
                    at.setdefault(x, []).append((kind, (u, v), p, r, (t + j + k) % 4) if u <= v
                                                else (kind, (v, u), p, r, (t + j + k + turn) % 4))
        keys = []
        for terms in at.values():
            terms.sort()
            head, t = terms[0][:4], terms[0][4]
            if len(terms) == 1 or terms[1][:4] != head:
                keys.append((t, _rotated(terms, t)))
                continue
            # first terms that differ in their phase alone: the least key
            turns = {term[4] for term in terms if term[:4] == head}
            keys.append(min(((t, _rotated(terms, t)) for t in turns), key=lambda tk: tk[1]))
        return den, keys

    def weight(self, case):
        """Per term of each key the case newly computes, d plus its factors'
        entries (a key decided, or met earlier in the chunk, weighs 0)."""
        seen = self._chunk.get(id(case))
        if not seen or seen[0] is not case:
            plan = self._plan(case)
            new = {key for _, key in plan[1] if key not in self.memo and key not in self._met}
            self._met |= new
            entries = self.ledger.entries
            seen = self._chunk[id(case)] = case, plan, sum(
                self.d + sum(entries[u] for u in fs) for key in new for _, fs, *_ in key)
        return seen[2]

    def first_failure(self, prop, cases):
        """`first_failure_chunked` over (witness, *terms) in walk order."""
        self._chunk, self._met = {}, set()
        return first_failure_chunked(prop, cases, self.fails, self.weight, BUDGET)

    def fails(self, cases):
        """True for each case whose residual breaks the c_x I rule.  The cases
        before the first one whose bound reaches 2^62 are decided, and
        BoundError is raised when none of them fails."""
        n, D, memo = len(cases), self.den, self.memo
        chunk, self._chunk, self._met = self._chunk, {}, set()
        plans = [seen[1] if (seen := chunk.get(id(case))) and seen[0] is case
                 else self._plan(case) for case in cases]
        K = math.lcm(1, *(den for den, _ in plans))
        mag, count = self.mag, self.ledger.counts

        def bound(kind, fs, p, r, _):
            a, b = fs[0], fs[-1]
            return p * (K // r) * ((count[a] + count[b]) * mag[a] * mag[b]
                                   if kind in ("c", "a") else D * mag[a])
        limit = next((k for k, (_, keys) in enumerate(plans)
                      if not fits_int64(sum(bound(*term) for _, key in keys for term in key))), n)
        # the keys this chunk decides, in the order the cases meet them
        new = list(dict.fromkeys(key for _, keys in plans[:limit] for _, key in keys
                                 if key not in memo))
        if new:
            self._decide(new, K)
        bad = np.zeros(n, dtype=bool)
        for k, (_, keys) in enumerate(plans[:limit]):
            re = im = 0
            holds = True
            for t, key in keys:
                c_re, c_im, ok = memo[key]
                # plus i^t (c_re + i c_im)
                if t & 1:
                    c_re, c_im = -c_im, c_re
                if t & 2:
                    c_re, c_im = -c_re, -c_im
                re, im, holds = re + c_re, im + c_im, holds and ok
            bad[k] = not holds or re != 0 or im != 0
        if limit < n and not bad.any():
            raise BoundError()
        return bad

    def _decide(self, keys, K):
        """Each key's (c_re, c_im, ok) into the memo, from one product L R over
        the lcm K of the chunk's coefficients."""
        if self.R is None:
            self._stack()
        d, D = self.d, self.den
        blocks = []    # (key, phase, block of R, coefficient, part)
        for i, key in enumerate(keys):
            for kind, fs, p, r, t in key:
                v = p * (K // r)
                if kind == "o":
                    # K q D I against each of o's blocks, so at D^2
                    blocks += [(i, f + t, j, v * D, self.ident) for j, f, _ in self.parts[fs[0]]]
                    continue
                # K q [u, v]: K q u against v's blocks of R, -K q v against
                # u's, each pair of parts at the sum of their phases and the
                # term's; K q {u, v} the same with +K q v
                w = -v if kind == "c" else v
                for (ja, fa, ra), (jb, fb, rb) in itertools.product(self.parts[fs[0]],
                                                                    self.parts[fs[1]]):
                    blocks += [(i, fa + fb + t, jb, v, ra), (i, fa + fb + t, ja, w, rb)]
        c, ok = np.zeros(2 * len(keys), dtype=np.int64), np.ones(2 * len(keys), dtype=bool)
        # L's rows of blocks: the re (2i) and im (2i + 1) residuals some block reaches
        used, row = np.unique([2 * i + f % 2 for i, f, *_ in blocks], return_inverse=True)
        L = [(r, j, -v if f & 2 else v, p) for r, (_, f, j, v, p) in zip(row, blocks)]
        c[used], ok[used] = _scalar_blocks(_place((len(used) * d, self.R.shape[0]), d, L)
                                           @ self.R, d, len(used))
        for i, key in enumerate(keys):
            re, im = (Fraction(int(v), K * D * D) if v else 0 for v in c[2 * i:2 * i + 2])
            self.memo[key] = re, im, bool(ok[2 * i] and ok[2 * i + 1])
