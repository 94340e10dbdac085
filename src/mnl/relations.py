"""Linear relations among commutators of labelled operators, decided a chunk
of cases at a time, each distinct one-site residual once per ledger.

The density ETC, locality and charge-algebra checks of `etc`, and the
anticommutation scan of `fock.car_check` and `fock.canonical_etc_check`, each
walk their cases through one `RelationKernel`.  A case is a list of terms:

    ("c", q, a, b)   q [ops[a], ops[b]]
    ("a", q, a, b)   q {ops[a], ops[b]}, on one site only
    ("o", q, a)      q ops[a]
    ("i", q, a)      q i ops[a]

with q an int, a Fraction or a pair (p, r) of ints for p / r (r > 0), and
a, b indices into the kernel's operators.  It holds when its sum is zero by
`SiteOp.is_zero`'s rule: at every site the residual is c_x I, and the c_x
sum to zero.  A plain `GQSparse` counts as the one factor of a one-site
space, so there the residual must be zero.

Ledger.  The kernels over one set of operators share a `Ledger`: the density
ETC, locality and charge-algebra kernels of `etc` read one, held by the
density set and handed on to its charges, and any other kernel makes its own.
It interns the operators' nonzero factors by identity: a factor object not
met before is a class of its own and stands for it, but for the -i F that
`Ledger.minus_i` makes of a factor F, once per F, and enters in F's class at
F's phase plus 3.  So every member of a class is i^j times its first factor
by construction, and an operator equal to another but built apart is a
class of its own, which costs keys but changes no verdict.  The ledger
holds each factor it met, so no id is reused, and copies none.  It holds
no right sides: each check gathers its own.

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
d x d slices (d = 37 at 8 modes, 137 at 16); keys, counts, mag and the 2^62
bound read the whole factors, which bound their slices.

Keys.  `first_failures` reads the rows of its walks lazily, in walk order,
into windows of about `matrices._BLOCK // CHUNK` (256) terms that may span
walks, and plans each window at once, as integer arrays.  (Larger windows
plan faster but raised the tracemalloc peaks of `mnl etc`'s checks past
those of CHUNK-row windows per walk.)  The terms are flattened once, each
operator's (class, phase) at each site is read off dense [op, site] tables,
and a live term gives a row at each site both its operands reach:
(kind, u, v, n), v = -1 for an "o" term, n the ledger's number of (|p|, r)
for q = p / r, at a phase t (i^t) that sums the sign of p, the factors'
phases, one for an "i" term (then an "o" term) and two for a commutator
turned to u <= v.  One lexsort orders each (case, site) group, whose rows
alike but for their phase form a run with a count per phase.  The group is
rotated by i^-t so that its first run has phase 0 (of the phases there, the
one giving the least key); the bytes of its runs are its key, which the
case reads rotated back by i^t.  The ledger's `memo` keeps (c_re, c_im, ok)
of each key decided, c_x an exact Fraction.  A memo hit is exact: the
residual is linear in the q and a function of the key's kinds and factors
alone, which the ledger holds.  A case holds when all its keys are ok and
its rotated c_x sum to zero.

One product per chunk.  A kernel stacks R when a chunk first has a key to
compute: the nonempty integer parts of each class of its factors on the
ledger's sector, once for all sites, at one common denominator D (the lcm
of the factors' denominators): R = [P_0; P_1; ..; I_d], a d x d block each;
a factor r + i m gives r with phase 0 and m with phase 1.  Over the lcm K
of the chunk's coefficients, L has a row of d x d blocks for the re or im
residual of each key not yet decided, gathered at once from R's arrays.  A
term |p|/r [u, v] at phase t puts K |p|/r u against v's blocks and
-K |p|/r v against u's; |p|/r {u, v} puts +K |p|/r v there instead (not
skipped when a == b); |p|/r o puts K |p|/r D I_d against each of o's
blocks.  A part of phase f against a block of phase g lands in the re row
when f + g + t is even and the im row when it is odd, negated when
(f + g + t) mod 4 is 2 or 3.  One real product L R holds every new
residual at K D^2, and `_scalar_blocks` reads c_x off each block and checks
that it is c_x I.  The blocks stay d x d: scipy's product keeps an
accumulator as wide as its result, 2^32 entries for rows of d^2 at the
full-space dimension 2^16.  A walk's chunks end at CHUNK cases, at the
walk's end or once their cases' weights reach `BUDGET`, a case weighing the
keys it first meets in the window that the memo lacks (`weight`).  A chunk
the window's end cuts short is planned again with the next, as are the rows
past a failing case's walk, whose rest is not read: each walk's chunks, K,
bounds and witness, and the memo, are those of the walks made one by one.

Int64 bound.  Before anything is computed, every case is bounded, memo hits
included: an entry of K q [a, b] is at most |K q| (count_a + count_b) mag_a
mag_b, with mag the largest entry at D and count the most entries in a row
of re and im together, and one of K q D o at most |K q| D mag_o.  A case's
bound, the sum of its terms' bounds over the sites, also bounds every
partial sum of L's assembly (an entry of L is a sum of |K q| mag_a and
|K q| D, and count and mag are at least 1 for a nonzero factor), of the
product and of the c_x.  The cases before the first one whose bound reaches
2^62 (`matrices.fits_int64`) are decided; BoundError is raised when none of
them fails.  A chunk's bounds are summed in float64, whose rounding is far
below a factor of 2, and a case whose float bound lies between 2^61 and
2^63 is bounded again over Python ints, so the rule is exact.  There is no
slower path (scipy has no object dtype), so no value can wrap.  A term
q {a, b} has the bound of q [a, b].  Mag, count and den are the same for
every factor of a class.
"""

from __future__ import annotations

import itertools
import math
import types
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .fock import SiteOp, _minus_i
from .matrices import _BLOCK, BOUND, CHUNK, fits_int64, ragged
from .report import BoundError, InputError, fail, ok

BUDGET = 1 << 15   # weight of one chunk of cases

_KIND = np.full(256, 3, dtype=np.int8)    # a term's kind letter -> c 0, a 1, o and i 2, else 3
_KIND[[ord("c"), ord("a"), ord("o"), ord("i")]] = 0, 1, 2, 2
_M = (1 << 21) - 1         # a row's head packs kind << 42 | (u + 1) << 21 | (v + 1)
_TURNS = (np.arange(4) + np.arange(4)[:, None]) % 4    # phases read by a rotation
_PAIRS = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])     # the phases of a pair of parts
_RUN = np.dtype([("head", "<i8"), ("coefficient", "<i8"), ("count", "<i4", 4)])    # a key's run
_ZERO = (0, 0, True)       # the memo's value for a key whose residual is zero


def _scalar_blocks(M, d, n):
    """(c, ok) for the n stacked d x d blocks of M: ok[k] when block k is
    c[k] I exactly.  c[k] is read at the block's (0, 0) entry; every other
    diagonal entry must equal it and every off-diagonal entry be zero."""
    keep = M.data != 0
    rows = (np.searchsorted(M.indptr, np.arange(M.nnz), side="right") - 1)[keep]
    cols, data = M.indices[keep], M.data[keep]
    block, i = np.divmod(rows, d)
    diag = i == cols
    c = np.zeros(n, dtype=np.int64)
    corner = diag & (i == 0)
    c[block[corner]] = data[corner]
    ok = np.ones(n, dtype=bool)
    ok[block[~diag | (data != c[block])]] = False
    return c, ok & ((c == 0) | (np.bincount(block[diag], minlength=n) == d))


class Ledger:
    """What the kernels over one set of operators share (see the module
    docstring): `factors`, the first factor met of each class, with `counts`,
    the most entries in a row of its re and im together, `parts`, its re and
    im on the `sector` as CSR arrays (data, indices, indptr), and `entries`,
    their nnz; the `memo` of the keys decided, and `coefficients`, the
    number of each (|p|, r) the keys hold.  It holds operators and verdicts
    only; each check gathers its own right sides.  `sector`, the sorted basis
    states of one site's n modes that the residuals are decided on, is None
    for the whole space."""

    def __init__(self, sector=None):
        self.factors, self.counts, self.entries, self.parts, self.memo = [], [], [], [], {}
        # id -> (class, phase) of each factor met, and id(F) -> -i F; each
        # is held (`factors`, `_turned`), so its id stays its own
        self._ids, self._turned = {}, {}
        self.coefficients = {}    # each (|p|, r) met in a key -> its number
        self.sector = sector = None if sector is None else np.asarray(sector, dtype=np.int64)
        if sector is not None:
            # per state of the 2^n, its particle count and its position in the sector
            self.site_dim = 1 << int(sector[-1]).bit_length()
            self._count = np.bitwise_count(np.arange(self.site_dim))
            self._at = np.full(self.site_dim, -1)
            self._at[sector] = np.arange(len(sector))

    def _restrict(self, part):
        """part's rows and columns at the sector as CSR arrays, with one mask
        over its own; InputError when an entry joins states of different
        particle counts, where no sector is exact."""
        rows = np.repeat(np.arange(self.site_dim), np.diff(part.indptr))
        if (self._count[rows] != self._count[part.indices]).any():
            raise InputError("a sector needs operators that conserve particle number")
        rows, cols = self._at[rows], self._at[part.indices]
        keep = (rows >= 0) & (cols >= 0)
        d = len(self.sector)
        indptr = np.zeros(d + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[keep], minlength=d), out=indptr[1:])
        return part.data[keep], cols[keep], indptr

    def intern(self, f):
        """(class, j) with f = i^j times the class's first factor: f's own
        class when f was not met before and is no -i F that `minus_i` made."""
        if id(f) not in self._ids:
            # the parts first, so that a factor the sector refuses is not entered
            parts = tuple((p.data, p.indices, p.indptr) if self.sector is None
                          else self._restrict(p) for p in (f.re, f.im))
            self._ids[id(f)] = len(self.factors), 0
            self.factors.append(f)
            self.counts.append(int((np.diff(f.re.indptr) + np.diff(f.im.indptr)).max()))
            self.parts.append(parts)
            self.entries.append(len(parts[0][0]) + len(parts[1][0]))
        return self._ids[id(f)]

    def minus_i(self, F):
        """-i F (`fock._minus_i`), made once per F and entered in F's class:
        F at phase j gives -i F at j + 3 (mod 4)."""
        if id(F) not in self._turned:
            u, j = self.intern(F)
            self._turned[id(F)] = G = _minus_i(F)
            self._ids[id(G)] = u, (j + 3) % 4
        return self._turned[id(F)]


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
        # the class and phase of each operator's factor at each site (class -1: none)
        self.cls = np.full((len(ops), self.site_count), -1, dtype=np.int32)
        self.ph = np.zeros_like(self.cls)
        for a, fs in enumerate(factors):
            for x, f in fs.items():
                if f.nnz:
                    self.cls[a, x], self.ph[a, x] = ledger.intern(f)
        self.classes = list(dict.fromkeys(self.cls[self.cls >= 0].tolist()))
        self.den = math.lcm(1, *(f.den for fs in factors for f in fs.values()))
        reps = ledger.factors
        self.mag = {u: reps[u].mag * (self.den // reps[u].den) for u in self.classes}    # at D
        if not fits_int64(0, *self.mag.values()):
            raise BoundError()
        # per class, and a last slot for an "o" row's v = -1 (I_d): entries,
        # count, mag at D, and the number of its re part among R's parts
        self._ent, self._cnt, self._mag = np.zeros((3, max(self.classes, default=0) + 2))
        self._base = np.full(len(self._ent), 2 * len(self.classes))
        for k, u in enumerate(self.classes):
            self._ent[u], self._cnt[u] = ledger.entries[u], ledger.counts[u]
            self._mag[u], self._base[u] = self.mag[u], 2 * k
        self.R = None    # stacked when a chunk first computes

    memo = property(lambda self: self.ledger.memo)

    def _stack(self):
        """R: the nonempty re and im parts of each class on the sector at D,
        then I_d, each a d x d block; the block of each part (-1 if empty)
        and per entry of R its row in its block, which L's gather reads."""
        d = self.d
        parts = [(x * (self.den // self.ledger.factors[u].den), i, p)
                 for u in self.classes for x, i, p in self.ledger.parts[u]]
        parts += [(np.ones(d, dtype=np.int64), np.arange(d), np.arange(d + 1)), ((),)]
        full = np.array([len(p[0]) > 0 for p in parts])
        self._at = np.where(full, np.cumsum(full) - 1, -1)
        data, indices, indptr = zip(*(p for p, f in zip(parts, full) if f))
        ends = np.cumsum([0] + [len(x) for x in data]).tolist()
        index = np.int32 if ends[-1] < 1 << 31 else np.int64
        self.R = sp.csr_matrix((np.concatenate(data), np.concatenate(indices), np.concatenate(
            [(p[:-1] + e).astype(index) for p, e in zip(indptr, ends)]
            + [np.array(ends[-1:], dtype=index)])), shape=(len(data) * d, d))
        self._row = np.concatenate([np.repeat(np.arange(d, dtype=np.int32), np.diff(p))
                                    for p in indptr])

    def _plan(self, cases):
        """The window of `cases` as arrays (see "Keys"): its live terms and
        their rows, the key of each (case, site) group with its rotation and
        runs, the groups that first meet a key the memo lacks, and each
        case's weight."""
        n, S, ledger = len(cases), self.site_count, self.ledger
        terms = [t for case in cases for t in case]
        kinds, qs, a = list(zip(*terms))[:3] if terms else ((), (), ())
        code = np.frombuffer("".join(kinds).encode(), dtype=np.uint8)
        kind, tcase = _KIND[code], np.repeat(np.arange(n), [len(case) for case in cases])
        if len(code) != len(terms) or (kind == 3).any():
            raise InputError("a term's kind is one of c, a, o and i")
        a, b = np.array(a, dtype=np.int32), np.array([t[-1] for t in terms], dtype=np.int32)
        # the distinct coefficients: (p, r) in lowest terms, and the ledger's
        # number of (|p|, r)
        index = {q: i for i, q in enumerate(dict.fromkeys(qs))}
        qid = np.fromiter(map(index.__getitem__, qs), dtype=np.int32, count=len(qs))
        pr = [(p // g, r // g) for p, r in (q if type(q) is tuple else (q.numerator, q.denominator)
                                            for q in index) for g in [math.gcd(p, r)]]
        number, sign, nonzero = np.array(
            [(ledger.coefficients.setdefault((abs(p), r), len(ledger.coefficients)),
              2 * (p < 0), p != 0) for p, r in pr], dtype=np.int64).reshape(-1, 3).T
        del terms, kinds, qs
        # q = 0 and [a, a] take no arithmetic
        live = (nonzero[qid] != 0) & ((kind != 0) | (a != b))
        tcase, code, kind, a, b, qid = (v[live] for v in (tcase, code, kind, a, b, qid))
        del live
        if S > 1 and (kind == 1).any():
            raise InputError("an anticommutator of site sums is not site-local")
        # the rows: each live term at each site both operands reach, ordered
        # by case, site, kind, classes and coefficient
        tr, x = np.nonzero((self.cls[a] >= 0) & (self.cls[b] >= 0))
        a, b, kind, q = a[tr], b[tr], kind[tr], qid[tr]
        u, v, one = self.cls[a, x], self.cls[b, x], kind == 2
        phase = sign[q] + (code[tr] == ord("i")) + self.ph[a, x] + np.where(one, 0, self.ph[b, x])
        v[one] = -1
        swap = ~one & (u > v)
        u, v = np.where(swap, v, u), np.where(swap, u, v)
        phase += 2 * (swap & (kind == 0))
        head = (kind.astype(np.int64) << 21 | (u + 1)) << 21 | (v + 1)
        del a, b, kind, u, v, one, swap
        o = np.lexsort((number[q], head, x, tcase[tr]))
        rcase, x, head, q, phase = tcase[tr][o], x[o], head[o], q[o], phase[o] % 4
        del tr, o
        # the (case, site) groups, and their runs of rows alike but for their
        # phase, with a count per phase
        group = np.ones(len(q), dtype=bool)
        group[1:] = (rcase[1:] != rcase[:-1]) | (x[1:] != x[:-1])
        run = group.copy()
        run[1:] |= (head[1:] != head[:-1]) | (number[q[1:]] != number[q[:-1]])
        del x
        first, grp = np.flatnonzero(run), np.cumsum(group) - 1
        counts = np.bincount((np.cumsum(run) - 1) * 4 + phase, minlength=4 * len(first))
        start, gcase = np.flatnonzero(group[first]), rcase[group]
        G, counts = len(gcase), counts.reshape(-1, 4).astype(np.int32)
        runs = np.bincount(grp[first], minlength=G)
        del group, run, phase
        # the rotations that give a group's first run phase 0, each rotated
        cg, turn = np.nonzero(counts[start] > 0)
        csize = runs[cg]
        at = ragged(start[cg], csize)
        rot = counts.ravel()[4 * at[:, None] + _TURNS[np.repeat(turn, csize)]]
        del counts
        at, cstart = first[at], np.cumsum(csize) - csize
        words = np.empty(len(at), dtype=_RUN)
        words["head"], words["coefficient"], words["count"] = head[at], number[q[at]], rot
        buf, size = words.tobytes(), _RUN.itemsize
        del words
        ckey = [buf[size * i:size * (i + k)] for i, k in zip(cstart.tolist(), csize.tolist())]
        del buf
        best = {}    # per group, its candidate with the least key
        for c, g in enumerate(cg.tolist()):
            best[g] = c if g not in best or ckey[c] < ckey[best[g]] else best[g]
        chosen = np.fromiter(best.values(), dtype=np.int64, count=G)
        keys, ids, memo = [ckey[c] for c in chosen.tolist()], {}, self.memo
        del ckey, best
        # a case weighs the keys it first meets in the window that the memo lacks
        new = np.array([g for g, k in enumerate(keys) if ids.setdefault(k, g) == g
                        and k not in memo], dtype=np.int64)
        keys = [keys[ids[k]] for k in keys]    # one bytes object per distinct key
        kind, u, v = head >> 42, (head >> 21 & _M) - 1, (head & _M) - 1
        mag, cnt = self._mag, self._cnt    # F: a row's bound but for its K |p| / r
        gweight = np.bincount(grp, self.d + self._ent[u] + self._ent[v], minlength=G)
        return types.SimpleNamespace(
            pr=pr, tcase=tcase, qid=qid, rcase=rcase, q=q, head=head,
            F=np.where(kind == 2, self.den * mag[u], (cnt[u] + cnt[v]) * mag[u] * mag[v]),
            gcase=gcase, keys=keys, new=new, turn=turn[chosen], cstart=cstart[chosen],
            csize=csize[chosen], at=at, counts=rot,
            weight=np.bincount(gcase[new], gweight[new], minlength=n).astype(np.int64))

    def weight(self, case):
        """Per term of each key the case computes, d plus its factors' entries
        (a key decided, or met at another of its sites, weighs 0)."""
        return int(self._plan([case]).weight[0])

    def first_failure(self, prop, cases):
        """The report of the walk `prop` over the (witness, *terms) rows
        `cases`: its first row, in walk order, whose case fails."""
        return self.first_failures([(prop, cases)])[0]

    def first_failures(self, walks):
        """The report of each (prop, rows) walk, as if the walks were made one
        by one: windows of rows, read across walks, are planned at once and
        each walk's chunks decided in turn (see the module docstring)."""
        reports, todo = [ok(prop) for prop, _ in walks], [iter(rows) for _, rows in walks]
        rows, w = [], 0    # the window's (walk, row) pairs; the walk being read
        while rows or w < len(todo):
            terms = 0    # read into this window; a short read ends its walk
            while w < len(todo) and terms < _BLOCK // CHUNK:
                more = list(itertools.islice(todo[w], CHUNK))
                rows, w = rows + [(w, row) for row in more], w + (len(more) < CHUNK)
                terms += sum(map(len, more)) - len(more)
            plan, n, lo = self._plan([row[1:] for _, row in rows]), len(rows), 0
            ends, walk = np.cumsum(plan.weight), [v for v, _ in rows]
            last = np.searchsorted(walk, walk, side="right").tolist()    # each case's walk's end
            while lo < n:
                hi = min(lo + CHUNK, int(np.searchsorted(
                    ends, (ends[lo - 1] if lo else 0) + BUDGET)) + 1)
                if hi > last[lo] == n and walk[-1] == w < len(todo):
                    break    # cut short by the window's end
                bad = np.flatnonzero(self._fails(plan, lo, min(hi, last[lo])))
                if bad.size:    # the rest of the walk is not read
                    v, row = rows[lo + bad[0]]
                    reports[v], w, lo = fail(walks[v][0], witness=row[0]), w + (v == w), last[lo]
                    break
                lo = min(hi, last[lo])
            rows = rows[lo:]    # planned again with the next window
        return reports

    def fails(self, cases):
        """True for each case whose residual breaks the c_x I rule, the cases
        decided as one chunk.  The cases before the first one whose bound
        reaches 2^62 are decided, and BoundError is raised when none of them
        fails."""
        return self._fails(self._plan(cases), 0, len(cases))

    def _fails(self, plan, lo, hi):
        """`fails` for the cases lo to hi of a planned window, one chunk."""
        (t0, t1), (r0, r1), (g0, _) = (np.searchsorted(c, [lo, hi])
                                       for c in (plan.tcase, plan.rcase, plan.gcase))
        K = math.lcm(1, *(plan.pr[i][1] for i in set(plan.qid[t0:t1].tolist())))
        mult = [abs(p) * (K // r) for p, r in plan.pr]
        rq, rcase = plan.q[r0:r1], plan.rcase[r0:r1] - lo
        bound = np.bincount(rcase, np.array([float(min(m, BOUND)) for m in mult])[rq]
                            * plan.F[r0:r1], minlength=hi - lo)
        out = bound >= BOUND
        for k in np.flatnonzero((bound > BOUND / 2) & (bound < 2 * BOUND)).tolist():
            # near the edge, the exact bound
            mag, count = self.mag, self.ledger.counts
            out[k] = not fits_int64(sum(
                mult[plan.q[i]] * (self.den * mag[u] if kind == 2 else
                                   (count[u] + count[v]) * mag[u] * mag[v])
                for i in r0 + np.flatnonzero(rcase == k) for h in [int(plan.head[i])]
                for kind, u, v in [(h >> 42, (h >> 21 & _M) - 1, (h & _M) - 1)]))
        limit = lo + int(np.argmax(out)) if out.any() else hi
        gl, memo = int(np.searchsorted(plan.gcase, limit)), self.memo
        fresh = [g for g in plan.new[np.searchsorted(plan.new, g0):np.searchsorted(
            plan.new, gl)].tolist() if plan.keys[g] not in memo]
        if fresh:
            self._decide(plan, fresh, mult, K)
        bad, sums = np.zeros(hi - lo, dtype=bool), {}
        for g in [g for g, key in enumerate(plan.keys[g0:gl], g0) if memo[key] is not _ZERO]:
            (re, im, holds), k = memo[plan.keys[g]], int(plan.gcase[g]) - lo
            for _ in range(plan.turn[g]):    # i^t (re + i im)
                re, im = -im, re
            total = sums.setdefault(k, [0, 0])
            total[0], total[1], bad[k] = total[0] + re, total[1] + im, bad[k] or not holds
        for k, (re, im) in sums.items():
            bad[k] |= bool(re or im)
        if limit < hi and not bad.any():
            raise BoundError()
        return bad

    def _decide(self, plan, groups, mult, K):
        """The key of each of `groups` (a group that first meets it) into the
        memo, from one product L R over the lcm K of the chunk's coefficients,
        `mult` the K |p| / r of each coefficient."""
        if self.R is None:
            self._stack()
        d, D, groups = self.d, self.den, np.array(groups)
        # the (run, phase) pairs of each key's runs that hold a term
        at = ragged(plan.cstart[groups], plan.csize[groups])
        e, t = np.nonzero(plan.counts[at] > 0)
        key, at = np.repeat(np.arange(len(groups)), plan.csize[groups])[e], at[e]
        head, q = plan.head[plan.at[at]], plan.q[plan.at[at]]
        kind, u, v = head >> 42, (head >> 21 & _M) - 1, (head & _M) - 1
        coef = np.array([min(m, BOUND) for m in mult], dtype=np.int64)[q] * plan.counts[at, t]
        # each pair of nonempty parts, one of u's and one of v's (I_d for an
        # "o" term): a [u, v] or {u, v} term puts each against the other, an
        # "o" term only K q D I_d against u's
        row, (fa, fb) = np.repeat(np.arange(len(u)), 4), np.tile(_PAIRS, len(u))
        ja, jb = self._at[self._base[u][row] + fa], self._at[self._base[v][row] + fb]
        live = (ja >= 0) & (jb >= 0)
        row, ja, jb, f = row[live], ja[live], jb[live], (fa + fb)[live] + t[row[live]]
        Lrow, sign, two = 2 * key[row] + f % 2, 1 - (f & 2), kind[row] != 2
        w = np.where(kind == 2, coef * D, np.where(kind == 0, -coef, coef))[row] * sign
        Lrow, col, src = (np.concatenate([x[two], y]) for x, y in
                          ((Lrow, Lrow), (jb, ja), (ja, jb)))
        val = np.concatenate([(coef[row] * sign)[two], w])
        # L: each block's source entries, gathered once and ordered by row
        start, n = self.R.indptr[::d], 2 * len(groups) * d
        size = start[src + 1] - start[src]
        blk = np.repeat(np.arange(len(src), dtype=np.int32), size)
        e = ragged(start[src], size)
        rows = (Lrow * d).astype(np.int32)[blk] + self._row[e]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        order = np.argsort(rows.astype(np.uint16) if n <= 1 << 16 else rows, kind="stable")
        del rows
        blk, e = blk[order], e[order]
        del order
        L = sp.csr_matrix((val[blk] * self.R.data[e],
                           (col * d).astype(np.int32)[blk] + self.R.indices[e], indptr),
                          shape=(n, self.R.shape[0]))
        c, ok = _scalar_blocks(L @ self.R, d, 2 * len(groups))
        c, ok = c.tolist(), ok.tolist()
        for i, g in enumerate(groups.tolist()):
            re, im = (Fraction(v, K * D * D) if v else 0 for v in c[2 * i:2 * i + 2])
            holds = ok[2 * i] and ok[2 * i + 1]
            self.memo[plan.keys[g]] = _ZERO if holds and not (re or im) else (re, im, holds)
