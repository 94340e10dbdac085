"""Finite fermionic Fock space: Jordan-Wigner ladder operators and exact
sparse operator arithmetic over Gaussian rationals.

Operators are stored as (re + i*im)/den with integer sparse parts, so every
check in the lab is exact.  Every sum and rational multiple is one call of
`_sum`, over the least common multiple of the denominators; it and `@` bound
their result before they compute and raise `BoundError`, an OverflowError,
when the bound reaches 2^62, so no int64 value can wrap.  Parts are kept
canonical (sorted indices, no duplicate or stored zero) and normalized (gcd
of den and every entry 1), so `==` compares den and the parts' arrays; `@`
skips the products of an empty re or im part, as a purely imaginary
density's are.

A `SiteOp` holds a sum of site-local operators sum_x I x .. x F_x x .. x I as
its factors F_x on the 2^n-dimensional space of one site; see `SiteOp`.  The
density and charge relations are decided on those factors, many cases at a
time, by `relations.RelationKernel`.  Its `relations.Ledger` interns the
factors by identity, makes the -i F of the charge -i sum_x F_x (`_minus_i`)
in F's class, at i^3, and keeps every one-site residual decided.  Per
chunk, one real product L R of the distinct factors' re and im parts,
stacked once for all sites (R), by the coefficients of each one-site
residual not yet decided placed against them by phase (L, gathered from
R's own arrays); each is held to `SiteOp.is_zero`'s c_x I rule, under the
2^62 bound.

Ladder embeddings.  A `FockOps` holds the Jordan-Wigner ladder operators of
one site and the site count N; `_ladder` builds them, and the full
2^(nN)-dimensional space is never built.  On N sites the ladder operator of
mode A at site x is Pi x .. x Pi x F x I x .. x I, with x one-site parities
Pi = Z^{n} (diagonal +-1, Pi^2 = I) on the left and F the one-site operator.
By the mixed-product rule, {Phi_x, Psi_x} = I x {phi, psi} x I at one site,
and for x < y {Phi_x, Psi_y} = I x {phi, Pi} x Pi x .. x Pi x psi x I, zero
exactly when {phi, Pi} = 0 or psi = 0.  `canonical_etc_check` and
`car_check` decide their relations that way on the 2^n-dimensional factors
(`_anticommutation_scan`).  Same-site bilinears drop the strings
(Pi^2 = I), so densities are one-site `SiteOp` factors, sliced from block
diagonal products of a `QuadraticCache` built from the lowering operators
alone: the row of a† is the transpose of their stack, and the space keeps no
product cache.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .matrices import _BLOCK, fits_int64, ragged, stacked
from .report import BoundError, CheckReport, InputError

def _csr(m):
    """m as canonical int64 CSR: indices sorted, no duplicate and no stored
    zero.  The arrays of a sparse m are never changed."""
    out = sp.csr_matrix(m, dtype=np.int64)
    if not (out.has_canonical_format and out.data.all()):
        if sp.issparse(m):    # out may share its arrays with m
            out = out.copy()
        out.sum_duplicates()
        out.eliminate_zeros()
    return out


def _sum(dim, terms):
    """The exact sum of q*A over the (q, A) pairs of `terms`, q rational and A
    a GQSparse of dimension `dim`, over L = lcm of the q.den*A.den: term k
    enters as m_k*A_k with m_k = q_k.num*L/(q_k.den*A_k.den).  Every partial
    sum of integer parts is at most sum_k |m_k|*mag_k, which is at least each
    |m_k| (a nonzero A_k has mag_k >= 1); bounding it and L below 2^62 once
    bounds every value computed.  Each of re and im is one COO assembly of
    the scaled parts, whose conversion to CSR adds up the entries that meet;
    their row counts are read off one diff of the joined indptr arrays."""
    terms = [(Fraction(q), A) for q, A in terms if q and A.nnz]
    den = math.lcm(1, *(q.denominator * A.den for q, A in terms))
    mults = [q.numerator * (den // (q.denominator * A.den)) for q, A in terms]
    if not fits_int64(den, sum(abs(m) * A.mag for m, (_, A) in zip(mults, terms))):
        raise BoundError()

    def part(name):
        scaled = [(m, P) for m, (_, A) in zip(mults, terms) if (P := getattr(A, name)).nnz]
        if not scaled:
            return sp.csr_matrix((dim, dim), dtype=np.int64)
        if len(scaled) == 1:    # one part needs no assembly
            return scaled[0][1] * scaled[0][0]
        m, P = zip(*scaled)
        nnz = [p.nnz for p in P]
        # the diff across a part's boundary lands in the dropped last column
        counts = np.diff(np.concatenate([p.indptr for p in P]), append=0).reshape(len(P), dim + 1)
        rows = np.repeat(np.tile(np.arange(dim), len(P)), counts[:, :dim].ravel())
        data = np.concatenate([p.data for p in P]) * np.repeat(np.array(m, dtype=np.int64), nnz)
        return sp.coo_matrix((data, (rows, np.concatenate([p.indices for p in P]))),
                             shape=(dim, dim)).tocsr()
    return GQSparse(dim, part("re"), part("im"), den)


class GQSparse:
    """Sparse square matrix (re + i*im) / den with int64 parts, den > 0.

    `mag` is the largest |entry| of re and im, kept for the overflow guard."""

    __slots__ = ("dim", "den", "re", "im", "mag")

    def __init__(self, dim, re, im, den=1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den, re, im = -den, -re, -im
        self.dim = dim
        self.re = _csr(re)
        self.im = _csr(im)
        self.den = int(den)
        self._normalize()

    def _normalize(self):
        # np.abs leaves -2^63 negative, so the extremes are read apart
        mag = max([0] + [max(int(part.data.max()), -int(part.data.min()))
                         for part in (self.re, self.im) if part.nnz])
        if not fits_int64(mag, self.den):
            raise OverflowError("exact sparse entry exceeded the int64 guard")
        g = self.den
        for part in (self.re, self.im):
            if part.nnz:
                g = math.gcd(g, int(np.gcd.reduce(np.abs(part.data))))
        if g > 1:
            self.den //= g
            self.re = _exact_div(self.re, g)
            self.im = _exact_div(self.im, g)
            mag //= g
        self.mag = mag

    # --- constructors ---
    @staticmethod
    def zero(dim):
        z = sp.csr_matrix((dim, dim), dtype=np.int64)
        return GQSparse(dim, z, z.copy())

    @staticmethod
    def identity(dim):
        return GQSparse(dim, sp.identity(dim, dtype=np.int64, format="csr"),
                        sp.csr_matrix((dim, dim), dtype=np.int64))

    @staticmethod
    def from_int(mat):
        mat = _csr(mat)
        dim = mat.shape[0]
        return GQSparse(dim, mat, sp.csr_matrix((dim, dim), dtype=np.int64))

    def zero_like(self):
        return GQSparse.zero(self.dim)

    # --- arithmetic ---
    def plus(self, terms):
        """self + sum q*A over the (q, A) pairs of `terms`, exactly (`_sum`)."""
        return _sum(self.dim, [(1, self)] + [(q, self._check(A)) for q, A in terms])

    def __add__(self, other):
        return self.plus([(1, other)])

    def __sub__(self, other):
        return self.plus([(-1, other)])

    def __matmul__(self, other):
        self._check(other)
        # an entry of the product sums at most (stored entries in one row of
        # self) terms; the total nnz bounds that count and is free to read
        mags = self.mag * other.mag
        count = self.nnz
        if not fits_int64(mags * count):
            count = int((np.diff(self.re.indptr) + np.diff(self.im.indptr)).max())
        if not fits_int64(mags * count, self.den * other.den):
            raise BoundError()
        # (a + i b)(c + i d) = ac - bd + i (ad + bc), without the products
        # that have an empty factor
        def part(p, q, sign, r, t):
            out = p @ q if p.nnz and q.nnz else sp.csr_matrix(p.shape, dtype=np.int64)
            if r.nnz and t.nnz:
                out = out + r @ t if sign > 0 else out - r @ t
            return out
        return GQSparse(self.dim, part(self.re, other.re, -1, self.im, other.im),
                        part(self.re, other.im, 1, self.im, other.re), self.den * other.den)

    def scale(self, q):
        """Multiply by an exact rational scalar."""
        return _sum(self.dim, [(q, self)])

    def times_i(self):
        return GQSparse(self.dim, -self.im, self.re, self.den)

    def dagger(self):
        return GQSparse(self.dim, self.re.T.tocsr(), (-self.im.T).tocsr(), self.den)

    def commutator(self, other):
        return self @ other - other @ self

    # --- predicates ---
    def is_zero(self):
        return self.re.nnz == 0 and self.im.nnz == 0

    def scalar(self) -> Optional[Tuple[Fraction, Fraction]]:
        """(Re c, Im c) when self == c * I exactly, else None."""
        out = []
        for part in (self.re, self.im):
            if part.nnz == 0:
                out.append(Fraction(0))
                continue
            # dim stored entries and a nonzero constant diagonal leave no room
            # for an off-diagonal entry
            diag = part.diagonal()
            if part.nnz != self.dim or diag[0] == 0 or (diag != diag[0]).any():
                return None
            out.append(Fraction(int(diag[0]), self.den))
        return out[0], out[1]

    def __eq__(self, other):
        """Both operands are normalized with canonical parts, so equal
        operators hold equal arrays."""
        if not isinstance(other, GQSparse):
            return NotImplemented
        self._check(other)
        return (self.den == other.den
                and all(p.nnz == q.nnz and np.array_equal(p.indptr, q.indptr)
                        and np.array_equal(p.indices, q.indices)
                        and np.array_equal(p.data, q.data)
                        for p, q in ((self.re, other.re), (self.im, other.im))))

    def __hash__(self):
        raise TypeError("GQSparse is unhashable")

    @property
    def nnz(self):
        return self.re.nnz + self.im.nnz

    def _check(self, other):
        if not isinstance(other, GQSparse) or other.dim != self.dim:
            raise InputError("operator dimension mismatch")
        return other


def _minus_i(op):
    """-i op, one GQSparse: (re + i im) / den times -i is (im - i re) / den,
    filled from op's canonical parts, den and mag without `__init__`'s
    re-check; the parts are shared, as no operation changes one in place."""
    out = object.__new__(GQSparse)
    out.dim, out.den, out.mag, out.re, out.im = op.dim, op.den, op.mag, op.im, -op.re
    return out


def _exact_div(part, g):
    out = part.copy()
    out.data = out.data // g
    return out


class SiteOp:
    """A sum of site-local operators sum_x I x .. x F_x x .. x I on `sites`
    sites, held as {x: F_x} with each factor F_x a GQSparse of dimension
    `site_dim`; site 0 is the leftmost Kronecker factor, as in `build_fock`.

    Embeddings at different sites commute, so a commutator is the per-site
    commutator of the factors on the sites both operands share.  The sum is
    zero exactly when every factor is c_x * I and the c_x sum to zero (the
    traceless parts of different sites are independent), which `is_zero`
    tests.  `full()` builds the operator on the whole space."""

    __slots__ = ("sites", "site_dim", "factors")

    def __init__(self, sites, site_dim, factors: Dict[int, GQSparse]):
        self.sites = sites
        self.site_dim = site_dim
        self.factors = {x: f for x, f in factors.items() if not f.is_zero()}

    dim = property(lambda self: self.site_dim ** self.sites)

    def _new(self, factors):
        return SiteOp(self.sites, self.site_dim, factors)

    def _check(self, other):
        if not (isinstance(other, SiteOp) and other.sites == self.sites
                and other.site_dim == self.site_dim):
            raise InputError("operator dimension mismatch")

    def zero_like(self):
        return self._new({})

    # --- arithmetic ---
    def plus(self, terms):
        """self + sum q*A over the (q, A) pairs of `terms`: one `_sum` per
        site, but a site whose one term is 1 * F keeps F."""
        by_site = {x: [(1, f)] for x, f in self.factors.items()}
        for q, A in terms:
            self._check(A)
            for x, f in A.factors.items():
                by_site.setdefault(x, []).append((q, f))
        return self._new({x: fs[0][1] if len(fs) == 1 and fs[0][0] == 1
                          else _sum(self.site_dim, fs) for x, fs in by_site.items()})

    def __add__(self, other):
        return self.plus([(1, other)])

    def __sub__(self, other):
        return self.plus([(-1, other)])

    def scale(self, q):
        return self.zero_like().plus([(q, self)])

    def times_i(self):
        return self._new({x: f.times_i() for x, f in self.factors.items()})

    def commutator(self, other):
        self._check(other)
        return self._new({x: f.commutator(other.factors[x])
                          for x, f in self.factors.items() if x in other.factors})

    # --- predicates ---
    def is_zero(self):
        re = im = Fraction(0)
        for f in self.factors.values():
            c = f.scalar()
            if c is None:
                return False
            re, im = re + c[0], im + c[1]
        return re == 0 and im == 0

    def __eq__(self, other):
        if not isinstance(other, SiteOp):
            return NotImplemented
        return (self - other).is_zero()

    # --- the full-space operator ---
    def full(self) -> GQSparse:
        def embed(x, f):
            left = sp.identity(self.site_dim ** x, dtype=np.int64, format="csr")
            right = sp.identity(self.site_dim ** (self.sites - x - 1),
                                dtype=np.int64, format="csr")
            re, im = (sp.kron(sp.kron(left, part), right, format="csr")
                      for part in (f.re, f.im))
            return GQSparse(self.dim, re, im, f.den)
        return _sum(self.dim, [(1, embed(x, f)) for x, f in sorted(self.factors.items())])

    re = property(lambda self: self.full().re)
    im = property(lambda self: self.full().im)
    den = property(lambda self: self.full().den)


@dataclass
class FockOps:
    """The Jordan-Wigner ladder operators a[A], adag[A] of one site of n modes,
    for `sites` sites (see "Ladder embeddings"), and nothing derived from
    them; `dim` is the dimension of the whole space, which is never built."""

    modes_per_site: int
    sites: int
    a: List[GQSparse]
    adag: List[GQSparse]

    dim = property(lambda self: 2 ** (self.modes_per_site * self.sites))

    def mode(self, x, A):
        return x * self.modes_per_site + A


def _odd(states):
    """1 where a basis bitmask has an odd number of occupied modes, else 0."""
    return np.bitwise_count(states).astype(np.int64) & 1


def _parity(modes):
    """Z x .. x Z on `modes` modes: the diagonal (-1)^(occupied modes)."""
    return sp.diags(1 - 2 * _odd(np.arange(1 << modes)), format="csr", dtype=np.int64)


def _states(modes, particles):
    """The sorted basis bitmasks of `modes` modes with at most `particles`
    of them occupied (bits set)."""
    return np.sort([sum(1 << b for b in bits) for k in range(particles + 1)
                    for bits in itertools.combinations(range(modes), k)])


def _ladder(modes, states, dagger=False) -> List[GQSparse]:
    """The Jordan-Wigner lowering operators a_0 .. a_{modes-1},
    Z x .. x Z x sigma x I x .. x I, restricted to the span of `states`:
    sorted basis bitmasks, mode 0 the most significant bit, closed under
    lowering; their adjoints if `dagger`.  a_m takes a state with mode m
    occupied to the one without, with the sign (-1)^(occupied modes before
    m).  Dropping a bit keeps the order of the states that hold it, so rows
    and columns rise together, one entry a row: canonical CSR arrays, used
    without `__init__`'s re-check.  ValueError when an image leaves `states`."""
    states = np.asarray(states, dtype=np.int64)
    d = len(states)
    ops = []
    for m in range(modes):
        shift = modes - 1 - m
        cols = np.flatnonzero((states >> shift) & 1)
        images = states[cols] ^ (1 << shift)
        rows = np.searchsorted(states, images)
        if not np.array_equal(states[np.minimum(rows, d - 1)], images):
            raise ValueError("the states are not closed under lowering")
        sign = 1 - 2 * _odd(states[cols] >> (shift + 1))
        rows, cols = (cols, rows) if dagger else (rows, cols)
        op = object.__new__(GQSparse)
        op.dim, op.den, op.mag = d, 1, int(sign.size > 0)
        op.re = sp.csr_matrix((sign, cols, np.searchsorted(rows, np.arange(d + 1))), shape=(d, d))
        op.im = sp.csr_matrix((d, d), dtype=np.int64)
        ops.append(op)
    return ops


def build_fock(n: int, N: int) -> FockOps:
    """Exact CAR operators for N sites of n modes (caps n <= 16, n*N <= 32)."""
    if n <= 0 or N <= 0:
        raise InputError("need positive mode and site counts")
    if n > 16 or n * N > 32:
        raise InputError(f"{n} modes on each of {N} sites exceed the caps of 16 modes "
                         "per site and 32 in all")
    return FockOps(n, N, *(_ladder(n, range(1 << n), dagger) for dagger in (False, True)))


# An anticommutation relation (name, X, Y, c) asks {X_A(x), Y_B(y)} = c I d_xy d_AB
# for the operator families X and Y, with c = (Re c, Im c), or None for zero.
_CANONICAL = (("p-u", "p0", "u", (0, -1)), ("u-u", "u", "u", None), ("p-p", "p0", "p0", None))
_CAR = (("a-adag", "a", "adag", (1, 0)), ("a-a", "a", "a", None),
        ("adag-adag", "adag", "adag", None))


def _anticommutation_scan(prop, relations, families, fock, witness):
    """First (name, x, A, y, B), in that loop order, whose relation fails;
    families[X][x][A] are one-site operators, and the relations are decided
    on them as the module docstring derives under "Ladder embeddings".
    {X, Y} = {Y, X}, so a relation within one family skips the pairs whose
    mirror came first.  Each step is one case row of a `RelationKernel` over
    the distinct operators (held in `families`, so their ids stay theirs),
    the parity Pi and I: {P, Q} - c I at one site, {P, Pi} across sites.  The
    kernel decides a chunk at a time.  A case row that repeats an earlier one
    (at N >= 2 every site's row holds the same operators) has that row's
    verdict and is skipped; the first keeps its place in the walk."""
    from .relations import RelationKernel    # relations imports this module
    n, N = fock.modes_per_site, fock.sites
    distinct = {id(op): op for ops in families.values() for row in ops for op in row}
    kernel = RelationKernel([*distinct.values(), GQSparse.from_int(_parity(n)),
                             GQSparse.identity(1 << n)])
    index = {key: k for k, key in enumerate(distinct)}
    parity, one, seen = len(index), len(index) + 1, set()

    def rows():
        for x, A, y, B, (name, X, Y, c) in itertools.product(range(N), range(n), range(N),
                                                              range(n), relations):
            if X == Y and (y, B) < (x, A):
                continue
            P, Q = families[X][x][A], families[Y][y][B]
            if x != y:
                # holds when the later site's operator is zero or the earlier one's odd
                P, Q = (P, Q) if x < y else (Q, P)
                if Q.is_zero():
                    continue
                case = (("a", 1, index[id(P)], parity),)
            else:
                case = (("a", 1, index[id(P)], index[id(Q)]),)
                case += (("o", -c[0], one), ("i", -c[1], one)) if c and A == B else ()
            if case not in seen:
                seen.add(case)
                yield (witness(name, x, A, y, B), *case)

    return kernel.first_failure(prop, rows())


def car_check(f: FockOps) -> CheckReport:
    """Exhaustive canonical anticommutation relations on all mode pairs;
    the witness names the relation and the two flat mode indices."""
    return _anticommutation_scan("car", _CAR, {"a": [f.a] * f.sites, "adag": [f.adag] * f.sites},
                                 f, lambda name, x, A, y, B: (name, f.mode(x, A), f.mode(y, B)))


@dataclass
class FieldSet:
    """Canonical lattice fields u^A(x) = a_A(x) and momenta p^0_A(x) = -i a†_A(x),
    held as their one-site operators u[x][A] and p0[x][A]."""

    fock: FockOps
    u: List[List[GQSparse]]
    p0: List[List[GQSparse]]

    modes_per_site = property(lambda self: self.fock.modes_per_site)
    sites = property(lambda self: self.fock.sites)


def build_fields(n: int, N: int) -> FieldSet:
    """The fields of N sites; every site's row holds the same operators."""
    fock = build_fock(n, N)
    p0 = [_minus_i(op) for op in fock.adag]
    return FieldSet(fock, [list(fock.a) for _ in range(N)], [list(p0) for _ in range(N)])


def canonical_etc_check(f: FieldSet) -> CheckReport:
    """The three postulated equal-time relations, in graded (anticommutator)
    form: {p^0_A(x), u^B(y)} = -i d_AB d_xy, {u,u} = 0, {p^0,p^0} = 0,
    decided on the one-site operators (see "Ladder embeddings")."""
    return _anticommutation_scan("canonical-etc", _CANONICAL, {"p0": f.p0, "u": f.u},
                                 f.fock, lambda *w: w)


class QuadraticCache:
    """The mode bilinears a† M a of integer ladder operators a[A], each one
    sparse product of their stack [a_0; ..; a_{m-1}], built once: its transpose
    is the row [a†_0 .. a†_{m-1}] (a† = a^T, `GQSparse.dagger` of an integer a),
    times the rotated b_A = sum_B M_AB a_B gathered from its entries in a column;
    a stack of matrices gives the block diagonal of their bilinears from one
    product with kron(I, row).  Built where it is needed; a `FockOps` keeps none."""

    def __init__(self, a: List[GQSparse]):
        if any(op.den != 1 or op.im.nnz for op in a):
            raise InputError("bilinears need integer ladder operators")
        self.dim, self.mags = a[0].dim, np.array([op.mag for op in a], dtype=object)
        stack = sp.vstack([op.re for op in a], format="csr")
        # the first entry of each a_B, and one past the last; the stack as COO
        self.first, self.column = stack.indptr[::self.dim], stack.tocoo()
        self.row = stack.T.tocsr()
        # the most entries in one of the row's rows times max|a|, at least 1
        self.row_bound = max(1, int(np.diff(self.row.indptr).max()) * max(self.mags))

    def bounds(self, mats):
        """For each integer M of the stack `mats`, `row_bound` max_A sum_B
        |M_AB| max|a_B|: it bounds a† M a, its partial sums and the b_A."""
        return self.row_bound * (np.abs(mats).astype(object) @ self.mags).max(axis=1, initial=0)

    def blocks(self, mats):
        """The int64 CSR block diagonal of the a† M a over the integer stack
        `mats`, whose `bounds` must be below 2^62: each M_AB a_B is a_B's run
        of `column`'s entries, gathered to block (k m + A, k) of one COO V."""
        (d, m), (T, *_), H = (self.dim, len(self.mags)), mats.shape, self.row
        (first, A), (k, i, j) = (self.first, self.column), np.nonzero(mats)
        n = first[j + 1] - first[j]
        at = ragged(first[j], n)
        V = sp.coo_matrix((np.repeat(mats[k, i, j].astype(np.int64), n) * A.data[at],
                           (np.repeat((k * m + i - j) * d, n) + A.row[at],
                            np.repeat(k * d, n) + A.col[at])), shape=(T * m * d, T * d)).tocsr()
        return (H if T == 1 else sp.kron(sp.identity(T, dtype=np.int64), H, format="csr")) @ V

    def bilinears(self, mats, den):
        """(P, den_M) with a† M a = P / den_M for each M of the integer stack
        `mats` over all modes at `den`, P int64 CSR in canonical form, each
        bounded at M's own least denominator den_M (`den` over the gcd of it
        and M's entries): `blocks` products of up to `matrices._BLOCK` rows of
        b's, canonicalized once, each P sliced from the CSR arrays of its
        block diagonal."""
        d, m = self.dim, len(self.mags)
        g = np.gcd(np.gcd.reduce(mats.reshape(len(mats), -1), axis=1).astype(object), den)
        ints, dens = mats // g[:, None, None], den // g
        if not fits_int64(*dens, *self.bounds(ints)):
            raise BoundError()
        ints = ints.astype(np.int64)
        out, step = [], max(1, _BLOCK // (m * d))
        for lo in range(0, len(ints), step):
            P = _csr(self.blocks(ints[lo:lo + step]))
            for k, den in enumerate(dens[lo:lo + step]):
                a, b = P.indptr[k * d], P.indptr[(k + 1) * d]
                out.append((sp.csr_matrix((P.data[a:b], P.indices[a:b] - k * d,
                                           P.indptr[k * d:(k + 1) * d + 1] - a), shape=(d, d)),
                            den))
        return out

    def bilinear(self, mat) -> GQSparse:
        """a† M a for an integer/rational matrix M over all modes."""
        (P, den), = self.bilinears(*stacked([mat], len(self.mags)))
        return GQSparse(self.dim, P, sp.csr_matrix(P.shape, dtype=np.int64), den)
