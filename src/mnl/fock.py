"""Finite fermionic Fock space: Jordan-Wigner ladder operators and exact
sparse operator arithmetic over Gaussian rationals.

Operators are stored as (re + i*im)/den with integer sparse parts, so every
check in the lab is exact.  Every sum and rational multiple is one call of
`_sum`, over the least common multiple of the denominators; it and `@` bound
their result before they compute and raise OverflowError when the bound
reaches 2^62, so no int64 value can wrap.  Parts are kept canonical (sorted
indices, no duplicate or stored zero) and normalized (gcd of den and every
entry 1), so `==` compares den and the parts' arrays; `@` skips the products
of an empty re or im part, as a purely imaginary density's are.

A `SiteOp` holds a sum of site-local operators sum_x I x .. x F_x x .. x I as
its factors F_x on the 2^n-dimensional space of one site; see `SiteOp`.  The
density and charge relations are decided on those factors, many cases at a
time, by `relations.RelationKernel`: per site, one product L R of the cases'
coefficients placed against the operators (L) by the operators stacked once
(R), both built by `_place`, the one COO assembly, which serves `_sum` too;
each residual is then held to `SiteOp.is_zero`'s c_x I rule, under the same
2^62 bound.

Ladder embeddings.  On N sites the Jordan-Wigner ladder operator of mode A at
site x is exactly Pi x .. x Pi x F x I x .. x I, with x one-site parities
Pi = Z^{n} (diagonal +-1, Pi^2 = I) on the left and F the same operator on
one site; `site_factor` reads F off and checks the embedding exactly.  By the
mixed-product rule, {Phi_x, Psi_x} = I x {phi, psi} x I at one site, and for
x < y {Phi_x, Psi_y} = I x {phi, Pi} x Pi x .. x Pi x psi x I, zero exactly
when {phi, Pi} = 0 or psi = 0.  `canonical_etc_check` and `car_check` decide
their relations that way on the 2^n-dimensional factors, and on the full space
when some operator is not such an embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .matrices import fits_int64
from .report import CheckReport, InputError, fail, ok

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


def _matmul(a, b):
    """(re, im) of (a_re + i a_im) @ (b_re + i b_im) for pairs of int64 CSR
    parts: re = a_re b_re - a_im b_im, im = a_re b_im + a_im b_re, without the
    products that have an empty factor."""
    shape = (a[0].shape[0], b[0].shape[1])

    def part(p, q, sign, r, t):
        out = p @ q if p.nnz and q.nnz else sp.csr_matrix(shape, dtype=np.int64)
        if r.nnz and t.nnz:
            out = out + r @ t if sign > 0 else out - r @ t
        return out
    return part(a[0], b[0], -1, a[1], b[1]), part(a[0], b[1], 1, a[1], b[0])


def _sum(dim, terms):
    """The exact sum of q*A over the (q, A) pairs of `terms`, q rational and A
    a GQSparse of dimension `dim`, over L = lcm of the q.den*A.den: term k
    enters as m_k*A_k with m_k = q_k.num*L/(q_k.den*A_k.den).  Every partial
    sum of integer parts is at most sum_k |m_k|*mag_k, which is at least each
    |m_k| (a nonzero A_k has mag_k >= 1); bounding it and L below 2^62 once
    bounds every value computed."""
    terms = [(Fraction(q), A) for q, A in terms if q and A.nnz]
    den = math.lcm(1, *(q.denominator * A.den for q, A in terms))
    mults = [q.numerator * (den // (q.denominator * A.den)) for q, A in terms]
    if not fits_int64(den, sum(abs(m) * A.mag for m, (_, A) in zip(mults, terms))):
        raise OverflowError("exact sparse result could exceed the int64 range")
    re, im = (_place((dim, dim), dim, [(0, 0, m, getattr(A, part))
                                       for m, (_, A) in zip(mults, terms)])
              for part in ("re", "im"))
    return GQSparse(dim, re, im, den)


def _place(shape, d, blocks):
    """The matrix of `shape` that sums m*P with P's (0, 0) entry at (k*d, j*d),
    over the (k, j, m, P) of `blocks`, P int64 CSR: one COO assembly whose
    conversion to CSR adds up the entries that meet."""
    blocks = [block for block in blocks if block[3].nnz]
    if not blocks:
        return sp.csr_matrix(shape, dtype=np.int64)
    if len(blocks) == 1 and blocks[0][3].shape == shape:    # one part needs no assembly
        return blocks[0][3] * blocks[0][2]
    rows = np.concatenate([np.repeat(np.arange(k * d, k * d + P.shape[0]), np.diff(P.indptr))
                           for k, _, _, P in blocks])
    cols = np.concatenate([np.add(P.indices, j * d, dtype=np.int64) for _, j, _, P in blocks])
    return sp.coo_matrix((np.concatenate([P.data * m for _, _, m, P in blocks]), (rows, cols)),
                         shape=shape).tocsr()


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
            raise OverflowError("exact sparse result could exceed the int64 range")
        re, im = _matmul((self.re, self.im), (other.re, other.im))
        return GQSparse(self.dim, re, im, self.den * other.den)

    def scale(self, q):
        """Multiply by an exact rational scalar."""
        return _sum(self.dim, [(q, self)])

    def times_i(self):
        return GQSparse(self.dim, -self.im, self.re, self.den)

    def dagger(self):
        return GQSparse(self.dim, self.re.T.tocsr(), (-self.im.T).tocsr(), self.den)

    def commutator(self, other):
        return self @ other - other @ self

    def anticommutator(self, other):
        return self @ other + other @ self

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

    @property
    def dim(self):
        return self.site_dim ** self.sites

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
        """self + sum q*A over the (q, A) pairs of `terms`: one `_sum` per site."""
        by_site = {x: [(1, f)] for x, f in self.factors.items()}
        for q, A in terms:
            self._check(A)
            for x, f in A.factors.items():
                by_site.setdefault(x, []).append((q, f))
        return self._new({x: _sum(self.site_dim, fs) for x, fs in by_site.items()})

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

    @property
    def re(self):
        return self.full().re

    @property
    def im(self):
        return self.full().im

    @property
    def den(self):
        return self.full().den

    @property
    def nnz(self):
        return self.full().nnz


@dataclass
class FockOps:
    """Jordan-Wigner ladder operators for N sites with n modes per site.

    `products` caches the products adag_m a_mp; the one-site space whose
    operators are the site factors is built on first use."""

    modes_per_site: int
    sites: int
    a: List[List[GQSparse]]      # a[x][A]
    adag: List[List[GQSparse]]
    products: "QuadraticCache" = field(init=False, repr=False)
    _site: Optional["FockOps"] = field(default=None, init=False, repr=False)
    _factors: Dict[Tuple[int, int], tuple] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.products = QuadraticCache(self)

    @property
    def dim(self):
        return 2 ** (self.modes_per_site * self.sites)

    def mode(self, x, A):
        return x * self.modes_per_site + A

    def factor(self, op, x):
        """`site_factor` of op at site x, kept for this space's own ladder
        operators; the memo holds each, so that its id stays its own."""
        if not any(op is own for own in self.a[x] + self.adag[x]):
            return site_factor(op, self.modes_per_site, self.sites, x)
        if (id(op), x) not in self._factors:
            self._factors[id(op), x] = (op, site_factor(op, self.modes_per_site, self.sites, x))
        return self._factors[id(op), x][1]

    def site_space(self) -> "FockOps":
        """The Fock space of one site: same-site bilinears here are the
        factors of the site-local operators of this space.

        On first use every a[x][A] and adag[x][A] is checked, exactly, to be
        the ladder embedding of the one-site operator (see `site_factor`);
        RuntimeError if one is not.  With Pi^2 = I that makes every same-site
        bilinear adag[x] M a[x] equal I x .. x (adag M a on one site) x .. x I."""
        if self.sites == 1:
            return self
        if self._site is None:
            site = build_fock(self.modes_per_site, 1)
            n, N = self.modes_per_site, self.sites
            for name, ops, local in (("a", self.a, site.a), ("adag", self.adag, site.adag)):
                for x in range(N):
                    for A in range(n):
                        factor = self.factor(ops[x][A], x)
                        if factor is None or factor != local[0][A]:
                            raise RuntimeError(
                                f"{name}[{x}][{A}] is not the Jordan-Wigner embedding "
                                "of the one-site ladder operator")
            self._site = site
        return self._site


_SIGMA = np.array([[0, 1], [0, 0]], dtype=np.int64)
_Z = np.array([[1, 0], [0, -1]], dtype=np.int64)
_I2 = np.eye(2, dtype=np.int64)


def build_fock(n: int, N: int) -> FockOps:
    """Exact CAR operators on the 2^(n*N) Fock space (cap n*N <= 16)."""
    if n <= 0 or N <= 0:
        raise InputError("need positive mode and site counts")
    modes = n * N
    if modes > 16:
        raise InputError(f"mode count {modes} exceeds the cap of 16")
    ladder = []
    for m in range(modes):
        factors = [_Z] * m + [_SIGMA] + [_I2] * (modes - m - 1)
        acc = sp.csr_matrix(factors[0])
        for f in factors[1:]:
            acc = sp.kron(acc, f, format="csr")
        ladder.append(GQSparse.from_int(acc))
    a = [[ladder[x * n + A] for A in range(n)] for x in range(N)]
    adag = [[op.dagger() for op in row] for row in a]
    return FockOps(n, N, a, adag)


def _parity(modes):
    """Z x .. x Z on `modes` modes: the diagonal (-1)^(occupied modes)."""
    states = np.arange(1 << modes)
    odd = np.zeros_like(states)
    for k in range(modes):
        odd ^= (states >> k) & 1
    return sp.diags(1 - 2 * odd, format="csr", dtype=np.int64)


def site_factor(op: GQSparse, n: int, N: int, x: int) -> Optional[GQSparse]:
    """The factor F on the 2^n-dimensional space of site x with
    op == Pi x .. x Pi x F x I x .. x I exactly (x copies of the one-site
    parity Pi = Z^{n} on the left), or None when op is not of that form.
    Every Jordan-Wigner ladder operator of site x is such an embedding of the
    one-site operator.

    Pi and I are 1 in their first diagonal entry, so F is the block of op at
    the first (empty) state of the other sites, which `pick` selects; op is
    then compared with F's embedding.  Both are normalized, so the comparison
    is of exact parts."""
    if N == 1:
        return op
    d = 1 << n
    right = d ** (N - x - 1)
    states = np.arange(d)
    pick = sp.csr_matrix((np.ones(d, dtype=np.int64), (states * right, states)),
                         shape=(op.dim, d))
    factor = GQSparse(d, pick.T @ op.re @ pick, pick.T @ op.im @ pick, op.den)
    if factor.den != op.den:
        return None
    left = _parity(n * x)
    ident = sp.identity(right, dtype=np.int64, format="csr")
    for part, full in ((factor.re, op.re), (factor.im, op.im)):
        if (sp.kron(sp.kron(left, part), ident, format="csr") != full).nnz:
            return None
    return factor


# An anticommutation relation (name, X, Y, c) asks {X_A(x), Y_B(y)} =
# c(I) d_xy d_AB for the operator families X and Y, with c = None for zero.
_CANONICAL = (("p-u", "p0", "u", lambda one: one.times_i().scale(-1)),
              ("u-u", "u", "u", None),
              ("p-p", "p0", "p0", None))
_CAR = (("a-adag", "a", "adag", lambda one: one),
        ("a-a", "a", "a", None),
        ("adag-adag", "adag", "adag", None))


def _site_view(families, fock):
    """The site factors (`fock.factor`) of the operators and the one-site
    parity Pi, or None when some operator is not a ladder embedding.  Equal
    factors of one mode share the object of site 0."""
    factors = {}
    for name, ops in families.items():
        rows = [[fock.factor(op, x) for op in row] for x, row in enumerate(ops)]
        if any(f is None for row in rows for f in row):
            return None
        factors[name] = [rows[0]] + [[rows[0][A] if f == rows[0][A] else f
                                      for A, f in enumerate(row)] for row in rows[1:]]
    return factors, GQSparse.from_int(_parity(fock.modes_per_site))


def _anticommutation_scan(prop, relations, families, fock, factored, witness):
    """First (name, x, A, y, B), in that loop order, whose relation fails.

    When `factored` and every operator is a ladder embedding, the relations
    are decided on the site factors (`_site_view`) as the module docstring
    derives under "Ladder embeddings"; otherwise on the full space.
    {X, Y} = {Y, X}, so a relation within one family skips the pairs whose
    mirror came first.  Each pair of objects (held in `ops`, so their ids
    stay theirs) is decided once."""
    n, N = fock.modes_per_site, fock.sites
    ops, parity = (_site_view(families, fock) if factored else None) or (families, None)
    one = GQSparse.identity(ops[relations[0][1]][0][0].dim)
    expect = {name: c(one) for name, _, _, c in relations if c is not None}
    odd, decided = {}, {}

    def parity_odd(X, x, A):
        if (X, x, A) not in odd:
            odd[X, x, A] = ops[X][x][A].anticommutator(parity).is_zero()
        return odd[X, x, A]

    def holds(name, X, x, A, Y, y, B):
        if parity is None or x == y:
            P, Q = ops[X][x][A], ops[Y][y][B]
            c = expect.get(name) if (x, A) == (y, B) else None
            key = (id(P), id(Q), None if c is None else name)
            if key not in decided:
                ac = P.anticommutator(Q)
                decided[key] = ac.is_zero() if c is None else ac == c
            return decided[key]
        if x < y:
            return ops[Y][y][B].is_zero() or parity_odd(X, x, A)
        return ops[X][x][A].is_zero() or parity_odd(Y, y, B)

    for x in range(N):
        for A in range(n):
            for y in range(N):
                for B in range(n):
                    for name, X, Y, _ in relations:
                        if X == Y and (y, B) < (x, A):
                            continue
                        if not holds(name, X, x, A, Y, y, B):
                            return fail(prop, witness=witness(name, x, A, y, B))
    return ok(prop)


def _car_scan(f: FockOps, factored) -> CheckReport:
    n = f.modes_per_site
    return _anticommutation_scan("car", _CAR, {"a": f.a, "adag": f.adag}, f, factored,
                                 lambda name, x, A, y, B: (name, x * n + A, y * n + B))


def car_check(f: FockOps) -> CheckReport:
    """Exhaustive canonical anticommutation relations on all mode pairs;
    the witness names the relation and the two flat mode indices."""
    return _car_scan(f, True)


@dataclass
class FieldSet:
    """Canonical lattice fields u^A(x) = a_A(x) and momenta p^0_A(x) = -i a†_A(x)."""

    fock: FockOps
    u: List[List[GQSparse]]
    p0: List[List[GQSparse]]

    @property
    def modes_per_site(self):
        return self.fock.modes_per_site

    @property
    def sites(self):
        return self.fock.sites


def build_fields(n: int, N: int) -> FieldSet:
    fock = build_fock(n, N)
    u = [[fock.a[x][A] for A in range(n)] for x in range(N)]
    p0 = [[fock.adag[x][A].times_i().scale(-1) for A in range(n)] for x in range(N)]
    return FieldSet(fock, u, p0)


def _canonical_scan(f: FieldSet, factored) -> CheckReport:
    return _anticommutation_scan("canonical-etc", _CANONICAL, {"p0": f.p0, "u": f.u},
                                 f.fock, factored, lambda *w: w)


def canonical_etc_check(f: FieldSet) -> CheckReport:
    """The three postulated equal-time relations, in graded (anticommutator)
    form: {p^0_A(x), u^B(y)} = -i d_AB d_xy, {u,u} = 0, {p^0,p^0} = 0.

    When every field is a ladder embedding (`site_factor`), each relation is
    decided on the 2^n-dimensional site factors; otherwise on the full space.
    Both give the same report, witness included."""
    return _canonical_scan(f, True)


class QuadraticCache:
    """Cached products adag_m a_mp for building mode bilinears; each FockOps
    owns one as `products`.  It holds the ladder lists, not the FockOps, so
    that no reference cycle keeps a dropped Fock space's products alive."""

    def __init__(self, fock: FockOps):
        self.dim = fock.dim
        self.modes_per_site = fock.modes_per_site
        self.a, self.adag = fock.a, fock.adag
        self._cache: Dict[Tuple[int, int], GQSparse] = {}

    def pair(self, m, mp):
        key = (m, mp)
        if key not in self._cache:
            n = self.modes_per_site
            self._cache[key] = self.adag[m // n][m % n] @ self.a[mp // n][mp % n]
        return self._cache[key]

    def bilinear(self, mat) -> GQSparse:
        """a† M a for an integer/rational matrix M over all modes."""
        return _sum(self.dim, [(v, self.pair(m, mp)) for m, row in enumerate(mat)
                               for mp, v in enumerate(row) if v])
