"""Exact anticommutative algebras: structure tensors, Lie and Mal'tsev
identity checks, and the Cayley-Dickson unit tables they come from.

All arithmetic is exact, with no floating point: tensors are stored sparsely
over `fractions.Fraction`, 0-based, antisymmetric in the last two indices, and
the identities are integer contractions over their denominator (`matrices`).
A tensor keeps what is derived from it once: its Mal'tsev report, its
Yamaguti constants, and both as integer arrays (`integer_constants`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from . import matrices
from .matrices import CHUNK, lincomb, magnitude, mat_mul, scaled
from .report import CheckReport, InputError, fail, is_int, ok, read_json

Key = Tuple[int, int, int]


@dataclass(frozen=True)
class StructureTensor:
    """Structure constants c^i_jk of an anticommutative algebra, c[i][j][k]
    antisymmetric in (j, k).  Only nonzero entries are stored; the tensor is
    not changed after construction, so it keeps what `is_maltsev`,
    `yamaguti_constants`, `integer_constants` and `etc._table` compute."""

    dim: int
    entries: Dict[Key, Fraction] = field(default_factory=dict)
    _maltsev: Optional[CheckReport] = field(default=None, init=False, repr=False, compare=False)
    _yamaguti: Optional["YamagutiTensor"] = field(default=None, init=False, repr=False,
                                                  compare=False)
    _integer: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _table: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise InputError("dim must be positive")
        clean = {}
        for (i, j, k), v in self.entries.items():
            for idx in (i, j, k):
                if not 0 <= idx < self.dim:
                    raise InputError(f"index {(i, j, k)} out of range for dim {self.dim}")
            v = Fraction(v)
            if v:
                clean[(i, j, k)] = v
        for (i, j, k), v in clean.items():
            if clean.get((i, k, j), Fraction(0)) != -v:
                raise InputError(f"antisymmetry violated at c[{i}][{j}][{k}]")
        object.__setattr__(self, "entries", clean)

    def c(self, i, j, k):
        return self.entries.get((i, j, k), Fraction(0))

    def scaled(self, factor) -> "StructureTensor":
        factor = Fraction(factor)
        return StructureTensor(self.dim, {key: factor * v for key, v in self.entries.items()})

    def to_json_dict(self):
        rows = sorted((i + 1, j + 1, k + 1, v.numerator, v.denominator)
                      for (i, j, k), v in self.entries.items() if j < k)
        return {"dim": self.dim, "entries": [list(r) for r in rows]}

    @staticmethod
    def from_json_dict(data) -> "StructureTensor":
        if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
            raise InputError("structure tensor JSON needs 'dim' and 'entries'")
        dim = data["dim"]
        if not is_int(dim) or dim <= 0:
            raise InputError("'dim' must be a positive integer")
        if not isinstance(data["entries"], list):
            raise InputError("'entries' must be a list of [i, j, k, num, den] rows")
        entries: Dict[Key, Fraction] = {}
        for row in data["entries"]:
            if not (isinstance(row, (list, tuple)) and len(row) == 5
                    and all(is_int(v) for v in row)):
                raise InputError(f"bad tensor entry {row!r}: need five integers")
            i, j, k, num, den = row
            if den <= 0:
                raise InputError(f"denominator must be positive in {row!r}")
            i, j, k = i - 1, j - 1, k - 1
            v = Fraction(num, den)
            for key, val in (((i, j, k), v), ((i, k, j), -v)):
                if key in entries and entries[key] != val:
                    raise InputError(f"conflicting entries for c[{key[0]+1}][{key[1]+1}][{key[2]+1}]")
                entries[key] = val
        return StructureTensor(dim, entries)


def is_lie(c: StructureTensor) -> CheckReport:
    """Jacobi identity on all basis triples (sufficient by trilinearity); the
    Jacobiator is alternating, so the first failing triple is increasing."""
    return jacobi_check(scaled((c.dim,) * 3, c.entries.items())[0], range(c.dim))


def jacobi_check(F, labels):
    """The Jacobi identity for the integer structure constants F[i, a, b],
    the e_i coefficient of [e_a, e_b]; the witness is the labels of the first
    failing a < b < c in lexicographic order.

    Over the nonzero constants: one sparse product T(a, b, c)_i =
    sum_m F[i, a, m] F[m, b, c], the e_i coefficient of [e_a, [e_b, e_c]],
    summed as products of the nonzeros of F[:, :, m] and F[m], and
    placed three times, cyclically, as J = T(a, b, c) + T(b, c, a) +
    T(c, a, b); of an entry's three places only an increasing one is kept,
    and that is its sorted triple when (a, b, c) is a rotation of it.  Each
    m's products are summed into the running nonzero entries of J, so no
    more than one m's products are held at once.  An entry of J sums at most
    3n products, so 3 n max|F|^2 bounds it and its partial sums: below 2^62
    it runs in int64, past it over Python ints."""
    n = F.shape[0]
    dtype = np.int64 if matrices.fits_int64(3 * n * max(magnitude(F), 1) ** 2) else object
    key, J = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype)
    for m in range(n):
        (i, a), (b, c) = np.nonzero(F[:, :, m]), np.nonzero(F[m])
        # (a, b, c) is a rotation of an increasing triple exactly when two of
        # its three cyclic steps a < b, b < c, c < a ascend
        up = np.add(a[:, None] < b, b < c, dtype=np.int8) + (c < a[:, None])
        r, s = np.nonzero(up == 2)
        i, a, b, c = i[r], a[r], b[s], c[s]
        v = F[i, a, m].astype(dtype) * F[m, b, c].astype(dtype)
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        new = ((lo * n + a + b + c - lo - hi) * n + hi) * n + i
        run = np.argsort(new)
        # two sorted runs: the stable sort (a merge sort) merges them in one pass
        key, J = np.concatenate([key, new[run]]), np.concatenate([J, v[run]])
        order = np.argsort(key, kind="stable")
        key, J = key[order], J[order]
        # the first key of each run; keys are >= 0, so the first opens one
        start = np.flatnonzero(np.concatenate([key[:1] >= 0, key[1:] != key[:-1]]))
        key, J = key[start], np.add.reduceat(J, start)
        key, J = key[J != 0], J[J != 0]
    bad = key // n
    if bad.size:
        return fail("jacobi", witness=tuple(labels[int(bad[0]) // n ** p % n] for p in (2, 1, 0)))
    return ok("jacobi")


def is_maltsev(c: StructureTensor) -> CheckReport:
    """[J(x,y,z), x] = J(x,y,[x,z]) on the finite probe set {e_a, e_a+e_b}
    for x and all basis y, z; sufficient in characteristic 0 since the
    identity is quadratic in x and linear in y, z.  The report is made once
    per tensor and kept on it."""
    if c._maltsev is None:
        object.__setattr__(c, "_maltsev", _maltsev_scan(c))
    return c._maltsev


def _maltsev_scan(c: StructureTensor) -> CheckReport:
    """Both sides of the Mal'tsev identity at D^3 over D c, for all y = e_b,
    z = e_d and as many probes x as keep each array within `matrices._BLOCK`
    entries (CHUNK // dim at least), as stacked products (`mat_mul`).  For
    [x, u] = A u, (M C)[i, b, d] = M[i, m] C[m, b, d], (C M)[i, b, d] =
    C[i, b, m] M[m, d] and T(X)[i, b, d] = A[k, b] X[i, k, d], antisymmetry
    gives J(x, e_b, e_d) = A C - C A - T(C) and J(x, e_b, A e_d) = A (C A) -
    C A^2 - T(C A), so the sides differ by A J(x, e_b, e_d) + J(x, e_b, A e_d)
    = A^2 C - C A^2 - T(A C + C A), as A T(C) = T(A C)."""
    r = c.dim
    C, _ = scaled((r,) * 3, c.entries.items())

    def plus(M, sign):    # M C + sign C M, for a stack of matrices M
        return lincomb([(1, mat_mul(M, C.reshape(r, r * r)).reshape(-1, r, r, r)),
                        (sign, mat_mul(C.reshape(r * r, r), M).reshape(-1, r, r, r))])

    ad = C.transpose(1, 0, 2).reshape(r, r * r)    # row j: the matrix of [e_j, .]
    eye = np.eye(r, dtype=np.int64)
    probes = np.array([*eye] + [eye[a] + eye[b] for a in range(r) for b in range(a + 1, r)])
    rows = max(1, CHUNK // r, matrices._BLOCK // r ** 3)
    for start in range(0, len(probes), rows):
        A = mat_mul(probes[start:start + rows], ad).reshape(-1, r, r)
        T = mat_mul(A.transpose(0, 2, 1)[:, None], plus(A, 1))
        bad = np.argwhere(lincomb([(1, plus(mat_mul(A, A), -1)), (-1, T)]).any(axis=1))
        if bad.size:
            p, b, d = (int(v) for v in bad[0])
            return fail("maltsev", witness=(start + p, b, d),
                        detail="witness is (probe index, y basis, z basis)")
    return ok("maltsev")


@dataclass(frozen=True)
class YamagutiTensor:
    """d^p_jkl with 6 d^p_jkl = c^p_js c^s_kl - c^p_ks c^s_jl + c^p_sl c^s_jk;
    antisymmetric in (j, k)."""

    dim: int
    entries: Dict[Tuple[int, int, int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {k: Fraction(v) for k, v in self.entries.items() if v}
        for (p, j, k, l), v in clean.items():
            if clean.get((p, k, j, l), Fraction(0)) != -v:
                raise InputError(f"Yamaguti tensor not antisymmetric at {(p, j, k, l)}")
        object.__setattr__(self, "entries", clean)

    def d(self, p, j, k, l):
        return self.entries.get((p, j, k, l), Fraction(0))


def yamaguti_constants(c: StructureTensor) -> YamagutiTensor:
    """Exact evaluation of the defining contraction for d^p_jkl, made once per
    tensor and kept on it."""
    if c._yamaguti is None:
        object.__setattr__(c, "_yamaguti", _contract_yamaguti(c))
    return c._yamaguti


def integer_constants(c: StructureTensor):
    """(D c, D d, D): the structure constants c[i, j, k] and the Yamaguti
    constants d[p, j, k, l] as integer arrays at one denominator, D = 6 den^2
    with den that of c, at the table's dtype (`birep.bracket_rows`); made once
    per tensor and kept on it.  D d is the defining contraction over den c."""
    if c._integer is None:
        C, den = scaled((c.dim,) * 3, c.entries.items())
        # T[p, j, k, l] = c^p_js c^s_kl, and c^p_sl c^s_jk = -T[p, l, j, k] by antisymmetry
        T = mat_mul(C.reshape(-1, c.dim), C.reshape(c.dim, -1)).reshape((c.dim,) * 4)
        total = lincomb([(1, T), (-1, T.transpose(0, 2, 1, 3)), (-1, T.transpose(0, 2, 3, 1))])
        C, D = lincomb([(6 * den, C)]), 6 * den * den
        if not matrices.fits_int64(6 * D, 6 * magnitude(C), 6 * magnitude(total)):
            C, total = C.astype(object), total.astype(object)
        object.__setattr__(c, "_integer", (C, total, D))
    return c._integer


def _contract_yamaguti(c: StructureTensor) -> YamagutiTensor:
    """d from its integer array (`integer_constants`)."""
    _, total, six = integer_constants(c)
    return YamagutiTensor(c.dim, {tuple(int(i) for i in key): Fraction(int(total[tuple(key)]), six)
                                  for key in np.argwhere(total)})


# one sign per doubling of the reals
QUATERNIONS = (-1, -1)
OCTONIONS = (-1, -1, -1)


def cayley_dickson(signs) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Signed unit table of the algebra doubled from the reals once per sign
    gamma, (a, b)(c, d) = (ac + gamma d*b, da + b c*) with x* the conjugate:
    table[a][b] = (index, sign) means e_a e_b = sign e_index.

    Doubling a k-dimensional algebra gives the basis
    (e_0, .., e_{k-1}, (0, e_0), .., (0, e_{k-1})), so e_0 is the unit and
    e_a* = -e_a for every a > 0."""
    table = [[(0, 1)]]
    for gamma in signs:
        k = len(table)
        bar = [1] + [-1] * (k - 1)
        new = [[None] * (2 * k) for _ in range(2 * k)]
        for a in range(k):
            for b in range(k):
                p, s = table[a][b]
                q, t = table[b][a]
                new[a][b] = (p, s)                             # (e_a e_b, 0)
                new[a][k + b] = (k + q, t)                     # (0, e_b e_a)
                new[k + a][b] = (k + p, bar[b] * s)            # (0, e_a e_b*)
                new[k + a][k + b] = (q, gamma * bar[b] * t)    # (gamma e_b* e_a, 0)
        table = new
    return tuple(tuple(row) for row in table)


def commutator_tensor(table) -> StructureTensor:
    """c^i_jk = the e_i coefficient of e_j e_k - e_k e_j, over the units
    e_1..e_{n-1} of a signed unit table (tensor index i is e_{i+1})."""
    def coeff(i, product):
        return product[1] if product[0] == i else 0

    r = range(1, len(table))
    return StructureTensor(len(table) - 1, {
        (i - 1, j - 1, k - 1): coeff(i, table[j][k]) - coeff(i, table[k][j])
        for i in r for j in r for k in r})


_ABELIAN_RE = re.compile(r"^abelian\((\d+)\)$")


def catalog_algebra(name: str) -> StructureTensor:
    """Built-in exact tensors: abelian(r), su2, sl2, m7."""
    m = _ABELIAN_RE.match(name)
    if m:
        r = int(m.group(1))
        if r <= 0:
            raise InputError("abelian(r) needs r >= 1")
        return StructureTensor(r, {})
    if name == "su2":
        eps = {}
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[(i, j, k)] = Fraction(1)
            eps[(i, k, j)] = Fraction(-1)
        return StructureTensor(3, eps)
    if name == "sl2":
        # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h
        ent = {}

        def put(i, j, k, v):
            ent[(i, j, k)] = Fraction(v)
            ent[(i, k, j)] = Fraction(-v)

        put(1, 0, 1, 2)
        put(2, 0, 2, -2)
        put(0, 1, 2, 1)
        return StructureTensor(3, ent)
    if name == "m7":
        return commutator_tensor(cayley_dickson(OCTONIONS))
    raise InputError(f"unknown catalog algebra {name!r}")


def load_tensor(path) -> StructureTensor:
    return StructureTensor.from_json_dict(read_json(path, "structure tensor"))
