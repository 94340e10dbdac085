"""Birepresentations of finite Moufang loops and generator sets satisfying
the generalized Lie-Cartan commutation relations.

Matrices are dense lists of exact rationals; every check is exact, an
integer contraction over their common denominator (`matrices`).

The generalized Lie-Cartan table is written once, in `bracket_rows`, with
its cyclic relations in `cyclic_rows`: integer rows over the label index
(`labels`: S_j, T_j, then every ordered Y_jk) at one denominator, as
(row, label, value) triples (`matrices.Rows`) gathered from the nonzeros of
the tensor's integer c and d (`algebra.integer_constants`).  `check_glc`,
the envelope and the density and charge checks read each family's rows once;
`check_glc` and `realize_check` decide each commutator family as block
products of the label operators (`commutator_scan`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from . import matrices
from .algebra import OCTONIONS, QUATERNIONS, StructureTensor, cayley_dickson, integer_constants
from .loops import CayleyTable, is_moufang
from .matrices import (Rows, _times, commutator, first_failure_chunked, lincomb, mat_mul,
                       rows_times, stacked)
from .report import CheckReport, InputError, fail, is_int, ok, read_json


@dataclass(frozen=True)
class LoopBirep:
    loop: CayleyTable
    S: Dict[int, list]
    T: Dict[int, list]


@dataclass(frozen=True)
class GeneratorSet:
    """Matrix tuples (S_j, T_j), j = 1..r: the differential of a birep."""

    r: int
    dim: int
    S: List[list]
    T: List[list]

    def __post_init__(self):
        if self.r < 1 or self.dim < 1:
            raise InputError("a generator set needs positive r and dim")
        if len(self.S) != self.r or len(self.T) != self.r:
            raise InputError("generator lists must both have length r")
        for m in list(self.S) + list(self.T):
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise InputError("generator matrix has wrong shape")

    @functools.cached_property
    def integer(self):
        """(D [S; T], D) over their denominator D (`matrices.stacked`), made once."""
        return stacked(list(self.S) + list(self.T), self.dim)

    def to_json_dict(self):
        def enc(m):
            return [[[Fraction(x).numerator, Fraction(x).denominator] for x in row] for row in m]

        return {"r": self.r, "dim": self.dim,
                "S": [enc(m) for m in self.S], "T": [enc(m) for m in self.T]}

    @staticmethod
    def from_json_dict(data) -> "GeneratorSet":
        if not isinstance(data, dict) or not {"r", "dim", "S", "T"} <= set(data):
            raise InputError("generator set JSON needs 'r', 'dim', 'S' and 'T'")
        if not (is_int(data["r"]) and is_int(data["dim"])
                and isinstance(data["S"], list) and isinstance(data["T"], list)):
            raise InputError("'r' and 'dim' must be integers, 'S' and 'T' lists of matrices")

        def dec(m):
            if not (isinstance(m, list) and all(isinstance(row, list) for row in m)):
                raise InputError("a generator matrix must be a list of rows")
            out = []
            for row in m:
                bad = [e for e in row if type(e) is not list or len(e) != 2    # type(True) is bool
                       or type(e[0]) is not int or type(e[1]) is not int or e[1] <= 0]
                if bad:
                    raise InputError(f"bad generator entry {bad[0]!r}: need "
                                     "[num, den] integers with den > 0")
                out.append([num if den == 1 else Fraction(num, den) for num, den in row])
            return out

        return GeneratorSet(data["r"], data["dim"],
                            [dec(m) for m in data["S"]], [dec(m) for m in data["T"]])


def _loop_arrays(b: LoopBirep):
    """(D S, D T, D, mul): S and T stacked over their denominator D, mul[g, h] = gh."""
    n, size = b.loop.order, len(b.S[0])
    if any(len(m) != size or any(len(row) != size for row in m)
           for g in range(n) for m in (b.S[g], b.T[g])):
        raise InputError("birep matrices must be square of equal size")
    st, den = stacked([b.S[g] for g in range(n)] + [b.T[g] for g in range(n)], size)
    return st[:n], st[n:], den, b.loop.array


def _loop_check(prop, n, identities):
    """Walk the cases (name, g, h), g and h below n and then the names;
    identities[name](g, h) gives the two sides at index arrays g, h."""
    def fails(cases):
        out = np.zeros(len(cases), dtype=bool)
        for name, sides in identities.items():
            rows = [i for i, case in enumerate(cases) if case[0] == name]
            if rows:
                lhs, rhs = sides(*np.array([cases[i][1:] for i in rows]).T)
                out[rows] = (lhs != rhs).any(axis=(1, 2))
        return out
    return first_failure_chunked(prop, (((name, g, h), name, g, h) for g in range(n)
                                        for h in range(n) for name in identities), fails)


def check_birep(b: LoopBirep) -> CheckReport:
    """S_e = T_e = 1, T_g S_g S_h = S_{gh} T_g, S_g T_g T_h = T_{hg} S_g, the
    products compared at D^3."""
    S, T, D, mul = _loop_arrays(b)
    one = lincomb([(D, np.eye(S.shape[1], dtype=np.int64))])
    for name, unit in (("S_e", S[0]), ("T_e", T[0])):
        if (unit != one).any():
            return fail("birep", witness=(name, 0))
    return _loop_check("birep", b.loop.order, {
        "TSS": lambda g, h: (mat_mul(mat_mul(T[g], S[g]), S[h]),
                             lincomb([(D, mat_mul(S[mul[g, h]], T[g]))])),
        "STT": lambda g, h: (mat_mul(mat_mul(S[g], T[g]), T[h]),
                             lincomb([(D, mat_mul(T[mul[h, g]], S[g]))]))})


def check_associative_birep(b: LoopBirep) -> CheckReport:
    """S_g S_h = S_{gh}, T_g T_h = T_{hg}, S_g T_h = T_h S_g."""
    S, T, D, mul = _loop_arrays(b)
    return _loop_check("associative-birep", b.loop.order, {
        "SS": lambda g, h: (mat_mul(S[g], S[h]), lincomb([(D, S[mul[g, h]])])),
        "TT": lambda g, h: (mat_mul(T[g], T[h]), lincomb([(D, T[mul[h, g]])])),
        "ST": lambda g, h: (mat_mul(S[g], T[h]), mat_mul(T[h], S[g]))})


def regular_birep(t: CayleyTable) -> LoopBirep:
    """S_g, T_g = permutation matrices of left and right translation."""
    if not is_moufang(t).passed:
        raise InputError("regular_birep needs a Moufang loop")
    n = t.order

    def permutation(image):    # column x holds e_{image(x)}
        return [[Fraction(int(image(x) == y)) for x in range(n)] for y in range(n)]
    return LoopBirep(t, {g: permutation(lambda x: t.mul(g, x)) for g in range(n)},
                     {g: permutation(lambda x: t.mul(x, g)) for g in range(n)})


def lr_generators(A) -> GeneratorSet:
    """S_j = left and T_j = right multiplication by e_j, j = 1..k-1, on the
    span of the k units of a multiplication tensor A (see
    `algebra.cayley_dickson`): column B holds the coordinates of e_j e_B
    (of e_B e_j for T_j), so S_j = A[j]^T and T_j = A[:, j]^T."""
    value = {v: Fraction(v) for v in np.unique(A).tolist()}

    def fractions(M):
        return [[value[v] for v in row] for row in M.tolist()]

    units = range(1, len(A))
    return GeneratorSet(len(A) - 1, len(A), [fractions(A[j].T) for j in units],
                        [fractions(A[:, j].T) for j in units])


def octonion_lr_generators() -> GeneratorSet:
    """L/R multiplication matrices of the imaginary octonion units (r=7, dim=8)."""
    return lr_generators(cayley_dickson(OCTONIONS))


def quaternion_lr_generators() -> GeneratorSet:
    """L/R multiplication matrices of the quaternion units (r=3, dim=4)."""
    return lr_generators(cayley_dickson(QUATERNIONS))


Label = Tuple  # ("S", j) | ("T", j) | ("Y", j, k), j and k in either order
Vec = Dict[Label, Fraction]


def labels(r) -> List[Label]:
    """The label index: S_j, then T_j, then every ordered Y_jk, j, k below r."""
    return ([("S", j) for j in range(r)] + [("T", j) for j in range(r)]
            + [("Y", j, k) for j in range(r) for k in range(r)])


# [A_j, B_k] = y Y_jk + c^p_jk (s S_p + t T_p), in thirds: 3 (y, s, t) at
# [kind of A, kind of B], S = 0 and T = 1; [T_j, S_k] is read as -[S_k, T_j]
_ST_THIRDS = np.array([[(6, 1, 2), (-3, 1, -1)], [(0, 0, 0), (6, -2, -1)]])


def _gather(T, *idx):
    """(i, p, T[p, idx_i]) at the nonzeros of T[:, idx_i], i in order, in slices of _BLOCK."""
    step, out = max(1, matrices._BLOCK // len(T)), []
    for lo in range(0, max(len(idx[0]), 1), step):
        i, p = np.nonzero(V := T[(slice(None), *(x[lo:lo + step] for x in idx))].T)
        out.append((lo + i, p, V[i, p]))
    return (np.concatenate(x) for x in zip(*out))


def bracket_rows(c: StructureTensor, a, b):
    """(R, 3D): the table rows [a_n, b_n] for label index arrays a and b as
    `matrices.Rows` over the label index, R[n, w] / 3D the coefficient of
    label w, D that of the tensor's D c and D d (`algebra.integer_constants`):

        [S_j, S_k] = 2 Y_jk + c^p_jk ((1/3) S_p + (2/3) T_p)
        [T_j, T_k] = 2 Y_jk - c^p_jk ((2/3) S_p + (1/3) T_p)
        [S_j, T_k] = -Y_jk + (1/3) c^p_jk (S_p - T_p)
        [Y_jk, S_n] = d^p_jkn S_p,  [Y_jk, T_n] = d^p_jkn T_p
        [Y_jk, Y_ln] = d^p_jkl Y_pn + d^p_jkn Y_lp

    and the rest by antisymmetry (at Y_ln both terms sum).  Every Y_jk keeps
    the (j, k) order written here, j == k included; each realization decides
    what Y_kj and Y_jj mean (`_signed`).  6 max(D, |D c|, |D d|) bounds an
    entry: int64 below 2^62, as D c and D d are, else Python ints."""
    C, Dd, D = integer_constants(c)
    r = c.dim
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    ka, kb = np.minimum(a // r, 2), np.minimum(b // r, 2)
    swap = ((ka == 1) & (kb == 0)) | ((ka < 2) & (kb == 2))
    a, b, ka, kb = (np.where(swap, v, u) for u, v in ((a, b), (b, a), (ka, kb), (kb, ka)))
    sign = np.where(swap, -1, 1).astype(C.dtype)
    st = np.flatnonzero(kb < 2)
    yx = st[ka[st] == 2]            # [Y_jk, S_n or T_n]
    st = st[ka[st] < 2]             # [S_j or T_j, S_k or T_k]
    j, k = a[st] - r * ka[st], b[st] - r * kb[st]
    y, s, t = (sign[st] * v for v in _ST_THIRDS[ka[st], kb[st]].T)
    i, p, v = _gather(C, j, k)
    terms = [(st, 2 * r + j * r + k, y * D), (st[i], p, s[i] * v), (st[i], r + p, t[i] * v)]
    j, k = divmod(a[yx] - 2 * r, r)
    i, p, v = _gather(Dd, j, k, b[yx] - r * kb[yx])
    terms.append((yx[i], r * kb[yx[i]] + p, 3 * sign[yx[i]] * v))
    yy = np.flatnonzero(kb == 2)    # [Y_jk, Y_ln]
    (j, k), (l, n) = divmod(a[yy] - 2 * r, r), divmod(b[yy] - 2 * r, r)
    i, p, v = _gather(Dd, j, k, l)
    terms.append((yy[i], 2 * r + p * r + n[i], 3 * v))
    i, p, v = _gather(Dd, j, k, n)
    terms.append((yy[i], 2 * r + l[i] * r + p, 3 * v))
    return Rows.summed(len(a), 2 * r + r * r, terms), 3 * D


def cyclic_rows(c: StructureTensor, j, k, l):
    """(R, D): the rows c^p_jk Y_pl + c^p_kl Y_pj + c^p_lj Y_pk, which vanish
    in every realization, for index arrays j, k and l (see `bracket_rows`)."""
    (C, _, D), r, terms = integer_constants(c), c.dim, []
    for u, v, e in ((j, k, l), (k, l, j), (l, j, k)):
        i, p, val = _gather(C, u, v)
        terms.append((i, 2 * r + p * r + np.asarray(e)[i], val))
    return Rows.summed(len(j), 2 * r + r * r, terms), D


def _signed(lbl):
    """(sign, stored label) of a table label, reading Y_kj as -Y_jk; None for
    Y_jj, which is zero."""
    if lbl[0] != "Y" or lbl[1] < lbl[2]:
        return 1, lbl
    return (-1, ("Y", lbl[2], lbl[1])) if lbl[1] > lbl[2] else None


def _labelled_operators(gen: GeneratorSet, c: StructureTensor, pairs=None):
    """(E ops, E): S_j, T_j and Y_jk for each (j, k) of `pairs` (by default
    every ordered pair, so that ops is over the label index), at one integer
    scale E.  Y_jk is solved from its [S_j, T_k] row, which is
    -Y_jk + (R_S S + R_T T) / D at the table's D (`bracket_rows`); with den X
    integer, E = den^2 D and E Y_jk = den (R_S, R_T) (den X) - D [den S_j, den T_k]."""
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    (st, den), r = gen.integer, gen.r
    j, k = (np.divmod(np.arange(r * r), r) if pairs is None
            else np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
    R, D = bracket_rows(c, j, r + k)
    Y = lincomb([(den, rows_times(Rows(*(x[R.t < 2 * r] for x in R[:3]), R.size), st)),
                 (-D, commutator(st[j], st[r + k]))])
    return np.concatenate([lincomb([(den * D, st)]), Y]), den * den * D


def extract_yamagutians(gen: GeneratorSet, c: StructureTensor) -> Dict[tuple, list]:
    """Y_jk for every ordered pair (j, k), each solved from its own [S_j, T_k]
    relation: Y_jk = -[S_j, T_k] + (1/3) c^p_jk (S_p - T_p); zero entries are 0."""
    ops, scale = _labelled_operators(gen, c)
    return {lbl[1:]: [[Fraction(int(v), scale) if v else 0 for v in row] for row in ops[w]]
            for w, lbl in enumerate(labels(gen.r)) if lbl[0] == "Y"}


def commutator_scan(prop, ops, scale, A, B, R, K, witness):
    """Decide K [X_a, X_b] = R X for a in A and b in B, A-major: X the integer
    operator stack `ops` over `scale` (`_labelled_operators`), A and B index
    arrays into it, R the `matrices.Rows` of all the pairs at K; fail with
    witness(i, j) of the first failing pair (A[i], B[j]).  A block of A rows
    forms X_a X_b and X_b X_a against all of B (its side made once) as 2-D
    products, with as many A rows (one at least) as keep every dense array
    within `matrices._BLOCK` entries."""
    n, p, right = ops.shape[1], len(B), ops[B]
    after = _times(right.transpose(1, 0, 2).reshape(n, p * n))       # X_a X_b
    before = _times(right.reshape(p * n, n), left=True)               # X_b X_a
    step = max(1, matrices._BLOCK // max(p * n * n, 1))    # B may be empty
    for lo in range(0, len(A), step):
        left = ops[A[lo:lo + step]]
        m = len(left)
        # [X_a, X_b] at [a, b], in place: both products have one bound, so one
        # dtype, and in int64 (the bound below 2^62) their difference fits
        comm = after(left.reshape(m * n, n)).reshape(m, n, p, n).transpose(0, 2, 1, 3)
        comm -= before(left.transpose(1, 0, 2).reshape(n, m * n)).reshape(
            p, n, m, n).transpose(2, 0, 1, 3)
        rhs = lincomb([(scale, rows_times(R.block(lo * p, (lo + m) * p), ops))]).reshape(
            m, p, n, n)
        bad = np.flatnonzero((lincomb([(K, comm)]) != rhs).any(axis=(2, 3)))
        if bad.size:
            return fail(prop, witness=witness(*divmod(lo * p + int(bad[0]), p)))
    return ok(prop)


@dataclass(frozen=True)
class GLCReport:
    families: Dict[str, CheckReport]

    @property
    def passed(self):
        return all(rep.passed for rep in self.families.values())

    def to_dict(self):
        return {name: rep.to_dict() for name, rep in self.families.items()}


def check_glc(gen: GeneratorSet, c: StructureTensor) -> GLCReport:
    """Exact verification of the generalized Lie-Cartan relations for a
    generator set against a structure tensor, with Y_jk extracted from the
    [S_j, T_k] relation.  A pair's right side is its `bracket_rows` row; each
    commutator family is a product of label sets (`commutator_scan`), and the
    two relations without a commutator, R X = 0, are decided CHUNK cases at a
    time."""
    ops, scale = _labelled_operators(gen, c)
    n = gen.r
    r, eye = range(n), np.eye(len(ops), dtype=np.int64)
    S, T, Y = np.arange(n), n + np.arange(n), 2 * n + np.arange(n * n)
    upper = [(j, k) for j in r for k in r if j < k]
    Yu = Y[[j * n + k for j, k in upper]]

    def table(prop, A, B, witness):
        return commutator_scan(prop, ops, scale, A, B,
                               *bracket_rows(c, np.repeat(A, len(B)), np.tile(B, len(A))), witness)

    def zero(prop, cases, rows):
        return first_failure_chunked(prop, cases, lambda chunk: rows_times(
            rows(*np.array(chunk).T), ops).any(axis=(1, 2)))

    def units(j, k):    # the rows Y_jk + Y_kj
        return eye[Y[j * n + k]] + eye[Y[k * n + j]]

    return GLCReport({
        "ss": table("ss", S, S, lambda j, k: (j, k)),
        "tt": table("tt", T, T, lambda j, k: (j, k)),
        "y_antisymmetry": zero("y_antisymmetry",
                               (((j, k), j, k) for j in r for k in r if j <= k), units),
        "y_cyclic": zero("y_cyclic", (((j, k, l), j, k, l)
                                      for j in r for k in r for l in r if j < k < l),
                         lambda j, k, l: cyclic_rows(c, j, k, l)[0]),
        "reductivity_s": table("reductivity_s", Y, S, lambda y, m: ("S", *divmod(y, n), m)),
        "reductivity_t": table("reductivity_t", Y, T, lambda y, m: ("T", *divmod(y, n), m)),
        "yy": table("yy", Yu, Yu, lambda u, v: upper[u] + upper[v]),
    })


def load_generators(path) -> GeneratorSet:
    return GeneratorSet.from_json_dict(read_json(path, "generator set"))
