"""Birepresentations of finite Moufang loops and generator sets satisfying
the generalized Lie-Cartan commutation relations.

Matrices are dense lists of Fractions; every check is exact, an integer
contraction over their common denominator (`matrices`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .algebra import (OCTONIONS, QUATERNIONS, StructureTensor, cayley_dickson,
                      yamaguti_constants)
from .loops import CayleyTable, is_moufang
from .matrices import commutator, contract, first_failure_chunked, lincomb, mat_mul, scaled, stacked
from .report import CheckReport, InputError, fail, is_int


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
        if len(self.S) != self.r or len(self.T) != self.r:
            raise InputError("generator lists must both have length r")
        for m in list(self.S) + list(self.T):
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise InputError("generator matrix has wrong shape")

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
                for entry in row:
                    if not (isinstance(entry, list) and len(entry) == 2
                            and all(is_int(v) for v in entry) and entry[1] > 0):
                        raise InputError(f"bad generator entry {entry!r}: need "
                                         "[num, den] integers with den > 0")
                out.append([Fraction(num, den) for num, den in row])
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
    return st[:n], st[n:], den, np.array(b.loop.table)


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


def lr_generators(table) -> GeneratorSet:
    """S_j = left and T_j = right multiplication by e_j, j = 1..k-1, on the
    span of the k units of a signed unit table (see `algebra.cayley_dickson`);
    column B holds the coordinates of e_j e_B (of e_B e_j for T_j)."""
    k = len(table)

    def mult(j, left):
        M = [[Fraction(0)] * k for _ in range(k)]
        for B in range(k):
            idx, sign = table[j][B] if left else table[B][j]
            M[idx][B] = Fraction(sign)
        return M

    units = range(1, k)
    return GeneratorSet(k - 1, k, [mult(j, True) for j in units], [mult(j, False) for j in units])


def octonion_lr_generators() -> GeneratorSet:
    """L/R multiplication matrices of the imaginary octonion units (r=7, dim=8)."""
    return lr_generators(cayley_dickson(OCTONIONS))


def quaternion_lr_generators() -> GeneratorSet:
    """L/R multiplication matrices of the quaternion units (r=3, dim=4)."""
    return lr_generators(cayley_dickson(QUATERNIONS))


Label = Tuple  # ("S", j) | ("T", j) | ("Y", j, k), j and k in either order
Vec = Dict[Label, Fraction]

# [A_j, B_k] = y Y_jk + c^p_jk (s S_p + t T_p): (y, s, t) for each pair A, B
_ST_TABLE = {("S", "S"): (2, Fraction(1, 3), Fraction(2, 3)),
             ("T", "T"): (2, Fraction(-2, 3), Fraction(-1, 3)),
             ("S", "T"): (-1, Fraction(1, 3), Fraction(-1, 3))}


def vec_add(acc: Vec, label, coeff):
    """acc[label] += coeff, keeping no zero coefficient."""
    if not coeff:
        return
    new = acc.get(label, Fraction(0)) + coeff
    if new:
        acc[label] = new
    else:
        acc.pop(label, None)


def glc_bracket(c: StructureTensor, d, a: Label, b: Label) -> Vec:
    """[a, b] in the generalized Lie-Cartan table, as {label: coefficient}.

    The right side keeps every Y_jk in the (j, k) order the table writes, j == k
    included; each realization decides what Y_kj and Y_jj mean.  The Yamaguti
    tensor d is read only when a or b is a Y."""
    if (a[0], b[0]) == ("T", "S") or (a[0] != "Y" and b[0] == "Y"):
        return {lbl: -v for lbl, v in glc_bracket(c, d, b, a).items()}
    out: Vec = {}
    if a[0] != "Y":
        (ta, j), (tb, k) = a, b
        y, cs, ct = _ST_TABLE[(ta, tb)]
        out[("Y", j, k)] = Fraction(y)
        for p in range(c.dim):
            vec_add(out, ("S", p), cs * c.c(p, j, k))
            vec_add(out, ("T", p), ct * c.c(p, j, k))
    elif b[0] != "Y":  # [Y_jk, S_n] = d^p_jkn S_p, and the same for T
        for p in range(c.dim):
            vec_add(out, (b[0], p), d.d(p, a[1], a[2], b[1]))
    else:  # [Y_jk, Y_ln] = d^p_jkl Y_pn + d^p_jkn Y_lp
        (_, j, k), (_, l, n) = a, b
        for p in range(c.dim):
            vec_add(out, ("Y", p, n), d.d(p, j, k, l))
            vec_add(out, ("Y", l, p), d.d(p, j, k, n))
    return out


def _signed(lbl):
    """(sign, stored label) of a table label, reading Y_kj as -Y_jk; None for
    Y_jj, which is zero."""
    if lbl[0] != "Y" or lbl[1] < lbl[2]:
        return 1, lbl
    return (-1, ("Y", lbl[2], lbl[1])) if lbl[1] > lbl[2] else None


def y_cyclic(c: StructureTensor, j, k, l) -> Vec:
    """c^p_jk Y_pl + c^p_kl Y_pj + c^p_lj Y_pk, which vanishes in every realization."""
    out: Vec = {}
    for p in range(c.dim):
        for (a, b, e) in ((j, k, l), (k, l, j), (l, j, k)):
            vec_add(out, ("Y", p, e), c.c(p, a, b))
    return out


def extract_yamagutian(S, T, bracket, lincomb, c: StructureTensor, j, k):
    """Y_jk solved from the [S_j, T_k] row of the table, for operators S[p],
    T[p] whose realized bracket is bracket(A, B); lincomb sums (q, operator)
    pairs."""
    row = glc_bracket(c, None, ("S", j), ("T", k))
    q = row.pop(("Y", j, k))
    ops = {"S": S, "T": T}
    return lincomb([(1 / q, bracket(S[j], T[k]))]
                   + [(-v / q, ops[lbl[0]][lbl[1]]) for lbl, v in row.items()])


def _realize(rows, index, ops):
    """(K rows @ ops, K) for rows {label: rational} over ops[index[label]], K their denominator."""
    coeffs, K = scaled((len(rows), len(index)), (((n, index[lbl]), v) for n, row in enumerate(rows)
                                                 for lbl, v in row.items()))
    return contract("nt,tij->nij", coeffs, ops), K


def _labelled_operators(gen: GeneratorSet, c: StructureTensor):
    """(E ops, E, index): S_j, T_j and each ordered Y_jk, its own extraction, at
    one integer scale E.  `extract_yamagutian` on indices gives Y_jk =
    a [S_j, T_k] + sum_p b_p X_p; with D X integer and L the a and b's
    denominator, E = D^2 L."""
    r = gen.r
    index = {**{("S", j): j for j in range(r)}, **{("T", j): r + j for j in range(r)},
             **{("Y", j, k): 2 * r + j * r + k for j in range(r) for k in range(r)}}
    st, den = stacked(list(gen.S) + list(gen.T), gen.dim)
    pairs = [(j, k) for j in range(r) for k in range(r)]
    columns = [(j, r + k) for j, k in pairs] + list(range(2 * r))
    j, k = np.array(pairs).T
    recipes = [extract_yamagutian(range(r), range(r, 2 * r), lambda a, b: (a, b), list, c, *pair)
               for pair in pairs]
    Y, L = _realize([{op: v for v, op in recipe} for recipe in recipes],
                    {col: t for t, col in enumerate(columns)},
                    np.concatenate([commutator(st[j], st[r + k]), lincomb([(den, st)])]))
    return np.concatenate([lincomb([(den * L, st)]), Y]), den * den * L, index


def extract_yamagutians(gen: GeneratorSet, c: StructureTensor) -> Dict[tuple, list]:
    """Y_jk for every ordered pair (j, k), each solved from its own [S_j, T_k]
    relation: Y_jk = -[S_j, T_k] + (1/3) c^p_jk (S_p - T_p)."""
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    ops, scale, index = _labelled_operators(gen, c)
    return {lbl[1:]: [[Fraction(int(v), scale) for v in row] for row in ops[i]]
            for lbl, i in index.items() if lbl[0] == "Y"}


def matrix_fails(gen: GeneratorSet, c: StructureTensor, rhs):
    """fails(cases) for `matrices.first_failure_chunked` on the generators and
    extracted Y_jk: True for a pair (a, b) whose commutator is not rhs(a, b)
    and for a relation, decided as the pair (X, X), that is not zero.  A pair
    holds when K [E a, E b] = E (K rhs)(E ops), K the chunk's denominator."""
    ops, scale, index = _labelled_operators(gen, c)

    def fails(cases):
        a, b = np.array([(index[case[0]], index[case[1]]) if len(case) == 2 else (0, 0)
                         for case in cases]).T
        sides, K = _realize([rhs(*case) if len(case) == 2 else case[0] for case in cases],
                            index, ops)
        lhs = lincomb([(K, commutator(ops[a], ops[b]))])
        return (lhs != lincomb([(scale, sides)])).any(axis=(1, 2))
    return fails


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
    [S_j, T_k] relation."""
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    d = yamaguti_constants(c)
    fails = matrix_fails(gen, c, lambda a, b: glc_bracket(c, d, a, b))
    r = range(gen.r)
    cases = {
        "ss": (((j, k), ("S", j), ("S", k)) for j in r for k in r),
        "tt": (((j, k), ("T", j), ("T", k)) for j in r for k in r),
        "y_antisymmetry": (((j, k), {("Y", j, k): 1, ("Y", k, j): 1})
                           for j in r for k in r if j <= k),
        "y_cyclic": (((j, k, l), y_cyclic(c, j, k, l))
                     for j in r for k in r for l in r if j < k < l),
        "reductivity_s": ((("S", j, k, n), ("Y", j, k), ("S", n))
                          for j in r for k in r for n in r),
        "reductivity_t": ((("T", j, k, n), ("Y", j, k), ("T", n))
                          for j in r for k in r for n in r),
        "yy": (((j, k, l, n), ("Y", j, k), ("Y", l, n))
               for j in r for k in r for l in r for n in r if j < k and l < n),
    }
    return GLCReport({name: first_failure_chunked(name, scan, fails)
                      for name, scan in cases.items()})


def load_generators(path) -> GeneratorSet:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read generator set from {path}: {exc}") from exc
    return GeneratorSet.from_json_dict(data)
