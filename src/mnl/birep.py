"""Birepresentations of finite Moufang loops and generator sets satisfying
the generalized Lie-Cartan commutation relations.

Matrices are dense lists of Fractions; every check is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import (OCTONIONS, QUATERNIONS, StructureTensor, cayley_dickson,
                      yamaguti_constants)
from .loops import CayleyTable, is_moufang
from .matrices import commutator, eye, mat_eq, mat_lincomb, mat_mul, mat_is_zero, zeros
from .report import CheckReport, InputError, fail, first_failure, is_int, ok


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


def check_birep(b: LoopBirep) -> CheckReport:
    """S_e = T_e = 1, T_g S_g S_h = S_{gh} T_g, S_g T_g T_h = T_{hg} S_g."""
    n = b.loop.order
    size = len(b.S[0])
    for g in range(n):
        for m in (b.S[g], b.T[g]):
            if len(m) != size or any(len(row) != size for row in m):
                raise InputError("birep matrices must be square of equal size")
    ident = eye(size)
    if not mat_eq(b.S[0], ident):
        return fail("birep", witness=("S_e", 0))
    if not mat_eq(b.T[0], ident):
        return fail("birep", witness=("T_e", 0))
    for g in range(n):
        TgSg = mat_mul(b.T[g], b.S[g])
        SgTg = mat_mul(b.S[g], b.T[g])
        for h in range(n):
            if not mat_eq(mat_mul(TgSg, b.S[h]), mat_mul(b.S[b.loop.mul(g, h)], b.T[g])):
                return fail("birep", witness=("TSS", g, h))
            if not mat_eq(mat_mul(SgTg, b.T[h]), mat_mul(b.T[b.loop.mul(h, g)], b.S[g])):
                return fail("birep", witness=("STT", g, h))
    return ok("birep")


def check_associative_birep(b: LoopBirep) -> CheckReport:
    """S_g S_h = S_{gh}, T_g T_h = T_{hg}, S_g T_h = T_h S_g."""
    n = b.loop.order
    for g in range(n):
        for h in range(n):
            if not mat_eq(mat_mul(b.S[g], b.S[h]), b.S[b.loop.mul(g, h)]):
                return fail("associative-birep", witness=("SS", g, h))
            if not mat_eq(mat_mul(b.T[g], b.T[h]), b.T[b.loop.mul(h, g)]):
                return fail("associative-birep", witness=("TT", g, h))
            if not mat_eq(mat_mul(b.S[g], b.T[h]), mat_mul(b.T[h], b.S[g])):
                return fail("associative-birep", witness=("ST", g, h))
    return ok("associative-birep")


def regular_birep(t: CayleyTable) -> LoopBirep:
    """S_g, T_g = permutation matrices of left and right translation."""
    if not is_moufang(t).passed:
        raise InputError("regular_birep needs a Moufang loop")
    n = t.order
    S, T = {}, {}
    for g in range(n):
        sg = zeros(n)
        tg = zeros(n)
        for x in range(n):
            sg[t.mul(g, x)][x] = Fraction(1)
            tg[t.mul(x, g)][x] = Fraction(1)
        S[g] = sg
        T[g] = tg
    return LoopBirep(t, S, T)


def lr_generators(table) -> GeneratorSet:
    """S_j = left and T_j = right multiplication by e_j, j = 1..k-1, on the
    span of the k units of a signed unit table (see `algebra.cayley_dickson`);
    column B holds the coordinates of e_j e_B (of e_B e_j for T_j)."""
    k = len(table)

    def mult(j, left):
        M = zeros(k)
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


def extract_yamagutians(gen: GeneratorSet, c: StructureTensor) -> Dict[tuple, list]:
    """Y_jk for every ordered pair (j, k), each solved from its own [S_j, T_k]
    relation: Y_jk = -[S_j, T_k] + (1/3) c^p_jk (S_p - T_p)."""
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    return {(j, k): extract_yamagutian(gen.S, gen.T, commutator, mat_lincomb, c, j, k)
            for j in range(gen.r) for k in range(gen.r)}


def matrix_holds(gen: GeneratorSet, c: StructureTensor, rhs):
    """The test of one case on the generator matrices, with S_j, T_j the
    generators and every ordered Y_jk its own extraction: a pair (a, b) holds
    when [a, b] equals rhs(a, b), a relation when it sums to zero."""
    Y = extract_yamagutians(gen, c)

    def op(lbl):
        return Y[lbl[1:]] if lbl[0] == "Y" else (gen.S if lbl[0] == "S" else gen.T)[lbl[1]]

    def realize(vec):
        return mat_lincomb([(v, op(lbl)) for lbl, v in vec.items()]) if vec else zeros(gen.dim)

    def holds(a, b=None):
        if b is None:
            return mat_is_zero(realize(a))
        return mat_eq(commutator(op(a), op(b)), realize(rhs(a, b)))
    return holds


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
    holds = matrix_holds(gen, c, lambda a, b: glc_bracket(c, d, a, b))
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
    return GLCReport({name: first_failure(name, scan, holds) for name, scan in cases.items()})


def load_generators(path) -> GeneratorSet:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read generator set from {path}: {exc}") from exc
    return GeneratorSet.from_json_dict(data)
