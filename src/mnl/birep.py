"""Birepresentations of finite Moufang loops and generator sets satisfying
the generalized Lie-Cartan commutation relations.

Matrices are dense lists of Fractions; every check is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .algebra import StructureTensor, yamaguti_constants
from .loops import CayleyTable, is_moufang
from .matrices import (commutator, eye, mat_eq, mat_lincomb, mat_mul,
                       mat_scale, mat_sub, mat_is_zero, zeros)
from .octonion import UNIT_TABLE
from .report import CheckReport, InputError, fail, is_int, ok


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


def _mult_generators(k: int) -> GeneratorSet:
    # S_j = left multiplication by e_j, T_j = right multiplication, on the
    # span of (1, e1, .., e_{k-1}); column B holds the coords of e_j e_B
    S, T = [], []
    for j in range(1, k):
        L = zeros(k)
        R = zeros(k)
        for B in range(k):
            idx, sign = UNIT_TABLE[j][B]
            L[idx][B] = Fraction(sign)
            idx, sign = UNIT_TABLE[B][j]
            R[idx][B] = Fraction(sign)
        S.append(L)
        T.append(R)
    return GeneratorSet(k - 1, k, S, T)


def octonion_lr_generators() -> GeneratorSet:
    """L/R multiplication matrices of the imaginary octonion units (r=7, dim=8)."""
    return _mult_generators(8)


def quaternion_lr_generators() -> GeneratorSet:
    """L/R multiplication matrices of the quaternion units (r=3, dim=4)."""
    return _mult_generators(4)


def extract_yamagutians(gen: GeneratorSet, c: StructureTensor) -> Dict[tuple, list]:
    """Y_jk solved from the [S_j, T_k] commutation relation:
    Y_jk = -[S_j, T_k] + (1/3) c^p_jk (S_p - T_p)."""
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    third = Fraction(1, 3)
    Y = {}
    for j in range(gen.r):
        for k in range(gen.r):
            m = mat_scale(-1, commutator(gen.S[j], gen.T[k]))
            for p in range(gen.r):
                v = c.c(p, j, k)
                if v:
                    m = mat_lincomb([(1, m), (third * v, gen.S[p]), (-third * v, gen.T[p])])
            Y[(j, k)] = m
    return Y


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
    r = gen.r
    third = Fraction(1, 3)
    Y = extract_yamagutians(gen, c)
    d = yamaguti_constants(c)
    families: Dict[str, CheckReport] = {}

    def family(name, scan):
        for witness in scan():
            families[name] = fail(name, witness=witness)
            return
        families[name] = ok(name)

    def scan_ss():
        for j in range(r):
            for k in range(r):
                terms = [(1, mat_scale(2, Y[(j, k)]))]
                for p in range(r):
                    v = c.c(p, j, k)
                    if v:
                        terms.append((third * v, gen.S[p]))
                        terms.append((2 * third * v, gen.T[p]))
                if not mat_eq(commutator(gen.S[j], gen.S[k]), mat_lincomb(terms)):
                    yield (j, k)

    def scan_tt():
        for j in range(r):
            for k in range(r):
                terms = [(1, mat_scale(2, Y[(j, k)]))]
                for p in range(r):
                    v = c.c(p, j, k)
                    if v:
                        terms.append((-2 * third * v, gen.S[p]))
                        terms.append((-third * v, gen.T[p]))
                if not mat_eq(commutator(gen.T[j], gen.T[k]), mat_lincomb(terms)):
                    yield (j, k)

    def scan_antisym():
        for j in range(r):
            for k in range(j, r):
                if not mat_is_zero(mat_lincomb([(1, Y[(j, k)]), (1, Y[(k, j)])])):
                    yield (j, k)

    def scan_cyclic():
        for j in range(r):
            for k in range(j + 1, r):
                for l in range(k + 1, r):
                    terms = []
                    for p in range(r):
                        for (a, b, cc) in ((j, k, l), (k, l, j), (l, j, k)):
                            v = c.c(p, a, b)
                            if v:
                                terms.append((v, Y[(p, cc)]))
                    if terms and not mat_is_zero(mat_lincomb(terms)):
                        yield (j, k, l)

    def scan_reduct(gens, tag):
        for j in range(r):
            for k in range(r):
                for n in range(r):
                    terms = [(d.d(p, j, k, n), gens[p]) for p in range(r)
                             if d.d(p, j, k, n)]
                    rhs = mat_lincomb(terms) if terms else zeros(gen.dim)
                    if not mat_eq(commutator(Y[(j, k)], gens[n]), rhs):
                        yield (tag, j, k, n)

    def scan_yy():
        for j in range(r):
            for k in range(j + 1, r):
                for l in range(r):
                    for n in range(l + 1, r):
                        terms = []
                        for p in range(r):
                            v1 = d.d(p, j, k, l)
                            if v1:
                                terms.append((v1, Y[(p, n)]))
                            v2 = d.d(p, j, k, n)
                            if v2:
                                terms.append((v2, Y[(l, p)]))
                        rhs = mat_lincomb(terms) if terms else zeros(gen.dim)
                        if not mat_eq(commutator(Y[(j, k)], Y[(l, n)]), rhs):
                            yield (j, k, l, n)

    family("ss", scan_ss)
    family("tt", scan_tt)
    family("y_antisymmetry", scan_antisym)
    family("y_cyclic", scan_cyclic)
    family("reductivity_s", lambda: scan_reduct(gen.S, "S"))
    family("reductivity_t", lambda: scan_reduct(gen.T, "T"))
    family("yy", scan_yy)
    return GLCReport(families)


def load_generators(path) -> GeneratorSet:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read generator set from {path}: {exc}") from exc
    return GeneratorSet.from_json_dict(data)
