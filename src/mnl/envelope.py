"""Abstract enveloping Lie algebra spanned by {S_j, T_j, Y_jk}: quotient by
the cyclic Y-relations, bracket table, Jacobi certification, and an
independent matrix-closure oracle for its dimension.

Everything is read from the tensor's integer rows over the label index
(`birep.bracket_rows`, `birep.cyclic_rows`).  In the envelope Y_kj is -Y_jk
and Y_jj is zero (`birep._signed`), so only the Y_jk with j < k remain, and
the Y-quotient writes each in the basis.  One integer matrix takes the label
index to the basis (`_reduction`): the bracket table is the basis pairs'
rows times it, and the quotient is checked with it against the table.
Every product with label rows runs over their nonzeros (`matrices.rows_times`).
The table is held once, as integers over their least denominator (K F, K);
`Fraction`s are made from its nonzeros only where a bracket is read out
(`EnvelopeAlgebra.bracket`; `to_json_dict` reduces each by a gcd).

One exact integer echelon, `matrices.Echelon`, serves the Y-quotient (columns
the Y_jk, j < k) and the closure oracle (columns the matrix entries (i, j)).
The other checks are integer contractions over a denominator (`matrices`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .algebra import (StructureTensor, YamagutiTensor, is_maltsev, jacobi_check,
                      yamaguti_constants)
from . import matrices
from .birep import (GeneratorSet, Label, Vec, _labelled_operators, _signed, bracket_rows,
                    commutator_scan, cyclic_rows, labels)
from .matrices import (Echelon, Rows, commutator, first_failure_chunked, fits_int64, lincomb,
                       magnitude, rows_times, scaled)
from .report import CheckReport, InputError

__all__ = [
    "YamagutiTensor", "yamaguti_constants", "EnvelopeAlgebra", "NotMaltsevError",
    "build_envelope", "check_jacobi", "matrix_closure_dim", "realize_check",
]


class EnvelopeInconsistencyError(RuntimeError):
    """The bracket table is incompatible with the Y-quotient; implementation bug."""


class NotMaltsevError(InputError):
    """The tensor fails the Mal'tsev identity; `report` is the failing check."""

    def __init__(self, report: CheckReport):
        super().__init__(f"build_envelope needs a Mal'tsev tensor; witness {report.witness}")
        self.report = report


def _y_relations(c: StructureTensor, ypairs):
    """The cyclic constraints as integer rows over the Y_jk, (j, k) in ypairs,
    one row per triple j < k < l (the form is totally antisymmetric)."""
    r = c.dim
    canon = labels(r)[:2 * r] + [("Y", j, k) for j, k in ypairs]
    fold, _ = _reduction(r, canon, {p: {("Y", *p): 1} for p in ypairs})
    R, _ = cyclic_rows(c, *np.array([(j, k, l) for j, k in ypairs for l in range(k + 1, r)],
                                    dtype=np.int64).reshape(-1, 3).T)
    return rows_times(R, fold)[:, 2 * r:]


def _reduce_relations(R, ypairs: List[Tuple[int, int]]):
    """RREF of the integer rows R over the Y_jk, (j, k) in `ypairs` order.
    Returns the expand map (every Y pair -> combination of independent
    pairs) and rank."""
    span = Echelon(len(ypairs))
    span.add(R)
    expand: Dict[Tuple[int, int], Vec] = {p: {("Y", *p): Fraction(1)} for p in ypairs}
    for row, piv in zip(span.rows, span.pivots):
        expand[ypairs[piv]] = {("Y", *ypairs[t]): Fraction(-int(row[t]), int(row[piv]))
                               for t in np.flatnonzero(row) if t != piv}
    return expand, len(span.pivots)


@dataclass(frozen=True, eq=False)
class EnvelopeAlgebra:
    """Bracket table of the Lie algebra spanned by S_j, T_j and the
    independent Yamaguti generators surviving the cyclic relations.
    `reduction` is `_reduction` of the label index to the basis, (M, E);
    `structure` is (K F, K): F[t, u, v] the basis[t] coefficient of
    [basis[u], basis[v]], over its least denominator K."""

    r: int
    basis: Tuple[Label, ...]
    expand: Dict[Tuple[int, int], Vec]
    reduction: Tuple[np.ndarray, int]
    structure: Tuple[np.ndarray, int]
    relation_rank: int

    @property
    def dim(self):
        return len(self.basis)

    @property
    def dimension_bound(self):
        return 2 * self.r + self.r * (self.r - 1) // 2

    def bracket(self, a: Label, b: Label) -> Vec:
        """[a, b] as {basis label: Fraction}, in basis order."""
        F, K = self.structure
        col = F[:, self.basis.index(a), self.basis.index(b)]
        return {self.basis[t]: Fraction(int(col[t]), K) for t in np.flatnonzero(col)}

    def to_json_dict(self):
        def lbl_str(lbl):
            if lbl[0] == "Y":
                return f"Y{lbl[1] + 1},{lbl[2] + 1}"
            return f"{lbl[0]}{lbl[1] + 1}"

        names = [lbl_str(l) for l in self.basis]
        F, K = self.structure
        pairs = {}    # (u, v) with u < v -> the nonzero terms of [basis[u], basis[v]]
        G = F.transpose(1, 2, 0)    # G[u, v, t] = F[t, u, v]: a pair's terms in basis order
        nz = np.nonzero(G)
        nz = tuple(i[nz[0] < nz[1]] for i in nz)
        for u, v, t, x in zip(*(i.tolist() for i in nz), G[nz].tolist()):
            g = math.gcd(x, K)    # x / K in lowest terms, K > 0
            pairs.setdefault((u, v), []).append([names[t], x // g, K // g])
        rows = [[names[u], names[v], sorted(terms, key=lambda t: t[0])]
                for (u, v), terms in pairs.items()]
        return {
            "dimension": self.dim,
            "dimension_bound": self.dimension_bound,
            "relation_rank": self.relation_rank,
            "basis": names,
            "brackets": rows,
        }


def _reduction(r, basis, expand):
    """(M, E): row w of M / E is label w of the label index in the basis,
    each Y through Y_kj = -Y_jk, Y_jj = 0 and its expansion."""
    index = {lbl: t for t, lbl in enumerate(basis)}
    entries = []
    for w, lbl in enumerate(labels(r)):
        signed = _signed(lbl)
        if signed:
            sign, lbl = signed
            for key, v in (expand[lbl[1:]] if lbl[0] == "Y" else {lbl: 1}).items():
                entries.append(((w, index[key]), sign * v))
    return scaled((2 * r + r * r, len(basis)), entries)


def _label_indices(r, lbls):
    index = {lbl: w for w, lbl in enumerate(labels(r))}
    return np.array([index[lbl] for lbl in lbls], dtype=np.int64)


def build_envelope(c: StructureTensor) -> EnvelopeAlgebra:
    """Quotient the free span of {S_j, T_j, Y_jk} by the cyclic Y-relations
    and write all theorem brackets in the reduced basis: the basis pairs' rows
    through `bracket_rows` and `rows_times`, as many first labels at a time
    as keep their label rows within `matrices._BLOCK` entries, into one
    integer table at D E, then over the gcd of its entries and D E.
    Consistency of the table with the quotient is verified, not assumed; the
    tensor keeps the Mal'tsev report."""
    rep = is_maltsev(c)
    if not rep.passed:
        raise NotMaltsevError(rep)
    r = c.dim
    ypairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    expand, rank = _reduce_relations(_y_relations(c, ypairs), ypairs)
    basis = tuple([("S", j) for j in range(r)] + [("T", j) for j in range(r)]
                  + [("Y", j, k) for (j, k) in ypairs if expand[(j, k)] == {("Y", j, k): 1}])
    M, E = _reduction(r, basis, expand)
    cols, n = _label_indices(r, basis), len(basis)
    rows, D = bracket_rows(c, np.repeat(cols, n), np.tile(cols, n))
    F = np.zeros((n, n * n), dtype=np.int64)    # F[t, u n + v]: [basis[u], basis[v]] at D E
    step = max(1, matrices._BLOCK // n ** 2)
    for lo in range(0, n, step):
        B = rows_times(rows.block(lo * n, (lo + step) * n), M)
        F = F.astype(np.result_type(F, B), copy=False)    # Python ints once a block needs them
        F[:, lo * n:(lo + step) * n] = B.T
    g = math.gcd(D * E, int(np.gcd.reduce(F, axis=None)))
    F //= g
    if F.dtype == object and fits_int64(magnitude(F)):
        F = F.astype(np.int64)
    env = EnvelopeAlgebra(r, basis, expand, (M, E), (F.reshape(n, n, n), D * E // g), rank)
    _check_quotient_consistency(c, env)
    return env


def _check_quotient_consistency(c, env: EnvelopeAlgebra):
    """Brackets of eliminated Y's must agree with the bilinear extension of
    the reduced table; a mismatch is an implementation bug, so abort.  A pair
    of basis labels needs no check: its table entry is that bracket.  For the
    other pairs (a, b), c's rows times `_reduction` must equal
    sum_uv x_a[u] x_b[v] [basis[u], basis[v]], x the expansions: exact integer
    products over the nonzeros at one denominator, for all b of as many a as
    keep every dense array of a block (x_a F, the two sides) within
    `matrices._BLOCK` entries."""
    eliminated = [("Y", *p) for p in env.expand if ("Y", *p) not in env.basis]
    if not eliminated:
        return
    full = list(env.basis) + eliminated
    cols = _label_indices(env.r, full)
    M, E = env.reduction
    F, K = env.structure
    x, elim = M[cols], np.arange(env.dim, len(full))
    for first, b in ((elim, np.arange(len(full))), (np.arange(env.dim), elim)):
        step = max(1, matrices._BLOCK // (env.dim * max(env.dim, len(b))))
        rows, D = bracket_rows(c, cols[np.repeat(first, len(b))], cols[np.tile(b, len(first))])
        for i in range(0, len(first), step):
            a, R = first[i:i + step], rows.block(i * len(b), (i + step) * len(b))
            # [x_a, x_b] through the table, xF[a, t, v] = sum_u x_a[u] F[t, u, v]
            xF = rows_times(x[a], F.transpose(1, 0, 2))
            via = rows_times(x[b], xF.transpose(2, 0, 1)).transpose(1, 0, 2).reshape(R.size, -1)
            bad = np.flatnonzero((lincomb([(E * K, rows_times(R, M))])
                                  != lincomb([(D, via)])).any(axis=1))
            if bad.size:
                u, v = divmod(int(bad[0]), len(b))
                raise EnvelopeInconsistencyError(f"bracket of {full[a[u]]} and {full[b[v]]} "
                                                 "inconsistent with the Y-quotient")


def check_jacobi(env: EnvelopeAlgebra) -> CheckReport:
    """Jacobi identity on all basis triples a < b < c of the reduced bracket
    table (`algebra.jacobi_check` on its structure constants)."""
    return jacobi_check(env.structure[0], env.basis)


def matrix_closure_dim(gen: GeneratorSet) -> int:
    """Dimension of the smallest matrix space containing all S_j, T_j and
    closed under commutators (each matrix a row of its entries, over the
    generators' denominator, which spans the same lines), level by level: the
    newest matrices meet every kept one, each pair once, in stacked products
    of at most `matrices._BLOCK` entries an array; brackets that grow it are next."""
    span = Echelon(gen.dim * gen.dim)

    def grown(ms):
        return ms[span.add(ms.reshape(-1, gen.dim * gen.dim))]

    kept, old = grown(gen.integer[0]), 0    # kept[old:] grew the span last
    step = max(1, matrices._BLOCK // gen.dim ** 2)
    while old < len(kept):
        a, b = np.nonzero(np.arange(len(kept)) < np.arange(old, len(kept))[:, None])
        level = [grown(commutator(kept[old + a[i:i + step]], kept[b[i:i + step]]))
                 for i in range(0, len(a), step)]
        old, kept = len(kept), np.concatenate([kept, *level])
    return len(kept)


def realize_check(env: EnvelopeAlgebra, gen: GeneratorSet, c: StructureTensor) -> CheckReport:
    """The map S_j, T_j, Y_jk -> generator and extracted Yamagutian matrices
    must send every envelope bracket to the matrix commutator exactly, and
    every eliminated Yamagutian to its expansion."""
    if gen.r != c.dim or c.dim != env.r:
        raise InputError("generator count, tensor dim, and envelope rank must agree")

    ops, scale = _labelled_operators(gen, c)
    F, K = env.structure
    M, E = env.reduction
    cols = _label_indices(env.r, env.basis)
    ys = _label_indices(env.r, [("Y", *key) for key in env.expand])
    # E Y_jk - (its expansion at E) over the label index, as Python ints
    X = np.zeros((len(ys), len(ops)), dtype=object)
    X[:, cols] = -M[ys]
    X[np.arange(len(ys)), ys] += E
    rep = first_failure_chunked("realize", ((("expand", *key), n)
                                            for n, key in enumerate(env.expand)),
                                lambda chunk: rows_times(X[[n for n, in chunk]],
                                                         ops).any(axis=(1, 2)))
    if not rep.passed:
        return rep
    # over the basis operators, the right side of [basis[u], basis[v]] is F[:, u, v]
    return commutator_scan("realize", ops[cols], scale, *[np.arange(env.dim)] * 2,
                           Rows.of(F.reshape(env.dim, -1).T), K,
                           lambda u, v: (env.basis[u], env.basis[v]))
