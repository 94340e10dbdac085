"""Abstract enveloping Lie algebra spanned by {S_j, T_j, Y_jk}: quotient by
the cyclic Y-relations, bracket table, Jacobi certification, and an
independent matrix-closure oracle for its dimension.

The brackets and the cyclic relations are read from `birep.glc_bracket` and
`birep.y_cyclic`; in the envelope Y_kj is -Y_jk and Y_jj is zero
(`_canonical`), so only the labels Y_jk with j < k remain.

One exact reduced row echelon routine, `_echelon_add`, serves the Y-quotient
(rows keyed by label ("Y", j, k)) and the closure oracle (keyed by entry (i, j)).
The other checks are integer contractions over a denominator (`matrices`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .algebra import (StructureTensor, YamagutiTensor, is_maltsev, jacobi_check,
                      yamaguti_constants)
from .birep import GeneratorSet, Label, Vec, _signed, glc_bracket, matrix_fails, vec_add, y_cyclic
from .matrices import commutator, first_failure_chunked, scaled, stacked
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


def _canonical(vec: Vec) -> Vec:
    """A vector of table labels in the envelope, where Y_kj = -Y_jk and Y_jj = 0
    (`birep._signed`)."""
    out: Vec = {}
    for lbl, v in vec.items():
        signed = _signed(lbl)
        if signed:
            vec_add(out, signed[1], signed[0] * v)
    return out


def _y_relations(c: StructureTensor) -> List[Vec]:
    """The cyclic constraints, one row per triple j < k < l (the form is
    totally antisymmetric)."""
    r = range(c.dim)
    rows = (_canonical(y_cyclic(c, j, k, l)) for j in r for k in r for l in r if j < k < l)
    return [row for row in rows if row]


def _echelon_add(pivots: Dict, row: Dict) -> bool:
    """Add the sparse row {key: Fraction} to `pivots`, a reduced row echelon
    form held as {pivot: row}: each row is 1 at its pivot, its smallest key,
    and no other row holds that key.  True when the span grew.  The form is
    unique for its span and the key order, whatever order the rows came in."""
    row = dict(row)
    # a pivot row holds no other pivot, so each step clears one key of row
    for piv in sorted(row.keys() & pivots.keys()):
        coeff = row[piv]
        for key, v in pivots[piv].items():
            vec_add(row, key, -coeff * v)
    if not row:
        return False
    piv = min(row)
    norm = {key: v / row[piv] for key, v in row.items()}
    for other in pivots.values():
        coeff = other.get(piv)
        if coeff:
            for key, v in norm.items():
                vec_add(other, key, -coeff * v)
    pivots[piv] = norm
    return True


def _reduce_relations(rows: List[Vec], ypairs: List[Tuple[int, int]]):
    """RREF with labels ("Y", j, k) in `ypairs` order.  Returns the expand map
    (every Y pair -> combination of independent pairs) and rank."""
    pivots: Dict[Label, Vec] = {}
    for row in rows:
        _echelon_add(pivots, row)
    expand: Dict[Tuple[int, int], Vec] = {}
    for (j, k) in ypairs:
        lbl = ("Y", j, k)
        if lbl in pivots:
            expand[(j, k)] = {l: -v for l, v in pivots[lbl].items() if l != lbl}
        else:
            expand[(j, k)] = {lbl: Fraction(1)}
    return expand, len(pivots)


@dataclass(frozen=True)
class EnvelopeAlgebra:
    """Bracket table of the Lie algebra spanned by S_j, T_j and the
    independent Yamaguti generators surviving the cyclic relations."""

    r: int
    basis: Tuple[Label, ...]
    expand: Dict[Tuple[int, int], Vec]
    brackets: Dict[Tuple[Label, Label], Vec]
    relation_rank: int

    @property
    def dim(self):
        return len(self.basis)

    @property
    def dimension_bound(self):
        return 2 * self.r + self.r * (self.r - 1) // 2

    def bracket(self, a: Label, b: Label) -> Vec:
        return dict(self.brackets[(a, b)])

    def bracket_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        for la, ca in u.items():
            for lb, cb in v.items():
                for lbl, coeff in self.brackets[(la, lb)].items():
                    vec_add(out, lbl, ca * cb * coeff)
        return out

    def to_json_dict(self):
        def lbl_str(lbl):
            if lbl[0] == "Y":
                return f"Y{lbl[1] + 1},{lbl[2] + 1}"
            return f"{lbl[0]}{lbl[1] + 1}"

        rows = []
        index = {lbl: i for i, lbl in enumerate(self.basis)}
        for a in self.basis:
            for b in self.basis:
                if index[a] < index[b] and self.brackets[(a, b)]:
                    terms = sorted(
                        ([lbl_str(l), v.numerator, v.denominator]
                         for l, v in self.brackets[(a, b)].items()),
                        key=lambda t: t[0])
                    rows.append([lbl_str(a), lbl_str(b), terms])
        return {
            "dimension": self.dim,
            "dimension_bound": self.dimension_bound,
            "relation_rank": self.relation_rank,
            "basis": [lbl_str(l) for l in self.basis],
            "brackets": rows,
        }


def _expand_vec(vec: Vec, expand) -> Vec:
    out: Vec = {}
    for lbl, coeff in vec.items():
        if lbl[0] == "Y":
            for lbl2, v in expand[(lbl[1], lbl[2])].items():
                vec_add(out, lbl2, coeff * v)
        else:
            vec_add(out, lbl, coeff)
    return out


def build_envelope(c: StructureTensor) -> EnvelopeAlgebra:
    """Quotient the free span of {S_j, T_j, Y_jk} by the cyclic Y-relations
    and write all theorem brackets in the reduced basis.  Consistency of the
    bracket table with the quotient is verified, not assumed."""
    rep = is_maltsev(c)
    if not rep.passed:
        raise NotMaltsevError(rep)
    r = c.dim
    ypairs = [(j, k) for j in range(r) for k in range(j + 1, r)]
    expand, rank = _reduce_relations(_y_relations(c), ypairs)
    basis: List[Label] = [("S", j) for j in range(r)] + [("T", j) for j in range(r)]
    basis += [("Y", j, k) for (j, k) in ypairs
              if expand[(j, k)] == {("Y", j, k): Fraction(1)}]
    d = yamaguti_constants(c)
    brackets = {}
    for a in basis:
        for b in basis:
            brackets[(a, b)] = _expand_vec(_canonical(glc_bracket(c, d, a, b)), expand)
    env = EnvelopeAlgebra(r, tuple(basis), expand, brackets, rank)
    _check_quotient_consistency(c, d, env)
    return env


def _check_quotient_consistency(c, d, env: EnvelopeAlgebra):
    """Brackets of eliminated Y's must agree with the bilinear extension of
    the reduced table; a mismatch is an implementation bug, so abort.  A pair
    of basis labels needs no check: its table entry is that bracket."""
    eliminated: List[Label] = [("Y", j, k) for (j, k), expr in env.expand.items()
                               if expr != {("Y", j, k): Fraction(1)}]
    full = list(env.basis) + eliminated
    for a, b in itertools.chain(itertools.product(eliminated, full),
                                itertools.product(env.basis, eliminated)):
        direct = _expand_vec(_canonical(glc_bracket(c, d, a, b)), env.expand)
        via_table = env.bracket_vec(_expand_vec({a: Fraction(1)}, env.expand),
                                    _expand_vec({b: Fraction(1)}, env.expand))
        if direct != via_table:
            raise EnvelopeInconsistencyError(
                f"bracket of {a} and {b} inconsistent with the Y-quotient")


def check_jacobi(env: EnvelopeAlgebra) -> CheckReport:
    """Jacobi identity on all basis triples a < b < c of the reduced bracket
    table (`algebra.jacobi_check` on its structure constants)."""
    index = {lbl: i for i, lbl in enumerate(env.basis)}
    F, _ = scaled((env.dim,) * 3, (((index[lbl], index[a], index[b]), v)
                                   for (a, b), vec in env.brackets.items()
                                   for lbl, v in vec.items()))
    return jacobi_check(F, env.basis)


def matrix_closure_dim(gen: GeneratorSet) -> int:
    """Dimension of the smallest matrix space containing all S_j, T_j and
    closed under commutators (iterated bracketing, rows {(i, j): entry}, over
    the generators' denominator, which spans the same lines)."""
    pivots: Dict[Tuple[int, int], Vec] = {}

    def grows(m):
        return _echelon_add(pivots, {(int(i), int(j)): Fraction(int(m[i, j]))
                                     for i, j in zip(*np.nonzero(m))})

    st, _ = stacked(list(gen.S) + list(gen.T), gen.dim)
    mats = [m for m in st if grows(m)]
    queue = list(mats)
    while queue:
        m = queue.pop()
        # [other, m] = -[m, other] never grows the span after [m, other]
        for bracket in commutator(m, np.stack(mats)):
            if grows(bracket):
                mats.append(bracket)
                queue.append(bracket)
    return len(pivots)


def realize_check(env: EnvelopeAlgebra, gen: GeneratorSet, c: StructureTensor) -> CheckReport:
    """The map S_j, T_j, Y_jk -> generator and extracted Yamagutian matrices
    must send every envelope bracket to the matrix commutator exactly, and
    every eliminated Yamagutian to its expansion."""
    if gen.r != c.dim or c.dim != env.r:
        raise InputError("generator count, tensor dim, and envelope rank must agree")

    def eliminated(j, k, expr):
        rel = {lbl: -v for lbl, v in expr.items()}
        vec_add(rel, ("Y", j, k), 1)
        return rel

    fails = matrix_fails(gen, c, lambda a, b: env.brackets[(a, b)])
    cases = itertools.chain(
        ((("expand", j, k), eliminated(j, k, expr)) for (j, k), expr in env.expand.items()),
        (((a, b), a, b) for a in env.basis for b in env.basis))
    return first_failure_chunked("realize", cases, fails)
