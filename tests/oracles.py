"""Reference implementations: the per-case walks that the integer kernels of
`mnl` replace, each walking its cases in the order the kernel must keep.
The dense ones are loops over `fractions.Fraction` (matrices are dense lists
of Fractions); the density and charge checks decide one case at a time with
the `GQSparse`/`SiteOp` operator arithmetic.  Their right sides are the
generalized Lie-Cartan table written here once more, term by term over
Fractions (`glc_bracket`, `y_cyclic`), and the envelope's bracket table,
read through `EnvelopeAlgebra.bracket` (`bracket_table`) and written once
more from `glc_bracket` over the Y-quotient (`envelope_brackets`); a mutant
table is packed by `matrices.scaled` (`with_brackets`).  The property tests
compare their reports, witnesses included, with the kernels', and
`glc_bracket` and `envelope_brackets` with the program's integer tables.
The Fock layer's oracles build its operators on the full 2^(nN)-dimensional space
through Kronecker products: the ladder operators, their embeddings and the
anticommutation and lemma checks there; the one-site anticommutation scan
decides its relations one anticommutator at a time, the lemma walk
(`lemma_walk`) one trial at a time from pair products, and `raw_yamagutian`
one Yamagutian density at a time.  The density checks' inputs have their
former `Fraction` routes here: the table rows as {label: Fraction} dicts
(`row_vecs`, `density_table`), the densities from Fraction matrices, each
scaled on its own (`charge_densities`), and the charges as one sum per row
times -i (`charges_by_sum`).  The loop scans are the triple loops over
a Cayley table's rows, and the Chein double is built entry by entry; the
tangent sweep evaluates one commutator at a time on single points, and
`octonion_product` is the unit-octonion chart's product of one pair of
points as one contraction with the signed product tensor."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from mnl.algebra import (OCTONIONS, StructureTensor, YamagutiTensor, cayley_dickson,
                         yamaguti_constants)
from mnl.birep import (GeneratorSet, GLCReport, Label, Vec, bracket_rows, cyclic_rows, labels,
                       _signed)
from mnl.envelope import EnvelopeAlgebra
from mnl.etc import CONVENTION, ChargeDensitySet, ETCReport
from mnl.fock import _CANONICAL, _CAR, GQSparse, QuadraticCache, SiteOp, _parity, _states
from mnl.loops import CayleyTable, chart_commutator
from mnl.matrices import CHUNK, fits_int64, scaled, stacked
from mnl.relations import Ledger
from mnl.report import BoundError, CheckReport, InputError, fail, ok


def vec_add(acc: Vec, label, coeff):
    """acc[label] += coeff, keeping no zero coefficient."""
    if not coeff:
        return
    new = acc.get(label, Fraction(0)) + coeff
    if new:
        acc[label] = new
    else:
        acc.pop(label, None)


def first_failure(prop, cases, holds):
    """Walk (witness, *case) in order: fail with the witness of the first case
    for which holds(*case) is false, else pass."""
    for witness, *case in cases:
        if not holds(*case):
            return fail(prop, witness=witness)
    return ok(prop)



def kernel_walk(ops, prop, rows):
    """`relations.RelationKernel.first_failure` case by case, for rows whose
    weights stay below `relations.BUDGET`: CHUNK rows a chunk, each case
    bounded at the chunk's lcm K of its coefficients as the kernel bounds it
    (term by term over the sites both operands reach, from the factors
    themselves), and each case before the first one out of bound decided by
    Fraction arithmetic on its dense factors, site by site, held to the c_x I
    rule; BoundError when none of those fails.  q is an int, a Fraction or a
    pair (p, r); q = 0 and [a, a] take no arithmetic."""
    factors = [{x: f for x, f in (op.factors if isinstance(op, SiteOp) else {0: op}).items()
                if f.nnz} for op in ops]
    D = math.lcm(1, *(f.den for fs in factors for f in fs.values()))
    mag = [{x: f.mag * (D // f.den) for x, f in fs.items()} for fs in factors]
    count = [{x: int((np.diff(f.re.indptr) + np.diff(f.im.indptr)).max()) for x, f in fs.items()}
             for fs in factors]
    dense = [{x: tuple(np.array([[Fraction(int(v), f.den) for v in row] for row in p.toarray()],
                                dtype=object) for p in (f.re, f.im)) for x, f in fs.items()}
             for fs in factors]

    def live(case):
        out = [(kind, Fraction(*q) if isinstance(q, tuple) else Fraction(q), idx[0], idx[-1])
               for kind, q, *idx in case]
        return [t for t in out if t[1] and not (t[0] == "c" and t[2] == t[3])]

    def bound(case, K):
        return sum(abs(q * K) * (D * mag[a][x] if kind in "oi" else
                                 (count[a][x] + count[b][x]) * mag[a][x] * mag[b][x])
                   for kind, q, a, b in case for x in factors[a] if x in factors[b])

    def mul(A, B):
        return A[0] @ B[0] - A[1] @ B[1], A[0] @ B[1] + A[1] @ B[0]

    def holds(case):
        total, sites = [0, 0], {x for _, _, a, b in case for x in [*factors[a], *factors[b]]}
        for x in sites:
            re = im = 0
            for kind, q, a, b in case:
                if x not in factors[a] or x not in factors[b]:
                    continue
                A, B = dense[a][x], dense[b][x]
                if kind in "ca":
                    AB, BA = mul(A, B), mul(B, A)
                    A = tuple(u - v if kind == "c" else u + v for u, v in zip(AB, BA))
                A = (-A[1], A[0]) if kind == "i" else A
                re, im = re + q * A[0], im + q * A[1]
            for k, part in enumerate((re, im)):
                if not isinstance(part, int):
                    c = part[0, 0]
                    if (part != c * np.eye(len(part), dtype=object)).any():
                        return False
                    total[k] += c
        return total == [0, 0]

    rows = list(rows)
    for lo in range(0, len(rows), CHUNK):
        chunk = [(witness, live(case)) for witness, *case in rows[lo:lo + CHUNK]]
        K = math.lcm(1, *(q.denominator for _, case in chunk for _, q, _, _ in case))
        limit = next((k for k, (_, case) in enumerate(chunk) if not fits_int64(bound(case, K))),
                     len(chunk))
        for witness, case in chunk[:limit]:
            if not holds(case):
                return fail(prop, witness=witness)
        if limit < len(chunk):
            raise BoundError()
    return ok(prop)

# --- dense Fraction matrices -----------------------------------------------

def zeros(n, m=None):
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def eye(n):
    out = zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(q, a):
    q = Fraction(q)
    return [[q * x for x in row] for row in a]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = zeros(n, p)
    for i in range(n):
        for k in range(m):
            if a[i][k]:
                for j in range(p):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def mat_lincomb(terms):
    """Sum of q * M over (q, M) pairs; terms must be nonempty."""
    it = iter(terms)
    q0, m0 = next(it)
    acc = mat_scale(q0, m0)
    for q, m in it:
        acc = mat_add(acc, mat_scale(q, m))
    return acc


# --- algebra ----------------------------------------------------------------

def _check_vec(c: StructureTensor, x):
    if len(x) != c.dim:
        raise InputError(f"vector length {len(x)} does not match dim {c.dim}")


def bracket(c: StructureTensor, x, y):
    """[x, y]^i = c^i_jk x^j y^k."""
    _check_vec(c, x)
    _check_vec(c, y)
    out = [Fraction(0)] * c.dim
    for (i, j, k), v in c.entries.items():
        if x[j] and y[k]:
            out[i] += v * x[j] * y[k]
    return out


def jacobiator(c: StructureTensor, x, y, z):
    """J(x,y,z) = [x,[y,z]] + [y,[z,x]] + [z,[x,y]]."""
    a = bracket(c, x, bracket(c, y, z))
    b = bracket(c, y, bracket(c, z, x))
    d = bracket(c, z, bracket(c, x, y))
    return [a[i] + b[i] + d[i] for i in range(c.dim)]


def basis_vector(dim, a):
    v = [Fraction(0)] * dim
    v[a] = Fraction(1)
    return v


def is_lie(c: StructureTensor) -> CheckReport:
    r = c.dim
    for a in range(r):
        for b in range(r):
            for d in range(r):
                J = jacobiator(c, basis_vector(r, a), basis_vector(r, b), basis_vector(r, d))
                if any(J):
                    return fail("jacobi", witness=(a, b, d))
    return ok("jacobi")


def _maltsev_probe_set(r):
    xs = [basis_vector(r, a) for a in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            v = basis_vector(r, a)
            v[b] = Fraction(1)
            xs.append(v)
    return xs


def is_maltsev(c: StructureTensor) -> CheckReport:
    r = c.dim
    for xi, x in enumerate(_maltsev_probe_set(r)):
        for b in range(r):
            y = basis_vector(r, b)
            for d in range(r):
                z = basis_vector(r, d)
                lhs = bracket(c, jacobiator(c, x, y, z), x)
                rhs = jacobiator(c, x, y, bracket(c, x, z))
                if lhs != rhs:
                    return fail("maltsev", witness=(xi, b, d),
                                detail="witness is (probe index, y basis, z basis)")
    return ok("maltsev")


def contract_yamaguti(c: StructureTensor) -> YamagutiTensor:
    r = c.dim
    out = {}
    for p in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    total = Fraction(0)
                    for s in range(r):
                        total += (c.c(p, j, s) * c.c(s, k, l)
                                  - c.c(p, k, s) * c.c(s, j, l)
                                  + c.c(p, s, l) * c.c(s, j, k))
                    if total:
                        out[(p, j, k, l)] = total / 6
    return YamagutiTensor(r, out)


# --- the generalized Lie-Cartan table -----------------------------------------

# [A_j, B_k] = y Y_jk + c^p_jk (s S_p + t T_p): (y, s, t) for each pair A, B
_ST_TABLE = {("S", "S"): (2, Fraction(1, 3), Fraction(2, 3)),
             ("T", "T"): (2, Fraction(-2, 3), Fraction(-1, 3)),
             ("S", "T"): (-1, Fraction(1, 3), Fraction(-1, 3))}


def glc_bracket(c: StructureTensor, d, a: Label, b: Label) -> Vec:
    """[a, b] in the generalized Lie-Cartan table, as {label: coefficient},
    every Y_jk in the (j, k) order the table writes, j == k included.  The
    Yamaguti tensor d is read only when a or b is a Y."""
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


def st_row(c: StructureTensor, j, k) -> Vec:
    """The table row of [S_j, T_k], from which Y_jk is solved."""
    return glc_bracket(c, None, ("S", j), ("T", k))


def row_vecs(R, den, lbls):
    """Integer rows R (`matrices.Rows`) at den over the labels lbls as
    {label: coefficient}, the entries at one position summed."""
    out = [{} for _ in range(R.size)]
    for n, w, v in zip(R.n, R.t, R.v):
        vec_add(out[n], lbls[w], Fraction(int(v), den))
    return out


def density_table(c: StructureTensor):
    """`etc._table` through Fraction rows: the program's integer rows
    (`bracket_rows`, `cyclic_rows`) as {label: coefficient} (`row_vecs`),
    each then signed (`_signed`)."""
    r, lbls = range(c.dim), labels(c.dim)
    index = {lbl: w for w, lbl in enumerate(lbls)}
    upper = [("Y", j, k) for j in r for k in r if j < k]
    pairs = ([((A, j), (B, k)) for A, B in ("SS", "ST", "TT") for j in r for k in r]
             + [(y, b) for y in upper for b in [(X, n) for X in "ST" for n in r] + upper])
    triples = [(j, k, l) for j in r for k in r for l in r if j < k < l]
    a, b = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64).T
    cyclic = cyclic_rows(c, *np.array(triples, dtype=np.int64).reshape(-1, 3).T)

    def stored(vec):
        return [(signed[0] * v, signed[1]) for lbl, v in vec.items()
                if v and (signed := _signed(lbl))]
    return ({key: stored(vec) for key, vec in zip(pairs, row_vecs(*bracket_rows(c, a, b), lbls))},
            {key: stored(vec) for key, vec in zip(triples, row_vecs(*cyclic, lbls))})


# --- generator matrices and the envelope ------------------------------------

def extract_yamagutian(S, T, bracket, lincomb, row: Vec, j, k):
    """Y_jk solved from row, the table row of [S_j, T_k], for operators S[p],
    T[p] whose realized bracket is bracket(A, B); lincomb sums (q, operator)
    pairs."""
    row = dict(row)
    q = row.pop(("Y", j, k))
    ops = {"S": S, "T": T}
    return lincomb([(1 / q, bracket(S[j], T[k]))]
                   + [(-v / q, ops[lbl[0]][lbl[1]]) for lbl, v in row.items()])


def extract_yamagutians(gen: GeneratorSet, c: StructureTensor):
    return {(j, k): extract_yamagutian(gen.S, gen.T, commutator, mat_lincomb, st_row(c, j, k),
                                       j, k)
            for j in range(gen.r) for k in range(gen.r)}


def matrix_holds(gen: GeneratorSet, c: StructureTensor, rhs):
    """The test of one case: a pair (a, b) holds when [a, b] equals
    rhs(a, b), a relation when it sums to zero."""
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


def check_glc(gen: GeneratorSet, c: StructureTensor) -> GLCReport:
    d = contract_yamaguti(c)
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


def envelope_brackets(c: StructureTensor, env: EnvelopeAlgebra):
    """The envelope's bracket table from the generalized Lie-Cartan table,
    term by term: {(a, b): {basis label: coefficient}} for every basis pair
    (`glc_bracket`), each Y_kj written as -Y_jk, each Y_jj as 0 and each Y_jk
    through its expansion env.expand[(j, k)] (itself when it is a basis Y)."""
    d = contract_yamaguti(c)

    def reduced(vec):
        out: Vec = {}
        for lbl, v in vec.items():
            if lbl[0] != "Y":
                vec_add(out, lbl, v)
            elif lbl[1] != lbl[2]:
                sign, j, k = (1, lbl[1], lbl[2]) if lbl[1] < lbl[2] else (-1, lbl[2], lbl[1])
                for y, q in env.expand[(j, k)].items():
                    vec_add(out, y, sign * v * q)
        return out
    return {(a, b): reduced(glc_bracket(c, d, a, b)) for a in env.basis for b in env.basis}


def bracket_table(env: EnvelopeAlgebra):
    """{(a, b): env.bracket(a, b)} for every basis pair."""
    return {(a, b): env.bracket(a, b) for a in env.basis for b in env.basis}


def with_brackets(env: EnvelopeAlgebra, brackets) -> EnvelopeAlgebra:
    """env with the bracket table `brackets`, {(a, b): {basis label:
    coefficient}}, packed as (K F, K) by `matrices.scaled`."""
    index = {lbl: i for i, lbl in enumerate(env.basis)}
    return dataclasses.replace(env, structure=scaled(
        (env.dim,) * 3, (((index[lbl], index[a], index[b]), v)
                         for (a, b), vec in brackets.items() for lbl, v in vec.items())))


def realize_check(env: EnvelopeAlgebra, gen: GeneratorSet, c: StructureTensor) -> CheckReport:
    def eliminated(j, k, expr):
        rel = {lbl: -v for lbl, v in expr.items()}
        vec_add(rel, ("Y", j, k), 1)
        return rel

    table = bracket_table(env)
    holds = matrix_holds(gen, c, lambda a, b: table[(a, b)])
    cases = itertools.chain(
        ((("expand", j, k), eliminated(j, k, expr)) for (j, k), expr in env.expand.items()),
        (((a, b), a, b) for a in env.basis for b in env.basis))
    return first_failure("realize", cases, holds)


def bracket_vec(table, u: Vec, v: Vec) -> Vec:
    """[u, v] for vectors over an envelope's basis, through its bracket table
    (`bracket_table`)."""
    out: Vec = {}
    for la, ca in u.items():
        for lb, cb in v.items():
            for lbl, coeff in table[(la, lb)].items():
                vec_add(out, lbl, ca * cb * coeff)
    return out


def check_jacobi(env: EnvelopeAlgebra) -> CheckReport:
    basis, table = env.basis, bracket_table(env)
    n = len(basis)
    for ia in range(n):
        va = {basis[ia]: Fraction(1)}
        for ib in range(ia + 1, n):
            vb = {basis[ib]: Fraction(1)}
            ab = table[(basis[ia], basis[ib])]
            for ic in range(ib + 1, n):
                vc = {basis[ic]: Fraction(1)}
                bc = table[(basis[ib], basis[ic])]
                ca = table[(basis[ic], basis[ia])]
                total = {}
                for u, w in ((va, bc), (vb, ca), (vc, ab)):
                    for lbl, v in bracket_vec(table, u, w).items():
                        vec_add(total, lbl, v)
                if total:
                    return fail("jacobi", witness=(basis[ia], basis[ib], basis[ic]))
    return ok("jacobi")


def echelon_add(pivots, row) -> bool:
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


def y_quotient(c: StructureTensor):
    """The Y-quotient's expand map and rank: every y_cyclic row j < k < l,
    each Y_kj read as -Y_jk and Y_jj as zero, through `echelon_add`."""
    r = c.dim
    pivots = {}
    for j, k, l in itertools.combinations(range(r), 3):
        row = {}
        for (_, a, b), v in y_cyclic(c, j, k, l).items():
            if a != b:
                vec_add(row, ("Y", min(a, b), max(a, b)), v if a < b else -v)
        echelon_add(pivots, row)
    expand = {}
    for j, k in itertools.combinations(range(r), 2):
        lbl = ("Y", j, k)
        expand[(j, k)] = ({l: -v for l, v in pivots[lbl].items() if l != lbl}
                          if lbl in pivots else {lbl: Fraction(1)})
    return expand, len(pivots)


def matrix_closure_dim(gen: GeneratorSet) -> int:
    """The dimension of the commutator closure of the S_j and T_j, every
    matrix a row {(i, j): entry} through `echelon_add`."""
    pivots = {}

    def grows(m):
        return echelon_add(pivots, {(i, j): Fraction(v) for i, row in enumerate(m)
                                    for j, v in enumerate(row) if v})

    mats = [m for m in list(gen.S) + list(gen.T) if grows(m)]
    queue = list(mats)
    while queue:
        m = queue.pop()
        for other in list(mats):
            bracket = commutator(m, other)
            if grows(bracket):
                mats.append(bracket)
                queue.append(bracket)
    return len(pivots)


# --- densities and charges, one case at a time ------------------------------

def charge_densities(f, gen: GeneratorSet, c: StructureTensor) -> ChargeDensitySet:
    """`etc.charge_densities` through Fraction matrices: every Y_jk solved
    over Fractions (`extract_yamagutians`), and each transposed S_j, T_j and
    Y_jk, j < k, scaled to its least denominator (`matrices.stacked`) for
    its own bilinear."""
    if gen.dim != f.modes_per_site:
        raise InputError("generator size must equal modes per site")
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    cache, Y, r = QuadraticCache(f.fock.a), extract_yamagutians(gen, c), range(gen.r)
    upper = [(j, k) for j in r for k in r if j < k]
    zero, rho = sp.csr_matrix((cache.dim, cache.dim), dtype=np.int64), []
    for m in [*gen.S, *gen.T, *map(Y.get, upper)]:
        (P, den), = cache.bilinears(*stacked([list(zip(*m))], gen.dim))
        op = GQSparse(cache.dim, zero, -P, den)
        rho.append([SiteOp(f.sites, cache.dim, {x: op}) for x in range(f.sites)])
    return ChargeDensitySet(gen.r, f.sites, rho[:gen.r], rho[gen.r:2 * gen.r],
                            dict(zip(upper, rho[2 * gen.r:])), c,
                            Ledger(_states(f.modes_per_site, 2)))


def charges_by_sum(d):
    """The charges -i sum_x of d's densities as one sum and then i times it."""
    def charge(row):
        return row[0].zero_like().plus([(-1, op) for op in row]).times_i()
    return ([charge(row) for row in d.s], [charge(row) for row in d.t],
            {key: charge(row) for key, row in d.Y.items()})


def _density_bracket(a, b):
    """The table bracket realized by densities: [a, b] = i (table), so -i[a, b]."""
    return a.commutator(b).times_i().scale(-1)


def raw_yamagutian(s, t, row, j, k, x):
    """Y0_jk(x) solved from the [s_j(x), t_k(x)] relation with the operators'
    own arithmetic, row the table row of [S_j, T_k]."""
    return extract_yamagutian([ops[x] for ops in s], [ops[x] for ops in t], _density_bracket,
                              s[0][x].zero_like().plus, row, j, k)


def _commutator(a, b):
    """[a, b]; an operator commutes with itself without arithmetic, as in the
    kernel, so that an out-of-range [a, a] raises in neither."""
    return a.zero_like() if a is b else a.commutator(b)


def _label_op(stored, zero, lbl):
    """The operator of a table label: Y_kj = -Y_jk and Y_jj = 0."""
    signed = _signed(lbl)
    if signed is None:
        return zero
    sign, lbl = signed
    return stored(lbl) if sign > 0 else stored(lbl).scale(-1)


def etc_verify(d, c=None):
    c = c if c is not None else d.tensor
    if c.dim != d.r:
        raise InputError("tensor dim must match density count")
    r, N = range(d.r), range(d.sites)
    dd = yamaguti_constants(c)
    zero = d.s[0][0].zero_like()
    rep = ETCReport(CONVENTION)

    def op(lbl, x):
        return _label_op(lambda l: (d.Y[l[1:]] if l[0] == "Y" else
                                    (d.s if l[0] == "S" else d.t)[l[1]])[x], zero, lbl)

    def at(x, vec):
        return zero.plus([(v, op(lbl, x)) for lbl, v in vec.items()])

    def delta(lhs, x, y, vec):
        """lhs == i delta_xy (vec at x); for x != y without building a right side."""
        return lhs.is_zero() if x != y else lhs == at(x, vec).times_i()

    def holds(a, b=None):
        if b is None:
            vec, x = a
            return at(x, vec).is_zero()
        (la, x), (lb, y) = a, b
        return delta(_commutator(op(la, x), op(lb, y)), x, y, glc_bracket(c, dd, la, lb))

    def assoc(kind, sign, j, k, x, y):
        lhs = _commutator(op((kind, j), x), op((kind, k), y)).plus(
            [(2, d.s[j][x].commutator(d.t[k][y]))])
        return delta(lhs, x, y, {(kind, p): sign * c.c(p, j, k) for p in r})

    def eq3():
        ts_ok, tt_ok = (all(delta(_commutator(d.t[j][x], op((kind, k), y)), x, y,
                                  glc_bracket(c, dd, ("T", j), ("T", k)))
                            for j in r for k in r for x in N for y in N)
                        for kind in "ST")
        detail = (f"as printed [t,s]: {'pass' if ts_ok else 'fail'}; "
                  f"as [t,t]: {'pass' if tt_ok else 'fail'}")
        if ts_ok or tt_ok:
            return CheckReport(True, "3", None, detail)
        return CheckReport(False, "3", ("both readings fail",), detail)

    def site_pairs(ka, kb, keys):
        return (((*key, x, y), ((ka, *key[:-1]), x), ((kb, key[-1]), y))
                for key in keys for x in N for y in N)

    jk = [(j, k) for j in r for k in r]
    upper = [(j, k) for (j, k) in jk if j < k]
    jkxy = [(j, k, x, y) for (j, k) in jk for x in N for y in N]
    checks = {
        "1": (site_pairs("S", "S", jk), holds),
        "2": (site_pairs("S", "T", jk), holds),
        "3": None,
        "4": ((((j, k, x), j, k, x) for (j, k) in jk for x in N),
              lambda j, k, x: (raw_yamagutian(d.s, d.t, st_row(c, j, k), j, k, x)
                               + raw_yamagutian(d.s, d.t, st_row(c, k, j), k, j, x)).is_zero()),
        "5": ((((j, k, l, x), (y_cyclic(c, j, k, l), x))
               for (j, k) in upper for l in r if k < l for x in N), holds),
        "6": (site_pairs("Y", "S", [(j, k, n) for (j, k) in upper for n in r]), holds),
        "7": (site_pairs("Y", "T", [(j, k, n) for (j, k) in upper for n in r]), holds),
        "8": ((((j, k, l, n, x, y), (("Y", j, k), x), (("Y", l, n), y))
               for (j, k) in upper for (l, n) in upper for x in N for y in N), holds),
        "assoc-s": (((w, "S", 1, *w) for w in jkxy), assoc),
        "assoc-t": (((w, "T", -1, *w) for w in jkxy), assoc),
        "symmetry": (((w, *w) for w in jkxy),
                     lambda j, k, x, y: (d.s[j][x].commutator(d.t[k][y])
                                         == d.t[j][y].commutator(d.s[k][x]))),
    }
    for name, check in checks.items():
        rep.equations[name] = eq3() if check is None else first_failure(name, *check)
    return rep


def locality_check(d):
    fams = [("s", [(j,) for j in range(d.r)], lambda key, x: d.s[key[0]][x]),
            ("t", [(j,) for j in range(d.r)], lambda key, x: d.t[key[0]][x]),
            ("Y", list(d.Y), lambda key, x: d.Y[key][x])]
    for name_a, keys_a, get_a in fams:
        for name_b, keys_b, get_b in fams:
            for ka in keys_a:
                for kb in keys_b:
                    for x in range(d.sites):
                        for y in range(d.sites):
                            if x == y:
                                continue
                            if not get_a(ka, x).commutator(get_b(kb, y)).is_zero():
                                return fail("locality", witness=(name_a, ka, x, name_b, kb, y))
    return ok("locality")


def charge_algebra_check(q, c):
    if c.dim != q.r:
        raise InputError("tensor dim must match charge count")
    r = range(q.r)
    dd = yamaguti_constants(c)
    zero = q.sigma[0].zero_like()

    def op(lbl):
        return _label_op(lambda l: q.upsilon[l[1:]] if l[0] == "Y" else
                         (q.sigma if l[0] == "S" else q.tau)[l[1]], zero, lbl)

    def realize(vec):
        return zero.plus([(v, op(lbl)) for lbl, v in vec.items()])

    def holds(a, b=None):
        if b is None:
            return realize(a).is_zero()
        return _commutator(op(a), op(b)) == realize(glc_bracket(c, dd, a, b))

    upper = [(j, k) for j in r for k in r if j < k]
    cases = itertools.chain(
        (((name, j, k), (ka, j), (kb, k)) for j in r for k in r
         for name, ka, kb in (("ss", "S", "S"), ("st", "S", "T"), ("tt", "T", "T"))),
        ((("cyclic", j, k, l), y_cyclic(c, j, k, l)) for (j, k) in upper for l in r if k < l),
        (((name, j, k, n), ("Y", j, k), (kind, n)) for (j, k) in upper for n in r
         for name, kind in (("reductivity-sigma", "S"), ("reductivity-tau", "T"))),
        ((("yy", j, k, l, n), ("Y", j, k), ("Y", l, n)) for (j, k) in upper for (l, n) in upper))
    return first_failure("charge-algebra", cases, holds)


# --- the full Fock space ------------------------------------------------------

_SIGMA = np.array([[0, 1], [0, 0]], dtype=np.int64)
_Z = np.array([[1, 0], [0, -1]], dtype=np.int64)
_I2 = np.eye(2, dtype=np.int64)


def quaternionic_line(oct_gen, m7):
    """The generators and tensor of the first index triple closed under the
    bracket of m7 (a quaternionic subalgebra)."""
    line = next(tri for tri in itertools.combinations(range(7), 3)
                if all(i in tri for (i, j, k) in m7.entries if j in tri and k in tri))
    pos = {p: q for q, p in enumerate(line)}
    c = StructureTensor(3, {(pos[i], pos[j], pos[k]): v for (i, j, k), v in m7.entries.items()
                            if i in pos and j in pos and k in pos})
    return GeneratorSet(3, 8, [oct_gen.S[p] for p in line], [oct_gen.T[p] for p in line]), c


def full_ladder(n, N):
    """The Jordan-Wigner lowering operators of N sites of n modes on the full
    space, as [x][A]: Z x .. x Z x sigma x I x .. x I over the n*N modes."""
    modes = n * N
    ladder = []
    for m in range(modes):
        acc = sp.identity(1, dtype=np.int64, format="csr")
        for f in [_Z] * m + [_SIGMA] + [_I2] * (modes - m - 1):
            acc = sp.kron(acc, f, format="csr")
        ladder.append(GQSparse.from_int(acc))
    return [ladder[x * n:(x + 1) * n] for x in range(N)]


def embed(op, n, N, x):
    """Pi x .. x Pi x op x I x .. x I: x one-site parities Pi = Z^{n} on the
    left of the one-site operator op, which sits at site x of N."""
    left = _parity(n * x)
    ident = sp.identity(2 ** (n * (N - x - 1)), dtype=np.int64, format="csr")
    re, im = (sp.kron(sp.kron(left, part), ident, format="csr") for part in (op.re, op.im))
    return GQSparse(2 ** (n * N), re, im, op.den)


def site_factor(op, n, N, x):
    """The factor F on the 2^n-dimensional space of site x with
    op == embed(F, n, N, x) exactly, or None when op is not of that form.
    Pi and I are 1 in their first diagonal entry, so F is the block of op at
    the first (empty) state of the other sites; op is then compared with F's
    embedding."""
    d = 1 << n
    right = d ** (N - x - 1)
    states = np.arange(d)
    pick = sp.csr_matrix((np.ones(d, dtype=np.int64), (states * right, states)),
                         shape=(op.dim, d))
    factor = GQSparse(d, pick.T @ op.re @ pick, pick.T @ op.im @ pick, op.den)
    return factor if embed(factor, n, N, x) == op else None


def anticommutator(a, b):
    return a @ b + b @ a


def expected(one, c):
    """c I for a relation's c = (Re c, Im c)."""
    return one.scale(c[0]).plus([(c[1], one.times_i())])


def anticommutation_scan(prop, relations, families, witness):
    """The program's scan on full-space operators families[X][x][A]: the
    first (name, x, A, y, B) in its loop order whose relation fails."""
    some = families[relations[0][1]]
    N, n = len(some), len(some[0])
    one = GQSparse.identity(some[0][0].dim)
    for x in range(N):
        for A in range(n):
            for y in range(N):
                for B in range(n):
                    for name, X, Y, c in relations:
                        if X == Y and (y, B) < (x, A):
                            continue
                        ac = anticommutator(families[X][x][A], families[Y][y][B])
                        if not (ac == expected(one, c) if c and (x, A) == (y, B)
                                else ac.is_zero()):
                            return fail(prop, witness=witness(name, x, A, y, B))
    return ok(prop)


def site_anticommutation_scan(prop, relations, families, n, witness):
    """The program's scan on one-site operators families[X][x][A], one
    anticommutator at a time: a same-site relation is {P, Q} = c I, and a
    cross-site one holds when the later site's operator is zero or the
    earlier site's is odd under the parity Pi."""
    N = len(families[relations[0][1]])
    parity = GQSparse.from_int(_parity(n))
    one = GQSparse.identity(parity.dim)

    def odd(op):
        return anticommutator(op, parity).is_zero()

    for x in range(N):
        for A in range(n):
            for y in range(N):
                for B in range(n):
                    for name, X, Y, c in relations:
                        if X == Y and (y, B) < (x, A):
                            continue
                        P, Q = families[X][x][A], families[Y][y][B]
                        if x < y:
                            holds = Q.is_zero() or odd(P)
                        elif x > y:
                            holds = P.is_zero() or odd(Q)
                        elif c and A == B:
                            holds = anticommutator(P, Q) == expected(one, c)
                        else:
                            holds = anticommutator(P, Q).is_zero()
                        if not holds:
                            return fail(prop, witness=witness(name, x, A, y, B))
    return ok(prop)


def car_site_scan(f):
    """`car_check`, one anticommutator at a time on the one-site operators."""
    n = f.modes_per_site
    return site_anticommutation_scan("car", _CAR, {"a": [f.a] * f.sites,
                                                   "adag": [f.adag] * f.sites}, n,
                                     lambda name, x, A, y, B: (name, x * n + A, y * n + B))


def canonical_site_scan(f):
    """`canonical_etc_check`, one anticommutator at a time on the one-site fields."""
    return site_anticommutation_scan("canonical-etc", _CANONICAL, {"p0": f.p0, "u": f.u},
                                     f.modes_per_site, lambda *w: w)


def _embedded(families, n):
    N = len(next(iter(families.values())))
    return {name: [[embed(op, n, N, x) for op in row] for x, row in enumerate(ops)]
            for name, ops in families.items()}


def car_scan(f):
    """`car_check` on the full space, every one-site operator embedded."""
    n = f.modes_per_site
    families = _embedded({"a": [f.a] * f.sites, "adag": [f.adag] * f.sites}, n)
    return anticommutation_scan("car", _CAR, families,
                                lambda name, x, A, y, B: (name, x * n + A, y * n + B))


def canonical_scan(f):
    """`canonical_etc_check` on the full space, every one-site field embedded."""
    return anticommutation_scan("canonical-etc", _CANONICAL,
                                _embedded({"p0": f.p0, "u": f.u}, f.modes_per_site),
                                lambda *w: w)


def lemma_walk(a, trials, seed):
    """The bilinear lemma one trial at a time, same draws: each bilinear a sum
    of the pair products adag[m] a[mp] by the operators' own arithmetic."""
    import random

    rng = random.Random(seed)
    modes = len(a)
    adag = [op.dagger() for op in a]
    pairs = {}

    def bilinear(mat):
        terms = []
        for m, row in enumerate(mat):
            for mp, v in enumerate(row):
                if v:
                    if (m, mp) not in pairs:
                        pairs[m, mp] = adag[m] @ a[mp]
                    terms.append((v, pairs[m, mp]))
        return a[0].zero_like().plus(terms)

    for trial in range(trials):
        M = [[rng.randint(-3, 3) for _ in range(modes)] for _ in range(modes)]
        N = [[rng.randint(-3, 3) for _ in range(modes)] for _ in range(modes)]
        MN = [[sum(M[i][k] * N[k][j] - N[i][k] * M[k][j] for k in range(modes))
               for j in range(modes)] for i in range(modes)]
        if bilinear(M).commutator(bilinear(N)) != bilinear(MN):
            return fail("bilinear-lemma", witness=(trial,))
    return ok("bilinear-lemma")


def bilinear_lemma_full(f, trials, seed):
    """The bilinear lemma, same draws, on the full-space ladder operators."""
    return lemma_walk([op for row in full_ladder(f.modes_per_site, f.sites) for op in row],
                  trials, seed)


# --- finite loops and the tangent sweep -----------------------------------------

def is_quasigroup(t: CayleyTable) -> CheckReport:
    n = t.order
    full = set(range(n))
    for g in range(n):
        if set(t.table[g]) != full:
            return fail("quasigroup", witness=("row", g))
    for h in range(n):
        if {t.table[g][h] for g in range(n)} != full:
            return fail("quasigroup", witness=("column", h))
    return ok("quasigroup")


def has_unit(t: CayleyTable) -> CheckReport:
    for g in range(t.order):
        if t.table[0][g] != g or t.table[g][0] != g:
            return fail("unit", witness=(g,))
    return ok("unit")


def right_inverse(t: CayleyTable, g):
    for x in range(t.order):
        if t.table[g][x] == 0:
            return x
    return None


def is_moufang(t: CayleyTable) -> CheckReport:
    if not is_quasigroup(t).passed or not has_unit(t).passed:
        raise InputError("is_moufang requires a quasigroup with unit 0")
    n = t.order
    for g in range(n):
        gi = right_inverse(t, g)
        if gi is None or t.table[gi][g] != 0:
            return fail("moufang", witness=(g,), detail="no two-sided inverse")
    for a in range(n):
        for g in range(n):
            ag = t.table[a][g]
            for h in range(n):
                if t.table[ag][t.table[h][a]] != t.table[t.table[a][t.table[g][h]]][a]:
                    return fail("moufang", witness=(a, g, h))
    return ok("moufang")


def is_associative(t: CayleyTable) -> CheckReport:
    n = t.order
    for g in range(n):
        for h in range(n):
            gh = t.table[g][h]
            for a in range(n):
                if t.table[gh][a] != t.table[g][t.table[h][a]]:
                    return fail("associative", witness=(g, h, a))
    return ok("associative")


def chein_double_table(g: CayleyTable):
    """The rows of M(G, 2): g*h = gh, g*(hu) = (hg)u, (gu)*h = (gh^-1)u,
    (gu)*(hu) = h^-1 g."""
    n = g.order
    inv = [right_inverse(g, x) for x in range(n)]
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            table[a][b] = g.table[a][b]
            table[a][n + b] = n + g.table[b][a]
            table[n + a][b] = n + g.table[a][inv[b]]
            table[n + a][n + b] = g.table[inv[b]][a]
    return tuple(tuple(r) for r in table)


def sign_tensor(table):
    """T[a, b, i] = sign where table[a][b] = (i, sign), zero elsewhere."""
    T = np.zeros((len(table),) * 3)
    for a, row in enumerate(table):
        for b, (idx, sign) in enumerate(row):
            T[a, b, idx] = sign
    return T


_OCT_T = sign_tensor(cayley_dickson(OCTONIONS))


def octonion_product(v, w):
    """The unit-octonion chart's product of two points of R^7 (|v|, |w| < 1)."""
    def embed(v):
        v = np.asarray(v, dtype=float)
        s = float(v @ v)
        if s >= 1.0:
            raise InputError("chart argument outside |v| < 1")
        return np.concatenate(([np.sqrt(1.0 - s)], v))
    return np.einsum("a,b,abi->i", embed(v), embed(w), _OCT_T)[1:]


def tangent_structure_constants(chart, step, bracketing="left", antisymmetrize=True):
    """The central mixed second difference, one pair (j, k) and one
    commutator at a time, on single points."""
    r = chart.dim
    c = np.zeros((r, r, r))
    for j in range(r):
        ej = np.zeros(r)
        ej[j] = step
        for k in range(r):
            ek = np.zeros(r)
            ek[k] = step
            val = (chart_commutator(chart, ej, ek, bracketing)
                   - chart_commutator(chart, -ej, ek, bracketing)
                   - chart_commutator(chart, ej, -ek, bracketing)
                   + chart_commutator(chart, -ej, -ek, bracketing))
            c[:, j, k] = val / (4.0 * step * step)
    if antisymmetrize:
        c = 0.5 * (c - np.swapaxes(c, 1, 2))
    return c
