"""Moufang-Noether charge densities and charges on the lattice, and exact
verification of their equal-time commutator algebra.

Density convention.  With fermionic fields, reordering a bilinear past a
bilinear flips the sign of the one-body commutator, so the contraction in
s^0_j = p^0 S_j u is taken against the transposed generator matrix:

    s^0_j(x) = -i a†(x) S_j^T a(x),   t^0_j(x) = -i a†(x) T_j^T a(x).

This is the unique index convention under which the map M -> -a† M^T a is a
Lie bracket homomorphism, and the density and charge algebras then close with
the same structure constants c and d as the generator-level relations.  The
untransposed map Q(M) = a† M a satisfies [Q(M), Q(N)] = a† [M,N] a, which is
the oracle identity checked by `bilinear_lemma_check`.

Factored representation.  Every density is a same-site bilinear, so the
Jordan-Wigner strings of a†_A(x) a_B(x) cancel (Pi^2 = I, see `fock`) and
s^0_j(x) is I x .. x L x .. x I, with L the same bilinear on the
2^n-dimensional space of one site: `charge_densities` builds each density as
that site factor (a `fock.SiteOp`), sliced from block-diagonal products of a
`fock.QuadraticCache` over the site's lowering operators alone (its row of
a† is their stack's transpose; the Fock space keeps no product cache).
Everything after that
stays factored and exact: a commutator is the per-site commutator of the
factors (zero across sites without arithmetic), and a sum of embeddings
sum_x E_x(D_x) is zero exactly when every D_x is c_x * I with sum_x c_x = 0.

Relations.  Every right side is a table row, which each check reads off
`birep.bracket_rows` and `birep.cyclic_rows` in one pass over their
entries (`_table`).  Densities realize the table at site labels (label, x)
with the Kronecker delta, [A(x), B(y)] = i delta_xy (row at x), and charges
realize it as it stands; both read Y_kj as -Y_jk and Y_jj as zero
(`birep._signed`).  Every density is rho(M) = -i a† M^T a of its matrix,
read off the integer stack into which the generator checks solve Y_jk
(`birep._labelled_operators`).  Given the CAR, [rho(M), rho(N)] = i
rho([M, N]), so rho(Y_jk) is the convention's i[s_j, t_k] + (1/3) c^p_jk
(s_p - t_p), which equation 2 checks.

One kernel, one ledger.  `etc_verify`, `locality_check` and
`charge_algebra_check` write each case, in the order they walk them, as one
row of terms: its commutators and the operators, or i times them, of its
right side.  `relations.RelationKernel` takes all of a check's walks in one
call (`etc_verify` its eleven equations) and decides each a chunk of rows
at a time: one exact sparse product L R, with R the distinct site factors
stacked once at one common denominator and L the coefficients of each
one-site residual not yet decided, and the c_x I rule above on every
residual.  The kernels of one density set share its `relations.Ledger`,
which `charges` hands on to the charges: it names each factor object and
keeps every residual decided.  The charges are -i sum_x of the densities,
each factor the -i F that the ledger makes of a density's factor F and
enters in F's class at i^3, so at each site every residual of the theorem
is one of the density ETC times -1 or +-i, and after `etc_verify` the
theorem computes none.  Every chunk is bounded below 2^62 before it
computes (`BoundError` past it), and each walk's first failing row is its
witness.  Plain full-space `GQSparse` operators are one factor of a
one-site space there, so the same checks give the same reports on them.
The lemma decides its trials a chunk at a time, on block diagonals of their
bilinears (`fock.QuadraticCache.blocks`).  The case-by-case walks, the
per-trial lemma and the per-pair Yamagutian solve are the test oracles
(`tests/oracles.py`).

The states of at most two particles.  The ledger that `charge_densities`
gives its set decides every residual on the 1 + n + n(n-1)/2 states of at
most two particles of a site (37 of 256 at 8 modes, 137 of 65536 at 16),
while the set holds the densities on the whole space of the site.  That is
exact: every density conserves particle number, so each residual does, and
restricted to those states it is the residual of the restricted densities;
given the CAR it has normal-ordered degree <= 4, so its one- and two-body
parts are read off its entries between states of one and two particles,
and it is c_x I exactly when it is c_x I there, c_x its vacuum entry (see
`relations`, "Sector").  The lemma rests on the same argument.  A hand-built
`ChargeDensitySet` or `ChargeSet` has a ledger of the whole space.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from .algebra import StructureTensor
from .birep import (GeneratorSet, _labelled_operators, _signed, bracket_rows, cyclic_rows,
                    labels)
from .fock import FieldSet, GQSparse, QuadraticCache, SiteOp, _ladder, _states
from .matrices import CHUNK, commutator, first_failure_chunked, fits_int64
from .relations import Ledger, RelationKernel
from .report import BoundError, CheckReport, InputError

CONVENTION = ("s0_j(x) = -i a†(x) S_j^T a(x); t0_j(x) = -i a†(x) T_j^T a(x); "
              "Y0_jk(x) = i[s0_j(x), t0_k(x)] + (1/3) c^p_jk (s0_p(x) - t0_p(x)); "
              "charges are -i times plain site sums; delta(x-y) is the Kronecker "
              "delta at unit lattice spacing")

LEMMA_BUDGET = 1 << 18    # a chunk of lemma trials ends once their d^2 each reach this


@dataclass
class ChargeDensitySet:
    """Site-local densities s^0_j(x), t^0_j(x) and extracted Yamagutians, as
    `SiteOp`s (or any operators with the same interface, such as GQSparse)."""

    r: int
    sites: int
    s: List[List[SiteOp]]              # s[j][x]
    t: List[List[SiteOp]]
    Y: Dict[Tuple[int, int], List[SiteOp]]  # keys j < k; Y[(j,k)][x]
    tensor: StructureTensor
    ledger: Ledger = field(default_factory=Ledger, repr=False, compare=False)


def charge_densities(f: FieldSet, gen: GeneratorSet, c: StructureTensor) -> ChargeDensitySet:
    """The densities rho(M) = -i a†(x) M^T a(x) of M = S_j, T_j and Y_jk,
    j < k, read transposed off `birep._labelled_operators`' integer stack
    (which solves those Y_jk alone):
    one `QuadraticCache.bilinears` call, each bounded at M's own least
    denominator, one `GQSparse` from its part and shared by every site; the
    set's ledger decides on the states of at most two particles of a site."""
    if gen.dim != f.modes_per_site:
        raise InputError("generator size must equal modes per site")
    r = range(gen.r)
    upper = [(j, k) for j in r for k in r if j < k]
    cache, (ops, scale) = QuadraticCache(f.fock.a), _labelled_operators(gen, c, upper)
    zero, rho = sp.csr_matrix((cache.dim, cache.dim), dtype=np.int64), []
    for P, den in cache.bilinears(ops.transpose(0, 2, 1), scale):
        op = GQSparse(cache.dim, zero, -P, den)    # -i a† M^T a, one GQSparse each
        rho.append([SiteOp(f.sites, cache.dim, {x: op}) for x in range(f.sites)])
    return ChargeDensitySet(gen.r, f.sites, rho[:gen.r], rho[gen.r:2 * gen.r],
                            dict(zip(upper, rho[2 * gen.r:])), c,
                            Ledger(_states(f.modes_per_site, 2)))


@dataclass
class ETCReport:
    convention: str
    equations: Dict[str, CheckReport] = field(default_factory=dict)

    @property
    def passed(self):
        return all(rep.passed for rep in self.equations.values())

    def to_dict(self):
        return {"convention": self.convention,
                "equations": {k: v.to_dict() for k, v in self.equations.items()}}


def _table(c: StructureTensor):
    """({(a, b): table row} for S-S, S-T, T-T and Y_jk with S_n, T_n, Y_ln,
    j < k and l < n; {(j, k, l): cyclic relation} for j < k < l): the rows
    the density and charge relations read (`birep.bracket_rows`,
    `birep.cyclic_rows`), each as its ((sign * value, den), stored label)
    pairs in label order (`_signed`), value / den the coefficient as the
    integers that a kernel term takes, from one pass over their entries;
    made once per tensor and kept on it."""
    if c._table is not None:
        return c._table
    r, lbls = range(c.dim), labels(c.dim)
    index = {lbl: w for w, lbl in enumerate(lbls)}
    signed = [_signed(lbl) for lbl in lbls]
    S, T, upper = lbls[:c.dim], lbls[c.dim:2 * c.dim], [y for y in lbls[2 * c.dim:] if y[1] < y[2]]
    pairs = ([(a, b) for A, B in ((S, S), (S, T), (T, T)) for a in A for b in B]
             + [(y, b) for y in upper for b in S + T + upper])
    triples = [(j, k, l) for j in r for k in r for l in r if j < k < l]

    def stored(keys, R, den):
        out, entry = {key: [] for key in keys}, {}    # one ((value, den), label) per pair met
        for n, w, v in zip(R.n.tolist(), R.t.tolist(), R.v.tolist()):
            if signed[w]:
                v *= signed[w][0]
                out[keys[n]].append(entry.setdefault((v, w), ((v, den), signed[w][1])))
        return {key: tuple(row) for key, row in out.items()}
    a, b = np.array([(index[a], index[b]) for a, b in pairs], dtype=np.int64).T
    object.__setattr__(c, "_table", (
        stored(pairs, *bracket_rows(c, a, b)),
        stored(triples, *cyclic_rows(c, *np.array(triples, dtype=np.int64).reshape(-1, 3).T))))
    return c._table


def _density_kernel(d: ChargeDensitySet):
    """The kernel over every stored density, and its index {(label, x): operator}."""
    rows = ([(("S", j), row) for j, row in enumerate(d.s)]
            + [(("T", j), row) for j, row in enumerate(d.t)]
            + [(("Y", *key), row) for key, row in d.Y.items()])
    ops = {(lbl, x): row[x] for lbl, row in rows for x in range(d.sites)}
    return RelationKernel(list(ops.values()), d.ledger), {key: i for i, key in enumerate(ops)}


def etc_verify(d: ChargeDensitySet, c: StructureTensor = None) -> ETCReport:
    """Exact check of the density ETC set: the numbered equations, the
    minimal-violation forms of the associative ETC, and the [s,t] = [t,s]
    symmetry, with the Kronecker delta in place of delta(x-y).

    Equations 1, 2 and 5-8 are table rows or cyclic relations (`_table`)
    at site labels (label, x), one kernel row per case; a pair at x != y has
    no right side.  Equation 4, Y0_jk + Y0_kj = 0, is decided
    as i times that sum, so that its commutators keep real coefficients."""
    c = c if c is not None else d.tensor
    if c.dim != d.r:
        raise InputError("tensor dim must match density count")
    r, N = range(d.r), range(d.sites)
    rows, cyclic = _table(c)
    kernel, index = _density_kernel(d)
    rep = ETCReport(CONVENTION)

    def comm(la, x, lb, y, q=1):
        (sa, a), (sb, b) = _signed(la), _signed(lb)
        return "c", q * sa * sb, index[a, x], index[b, y]

    def at(x, vec, kind, sign=1):
        return [(kind, (sign * v, den), index[lbl, x]) for (v, den), lbl in vec]

    def pair(la, x, lb, y, vec=None):
        # [A(x), B(y)] - i delta_xy (vec at x), vec the table row of [A, B]
        if x != y:
            return (comm(la, x, lb, y),)
        vec = rows[la, lb] if vec is None else vec
        return (comm(la, x, lb, y), *at(x, vec, "i", -1))

    def yamagutian_sum(j, k, x):
        # i (Y0_jk(x) + Y0_kj(x)), each i Y0_ab = -[s_a, t_b] + sum v i X_p
        # from the [S_a, T_b] row -Y_ab + sum v X_p
        return [term for a, b in ((j, k), (k, j))
                for term in [("c", -1, index[("S", a), x], index[("T", b), x]),
                             *(("i", v, index[lbl, x]) for v, lbl in rows[("S", a), ("T", b)]
                               if lbl[0] != "Y")]]

    def assoc(kind, sign, j, k, x, y):
        # [a_j(x), a_k(y)] = i delta_xy sign c^p_jk a_p(x) - 2 [s_j(x), t_k(y)]
        vec = [((sign * v.numerator, v.denominator), (kind, p)) for p in r
               if (v := c.c(p, j, k))]
        return (comm((kind, j), x, (kind, k), y), comm(("S", j), x, ("T", k), y, 2),
                *(at(x, vec, "i", -1) if x == y else ()))

    def site_pairs(ka, kb, keys):
        # [ka_key(x), kb_n(y)] over keys (j, .., n), then x, then y
        return (((*key, x, y), *pair((ka, *key[:-1]), x, (kb, key[-1]), y))
                for key in keys for x in N for y in N)

    def reading(kind):
        # the printed equation pairs [t_j, s_k] with the [T_j, T_k]-shaped
        # right side; both readings are tried and the verdict recorded
        return (((j, k, x, y), *pair(("T", j), x, (kind, k), y, rows[("T", j), ("T", k)]))
                for j in r for k in r for x in N for y in N)

    def eq3(ts, tt):
        detail = (f"as printed [t,s]: {'pass' if ts.passed else 'fail'}; "
                  f"as [t,t]: {'pass' if tt.passed else 'fail'}")
        if ts.passed or tt.passed:
            return CheckReport(True, "3", None, detail)
        return CheckReport(False, "3", ("both readings fail",), detail)

    jk = [(j, k) for j in r for k in r]
    upper = [(j, k) for (j, k) in jk if j < k]
    jkxy = [(j, k, x, y) for (j, k) in jk for x in N for y in N]
    checks = {
        "1": site_pairs("S", "S", jk),
        "2": site_pairs("S", "T", jk),
        "3": (reading("S"), reading("T")),
        "4": (((j, k, x), *yamagutian_sum(j, k, x)) for (j, k) in jk for x in N),
        "5": (((j, k, l, x), *at(x, cyclic[j, k, l], "o"))
              for (j, k) in upper for l in r if k < l for x in N),
        "6": site_pairs("Y", "S", [(j, k, n) for (j, k) in upper for n in r]),
        "7": site_pairs("Y", "T", [(j, k, n) for (j, k) in upper for n in r]),
        "8": (((j, k, l, n, x, y), *pair(("Y", j, k), x, ("Y", l, n), y))
              for (j, k) in upper for (l, n) in upper for x in N for y in N),
        "assoc-s": ((w, *assoc("S", 1, *w)) for w in jkxy),
        "assoc-t": ((w, *assoc("T", -1, *w)) for w in jkxy),
        "symmetry": (((j, k, x, y), comm(("S", j), x, ("T", k), y),
                      comm(("T", j), y, ("S", k), x, -1)) for (j, k, x, y) in jkxy),
    }
    reports = iter(kernel.first_failures([(name, rows) for name, cases in checks.items()
                                          for rows in (cases if name == "3" else (cases,))]))
    for name in checks:
        rep.equations[name] = eq3(next(reports), next(reports)) if name == "3" else next(reports)
    return rep


def locality_check(d: ChargeDensitySet) -> CheckReport:
    """Commutators of densities at distinct sites must vanish exactly, for
    every pair drawn from the s, t, and Yamagutian families."""
    kernel, index = _density_kernel(d)
    fams = [("s", [(j,) for j in range(d.r)], "S"), ("t", [(j,) for j in range(d.r)], "T"),
            ("Y", list(d.Y), "Y")]
    return kernel.first_failure("locality", (
        ((name_a, ka, x, name_b, kb, y), ("c", 1, index[(la, *ka), x], index[(lb, *kb), y]))
        for name_a, keys_a, la in fams for name_b, keys_b, lb in fams
        for ka in keys_a for kb in keys_b
        for x in range(d.sites) for y in range(d.sites) if x != y))


@dataclass
class ChargeSet:
    """Integrated charges sigma_j = -i sum_x s^0_j(x), tau_j, Upsilon_jk."""

    r: int
    sigma: List[SiteOp]
    tau: List[SiteOp]
    upsilon: Dict[Tuple[int, int], SiteOp]  # keys j < k
    ledger: Ledger = field(default_factory=Ledger, repr=False, compare=False)


def charges(d: ChargeDensitySet) -> ChargeSet:
    """The charges of d, -i sum_x of its densities, sharing its ledger, which
    makes -i F once for each distinct factor F of the sums
    (`relations.Ledger.minus_i`), shared by the sites that hold it.  A site
    that one density reaches holds its F."""
    minus_i = d.ledger.minus_i

    def charge(row):
        total = row[0].zero_like().plus([(1, op) for op in row])
        if isinstance(total, GQSparse):
            return minus_i(total)
        return SiteOp(total.sites, total.site_dim,
                      {x: minus_i(F) for x, F in total.factors.items()})

    return ChargeSet(d.r, [charge(ops) for ops in d.s], [charge(ops) for ops in d.t],
                     {key: charge(ops) for key, ops in d.Y.items()}, d.ledger)


def charge_algebra_check(q: ChargeSet, c: StructureTensor) -> CheckReport:
    """The integrated charges must satisfy the full generalized Lie-Cartan
    bracket table: the charge algebra is a birepresentation of the tangent
    Mal'tsev algebra.  Each case is one row of kernel terms
    (`relations.RelationKernel`), as in `etc_verify`."""
    if c.dim != q.r:
        raise InputError("tensor dim must match charge count")
    r = range(q.r)
    rows, cyclic = _table(c)
    labels = ([("S", j) for j in r] + [("T", j) for j in r]
              + [("Y", *key) for key in q.upsilon])
    index = {lbl: i for i, lbl in enumerate(labels)}
    kernel = RelationKernel(q.sigma + q.tau + list(q.upsilon.values()), q.ledger)

    def realize(vec, sign=1):
        return [("o", (sign * v, den), index[lbl]) for (v, den), lbl in vec]

    def pair(a, b):
        # [a, b] - (table row of [a, b])
        (sa, ia), (sb, ib) = _signed(a), _signed(b)
        return ("c", sa * sb, index[ia], index[ib]), *realize(rows[a, b], -1)

    upper = [(j, k) for j in r for k in r if j < k]
    cases = itertools.chain(
        (((name, j, k), *pair((ka, j), (kb, k))) for j in r for k in r
         for name, ka, kb in (("ss", "S", "S"), ("st", "S", "T"), ("tt", "T", "T"))),
        ((("cyclic", j, k, l), *realize(cyclic[j, k, l]))
         for (j, k) in upper for l in r if k < l),
        (((name, j, k, n), *pair(("Y", j, k), (kind, n))) for (j, k) in upper for n in r
         for name, kind in (("reductivity-sigma", "S"), ("reductivity-tau", "T"))),
        ((("yy", j, k, l, n), *pair(("Y", j, k), ("Y", l, n)))
         for (j, k) in upper for (l, n) in upper))
    return kernel.first_failure("charge-algebra", cases)


def _lemma(a, trials: int, seed: int) -> CheckReport:
    """[a† M a, a† N a] = a† [M,N] a for the integer lowering operators `a`,
    M and N seeded random integer matrices over all of their modes; the
    witness is the first failing trial.  A chunk's [M^, N^] - Z^ is one pair
    of products, bounded per trial by 2 d b_M b_N + b_Z (`QuadraticCache.bounds`):
    the trials before the first one whose bound reaches 2^62 are decided,
    and BoundError is raised when none of them fails."""
    cache = QuadraticCache(a)
    d, m = cache.dim, len(a)
    chunk = min(CHUNK, -(-LEMMA_BUDGET // (d * d)))

    def fails(cases):
        M, N = (np.array(mats, dtype=np.int64) for mats in zip(*cases))
        Z = commutator(M, N)
        (bM, bN, bZ), bad = (cache.bounds(X) for X in (M, N, Z)), np.zeros(len(cases), dtype=bool)
        limit = next((t for t in range(len(cases))
                      if not fits_int64(2 * d * bM[t] * bN[t] + bZ[t])), len(cases))
        if limit:
            Mh, Nh, Zh = (cache.blocks(X[:limit]) for X in (M, N, Z))
            bad[(Mh @ Nh - Nh @ Mh - Zh).nonzero()[0] // d] = True
        if limit < len(cases) and not bad.any():
            raise BoundError()
        return bad

    return first_failure_chunked("bilinear-lemma", _draws(seed, m, trials, chunk), fails, chunk)


def _draws(seed, m, trials, chunk):
    """((trial,), M, N): random.Random(seed)'s randint(-3, 3), M's then N's row by row.
    A draw keeps the top three bits of the first 32-bit word below 7, so they are
    read from getrandbits(32 k) by chunks of trials, its first word lowest."""
    rng, size, values = random.Random(seed), 2 * m * m, np.zeros(0, dtype=np.int64)
    for trial in range(trials):
        while len(values) < size:
            k = size * min(chunk, trials - trial) * 8 // 7 + 64
            words = np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), "<u4") >> 29
            values = np.concatenate([values, words[words < 7].astype(np.int64) - 3])
        yield (trial,), *values[:size].reshape(2, m, m)
        values = values[size:]


def bilinear_lemma_check(f: FieldSet, trials: int = 100, seed: int = 0) -> CheckReport:
    """[a† M a, a† N a] = a† [M,N] a for seeded random integer matrices over
    all m = n*N modes, the identity that carries the generator relations to
    the density algebra.  Only f's shape is read: it is decided on `_ladder`'s
    m-mode operators on the 1 + m + m(m-1)/2 states of at most 2 particles,
    equal to the embedded one-site ladder that `car_check` holds to the CAR.
    Given the CAR, the residual conserves particle number and has
    normal-ordered degree <= 4, so its normal form is read exactly on 0-2
    particles (hard-core bosons pass on 1, fail on 2)."""
    modes = f.modes_per_site * f.sites
    return _lemma(_ladder(modes, _states(modes, 2)), trials, seed)
