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

Factored representation.  Every density is a same-site bilinear.
`FockOps.site_space` checks once, exactly, that each ladder operator of site
x is Pi x .. x Pi x F x I x .. x I with F the one-site operator and Pi the
one-site parity (see `fock.site_factor`); since Pi^2 = I the strings of
a†_A(x) a_B(x) cancel, and s^0_j(x) equals I x .. x L x .. x I, with L the
same bilinear on the 2^n-dimensional space of one site.  `charge_densities`
builds each s and t density as that site factor (a `fock.SiteOp`).
Everything after that stays factored and exact: embeddings at different sites
commute, so a commutator is the per-site commutator of the factors (a
cross-site commutator is zero without any arithmetic), and a sum of
embeddings sum_x E_x(D_x) is zero exactly when every D_x is c_x * I with
sum_x c_x = 0.  The scans below are written against the operator interface
(plus, +, -, scale, times_i, commutator, ==, is_zero, zero_like) and give the
same reports on plain full-space `GQSparse` operators.

Relations.  Every right side is a row of `birep.glc_bracket` or the cyclic
relation `birep.y_cyclic`.  Densities realize the table at site labels
(label, x) with the Kronecker delta, [A(x), B(y)] = i delta_xy (row at x), and
charges realize it as it stands; both read Y_kj as -Y_jk and Y_jj as zero
(`_antisymmetric`, behind `ChargeDensitySet.yam` and `ChargeSet.ups`).  The
Yamagutian densities are solved from the [S_j, T_k] row by
`birep.extract_yamagutian`, whose bracket for densities is -i[a, b].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .algebra import StructureTensor, yamaguti_constants
from .birep import GeneratorSet, extract_yamagutian, glc_bracket, y_cyclic
from .fock import FieldSet, SiteOp
from .matrices import transpose
from .report import CheckReport, InputError, fail, first_failure, ok

CONVENTION = ("s0_j(x) = -i a†(x) S_j^T a(x); t0_j(x) = -i a†(x) T_j^T a(x); "
              "Y0_jk(x) = i[s0_j(x), t0_k(x)] + (1/3) c^p_jk (s0_p(x) - t0_p(x)); "
              "charges are -i times plain site sums; delta(x-y) is the Kronecker "
              "delta at unit lattice spacing")


def _antisymmetric(stored, zero, j, k):
    """Y_jk from the entries stored for j < k: Y_kj = -Y_jk and Y_jj = 0."""
    if j == k:
        return zero()
    return stored((j, k)) if j < k else stored((k, j)).scale(-1)


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

    def yam(self, j, k, x):
        return _antisymmetric(lambda key: self.Y[key][x], self.s[0][0].zero_like, j, k)


def _site_density(f: FieldSet, x: int, mat) -> SiteOp:
    """-i a†(x) mat^T a(x) = sum_{A,B} p^0_A(x) mat_BA u^B(x), held as its
    factor on one site.  `site_space` has checked that the ladder operators
    of site x embed the one-site ones, which makes the factor's embedding the
    Jordan-Wigner density of the full space."""
    factor = f.fock.site_space().products.bilinear(transpose(mat)).times_i().scale(-1)
    return SiteOp(f.sites, factor.dim, {x: factor})


def _density_bracket(a, b):
    """The table bracket realized by densities: [a, b] = i (table), so -i[a, b]."""
    return a.commutator(b).times_i().scale(-1)


def _raw_yamagutian(s, t, c: StructureTensor, j, k, x):
    """Y0_jk(x) solved from the [s_j(x), t_k(x)] relation."""
    return extract_yamagutian([row[x] for row in s], [row[x] for row in t], _density_bracket,
                              s[0][x].zero_like().plus, c, j, k)


def charge_densities(f: FieldSet, gen: GeneratorSet, c: StructureTensor) -> ChargeDensitySet:
    """Build s^0_j(x), t^0_j(x) from the generator matrices and extract the
    Yamagutian densities from the [s, t] relation."""
    if gen.dim != f.modes_per_site:
        raise InputError("generator size must equal modes per site")
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    s = [[_site_density(f, x, gen.S[j]) for x in range(f.sites)] for j in range(gen.r)]
    t = [[_site_density(f, x, gen.T[j]) for x in range(f.sites)] for j in range(gen.r)]
    Y = {(j, k): [_raw_yamagutian(s, t, c, j, k, x) for x in range(f.sites)]
         for j in range(gen.r) for k in range(j + 1, gen.r)}
    return ChargeDensitySet(gen.r, f.sites, s, t, Y, c)


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


def etc_verify(d: ChargeDensitySet, c: StructureTensor = None) -> ETCReport:
    """Exact check of the density ETC set: the numbered equations, the
    minimal-violation forms of the associative ETC, and the [s,t] = [t,s]
    symmetry, with the Kronecker delta in place of delta(x-y).

    Equations 1, 2 and 5-8 are rows of `birep.glc_bracket` or `birep.y_cyclic`
    at site labels (label, x): [A(x), B(y)] = i delta_xy (table row at x)."""
    c = c if c is not None else d.tensor
    if c.dim != d.r:
        raise InputError("tensor dim must match density count")
    r, N = range(d.r), range(d.sites)
    dd = yamaguti_constants(c)
    zero = d.s[0][0].zero_like()
    rep = ETCReport(CONVENTION)

    def op(lbl, x):
        if lbl[0] == "Y":
            return d.yam(lbl[1], lbl[2], x)
        return (d.s if lbl[0] == "S" else d.t)[lbl[1]][x]

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
        return delta(op(la, x).commutator(op(lb, y)), x, y, glc_bracket(c, dd, la, lb))

    def assoc(kind, sign, j, k, x, y):
        # [a_j(x), a_k(y)] = i delta_xy sign c^p_jk a_p(x) - 2 [s_j(x), t_k(y)]
        lhs = op((kind, j), x).commutator(op((kind, k), y)).plus(
            [(2, d.s[j][x].commutator(d.t[k][y]))])
        return delta(lhs, x, y, {(kind, p): sign * c.c(p, j, k) for p in r})

    def eq3():
        # the printed equation pairs [t_j, s_k] with the [T_j, T_k]-shaped
        # right side; both readings are tried and the verdict recorded
        ts_ok, tt_ok = (all(delta(d.t[j][x].commutator(op((kind, k), y)), x, y,
                                  glc_bracket(c, dd, ("T", j), ("T", k)))
                            for j in r for k in r for x in N for y in N)
                        for kind in "ST")
        detail = (f"as printed [t,s]: {'pass' if ts_ok else 'fail'}; "
                  f"as [t,t]: {'pass' if tt_ok else 'fail'}")
        if ts_ok or tt_ok:
            return CheckReport(True, "3", None, detail)
        return CheckReport(False, "3", ("both readings fail",), detail)

    def site_pairs(ka, kb, keys):
        # [ka_key(x), kb_n(y)] over keys (j, .., n), then x, then y
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
              lambda j, k, x: (_raw_yamagutian(d.s, d.t, c, j, k, x)
                               + _raw_yamagutian(d.s, d.t, c, k, j, x)).is_zero()),
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


def locality_check(d: ChargeDensitySet) -> CheckReport:
    """Commutators of densities at distinct sites must vanish exactly, for
    every pair drawn from the s, t, and Yamagutian families."""
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


@dataclass
class ChargeSet:
    """Integrated charges sigma_j = -i sum_x s^0_j(x), tau_j, Upsilon_jk."""

    r: int
    sigma: List[SiteOp]
    tau: List[SiteOp]
    upsilon: Dict[Tuple[int, int], SiteOp]  # keys j < k

    def ups(self, j, k):
        return _antisymmetric(self.upsilon.__getitem__, self.sigma[0].zero_like, j, k)


def charges(d: ChargeDensitySet) -> ChargeSet:
    zero = d.s[0][0].zero_like()

    def charge(mats):
        # -i sum_x mats[x] = i sum_x (-mats[x])
        return zero.plus([(-1, m) for m in mats]).times_i()

    sigma = [charge(d.s[j]) for j in range(d.r)]
    tau = [charge(d.t[j]) for j in range(d.r)]
    ups = {key: charge(mats) for key, mats in d.Y.items()}
    return ChargeSet(d.r, sigma, tau, ups)


def charge_algebra_check(q: ChargeSet, c: StructureTensor) -> CheckReport:
    """The integrated charges must satisfy the full generalized Lie-Cartan
    bracket table: the charge algebra is a birepresentation of the tangent
    Mal'tsev algebra."""
    if c.dim != q.r:
        raise InputError("tensor dim must match charge count")
    r = range(q.r)
    dd = yamaguti_constants(c)
    zero = q.sigma[0].zero_like()

    def op(lbl):
        if lbl[0] == "Y":
            return q.ups(lbl[1], lbl[2])
        return (q.sigma if lbl[0] == "S" else q.tau)[lbl[1]]

    def realize(vec):
        return zero.plus([(v, op(lbl)) for lbl, v in vec.items()])

    def holds(a, b=None):
        if b is None:
            return realize(a).is_zero()
        return op(a).commutator(op(b)) == realize(glc_bracket(c, dd, a, b))

    upper = [(j, k) for j in r for k in r if j < k]
    cases = itertools.chain(
        (((name, j, k), (ka, j), (kb, k)) for j in r for k in r
         for name, ka, kb in (("ss", "S", "S"), ("st", "S", "T"), ("tt", "T", "T"))),
        ((("cyclic", j, k, l), y_cyclic(c, j, k, l)) for (j, k) in upper for l in r if k < l),
        (((name, j, k, n), ("Y", j, k), (kind, n)) for (j, k) in upper for n in r
         for name, kind in (("reductivity-sigma", "S"), ("reductivity-tau", "T"))),
        ((("yy", j, k, l, n), ("Y", j, k), ("Y", l, n)) for (j, k) in upper for (l, n) in upper))
    return first_failure("charge-algebra", cases, holds)


def bilinear_lemma_check(f: FieldSet, trials: int = 100, seed: int = 0) -> CheckReport:
    """[a† M a, a† N a] = a† [M,N] a for seeded random integer matrices; this
    single identity carries the generator relations to the density algebra."""
    import random

    rng = random.Random(seed)
    modes = f.modes_per_site * f.sites
    cache = f.fock.products
    for trial in range(trials):
        M = [[rng.randint(-3, 3) for _ in range(modes)] for _ in range(modes)]
        N = [[rng.randint(-3, 3) for _ in range(modes)] for _ in range(modes)]
        MN = [[sum(M[i][k] * N[k][j] - N[i][k] * M[k][j] for k in range(modes))
               for j in range(modes)] for i in range(modes)]
        lhs = cache.bilinear(M).commutator(cache.bilinear(N))
        if lhs != cache.bilinear(MN):
            return fail("bilinear-lemma", witness=(trial,))
    return ok("bilinear-lemma")
