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
(+, -, scale, times_i, commutator, ==, is_zero, zero_like) and give the same
reports on plain full-space `GQSparse` operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import StructureTensor, yamaguti_constants
from .birep import GeneratorSet
from .fock import FieldSet, SiteOp
from .report import CheckReport, InputError, fail, ok

CONVENTION = ("s0_j(x) = -i a†(x) S_j^T a(x); t0_j(x) = -i a†(x) T_j^T a(x); "
              "Y0_jk(x) = i[s0_j(x), t0_k(x)] + (1/3) c^p_jk (s0_p(x) - t0_p(x)); "
              "charges are -i times plain site sums; delta(x-y) is the Kronecker "
              "delta at unit lattice spacing")


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
        if j == k:
            return self.s[0][0].zero_like()
        if j < k:
            return self.Y[(j, k)][x]
        return self.Y[(k, j)][x].scale(-1)


def _site_density(f: FieldSet, x: int, mat) -> SiteOp:
    """-i a†(x) mat^T a(x) = sum_{A,B} p^0_A(x) mat_BA u^B(x), held as its
    factor on one site.  `site_space` has checked that the ladder operators
    of site x embed the one-site ones, which makes the factor's embedding the
    Jordan-Wigner density of the full space."""
    mat_t = [list(col) for col in zip(*mat)]
    factor = f.fock.site_space().products.bilinear(mat_t).times_i().scale(-1)
    return SiteOp(f.sites, factor.dim, {x: factor})


def _extract_yamagutian(d_s, d_t, c: StructureTensor, j, k, x):
    acc = d_s[j][x].commutator(d_t[k][x]).times_i()
    third = Fraction(1, 3)
    for p in range(c.dim):
        v = c.c(p, j, k)
        if v:
            acc = acc + d_s[p][x].scale(third * v) + d_t[p][x].scale(-third * v)
    return acc


def charge_densities(f: FieldSet, gen: GeneratorSet, c: StructureTensor) -> ChargeDensitySet:
    """Build s^0_j(x), t^0_j(x) from the generator matrices and extract the
    Yamagutian densities from the [s, t] relation."""
    if gen.dim != f.modes_per_site:
        raise InputError("generator size must equal modes per site")
    if gen.r != c.dim:
        raise InputError("generator count must match tensor dim")
    s = [[_site_density(f, x, gen.S[j]) for x in range(f.sites)] for j in range(gen.r)]
    t = [[_site_density(f, x, gen.T[j]) for x in range(f.sites)] for j in range(gen.r)]
    Y = {}
    for j in range(gen.r):
        for k in range(j + 1, gen.r):
            Y[(j, k)] = [_extract_yamagutian(s, t, c, j, k, x) for x in range(f.sites)]
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


def _lincomb(zero, terms):
    acc = zero
    for q, m in terms:
        if q:
            acc = acc + m.scale(Fraction(q))
    return acc


def etc_verify(d: ChargeDensitySet, c: StructureTensor = None) -> ETCReport:
    """Exact check of the density ETC set: the numbered equations, the
    minimal-violation forms of the associative ETC, and the [s,t] = [t,s]
    symmetry, with the Kronecker delta in place of delta(x-y)."""
    c = c if c is not None else d.tensor
    if c.dim != d.r:
        raise InputError("tensor dim must match density count")
    r, N = d.r, d.sites
    zero = d.s[0][0].zero_like()
    dd = yamaguti_constants(c)
    third = Fraction(1, 3)
    rep = ETCReport(CONVENTION)

    def check(name, scan):
        for witness, detail in scan():
            rep.equations[name] = fail(name, witness=witness, detail=detail)
            return
        rep.equations[name] = ok(name)

    def rhs_sites(x, y, terms):
        # i * (terms at x) * delta_xy
        if x != y:
            return zero
        return _lincomb(zero, terms).times_i()

    def scan_eq1():
        for j in range(r):
            for k in range(r):
                for x in range(N):
                    for y in range(N):
                        terms = [(2, d.yam(j, k, x))]
                        terms += [(third * c.c(p, j, k), d.s[p][x]) for p in range(r)]
                        terms += [(2 * third * c.c(p, j, k), d.t[p][x]) for p in range(r)]
                        if d.s[j][x].commutator(d.s[k][y]) != rhs_sites(x, y, terms):
                            yield (j, k, x, y), None

    def scan_eq2():
        for j in range(r):
            for k in range(r):
                for x in range(N):
                    for y in range(N):
                        terms = [(-1, d.yam(j, k, x))]
                        terms += [(third * c.c(p, j, k), d.s[p][x]) for p in range(r)]
                        terms += [(-third * c.c(p, j, k), d.t[p][x]) for p in range(r)]
                        if d.s[j][x].commutator(d.t[k][y]) != rhs_sites(x, y, terms):
                            yield (j, k, x, y), None

    def check_eq3():
        # the printed equation pairs [t_j, s_k] with the [T_j, T_k]-shaped
        # right side; both readings are tried and the verdict recorded
        def rhs(j, k, x, y):
            if x != y:
                return zero
            terms = [(2, d.yam(j, k, x))]
            terms += [(-2 * third * c.c(p, j, k), d.s[p][x]) for p in range(r)]
            terms += [(-third * c.c(p, j, k), d.t[p][x]) for p in range(r)]
            return _lincomb(zero, terms).times_i()

        ts_ok = all(d.t[j][x].commutator(d.s[k][y]) == rhs(j, k, x, y)
                    for j in range(r) for k in range(r)
                    for x in range(N) for y in range(N))
        tt_ok = all(d.t[j][x].commutator(d.t[k][y]) == rhs(j, k, x, y)
                    for j in range(r) for k in range(r)
                    for x in range(N) for y in range(N))
        detail = (f"as printed [t,s]: {'pass' if ts_ok else 'fail'}; "
                  f"as [t,t]: {'pass' if tt_ok else 'fail'}")
        if ts_ok or tt_ok:
            rep.equations["3"] = CheckReport(True, "3", None, detail)
        else:
            rep.equations["3"] = CheckReport(False, "3", ("both readings fail",), detail)

    def scan_eq4():
        for j in range(r):
            for k in range(r):
                for x in range(N):
                    jk = (_extract_yamagutian(d.s, d.t, c, j, k, x)
                          + _extract_yamagutian(d.s, d.t, c, k, j, x))
                    if not jk.is_zero():
                        yield (j, k, x), None

    def scan_eq5():
        for j in range(r):
            for k in range(j + 1, r):
                for l in range(k + 1, r):
                    for x in range(N):
                        terms = []
                        for p in range(r):
                            for (a, b, out) in ((j, k, l), (k, l, j), (l, j, k)):
                                v = c.c(p, a, b)
                                if v:
                                    terms.append((v, d.yam(p, out, x)))
                        if not _lincomb(zero, terms).is_zero():
                            yield (j, k, l, x), None

    def scan_reduct(dens, name):
        for j in range(r):
            for k in range(j + 1, r):
                for n in range(r):
                    for x in range(N):
                        for y in range(N):
                            terms = [(dd.d(p, j, k, n), dens[p][x]) for p in range(r)]
                            if d.yam(j, k, x).commutator(dens[n][y]) != rhs_sites(x, y, terms):
                                yield (j, k, n, x, y), None

    def scan_eq8():
        for j in range(r):
            for k in range(j + 1, r):
                for l in range(r):
                    for n in range(l + 1, r):
                        for x in range(N):
                            for y in range(N):
                                terms = []
                                for p in range(r):
                                    v = dd.d(p, j, k, l)
                                    if v:
                                        terms.append((v, d.yam(p, n, x)))
                                    v = dd.d(p, j, k, n)
                                    if v:
                                        terms.append((v, d.yam(l, p, x)))
                                lhs = d.yam(j, k, x).commutator(d.yam(l, n, y))
                                if lhs != rhs_sites(x, y, terms):
                                    yield (j, k, l, n, x, y), None

    def scan_assoc(which):
        for j in range(r):
            for k in range(r):
                for x in range(N):
                    for y in range(N):
                        st = d.s[j][x].commutator(d.t[k][y]).scale(-2)
                        if which == "s":
                            lhs = d.s[j][x].commutator(d.s[k][y])
                            terms = [(c.c(p, j, k), d.s[p][x]) for p in range(r)]
                        else:
                            lhs = d.t[j][x].commutator(d.t[k][y])
                            terms = [(-c.c(p, j, k), d.t[p][x]) for p in range(r)]
                        if lhs != rhs_sites(x, y, terms) + st:
                            yield (j, k, x, y), None

    def scan_symmetry():
        for j in range(r):
            for k in range(r):
                for x in range(N):
                    for y in range(N):
                        lhs = d.s[j][x].commutator(d.t[k][y])
                        rhs = d.t[j][y].commutator(d.s[k][x])
                        if lhs != rhs:
                            yield (j, k, x, y), None

    check("1", scan_eq1)
    check("2", scan_eq2)
    check_eq3()
    check("4", scan_eq4)
    check("5", scan_eq5)
    check("6", lambda: scan_reduct(d.s, "s"))
    check("7", lambda: scan_reduct(d.t, "t"))
    check("8", scan_eq8)
    check("assoc-s", lambda: scan_assoc("s"))
    check("assoc-t", lambda: scan_assoc("t"))
    check("symmetry", scan_symmetry)
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
        if j == k:
            return self.sigma[0].zero_like()
        if j < k:
            return self.upsilon[(j, k)]
        return self.upsilon[(k, j)].scale(-1)


def _site_sum(mats):
    acc = mats[0]
    for m in mats[1:]:
        acc = acc + m
    return acc.times_i().scale(-1)


def charges(d: ChargeDensitySet) -> ChargeSet:
    sigma = [_site_sum(d.s[j]) for j in range(d.r)]
    tau = [_site_sum(d.t[j]) for j in range(d.r)]
    ups = {key: _site_sum(mats) for key, mats in d.Y.items()}
    return ChargeSet(d.r, sigma, tau, ups)


def charge_algebra_check(q: ChargeSet, c: StructureTensor) -> CheckReport:
    """The integrated charges must satisfy the full generalized Lie-Cartan
    bracket table: the charge algebra is a birepresentation of the tangent
    Mal'tsev algebra."""
    if c.dim != q.r:
        raise InputError("tensor dim must match charge count")
    r = q.r
    zero = q.sigma[0].zero_like()
    dd = yamaguti_constants(c)
    third = Fraction(1, 3)
    for j in range(r):
        for k in range(r):
            base = [(third * c.c(p, j, k), q.sigma[p]) for p in range(r)]
            baset = [(third * c.c(p, j, k), q.tau[p]) for p in range(r)]
            ss = _lincomb(zero, [(2, q.ups(j, k))] + base + [(2 * v, m) for v, m in baset])
            if q.sigma[j].commutator(q.sigma[k]) != ss:
                return fail("charge-algebra", witness=("ss", j, k))
            st = _lincomb(zero, [(-1, q.ups(j, k))] + base + [(-v, m) for v, m in baset])
            if q.sigma[j].commutator(q.tau[k]) != st:
                return fail("charge-algebra", witness=("st", j, k))
            tt = _lincomb(zero, [(2, q.ups(j, k))] + [(-2 * v, m) for v, m in base] + [(-v, m) for v, m in baset])
            if q.tau[j].commutator(q.tau[k]) != tt:
                return fail("charge-algebra", witness=("tt", j, k))
    for j in range(r):
        for k in range(j + 1, r):
            for l in range(k + 1, r):
                terms = []
                for p in range(r):
                    for (a, b, out) in ((j, k, l), (k, l, j), (l, j, k)):
                        v = c.c(p, a, b)
                        if v:
                            terms.append((v, q.ups(p, out)))
                if not _lincomb(zero, terms).is_zero():
                    return fail("charge-algebra", witness=("cyclic", j, k, l))
    for j in range(r):
        for k in range(j + 1, r):
            for n in range(r):
                rhs_s = _lincomb(zero, [(dd.d(p, j, k, n), q.sigma[p]) for p in range(r)])
                if q.ups(j, k).commutator(q.sigma[n]) != rhs_s:
                    return fail("charge-algebra", witness=("reductivity-sigma", j, k, n))
                rhs_t = _lincomb(zero, [(dd.d(p, j, k, n), q.tau[p]) for p in range(r)])
                if q.ups(j, k).commutator(q.tau[n]) != rhs_t:
                    return fail("charge-algebra", witness=("reductivity-tau", j, k, n))
    for j in range(r):
        for k in range(j + 1, r):
            for l in range(r):
                for n in range(l + 1, r):
                    terms = []
                    for p in range(r):
                        v = dd.d(p, j, k, l)
                        if v:
                            terms.append((v, q.ups(p, n)))
                        v = dd.d(p, j, k, n)
                        if v:
                            terms.append((v, q.ups(l, p)))
                    if q.ups(j, k).commutator(q.ups(l, n)) != _lincomb(zero, terms):
                        return fail("charge-algebra", witness=("yy", j, k, l, n))
    return ok("charge-algebra")


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
