import functools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mnl.birep import GeneratorSet, check_glc
from mnl import etc as etc_module
from mnl.etc import (ChargeDensitySet, ChargeSet, bilinear_lemma_check, charge_algebra_check,
                     charge_densities, charges, etc_verify, locality_check)
from mnl.fock import GQSparse, SiteOp, build_fields
from mnl.relations import RelationKernel
import oracles
from oracles import eye, quaternionic_line
from mnl.algebra import catalog_algebra
from mnl.report import BoundError, InputError
from test_kernels import check_path, int64_decisions, near


@pytest.fixture(scope="module")
def quat_dens(quat_fields, quat_gen, su2_doubled):
    return charge_densities(quat_fields, quat_gen, su2_doubled)


@pytest.fixture(scope="module")
def oct_dens(oct_fields, oct_gen, m7):
    return charge_densities(oct_fields, oct_gen, m7)


# --- quaternion pipeline (associative case) ----------------------------

def test_quaternion_st_densities_commute(quat_dens):
    # left and right translations commute in an associative algebra, so
    # the mixed density commutator carries no Yamagutian piece beyond the
    # c-terms; in particular [s_j(x), t_k(x)] has the pure c-structure
    rep = etc_verify(quat_dens)
    assert rep.passed
    assert rep.equations["assoc-s"].passed
    assert rep.equations["assoc-t"].passed


def test_quaternion_eq3_detail(quat_dens):
    rep = etc_verify(quat_dens)
    assert rep.equations["3"].passed
    assert "as [t,t]: pass" in rep.equations["3"].detail


def test_quaternion_yamagutian_closed_form(quat_dens, su2_doubled):
    # [S_j, T_k] = 0 implies Y0_jk = (1/3) c^p_jk (s_p - t_p)
    third = Fraction(1, 3)
    for (j, k), mats in quat_dens.Y.items():
        for x, y0 in enumerate(mats):
            acc = GQSparse.zero(y0.dim)
            for p in range(3):
                v = su2_doubled.c(p, j, k)
                if v:
                    acc = acc + quat_dens.s[p][x].full().scale(third * v)
                    acc = acc + quat_dens.t[p][x].full().scale(-third * v)
            assert y0.full() == acc


def test_identity_generator_gives_commuting_density(quat_fields, su2_doubled):
    # with S_j = T_j = identity every density is a multiple of the site
    # number operator; the check must then reject the nonabelian table
    ident = eye(4)
    gen = GeneratorSet(3, 4, [ident] * 3, [ident] * 3)
    dens = charge_densities(quat_fields, gen, su2_doubled)
    num = dens.s[0][0]
    for j in range(3):
        assert dens.s[j][0] == num
        assert dens.t[j][0] == num
        assert num.commutator(dens.s[j][0]).is_zero()
    assert not etc_verify(dens).passed


# --- octonion pipeline -------------------------------------------------

def test_octonion_all_equations(oct_dens):
    rep = etc_verify(oct_dens)
    assert rep.passed
    assert set(rep.equations) == {"1", "2", "3", "4", "5", "6", "7", "8",
                                  "assoc-s", "assoc-t", "symmetry"}


def test_octonion_eq3_adjudication(oct_dens):
    rep = etc_verify(oct_dens)
    assert rep.equations["3"].detail == "as printed [t,s]: fail; as [t,t]: pass"


def test_octonion_nonassociative_signature(oct_dens):
    # [s_j(x), t_k(x)] != 0 for some pair: the Yamagutian piece is real
    found = any(not oct_dens.s[j][0].commutator(oct_dens.t[k][0]).is_zero()
                for j in range(7) for k in range(7))
    assert found


def test_charge_algebra_octonion(oct_dens, m7):
    assert charge_algebra_check(charges(oct_dens), m7).passed


def test_charge_algebra_quaternion(quat_dens, su2_doubled):
    assert charge_algebra_check(charges(quat_dens), su2_doubled).passed


def test_upsilon_closed_form_quaternion(quat_dens, su2_doubled):
    q = charges(quat_dens)
    third = Fraction(1, 3)
    for (j, k), ups in q.upsilon.items():
        acc = GQSparse.zero(ups.dim)
        for p in range(3):
            v = su2_doubled.c(p, j, k)
            if v:
                acc = acc + q.sigma[p].full().scale(third * v) + q.tau[p].full().scale(-third * v)
        assert ups.full() == acc


# --- multi-site locality -----------------------------------------------

@pytest.fixture(scope="module")
def quat2_dens(quat_gen, su2_doubled):
    return charge_densities(build_fields(4, 2), quat_gen, su2_doubled)


def test_locality_two_sites(quat2_dens):
    assert locality_check(quat2_dens).passed


def test_two_site_equations_and_charges(quat2_dens, su2_doubled):
    assert etc_verify(quat2_dens).passed
    assert charge_algebra_check(charges(quat2_dens), su2_doubled).passed


# --- mutation meta-consistency -----------------------------------------

def test_mutated_generators_fail_both_layers(quat_fields, quat_gen, su2_doubled):
    # swapping two S matrices must break the matrix relations and the
    # density relations in the same way
    S = list(quat_gen.S)
    S[0], S[1] = S[1], S[0]
    mutated = GeneratorSet(3, 4, S, list(quat_gen.T))
    assert not check_glc(mutated, su2_doubled).passed
    dens = charge_densities(quat_fields, mutated, su2_doubled)
    assert not etc_verify(dens).passed


def test_scaled_tensor_fails_both_layers(quat_fields, quat_gen, su2_doubled):
    wrong = su2_doubled.scaled(Fraction(1, 2))
    assert not check_glc(quat_gen, wrong).passed
    dens = charge_densities(quat_fields, quat_gen, wrong)
    assert not etc_verify(dens).passed


# --- factored densities against the full space --------------------------

def full_space(d):
    """The same densities as plain GQSparse operators on the whole Fock space."""
    return ChargeDensitySet(d.r, d.sites,
                            [[op.full() for op in row] for row in d.s],
                            [[op.full() for op in row] for row in d.t],
                            {key: [op.full() for op in ops] for key, ops in d.Y.items()},
                            d.tensor)


def reports(d, c):
    return (etc_verify(d, c).to_dict(), locality_check(d).to_dict(),
            charge_algebra_check(charges(d), c).to_dict())


def swapped(gen):
    S = list(gen.S)
    S[0], S[1] = S[1], S[0]
    return GeneratorSet(gen.r, gen.dim, S, list(gen.T))


@pytest.mark.parametrize("case,sites", [("quaternion", 2), ("quaternion", 3),
                                        ("quaternion-swapped", 2), ("octonion-line", 2)])
def test_factored_reports_equal_full_space(case, sites, quat_gen, su2_doubled, oct_gen, m7):
    if case == "octonion-line":
        gen, c = quaternionic_line(oct_gen, m7)
    else:
        gen, c = quat_gen, su2_doubled
        if case == "quaternion-swapped":
            gen = swapped(gen)
    dens = charge_densities(build_fields(gen.dim, sites), gen, c)
    factored = reports(dens, c)
    assert factored == reports(full_space(dens), c)
    passed = all(rep["pass"] for rep in factored[0]["equations"].values())
    assert passed == (case != "quaternion-swapped")


# --- the kernel against the per-case walk --------------------------------

@functools.lru_cache(maxsize=None)
def fields(n, sites):
    return build_fields(n, sites)


def kernel_and_walk(gen, c, sites):
    """(kernel reports, walk reports) of etc_verify, locality_check and
    charge_algebra_check; None for a side that raised OverflowError."""
    return reports_and_walk(charge_densities(fields(gen.dim, sites), gen, c), c)


def reports_and_walk(dens, c):
    """`kernel_and_walk` on given densities."""
    def run(module):
        try:
            q = charges(dens)
            return (module.etc_verify(dens, c).to_dict(), module.locality_check(dens).to_dict(),
                    module.charge_algebra_check(q, c).to_dict())
        except OverflowError:
            return None
    return run(etc_module), run(oracles)


@st.composite
def mutations(draw, value):
    """The quaternion generators at 1-3 sites or the octonion line at 1-2
    sites, with one entry of one S or T matrix set to a drawn value."""
    case, sites = draw(st.sampled_from([("quaternion", 1), ("quaternion", 2), ("quaternion", 3),
                                        ("octonion-line", 1), ("octonion-line", 2)]))
    return case, sites, draw(st.sampled_from("ST")), draw(st.integers(0, 2)), \
        draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(value)


def mutated(case, quat_gen, su2_doubled, oct_gen, m7):
    name, sites, family, j, row, col, value = case
    gen, c = (quat_gen, su2_doubled) if name == "quaternion" else quaternionic_line(oct_gen, m7)
    mats = {"S": [[list(r) for r in m] for m in gen.S], "T": [[list(r) for r in m] for m in gen.T]}
    mats[family][j][row % gen.dim][col % gen.dim] = Fraction(value)
    return GeneratorSet(gen.r, gen.dim, mats["S"], mats["T"]), c, sites


KERNEL_SETTINGS = settings(max_examples=12, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow,
                                                  HealthCheck.function_scoped_fixture])


@KERNEL_SETTINGS
@given(case=mutations(st.fractions(min_value=-3, max_value=3, max_denominator=3)))
def test_kernel_reports_equal_the_walk(case, quat_gen, su2_doubled, oct_gen, m7):
    kernel, walk = kernel_and_walk(*mutated(case, quat_gen, su2_doubled, oct_gen, m7))
    assert walk is not None and kernel == walk


@KERNEL_SETTINGS
@given(case=mutations(st.builds(lambda sign, off: sign * ((1 << 30) + off),
                           st.sampled_from([-1, 1]), st.integers(-8, 8))))
def test_kernel_near_2_30_gives_the_walks_report_or_overflow(case, quat_gen, su2_doubled,
                                                             oct_gen, m7):
    try:
        kernel, walk = kernel_and_walk(*mutated(case, quat_gen, su2_doubled, oct_gen, m7))
    except OverflowError:    # the densities themselves are out of range
        return
    assert kernel is None or kernel == walk


def one_site_changed(dens, family, j, x, change, q):
    """dens with the factor of one density at site x changed: scaled by q,
    times i, or plus q times the factor of t_0 there; every other site keeps
    the factor it shares."""
    s, t = [list(row) for row in dens.s], [list(row) for row in dens.t]
    Y = {key: list(row) for key, row in dens.Y.items()}
    row = {"s": s, "t": t, "Y": list(Y.values())}[family][j]
    f = row[x].factors[x]
    f = (f.scale(q) if change == "scale" else f.times_i() if change == "times-i"
         else f.plus([(q, dens.t[0][x].factors[x])]))
    row[x] = SiteOp(dens.sites, f.dim, {x: f})
    return ChargeDensitySet(dens.r, dens.sites, s, t, Y, dens.tensor)


@KERNEL_SETTINGS
@given(sites=st.sampled_from([2, 3]), family=st.sampled_from("stY"), j=st.integers(0, 2),
       x=st.integers(0, 2), change=st.sampled_from(["none", "scale", "times-i", "plus"]),
       q=st.fractions(-2, 2, max_denominator=3).filter(bool))
def test_kernel_equals_the_walk_when_one_site_changes(sites, family, j, x, change, q,
                                                      quat_gen, su2_doubled):
    # at 2 and 3 sites the densities share one factor object across sites,
    # unless one site's factor is changed; the memo must not carry a verdict
    # from one site to another whose factor differs
    dens = charge_densities(fields(quat_gen.dim, sites), quat_gen, su2_doubled)
    if change != "none":
        dens = one_site_changed(dens, family, j, x % sites, change, q)
    kernel, walk = reports_and_walk(dens, su2_doubled)
    assert walk is not None and kernel == walk


def test_etc_verify_decides_the_same_rows_at_every_site_count(monkeypatch, quat_gen,
                                                              su2_doubled):
    # every site holds the same factors, so the one-site residuals computed
    # at one site, in order, are all that two and three sites compute
    computed, fails = [], RelationKernel._fails

    def spy(kernel, plan, lo, hi):
        known = len(kernel.memo)
        out = fails(kernel, plan, lo, hi)
        computed[-1] += list(kernel.memo)[known:]
        return out
    monkeypatch.setattr(RelationKernel, "_fails", spy)
    for sites in (1, 2, 3):
        computed.append([])
        dens = charge_densities(build_fields(quat_gen.dim, sites), quat_gen, su2_doubled)
        assert etc_verify(dens, su2_doubled).passed
    assert computed[0] and computed[0] == computed[1] == computed[2]


@pytest.mark.parametrize("sites", [2, 3])
def test_charges_hold_one_factor_across_sites(sites, quat_gen, su2_doubled):
    q = charges(charge_densities(build_fields(quat_gen.dim, sites), quat_gen, su2_doubled))
    for op in [*q.sigma, *q.tau, *q.upsilon.values()]:
        assert len(op.factors) == sites and len({id(f) for f in op.factors.values()}) == 1


@pytest.mark.parametrize("case,sites", [("octonion", 1), ("quaternion", 2), ("quaternion", 3)])
def test_theorem_after_etc_verify_computes_no_new_key(monkeypatch, case, sites, quat_gen,
                                                      su2_doubled, oct_gen, m7):
    # sigma_j = -i sum_x s_j(x): at each site every residual of the theorem
    # is one that etc_verify decided, times a unit phase, so the theorem on
    # the same ledger places nothing; its report equals a cold ledger's
    gen, c = (oct_gen, m7) if case == "octonion" else (quat_gen, su2_doubled)
    dens = charge_densities(build_fields(gen.dim, sites), gen, c)
    assert etc_verify(dens, c).passed
    if sites > 1:
        assert locality_check(dens).passed
    placed, decide = [], RelationKernel._decide
    monkeypatch.setattr(RelationKernel, "_decide",
                        lambda *args: placed.append(1) or decide(*args))
    known = len(dens.ledger.memo)
    rep = charge_algebra_check(charges(dens), c)
    assert rep.passed and not placed and len(dens.ledger.memo) == known
    monkeypatch.setattr(RelationKernel, "_decide", decide)
    cold = charges(charge_densities(build_fields(gen.dim, sites), gen, c))
    assert rep.to_dict() == charge_algebra_check(cold, c).to_dict()


@pytest.mark.parametrize("case", ["octonion-line", "quaternion"])
def test_charges_after_etc_verify_add_no_class(case, quat_gen, su2_doubled, oct_gen, m7):
    # at two sites every charge factor is -i F of a density factor F, which
    # the ledger makes and enters in F's class
    gen, c = quaternionic_line(oct_gen, m7) if case == "octonion-line" else (quat_gen, su2_doubled)
    dens = charge_densities(build_fields(gen.dim, 2), gen, c)
    assert etc_verify(dens, c).passed
    classes = len(dens.ledger.factors)
    assert charge_algebra_check(charges(dens), c).passed
    assert len(dens.ledger.factors) == classes


def test_one_table_gather_per_tensor(monkeypatch, quat_gen, su2_doubled):
    # etc_verify, locality_check and the theorem on one tensor read its table
    # off one bracket_rows and one cyclic_rows gather, kept on the tensor;
    # their reports are those of checks that each gather their own
    calls = []
    for name in ("bracket_rows", "cyclic_rows"):
        monkeypatch.setattr(etc_module, name, functools.partial(
            lambda name, real, *args: calls.append(name) or real(*args),
            name, getattr(etc_module, name)))
    c = su2_doubled.scaled(1)
    dens = charge_densities(build_fields(quat_gen.dim, 2), quat_gen, c)
    reports = [etc_verify(dens, c).to_dict(), locality_check(dens).to_dict(),
               charge_algebra_check(charges(dens), c).to_dict()]
    assert sorted(calls) == ["bracket_rows", "cyclic_rows"]
    monkeypatch.undo()

    def cold():
        c = su2_doubled.scaled(1)
        return c, charge_densities(build_fields(quat_gen.dim, 2), quat_gen, c)
    assert reports == [etc_verify(*cold()[::-1]).to_dict(), locality_check(cold()[1]).to_dict(),
                       charge_algebra_check(charges(cold()[1]), cold()[0]).to_dict()]


# the tracemalloc peak, in MB, of the checks of `mnl etc` after the canonical
# ETC on the octonions at one site, when each window of 64 rows was decided
# alone (fresh inputs, after a warm-up, measured as below): deciding the
# walks together must not hold more
ETC_ORDER_PEAK_MB = 1.194


def test_mnl_etc_order_stays_within_its_memory(oct_gen, m7):
    def peak():
        fields, c = build_fields(oct_gen.dim, 1), m7.scaled(1)
        gen = GeneratorSet(oct_gen.r, oct_gen.dim, list(oct_gen.S), list(oct_gen.T))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            dens = charge_densities(fields, gen, c)
            assert etc_verify(dens, c).passed
            assert charge_algebra_check(charges(dens), c).passed
            return (tracemalloc.get_traced_memory()[1] - entry) / 2 ** 20
        finally:
            tracemalloc.stop()
    peak()
    got = peak()
    assert got <= ETC_ORDER_PEAK_MB, got


@pytest.mark.parametrize("swap", [False, True])
def test_hand_built_charge_set_gives_the_same_report(swap, quat_gen, su2_doubled):
    # a ChargeSet built without a ledger gets a fresh one
    gen = swapped(quat_gen) if swap else quat_gen
    dens = charge_densities(build_fields(gen.dim, 2), gen, su2_doubled)
    etc_verify(dens)
    q = charges(dens)
    bare = ChargeSet(q.r, q.sigma, q.tau, q.upsilon)
    assert bare.ledger is not dens.ledger
    rep = charge_algebra_check(bare, su2_doubled)
    assert rep.passed != swap and rep.to_dict() == charge_algebra_check(q, su2_doubled).to_dict()


def test_fock_spaces_share_no_products(quat_gen, su2_doubled, oct_gen, m7):
    # alternate shapes in one process, dropping each field set before the
    # next; every density must equal the Jordan-Wigner density of that
    # shape built on the full space, with u = a and p0 = -i a†
    for _ in range(3):
        for n, N, gen, c in ((4, 2, quat_gen, su2_doubled), (8, 1, oct_gen, m7)):
            f = build_fields(n, N)
            dens = charge_densities(f, gen, c)
            ladder = oracles.full_ladder(n, N)
            for j in range(gen.r):
                for x in range(N):
                    expect = GQSparse.zero(2 ** (n * N))
                    for A in range(n):
                        for B in range(n):
                            v = gen.S[j][B][A]
                            if v:
                                p0 = ladder[x][A].dagger().times_i().scale(-1)
                                expect = expect + (p0 @ ladder[x][B]).scale(v)
                    assert dens.s[j][x].full() == expect
            del f, dens


def same_factors(a, b):
    return set(a.factors) == set(b.factors) and all(a.factors[x] == b.factors[x]
                                                    for x in a.factors)


@pytest.mark.parametrize("sites", [1, 2])
def test_yamagutians_equal_the_per_pair_oracle(sites, quat_gen, su2_doubled, oct_gen, m7):
    # one kernel call against the per-pair solve by the operators' own
    # arithmetic, also for generators whose Yamagutians break the table
    cases = [(quat_gen, su2_doubled), (swapped(quat_gen), su2_doubled),
             quaternionic_line(oct_gen, m7)] + ([(oct_gen, m7)] if sites == 1 else [])
    for gen, c in cases:
        dens = charge_densities(build_fields(gen.dim, sites), gen, c)
        assert list(dens.Y) == [(j, k) for j in range(gen.r) for k in range(j + 1, gen.r)]
        for (j, k), ops in dens.Y.items():
            for x in range(sites):
                expect = oracles.raw_yamagutian(dens.s, dens.t, oracles.st_row(c, j, k), j, k, x)
                assert same_factors(ops[x], expect)


@pytest.mark.parametrize("scale", [Fraction(2) ** 28, Fraction(1, 2 ** 19)])
@pytest.mark.parametrize("case", ["quaternion", "octonion"])
def test_densities_of_scaled_generators(case, scale, quat_gen, su2_doubled, oct_gen, m7):
    # each matrix is bounded at its own least denominator, so generators
    # scaled by l, with the tensor scaled to match, still build: rho(l S) =
    # l rho(S), and the Yamagutians, quadratic in the generators, scale by l^2
    gen, c = (quat_gen, su2_doubled) if case == "quaternion" else (oct_gen, m7)
    big = GeneratorSet(gen.r, gen.dim, *([[[v * scale for v in row] for row in m] for m in ms]
                                         for ms in (gen.S, gen.T)))
    f = build_fields(gen.dim, 1)
    base, dens = charge_densities(f, gen, c), charge_densities(f, big, c.scaled(scale))
    for q, ours, theirs in ((scale, base.s, dens.s), (scale, base.t, dens.t),
                            (scale ** 2, list(base.Y.values()), list(dens.Y.values()))):
        for a, b in zip(ours, theirs):
            assert b[0].factors[0] == a[0].factors[0].scale(q)


# --- birep's integer forms against their Fraction routes -----------------

FORM_SETTINGS = settings(max_examples=20, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("size", ["small", "2^31"])
@FORM_SETTINGS
@given(name=st.sampled_from(["m7", "su2", "sl2"]), den=st.integers(1, 7), data=st.data())
def test_table_equals_the_fraction_table(size, name, den, data):
    # the same pairs in the same order, also where the rows hold Python ints
    num = data.draw((st.integers(-5, 5) if size == "small" else near(31))
                    .filter(lambda v: math.gcd(v, den) == 1))
    c = catalog_algebra(name).scaled(Fraction(num, den))
    with int64_decisions() as seen:
        ours = etc_module._table(c)
    check_path(size, seen)
    theirs = oracles.density_table(c)
    ours = [{key: [(Fraction(*q), lbl) for q, lbl in row] for key, row in rows.items()}
            for rows in ours]
    assert [list(rows.items()) for rows in ours] == [list(rows.items()) for rows in theirs]


def scaled_generators(gen, q):
    return GeneratorSet(gen.r, gen.dim, *([[[v * q for v in row] for row in m] for m in ms]
                                          for ms in (gen.S, gen.T)))


def density_ops(d):
    return [op for row in [*d.s, *d.t, *d.Y.values()] for op in row]


@FORM_SETTINGS
@given(case=st.sampled_from(["quaternion", "quaternion-swapped", "octonion-line", "octonion"]),
       sites=st.integers(1, 2), q=st.fractions(-1000, 1000, max_denominator=1000).filter(bool),
       scale_tensor=st.booleans())
def test_densities_equal_the_fraction_path(case, sites, q, scale_tensor, quat_gen, su2_doubled,
                                           oct_gen, m7):
    # each density at its own least denominator, from the stack or from the
    # Fraction matrices; with the tensor unscaled the Yamagutians break the table
    gen, c = {"quaternion": (quat_gen, su2_doubled),
              "quaternion-swapped": (swapped(quat_gen), su2_doubled),
              "octonion-line": quaternionic_line(oct_gen, m7), "octonion": (oct_gen, m7)}[case]
    gen, c = scaled_generators(gen, q), c.scaled(q) if scale_tensor else c
    f = fields(gen.dim, sites)
    ours, theirs = etc_module.charge_densities(f, gen, c), oracles.charge_densities(f, gen, c)
    assert list(ours.Y) == list(theirs.Y)
    for a, b in zip(density_ops(ours), density_ops(theirs), strict=True):
        assert set(a.factors) == set(b.factors)
        assert all(a.factors[x] == b.factors[x] and a.factors[x].den == b.factors[x].den
                   for x in a.factors)


@FORM_SETTINGS
@given(family=st.sampled_from("ST"), j=st.integers(0, 2), row=st.integers(0, 3),
       col=st.integers(0, 3), value=st.integers(3 << 62, 1 << 70), sign=st.sampled_from([-1, 1]),
       den=st.integers(1, 3))
def test_generator_entry_past_the_bound_raises_at_both_paths(family, j, row, col, value, sign,
                                                            den, quat_fields, quat_gen,
                                                            su2_doubled):
    mats = {"S": [[list(r) for r in m] for m in quat_gen.S],
            "T": [[list(r) for r in m] for m in quat_gen.T]}
    mats[family][j][row][col] = Fraction(sign * value, den)    # |entry| >= 2^62
    gen = GeneratorSet(3, 4, mats["S"], mats["T"])
    for build in (etc_module.charge_densities, oracles.charge_densities):
        with pytest.raises(BoundError):
            build(quat_fields, gen, su2_doubled)


@FORM_SETTINGS
@given(sites=st.integers(1, 3), swap=st.booleans(),
       form=st.sampled_from(["factored", "overlap", "full-space"]))
def test_charges_equal_the_summed_charges(sites, swap, form, quat_gen, su2_doubled):
    # -i F per distinct factor against -i times the summed densities; a row
    # whose densities meet at one site, and plain operators, are summed
    dens = charge_densities(fields(quat_gen.dim, sites), swapped(quat_gen) if swap else quat_gen,
                            su2_doubled)
    if form == "overlap":
        dens.s[0] = [dens.s[0][0] + dens.s[1][-1], *dens.s[0][1:]]
    if form == "full-space" and sites < 3:    # 2^12 at three sites: the factored set instead
        dens = full_space(dens)
    q = charges(dens)
    sigma, tau, upsilon = oracles.charges_by_sum(dens)
    assert q.ledger is dens.ledger and list(q.upsilon) == list(upsilon)
    for a, b in zip([*q.sigma, *q.tau, *q.upsilon.values()], [*sigma, *tau, *upsilon.values()],
                    strict=True):
        if isinstance(a, GQSparse):
            assert a == b
        else:
            assert set(a.factors) == set(b.factors)
            assert all(a.factors[x] == b.factors[x] for x in a.factors)


# --- 16 modes per site, on the sector of at most two particles ----------

def diagonal_blocks(gen, blocks):
    """gen's matrices repeated on `blocks` diagonal blocks."""
    n = gen.dim

    def diag(m):
        return [[m[i % n][j % n] if i // n == j // n else 0 for j in range(n * blocks)]
                for i in range(n * blocks)]
    return GeneratorSet(gen.r, n * blocks, [diag(m) for m in gen.S], [diag(m) for m in gen.T])


@pytest.fixture(scope="module")
def fields16():
    return build_fields(16, 1)


@pytest.mark.parametrize("swap", [False, True])
def test_doubled_octonions_at_16_modes(swap, fields16, oct_gen, m7):
    # r = 7 on two blocks of 8 modes: the residuals are decided on the 137
    # states of at most two particles of the 2^16; the swapped set keeps the
    # one-block set's witnesses
    gen = diagonal_blocks(swapped(oct_gen) if swap else oct_gen, 2)
    dens = charge_densities(fields16, gen, m7)
    assert len(dens.ledger.sector) == 137 and dens.s[0][0].site_dim == 1 << 16
    rep, theorem = etc_verify(dens, m7), charge_algebra_check(charges(dens), m7)
    if not swap:
        assert rep.passed and theorem.passed
        assert rep.equations["3"].detail == "as printed [t,s]: fail; as [t,t]: pass"
        return
    assert {name: eq.witness for name, eq in rep.equations.items()} == {
        "1": (0, 1, 0, 0), "2": (0, 0, 0, 0), "3": ("both readings fail",),
        "4": (0, 0, 0), "5": (0, 1, 3, 0), "6": (0, 1, 0, 0, 0), "7": (0, 1, 0, 0, 0),
        "8": (0, 1, 0, 2, 0, 0), "assoc-s": (0, 0, 0, 0), "assoc-t": (0, 0, 0, 0),
        "symmetry": (0, 0, 0, 0)}
    assert not theorem.passed and theorem.witness == ("st", 0, 0)


# --- the bilinear lemma ------------------------------------------------

def test_bilinear_lemma(quat_fields):
    assert bilinear_lemma_check(quat_fields, trials=25, seed=0).passed


def test_bilinear_lemma_two_sites():
    assert bilinear_lemma_check(build_fields(2, 2), trials=10, seed=1).passed


@pytest.mark.parametrize("n,N", [(4, 2), (8, 1)])
def test_bilinear_lemma_equals_the_full_space(n, N):
    # same draws; the sector's report equals the full space's
    f = build_fields(n, N)
    rep = bilinear_lemma_check(f, trials=10, seed=3)
    assert rep.passed
    assert rep.to_dict() == oracles.bilinear_lemma_full(f, 10, 3).to_dict()


# --- input validation --------------------------------------------------

def test_density_size_mismatch(quat_fields, oct_gen, m7):
    with pytest.raises(InputError):
        charge_densities(quat_fields, oct_gen, m7)


def test_density_tensor_mismatch(quat_fields, quat_gen, m7):
    with pytest.raises(InputError):
        charge_densities(quat_fields, quat_gen, m7)
