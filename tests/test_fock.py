from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from mnl.etc import charge_densities
from mnl.fock import (FieldSet, FockOps, GQSparse, QuadraticCache, SiteOp,
                      _canonical_scan, _car_scan, _full_space_view, _site_view,
                      build_fields, build_fock, canonical_etc_check, car_check,
                      site_factor)
from mnl.report import InputError


# --- exact sparse Gaussian-rational arithmetic -------------------------

def gq(re, im=None, den=1):
    re = np.array(re, dtype=np.int64)
    im = np.zeros_like(re) if im is None else np.array(im, dtype=np.int64)
    return GQSparse(re.shape[0], sp.csr_matrix(re), sp.csr_matrix(im), den)


def test_gq_normalization():
    m = gq([[2, 0], [0, 4]], den=6)
    assert m.den == 3
    assert m.re[0, 0] == 1 and m.re[1, 1] == 2


def test_gq_negative_denominator():
    m = gq([[1, 0], [0, 0]], den=-2)
    assert m.den == 2 and m.re[0, 0] == -1


def test_gq_add_sub():
    a = gq([[1, 2], [0, 1]], den=2)
    b = gq([[1, 0], [0, 1]], den=3)
    assert (a + b) - b == a
    assert (a - a).is_zero()


def test_gq_matmul_complex():
    # (iI) @ (iI) = -I
    i_mat = GQSparse.identity(2).times_i()
    assert i_mat @ i_mat == GQSparse.identity(2).scale(-1)


def test_gq_scale_rational():
    a = gq([[3, 0], [0, 3]])
    assert a.scale(Fraction(2, 3)) == gq([[2, 0], [0, 2]])


def test_gq_dagger():
    a = gq([[0, 1], [0, 0]], im=[[0, 2], [0, 0]])
    d = a.dagger()
    assert d.re[1, 0] == 1 and d.im[1, 0] == -2
    assert d.dagger() == a


def test_gq_commutator_antisymmetric():
    a = gq([[0, 1], [0, 0]])
    b = gq([[0, 0], [1, 0]])
    assert a.commutator(b) == b.commutator(a).scale(-1)
    assert a.commutator(b) == gq([[1, 0], [0, -1]])


def test_gq_dimension_mismatch():
    with pytest.raises(InputError):
        gq([[1]]) + gq([[1, 0], [0, 1]])


def test_gq_unhashable():
    with pytest.raises(TypeError):
        hash(GQSparse.identity(2))


def test_gq_square_of_2_40_does_not_wrap():
    # the int64 product 2^80 wraps to 0; the guard must refuse it first
    big = GQSparse.from_int(sp.csr_matrix(([1 << 40], ([0], [0])), shape=(2, 2),
                                          dtype=np.int64))
    try:
        sq = big @ big
    except OverflowError:
        return
    assert sq.re.nnz == 1 and Fraction(int(sq.re[0, 0]), sq.den) == 1 << 80


def test_gq_guard_limits():
    m = GQSparse.from_int(sp.csr_matrix(([1 << 30], ([0], [0])), shape=(2, 2),
                                        dtype=np.int64))
    assert (m @ m).re[0, 0] == 1 << 60
    with pytest.raises(OverflowError):
        m.scale(1 << 40)
    one = GQSparse.identity(2)
    # a sum works over the lcm of its denominators, 2^40 here, not their product
    assert (one.scale(Fraction(1, 1 << 40)) + one.scale(Fraction(1, 1 << 40))
            == one.scale(Fraction(1, 1 << 39)))
    with pytest.raises(OverflowError):
        # the coprime denominators 2^40 and 2^40 - 1 have an lcm past the bound
        one.scale(Fraction(1, 1 << 40)) + one.scale(Fraction(1, (1 << 40) - 1))


# --- GQSparse against a dense Fraction reference ------------------------

NEAR = (1 << 31, 1 << 40, 1 << 62)
entry = st.one_of(st.integers(-3, 3),
                  st.builds(lambda base, off, sign: sign * (base + off),
                            st.sampled_from(NEAR), st.integers(-2, 2),
                            st.sampled_from((-1, 1))))
dense_int = st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3)


@st.composite
def gq_or_none(draw):
    """A 3x3 GQSparse and its dense (re, im) Fraction reference, or None when
    the entries are too large to construct."""
    re, im = draw(dense_int), draw(dense_int)
    den = draw(st.sampled_from((1, 2, 3, 7, (1 << 31) - 1)))
    ref = [[(Fraction(re[i][j], den), Fraction(im[i][j], den)) for j in range(3)]
           for i in range(3)]
    try:
        return gq(re, im, den), ref
    except OverflowError:
        assert max(abs(v) for m in (re, im) for row in m for v in row) > 1 << 60
        return None


def dense(op):
    re, im = op.re.toarray(), op.im.toarray()
    return [[(Fraction(int(re[i, j]), op.den), Fraction(int(im[i, j]), op.den))
             for j in range(op.dim)] for i in range(op.dim)]


def ref_add(a, b):
    return [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scale(a, q):
    return [[(x[0] * q[0] - x[1] * q[1], x[0] * q[1] + x[1] * q[0]) for x in row]
            for row in a]


def ref_matmul(a, b):
    n = len(a)
    return [[(sum(a[i][k][0] * b[k][j][0] - a[i][k][1] * b[k][j][1] for k in range(n)),
              sum(a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0] for k in range(n)))
             for j in range(n)] for i in range(n)]


def small(*refs):
    """Every numerator and denominator below 2^15: no operation here may refuse."""
    return all(abs(v.numerator) < 1 << 15 and v.denominator < 1 << 15
               for r in refs for row in r for x in row for v in x)


@settings(max_examples=100, deadline=None)
@given(gq_or_none(), gq_or_none(), st.fractions(-50, 50, max_denominator=5))
def test_gq_matches_fraction_reference(pa, pb, q):
    if pa is None or pb is None:
        return
    (a, ra), (b, rb) = pa, pb
    neg = ref_scale(rb, (Fraction(-1), Fraction(0)))
    cases = [
        (lambda: a + b, lambda: ref_add(ra, rb)),
        (lambda: a - b, lambda: ref_add(ra, neg)),
        (lambda: a @ b, lambda: ref_matmul(ra, rb)),
        (lambda: a.commutator(b),
         lambda: ref_add(ref_matmul(ra, rb), ref_scale(ref_matmul(rb, ra), (-1, 0)))),
        (lambda: a.scale(q), lambda: ref_scale(ra, (q, Fraction(0)))),
        (lambda: a.plus([(q, b), (Fraction(-3, 7), a), (Fraction(5, 2), b.times_i())]),
         lambda: ref_add(ref_add(ref_add(ra, ref_scale(rb, (q, Fraction(0)))),
                                 ref_scale(ra, (Fraction(-3, 7), Fraction(0)))),
                         ref_scale(rb, (Fraction(0), Fraction(5, 2))))),
        (lambda: a.times_i(), lambda: ref_scale(ra, (Fraction(0), Fraction(1)))),
        (lambda: a.dagger(),
         lambda: [[(ra[j][i][0], -ra[j][i][1]) for j in range(3)] for i in range(3)]),
    ]
    for op, ref in cases:
        try:
            got = op()
        except OverflowError:
            # refusing is allowed only where some entry is out of the small range
            assert not small(ra, rb), "guard refused an operation on small entries"
            continue
        assert dense(got) == ref()
    try:
        assert (a == b) == (ra == rb)
    except OverflowError:
        assert not small(ra, rb)


# --- site-local operators ------------------------------------------------

SITE_DIM = 4   # n = 2 modes per site


@st.composite
def factor(draw):
    re = draw(st.lists(st.lists(st.integers(-3, 3), min_size=SITE_DIM, max_size=SITE_DIM),
                       min_size=SITE_DIM, max_size=SITE_DIM))
    im = draw(st.lists(st.lists(st.integers(-3, 3), min_size=SITE_DIM, max_size=SITE_DIM),
                       min_size=SITE_DIM, max_size=SITE_DIM))
    if draw(st.booleans()):
        im = [[0] * SITE_DIM for _ in range(SITE_DIM)]
    return gq(re, im, draw(st.integers(1, 3)))


@st.composite
def site_op_pair(draw):
    """Two SiteOps on 2 or 3 sites; sometimes the second is the first plus an
    identity shift sum_x c_x I whose coefficients may sum to zero."""
    sites = draw(st.integers(2, 3))

    def one():
        present = draw(st.lists(st.integers(0, sites - 1), unique=True, max_size=sites))
        return SiteOp(sites, SITE_DIM, {x: draw(factor()) for x in present})

    a = one()
    if not draw(st.booleans()):
        return a, one()
    coeffs = draw(st.lists(st.fractions(-4, 4, max_denominator=3),
                           min_size=sites, max_size=sites))
    if draw(st.booleans()):
        coeffs[-1] = -sum(coeffs[:-1])
    ident = GQSparse.identity(SITE_DIM)
    shift = SiteOp(sites, SITE_DIM, {x: ident.scale(c) for x, c in enumerate(coeffs)})
    return a, a + shift


@settings(max_examples=80, deadline=None)
@given(site_op_pair(), st.fractions(-10, 10, max_denominator=4))
def test_site_op_matches_full_space(pair, q):
    a, b = pair
    fa, fb = a.full(), b.full()
    assert a.dim == fa.dim == SITE_DIM ** a.sites
    assert (a + b).full() == fa + fb
    assert (a - b).full() == fa - fb
    assert a.scale(q).full() == fa.scale(q)
    assert (a.plus([(q, b), (Fraction(-1, 2), a)]).full()
            == fa.plus([(q, fb), (Fraction(-1, 2), fa)]))
    assert a.times_i().full() == fa.times_i()
    assert a.commutator(b).full() == fa.commutator(fb)
    assert (a == b) == (fa == fb)
    assert (a - b).is_zero() == (fa - fb).is_zero()
    assert a.is_zero() == fa.is_zero()
    assert a.zero_like().full().is_zero()


def test_site_op_identity_shift_is_zero():
    ident = GQSparse.identity(SITE_DIM)
    for c in (Fraction(1), Fraction(-5, 3)):
        for sites in (2, 3):
            shift = SiteOp(sites, SITE_DIM, {0: ident.scale(c), sites - 1: ident.scale(-c)})
            assert shift.is_zero() and shift.full().is_zero()
            lone = SiteOp(sites, SITE_DIM, {0: ident.scale(c)})
            assert not lone.is_zero() and not lone.full().is_zero()
    # an imaginary shift on one site does not cancel a real one on another
    odd = SiteOp(2, SITE_DIM, {0: ident, 1: ident.times_i().scale(-1)})
    assert not odd.is_zero() and not odd.full().is_zero()


def test_site_op_full_reads_as_gqsparse():
    f = build_fock(2, 2)
    local = build_fock(2, 1)
    num = local.adag[0][1] @ local.a[0][1]
    op = SiteOp(2, 4, {1: num})
    expect = f.adag[1][1] @ f.a[1][1]
    assert op.full() == expect
    assert op.nnz == expect.nnz and op.den == expect.den
    assert (op.re != expect.re).nnz == 0 and op.im.nnz == 0


def test_site_op_dimension_mismatch():
    with pytest.raises(InputError):
        SiteOp(2, 4, {}) + SiteOp(3, 4, {})
    with pytest.raises(InputError):
        SiteOp(2, 4, {}).commutator(GQSparse.identity(16))


# --- ladder operators --------------------------------------------------

def test_single_mode_matrices():
    f = build_fock(1, 1)
    assert f.a[0][0].re.toarray().tolist() == [[0, 1], [0, 0]]
    assert f.adag[0][0].re.toarray().tolist() == [[0, 0], [1, 0]]
    # number operator
    num = f.adag[0][0] @ f.a[0][0]
    assert num.re.toarray().tolist() == [[0, 0], [0, 1]]


def test_nilpotency():
    f = build_fock(2, 1)
    for A in range(2):
        assert (f.a[0][A] @ f.a[0][A]).is_zero()
        assert (f.adag[0][A] @ f.adag[0][A]).is_zero()


def test_car_small_spaces():
    for n, N in ((1, 1), (2, 1), (1, 2), (2, 2), (4, 1)):
        assert car_check(build_fock(n, N)).passed


def test_car_fails_without_jw_strings():
    f = build_fock(2, 1)
    # replace mode 1 by a bare sigma (no Z string): modes then commute
    bad = sp.kron(sp.identity(2, dtype=np.int64),
                  sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=np.int64)),
                  format="csr")
    f.a[0][1] = GQSparse.from_int(bad)
    f.adag[0][1] = f.a[0][1].dagger()
    rep = car_check(f)
    assert not rep.passed
    assert rep.witness == ("a-adag", 0, 1)


def test_mode_cap():
    with pytest.raises(InputError):
        build_fock(8, 3)
    with pytest.raises(InputError):
        build_fock(0, 1)


def test_mode_indexing():
    f = build_fock(3, 2)
    assert f.mode(1, 2) == 5
    assert f.dim == 64


# --- canonical fields --------------------------------------------------

def test_canonical_etc(quat_fields):
    assert canonical_etc_check(quat_fields).passed


def test_canonical_etc_two_sites():
    assert canonical_etc_check(build_fields(1, 2)).passed


def test_canonical_etc_fails_without_phase():
    f = build_fields(1, 1)
    # momentum must carry the -i; a bare adag breaks the relations
    bad = FieldSet(f.fock, f.u, [[f.fock.adag[0][0]]])
    rep = canonical_etc_check(bad)
    assert not rep.passed
    assert rep.witness[0] == "p-u"


# --- ladder embeddings and the factored anticommutator scans ------------

_SIGMA = np.array([[0, 1], [0, 0]], dtype=np.int64)


def bare_sigma(n, N, x, A):
    """The annihilator of mode (x, A) without its Jordan-Wigner string."""
    m = x * n + A
    acc = sp.identity(2 ** m, dtype=np.int64, format="csr")
    acc = sp.kron(acc, _SIGMA, format="csr")
    acc = sp.kron(acc, sp.identity(2 ** (n * N - m - 1), dtype=np.int64), format="csr")
    return GQSparse.from_int(acc)


def test_site_factor_reads_ladder_embeddings():
    n, N = 2, 3
    f, local = build_fock(n, N), build_fock(n, 1)
    for x in range(N):
        for A in range(n):
            assert site_factor(f.a[x][A], n, N, x) == local.a[0][A]
            assert site_factor(f.adag[x][A].times_i(), n, N, x) == local.adag[0][A].times_i()
    # the string of site 1 is Pi on site 0, not I: the bare operator is no embedding
    assert site_factor(bare_sigma(n, N, 1, 0), n, N, 1) is None
    # a same-site product drops its string, so it is an embedding with I, not Pi
    assert site_factor(f.adag[1][0] @ f.a[1][1], n, N, 1) is None
    assert site_factor(f.a[2][0] + f.a[1][0], n, N, 2) is None
    assert site_factor(f.a[1][0].zero_like(), n, N, 1).is_zero()


def even_mode_site_0():
    """Annihilators for the two modes of site 0, on two sites, that satisfy
    the CAR among themselves, but whose mode 0, sigma x X, is parity-even: as
    fields, every same-site relation holds and the first cross-site one fails."""
    rest = sp.identity(4, dtype=np.int64)
    c0 = GQSparse.from_int(sp.kron(sp.kron(_SIGMA, [[0, 1], [1, 0]]), rest))
    half = sp.kron(sp.kron(np.eye(2, dtype=np.int64), [[1, 1], [-1, -1]]), rest)
    c1 = GQSparse(16, half, sp.csr_matrix((16, 16), dtype=np.int64), 2)
    return [c0, c1]


def canonical_cases():
    """(field set, factored path, expected witness); dimension <= 2^8."""
    cases = [pytest.param(build_fields(n, N), True, None, id=f"jw-{n}x{N}")
             for n, N in ((1, 2), (2, 2), (4, 2), (2, 3))]
    f = build_fields(2, 2)
    cases.append(pytest.param(FieldSet(f.fock, f.u, f.fock.adag), True,
                              ("p-u", 0, 0, 0, 0), id="phase-less"))
    flipped = [list(row) for row in f.p0]
    flipped[1] = [op.scale(-1) for op in flipped[1]]
    cases.append(pytest.param(FieldSet(f.fock, f.u, flipped), True,
                              ("p-u", 1, 0, 1, 0), id="sign-flip-site-1"))
    mixed = [list(row) for row in f.p0]
    mixed[0][1] = (f.fock.adag[0][1] + f.fock.adag[0][0]).times_i().scale(-1)
    cases.append(pytest.param(FieldSet(f.fock, f.u, mixed), True,
                              ("p-u", 0, 1, 0, 0), id="mixed-momentum"))
    even = even_mode_site_0()
    cases.append(pytest.param(
        FieldSet(f.fock, [even, f.u[1]],
                 [[c.dagger().times_i().scale(-1) for c in even], f.p0[1]]),
        True, ("p-u", 0, 0, 1, 0), id="even-mode-site-0"))
    bare = [list(row) for row in f.u]
    bare[1][0] = bare_sigma(2, 2, 1, 0)
    cases.append(pytest.param(FieldSet(f.fock, bare, f.p0), False,
                              ("p-u", 0, 0, 1, 0), id="bare-sigma-site-1"))
    return cases


@pytest.mark.parametrize("fields,factored,witness", canonical_cases())
def test_canonical_etc_factored_equals_full_space(fields, factored, witness):
    n, N = fields.modes_per_site, fields.sites
    families = {"p0": fields.p0, "u": fields.u}
    assert (_site_view(families, n, N) is not None) == factored
    rep = canonical_etc_check(fields)
    assert rep.to_dict() == _canonical_scan(fields, _full_space_view).to_dict()
    assert rep.passed == (witness is None) and rep.witness == witness


def car_cases():
    """(ladder operators, factored path, expected witness); dimension <= 2^8."""
    cases = [pytest.param(build_fock(n, N), True, None, id=f"jw-{n}x{N}")
             for n, N in ((1, 2), (2, 2), (4, 2), (2, 3))]
    f = build_fock(2, 2)
    a = [list(row) for row in f.a]
    a[1][1] = a[1][1].scale(-1)       # adag[1][1] keeps its sign
    cases.append(pytest.param(FockOps(2, 2, a, f.adag), True, ("a-adag", 3, 3),
                              id="sign-flip-a"))
    a = [list(row) for row in f.a]
    a[0][1] = a[0][1] + a[0][0]
    cases.append(pytest.param(FockOps(2, 2, a, f.adag), True, ("a-adag", 1, 0),
                              id="mixed-a"))
    even = even_mode_site_0()
    cases.append(pytest.param(FockOps(2, 2, [even, f.a[1]],
                                      [[c.dagger() for c in even], f.adag[1]]),
                              True, ("a-adag", 0, 2), id="even-mode-site-0"))
    a = [list(row) for row in f.a]
    a[1][0] = bare_sigma(2, 2, 1, 0)
    adag = [list(row) for row in f.adag]
    adag[1][0] = a[1][0].dagger()
    cases.append(pytest.param(FockOps(2, 2, a, adag), False, ("a-adag", 0, 2),
                              id="bare-sigma-site-1"))
    return cases


@pytest.mark.parametrize("ops,factored,witness", car_cases())
def test_car_factored_equals_full_space(ops, factored, witness):
    n, N = ops.modes_per_site, ops.sites
    families = {"a": ops.a, "adag": ops.adag}
    assert (_site_view(families, n, N) is not None) == factored
    rep = car_check(ops)
    assert rep.to_dict() == _car_scan(ops, _full_space_view).to_dict()
    assert rep.passed == (witness is None) and rep.witness == witness


def test_site_space_rejects_a_non_embedded_ladder(quat_gen, su2_doubled):
    f = build_fock(2, 2)
    f.a[1][0] = bare_sigma(2, 2, 1, 0)
    with pytest.raises(RuntimeError, match=r"a\[1\]\[0\]"):
        f.site_space()
    fields = build_fields(4, 2)
    fields.fock.adag[1][2] = bare_sigma(4, 2, 1, 2).dagger()
    with pytest.raises(RuntimeError, match=r"adag\[1\]\[2\]"):
        charge_densities(fields, quat_gen, su2_doubled)


# --- quadratic cache ---------------------------------------------------

def test_products_owned_by_fock_space():
    f = build_fock(2, 2)
    assert f.products.pair(2, 3) is f.products.pair(2, 3)
    assert f.products.pair(2, 3) == f.adag[1][0] @ f.a[1][1]
    assert f.site_space().dim == 4 and f.site_space() is f.site_space()
    assert build_fock(2, 1).site_space().sites == 1


def test_bilinear_identity_is_total_number(quat_fields):
    cache = QuadraticCache(quat_fields.fock)
    ident = [[Fraction(i == j) for j in range(4)] for i in range(4)]
    total = cache.bilinear(ident)
    expect = GQSparse.zero(quat_fields.fock.dim)
    for A in range(4):
        expect = expect + quat_fields.fock.adag[0][A] @ quat_fields.fock.a[0][A]
    assert total == expect


def test_bilinear_linear(quat_fields):
    cache = QuadraticCache(quat_fields.fock)
    m1 = [[Fraction((i + j) % 3 - 1) for j in range(4)] for i in range(4)]
    m2 = [[Fraction(i - j) for j in range(4)] for i in range(4)]
    s = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
    assert cache.bilinear(s) == cache.bilinear(m1) + cache.bilinear(m2)
