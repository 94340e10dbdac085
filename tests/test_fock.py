import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import oracles
from mnl import etc
from mnl.etc import _lemma
from mnl.fock import (FieldSet, FockOps, GQSparse, QuadraticCache, SiteOp, _ladder, _minus_i,
                      _states, _sum, build_fields, build_fock, canonical_etc_check, car_check)
from mnl.matrices import CHUNK
from mnl.relations import BUDGET, RelationKernel
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


def test_gq_eq_on_unsorted_and_duplicate_indices():
    # [[1, 2], [0, 3]] with row 0 stored as (1: 2), (0: 1) and row 1 as
    # (1: 1), (1: 2): unsorted indices and a duplicate entry
    messy = sp.csr_matrix((np.array([2, 1, 1, 2]), np.array([1, 0, 1, 1]),
                           np.array([0, 2, 4])), shape=(2, 2))
    arrays = (messy.data.copy(), messy.indices.copy(), messy.indptr.copy())
    op = GQSparse(2, messy, sp.csr_matrix((2, 2), dtype=np.int64))
    assert op == gq([[1, 2], [0, 3]])
    assert op != gq([[1, 2], [0, 2]])
    assert op.scale(2) == gq([[2, 4], [0, 6]])
    assert op.times_i() == gq([[0, 0], [0, 0]], im=[[1, 2], [0, 3]])
    # an explicit zero is no entry
    zeroed = sp.csr_matrix((np.array([1, 0]), np.array([0, 1]), np.array([0, 1, 2])),
                           shape=(2, 2))
    assert GQSparse.from_int(zeroed) == gq([[1, 0], [0, 0]])
    # the caller's arrays are left as they were
    assert all(np.array_equal(a, b) for a, b in
               zip(arrays, (messy.data, messy.indices, messy.indptr)))


def test_gq_dimension_mismatch():
    with pytest.raises(InputError):
        gq([[1]]) + gq([[1, 0], [0, 1]])


def test_gq_unhashable():
    with pytest.raises(TypeError):
        hash(GQSparse.identity(2))


GUARD = (1 << 62) - 1    # the largest entry magnitude a GQSparse holds


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.data())
def test_minus_i_equals_the_constructed_operator(dim, data):
    # -i op filled from op's slots equals the one the constructor checks and
    # normalizes: den > 1, empty re or im parts, entries up to the guard
    def part():
        values = st.sampled_from([0, 1, -1, 6, -9, GUARD, -GUARD, GUARD - 1, 1 << 61])
        if not data.draw(st.booleans()):
            values = st.just(0)
        return np.array(data.draw(st.lists(values, min_size=dim * dim, max_size=dim * dim)),
                        dtype=np.int64).reshape(dim, dim)
    op = GQSparse(dim, sp.csr_matrix(part()), sp.csr_matrix(part()),
                  data.draw(st.sampled_from([1, 2, 3, 6, 1 << 40])))
    got, want = _minus_i(op), GQSparse(op.dim, op.im, -op.re, op.den)
    assert got == want and (got.dim, got.den, got.mag) == (want.dim, want.den, want.mag)
    for mine, theirs in ((got.re, want.re), (got.im, want.im)):
        assert mine.has_canonical_format and mine.dtype == theirs.dtype == np.int64
        assert np.array_equal(mine.toarray(), theirs.toarray())


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
    # |-2^63| is not an int64, so np.abs leaves it negative; it must not read
    # as magnitude 0, which made its square and its double the zero operator
    with pytest.raises(OverflowError):
        GQSparse.from_int(sp.csr_matrix(([-(1 << 63)], ([0], [0])), shape=(2, 2),
                                        dtype=np.int64))
    # 2^61 is below the one 2^62 bound: it constructs, and its square refuses
    big = GQSparse.from_int(sp.csr_matrix(([1 << 61], ([0], [0])), shape=(2, 2),
                                          dtype=np.int64))
    assert big.mag == 1 << 61
    with pytest.raises(OverflowError):
        big @ big


# --- the one COO assembly of a sum ---------------------------------------

def place_example(parts, d=2):
    return d, [(m, np.array(re, dtype=np.int64), np.array(im, dtype=np.int64))
               for m, re, im in parts]


@st.composite
def placements(draw):
    """(m, re, im) parts of d x d operators summed as m (re + i im) on one
    block; parts may meet, be empty or cancel."""
    d = draw(st.integers(1, 3))
    entries = st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                       min_size=d, max_size=d)
    return place_example(draw(st.lists(st.tuples(st.integers(-4, 4), entries, entries),
                                       max_size=5)), d)


ZERO = [[0, 0], [0, 0]]


@settings(max_examples=100, deadline=None)
@given(placements())
@example(place_example([(3, [[1, 0], [2, -1]], ZERO)]))       # one part, no assembly
@example(place_example([(2, ZERO, ZERO), (-1, [[5, 1], [0, 0]], [[0, 2], [0, 0]])]))
@example(place_example([(1, [[1, 2], [3, 4]], [[1, 0], [0, 0]]), (-2, [[1, 0], [0, 1]], ZERO),
                        (5, ZERO, ZERO), (1, [[0, 7], [0, 0]], [[-1, 0], [0, 0]])]))
@example(place_example([(2, [[1, -1], [0, 3]], [[0, 1], [1, 0]]),
                        (-1, [[2, -2], [0, 6]], [[0, 2], [2, 0]])]))    # the parts cancel
def test_place_sums_the_blocks_like_dense(drawn):
    # `_sum` on one block, against the dense sum of each part
    d, parts = drawn
    got = _sum(d, [(m, GQSparse(d, sp.csr_matrix(re), sp.csr_matrix(im))) for m, re, im in parts])
    for part, k in ((got.re, 1), (got.im, 2)):
        want = sum((p[0] * p[k] for p in parts), np.zeros((d, d), dtype=np.int64))
        assert part.shape == want.shape and part.dtype == np.int64
        assert np.array_equal(part.toarray(), want)
    assert got.den == 1


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
    zero = [[0] * SITE_DIM for _ in range(SITE_DIM)]
    shape = draw(st.sampled_from(("real", "imaginary", "mixed")))
    re, im = {"real": (re, zero), "imaginary": (zero, im), "mixed": (re, im)}[shape]
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


def mixed_factor(draw):
    """A factor with nonzero re and im parts over a denominator of 2 or 3
    that does not cancel: each part has an entry of +-1."""
    den = draw(st.integers(2, 3))
    parts = [draw(st.lists(st.lists(st.integers(-3, 3), min_size=SITE_DIM, max_size=SITE_DIM),
                           min_size=SITE_DIM, max_size=SITE_DIM)) for _ in range(2)]
    for part in parts:
        i, j = draw(st.integers(0, SITE_DIM - 1)), draw(st.integers(0, SITE_DIM - 1))
        part[i][j] = draw(st.sampled_from((-1, 1)))
    return gq(*parts, den)


def anticommutator(P, Q):
    """{P, Q} by the operators' own products; SiteOps on one site."""
    if isinstance(P, SiteOp):
        both = 0 in P.factors and 0 in Q.factors
        return SiteOp(1, P.site_dim,
                      {0: anticommutator(P.factors[0], Q.factors[0])} if both else {})
    return P @ Q + Q @ P


@st.composite
def kernel_cases(draw):
    """Operators, SiteOps on 1-3 sites or plain GQSparse: four whose factors
    are real, imaginary or mixed (re and im), or multiples of I (one may be sum_x c_x I
    with the c_x summing to zero), then i times one of them, two with mixed
    factors at every site (5, 6), their commutator (7), i times 5 (8) and,
    on one site, their anticommutator (9), each built by the operators' own
    arithmetic.  Random cases of every term kind the layout allows, and
    cases built to cancel, so that a wrong sign in any one kind of term
    shows: a term plus its negation, q [a, b] + q [b, a], q {a, b} - q {b, a},
    and q i o against -q times the operator i o.  The kernel's terms over
    the mixed operators against the operators built apart meet every pair of
    phases, re re, re im, im re and im im, so that a wrong sign for any one
    of them shows too."""
    plain = draw(st.booleans())
    sites = 1 if plain else draw(st.integers(1, 3))
    ident = GQSparse.identity(SITE_DIM)

    def one_factor():
        if draw(st.booleans()):
            return draw(factor())
        return ident.scale(draw(st.fractions(-2, 2, max_denominator=3)))

    def one(make, present=None):
        if plain:
            return make()
        if present is None:
            present = draw(st.lists(st.integers(0, sites - 1), unique=True, max_size=sites))
        return SiteOp(sites, SITE_DIM, {x: make() for x in present})

    ops = [one(one_factor) for _ in range(4)]
    if sites > 1 and draw(st.booleans()):
        ops[-1] = SiteOp(sites, SITE_DIM, {0: ident, sites - 1: ident.scale(-1)})
    index, q = st.integers(0, 3), st.fractions(-3, 3, max_denominator=3)
    kinds = st.sampled_from("ca" if sites == 1 else "c")
    term = st.one_of(st.tuples(kinds, q, index, index),
                     st.tuples(st.sampled_from("oi"), q, index))
    cases = draw(st.lists(st.lists(term, min_size=1, max_size=4), min_size=1, max_size=6))
    a, b, v = draw(index), draw(index), draw(q)
    ops.append(ops[a].times_i())
    x, y = (one(lambda: mixed_factor(draw), range(sites)) for _ in range(2))
    ops += [x, y, x.commutator(y), x.times_i()]
    cases += [[("o", v, a), ("o", -v, a)], [("i", v, a), ("i", -v, a)],
              [("c", v, a, b), ("c", v, b, a)], [("i", v, a), ("o", -v, 4)],
              [("c", v, 5, 6), ("o", -v, 7)], [("c", v, 6, 5), ("o", v, 7)],
              [("i", v, 5), ("o", -v, 8)]]
    if sites == 1:
        ops.append(anticommutator(x, y))
        cases += [[("a", v, a, b), ("a", -v, b, a)], [("a", v, 5, 6), ("a", -v, 6, 5)],
                  [("a", v, 5, 6), ("o", -v, 9)], [("a", v, 6, 5), ("c", v, 5, 6), ("o", -v, 9),
                                                   ("o", -v, 7)]]
    return ops, cases


def case_fails(ops, case):
    """The sum of a kernel case built term by term with the operators' own
    arithmetic, held to their is_zero (the c_x I rule for SiteOps)."""
    total = ops[0].zero_like()
    for kind, q, *idx in case:
        op = ops[idx[0]]
        term = (op.commutator(ops[idx[1]]) if kind == "c"
                else anticommutator(op, ops[idx[1]]) if kind == "a"
                else op.times_i() if kind == "i" else op)
        total = total.plus([(q, term)])
    return not total.is_zero()


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_relation_kernel_decides_like_the_operators(drawn):
    ops, cases = drawn
    assert list(RelationKernel(ops).fails(cases)) == [case_fails(ops, case) for case in cases]


@st.composite
def shared_site_rows(draw):
    """SiteOps on 2 or 3 sites that hold one factor object at every site:
    three drawn factors (0-2), op 0 with one site's factor changed (3), a
    multiple of I at every site (4), [op 0, op 1] (5) and i op 0 (6); and
    that multiple of I on the first site (7) and on the last (8).  Rows
    drawn over them, each with its mirror (q [a, b] as -q [b, a]) and its
    negation, rows built to cancel, all shuffled, and the cut points of the
    chunks they are decided in."""
    sites = draw(st.integers(2, 3))
    q = st.fractions(-3, 3, max_denominator=3).filter(bool)
    base = [draw(factor().filter(lambda f: f.nnz)) for _ in range(2)] + [mixed_factor(draw)]
    ops = [SiteOp(sites, SITE_DIM, {x: f for x in range(sites)}) for f in base]
    changed = dict(ops[0].factors)
    x = draw(st.integers(0, sites - 1))
    changed[x] = changed[x].plus([(draw(q), base[draw(st.integers(1, 2))])])
    ident = GQSparse.identity(SITE_DIM).scale(draw(q))
    ops += [SiteOp(sites, SITE_DIM, changed),
            SiteOp(sites, SITE_DIM, dict.fromkeys(range(sites), ident)),
            ops[0].commutator(ops[1]), ops[0].times_i(),
            SiteOp(sites, SITE_DIM, {0: ident}), SiteOp(sites, SITE_DIM, {sites - 1: ident})]
    index = st.integers(0, len(ops) - 1)
    term = st.one_of(st.tuples(st.just("c"), q, index, index),
                     st.tuples(st.sampled_from("oi"), q, index))
    rows = []
    for row in draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=5)):
        mirror = [("c", -t[1], t[3], t[2]) if t[0] == "c" else t for t in row]
        rows += [row, mirror, [(t[0], -t[1], *t[2:]) for t in row]]
    v = draw(q)
    rows += [[("c", v, 0, 1), ("o", -v, 5)], [("c", v, 1, 0), ("o", v, 5)],
             [("c", -v, 1, 0), ("o", -v, 5)], [("c", v, 3, 1), ("o", -v, 5)],
             [("c", v, 0, 2), ("c", v, 2, 0)], [("c", v, 0, 2), ("c", -v, 2, 0)],
             [("i", v, 0), ("o", -v, 6)], [("i", -v, 3), ("o", v, 6)], [("o", v, 4)],
             [("o", v, 7), ("o", -v, 8)], [("i", -v, 7), ("i", v, 8)], [("o", v, 7), ("o", v, 8)]]
    rows = draw(st.permutations(rows))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    return ops, rows, cuts


@settings(max_examples=60, deadline=None)
@given(shared_site_rows())
def test_memo_decides_shared_sites_like_the_operators(drawn):
    # chunk by chunk on one kernel, so that later chunks read earlier keys
    # from the memo, and through first_failure: verdicts and the witness
    # equal the case-by-case oracle's
    ops, rows, cuts = drawn
    kernel, want = RelationKernel(ops), [case_fails(ops, row) for row in rows]
    got = [bool(bad) for lo, hi in zip([0] + cuts, cuts + [len(rows)])
           for bad in kernel.fails(rows[lo:hi])]
    assert got == want
    walk = [((k,), *row) for k, row in enumerate(rows)]
    want = oracles.first_failure("rows", walk, lambda *row: not case_fails(ops, row))
    assert RelationKernel(ops).first_failure("rows", walk).to_dict() == want.to_dict()


def test_site_op_full_reads_as_gqsparse():
    full = oracles.full_ladder(2, 2)
    local = build_fock(2, 1)
    num = local.adag[1] @ local.a[1]
    op = SiteOp(2, 4, {1: num})
    expect = full[1][1].dagger() @ full[1][1]
    assert op.full() == expect
    assert op.den == expect.den
    assert (op.re != expect.re).nnz == 0 and op.im.nnz == 0


def test_site_op_dimension_mismatch():
    with pytest.raises(InputError):
        SiteOp(2, 4, {}) + SiteOp(3, 4, {})
    with pytest.raises(InputError):
        SiteOp(2, 4, {}).commutator(GQSparse.identity(16))


# --- ladder operators --------------------------------------------------

def test_single_mode_matrices():
    f = build_fock(1, 1)
    assert f.a[0].re.toarray().tolist() == [[0, 1], [0, 0]]
    assert f.adag[0].re.toarray().tolist() == [[0, 0], [1, 0]]
    # number operator
    num = f.adag[0] @ f.a[0]
    assert num.re.toarray().tolist() == [[0, 0], [0, 1]]


def test_nilpotency():
    f = build_fock(2, 1)
    for A in range(2):
        assert (f.a[A] @ f.a[A]).is_zero()
        assert (f.adag[A] @ f.adag[A]).is_zero()


@pytest.mark.parametrize("n,N", [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (8, 1), (5, 2)])
def test_ladder_equals_the_kron_ladder(n, N):
    full = [op for row in oracles.full_ladder(n, N) for op in row]
    assert _ladder(n * N, range(1 << (n * N))) == full
    # on the states of at most two particles: the same operators, restricted
    states = _states(n * N, 2)
    assert len(states) == 1 + n * N + n * N * (n * N - 1) // 2
    pick = sp.csr_matrix((np.ones(len(states), dtype=np.int64),
                          (states, np.arange(len(states)))), shape=(2 ** (n * N), len(states)))
    restricted = [GQSparse(len(states), pick.T @ op.re @ pick, pick.T @ op.im @ pick, op.den)
                  for op in full]
    assert _ladder(n * N, states) == restricted


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("particles", [None, 2])
def test_ladder_arrays_equal_the_coo_assembly(n, particles):
    """The ladder and its adjoints, written as canonical CSR arrays, equal the
    COO-assembled operators and their daggers: parts, mag and den, per mode."""
    states = range(1 << n) if particles is None else _states(n, particles)
    coo = oracles.coo_ladder(n, states)
    for ops, expected in ((_ladder(n, states), coo),
                          (_ladder(n, states, dagger=True), [op.dagger() for op in coo])):
        for op, ref in zip(ops, expected, strict=True):
            assert op == ref and (op.mag, op.den) == (ref.mag, ref.den)
            assert op.re.has_canonical_format and op.re.dtype == np.int64
    if particles is None:
        f = build_fock(n, 1)
        assert f.a == coo and f.adag == [op.dagger() for op in coo]


def test_ladder_needs_states_closed_under_lowering():
    with pytest.raises(ValueError):
        _ladder(3, [0, 3])


def test_car_small_spaces():
    for n, N in ((1, 1), (2, 1), (1, 2), (2, 2), (4, 1)):
        assert car_check(build_fock(n, N)).passed


def test_car_fails_without_jw_strings():
    f = build_fock(2, 1)
    # replace mode 1 by a bare sigma (no Z string): modes then commute
    bad = sp.kron(sp.identity(2, dtype=np.int64),
                  sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=np.int64)),
                  format="csr")
    f.a[1] = GQSparse.from_int(bad)
    f.adag[1] = f.a[1].dagger()
    rep = car_check(f)
    assert not rep.passed
    assert rep.witness == ("a-adag", 0, 1)


def test_mode_cap():
    assert build_fock(8, 4).dim == 2 ** 32
    assert build_fock(16, 2).a[0].dim == 2 ** 16
    for n, N in ((8, 5), (17, 1), (0, 1), (1, 0)):
        with pytest.raises(InputError):
            build_fock(n, N)


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
    bad = FieldSet(f.fock, f.u, [[f.fock.adag[0]]])
    rep = canonical_etc_check(bad)
    assert not rep.passed
    assert rep.witness[0] == "p-u"


# --- the one-site scans against the full space --------------------------

def bare_sigma(n, N, x, A):
    """The annihilator of mode (x, A) without its Jordan-Wigner string."""
    m = x * n + A
    acc = sp.identity(2 ** m, dtype=np.int64, format="csr")
    acc = sp.kron(acc, oracles._SIGMA, format="csr")
    acc = sp.kron(acc, sp.identity(2 ** (n * N - m - 1), dtype=np.int64), format="csr")
    return GQSparse.from_int(acc)


def test_site_factor_reads_ladder_embeddings():
    n, N = 2, 3
    full, local = oracles.full_ladder(n, N), build_fock(n, 1)
    for x in range(N):
        for A in range(n):
            assert oracles.site_factor(full[x][A], n, N, x) == local.a[A]
            assert (oracles.site_factor(full[x][A].dagger().times_i(), n, N, x)
                    == local.adag[A].times_i())
    # the string of site 1 is Pi on site 0, not I: the bare operator is no embedding
    assert oracles.site_factor(bare_sigma(n, N, 1, 0), n, N, 1) is None
    # a same-site product drops its string, so it is an embedding with I, not Pi
    assert oracles.site_factor(full[1][0].dagger() @ full[1][1], n, N, 1) is None
    assert oracles.site_factor(full[2][0] + full[1][0], n, N, 2) is None
    assert oracles.site_factor(full[1][0].zero_like(), n, N, 1).is_zero()


def even_mode():
    """One-site annihilators for two modes that satisfy the CAR among
    themselves, but whose mode 0, sigma x X, is parity-even: as fields of
    site 0, every same-site relation holds and the first cross-site one fails."""
    c0 = GQSparse.from_int(sp.kron(oracles._SIGMA, [[0, 1], [1, 0]]))
    half = sp.kron(np.eye(2, dtype=np.int64), [[1, 1], [-1, -1]])
    c1 = GQSparse(4, half, sp.csr_matrix((4, 4), dtype=np.int64), 2)
    return [c0, c1]


def canonical_cases():
    """(field set, expected witness); full-space dimension <= 2^8."""
    cases = [pytest.param(build_fields(n, N), None, id=f"jw-{n}x{N}")
             for n, N in ((1, 2), (2, 2), (4, 2), (2, 3))]
    f = build_fields(2, 2)
    cases.append(pytest.param(FieldSet(f.fock, f.u, [f.fock.adag] * 2),
                              ("p-u", 0, 0, 0, 0), id="phase-less"))
    flipped = [list(row) for row in f.p0]
    flipped[1] = [op.scale(-1) for op in flipped[1]]
    cases.append(pytest.param(FieldSet(f.fock, f.u, flipped),
                              ("p-u", 1, 0, 1, 0), id="sign-flip-site-1"))
    mixed = [list(row) for row in f.p0]
    mixed[0][1] = (f.fock.adag[1] + f.fock.adag[0]).times_i().scale(-1)
    cases.append(pytest.param(FieldSet(f.fock, f.u, mixed),
                              ("p-u", 0, 1, 0, 0), id="mixed-momentum"))
    even = even_mode()
    cases.append(pytest.param(
        FieldSet(f.fock, [even, f.u[1]],
                 [[c.dagger().times_i().scale(-1) for c in even], f.p0[1]]),
        ("p-u", 0, 0, 1, 0), id="even-mode-site-0"))
    return cases


@pytest.mark.parametrize("fields,witness", canonical_cases())
def test_canonical_etc_factored_equals_full_space(fields, witness):
    rep = canonical_etc_check(fields)
    assert rep.to_dict() == oracles.canonical_scan(fields).to_dict()
    assert rep.passed == (witness is None) and rep.witness == witness


def car_cases():
    """(ladder operators, expected witness); full-space dimension <= 2^8.  A
    FockOps holds one site, so a change to it is a change at every site."""
    cases = [pytest.param(build_fock(n, N), None, id=f"jw-{n}x{N}")
             for n, N in ((1, 2), (2, 2), (4, 2), (2, 3))]
    f = build_fock(2, 2)
    a = list(f.a)
    a[1] = a[1].scale(-1)       # adag[1] keeps its sign
    cases.append(pytest.param(FockOps(2, 2, a, f.adag), ("a-adag", 1, 1), id="sign-flip-a"))
    a = list(f.a)
    a[1] = a[1] + a[0]
    cases.append(pytest.param(FockOps(2, 2, a, f.adag), ("a-adag", 1, 0), id="mixed-a"))
    even = even_mode()
    cases.append(pytest.param(FockOps(2, 2, even, [c.dagger() for c in even]),
                              ("a-adag", 0, 2), id="even-mode-site-0"))
    return cases


@pytest.mark.parametrize("ops,witness", car_cases())
def test_car_factored_equals_full_space(ops, witness):
    rep = car_check(ops)
    assert rep.to_dict() == oracles.car_scan(ops).to_dict()
    assert rep.passed == (witness is None) and rep.witness == witness


# --- the kernel scans against the one-anticommutator-at-a-time oracle -----

def mutant_fields(f, kind, x, A, y, B):
    """f's fields with one change at site x, mode A: u scaled by 2, the
    momenta of (x, A) and (y, B) swapped, u zero, u replaced by the
    parity-even a^dag a, or p0 = +i a^dag (the p-u expectation's sign flipped)."""
    u, p0 = [list(row) for row in f.u], [list(row) for row in f.p0]
    if kind == "scale-2":
        u[x][A] = u[x][A].scale(2)
    elif kind == "swap":
        p0[x][A], p0[y][B] = p0[y][B], p0[x][A]
    elif kind == "zero":
        u[x][A] = u[x][A].zero_like()
    elif kind == "even":
        u[x][A] = u[x][A].dagger() @ u[x][A]
    else:
        p0[x][A] = p0[x][A].scale(-1)
    return FieldSet(f.fock, u, p0)


def mutant_fock(f, kind, A, B):
    """f with one change to mode A at every site: the analogues of
    `mutant_fields` on a and adag."""
    a, adag = list(f.a), list(f.adag)
    if kind == "scale-2":
        a[A] = a[A].scale(2)
    elif kind == "swap":
        adag[A], adag[B] = adag[B], adag[A]
    elif kind == "zero":
        a[A] = a[A].zero_like()
    elif kind == "even":
        a[A] = a[A].dagger() @ a[A]
    else:
        adag[A] = adag[A].scale(-1)
    return FockOps(f.modes_per_site, f.sites, a, adag)


MUTATIONS = ("scale-2", "swap", "zero", "even", "flip-sign")


def assert_scans_match_oracle(fields):
    for rep, want in ((canonical_etc_check(fields), oracles.canonical_site_scan(fields)),
                      (car_check(fields.fock), oracles.car_site_scan(fields.fock))):
        assert rep.to_dict() == want.to_dict()


@pytest.mark.parametrize("n,N", [(1, 2), (2, 3), (4, 2), (8, 1)])
def test_scans_equal_the_one_site_oracle(n, N):
    fields = build_fields(n, N)
    assert_scans_match_oracle(fields)
    assert canonical_etc_check(fields).passed and car_check(fields.fock).passed


def even_at_site_0():
    """`even_mode` as the fields of site 0 of two: only a cross-site relation fails."""
    f, even = build_fields(2, 2), even_mode()
    return FieldSet(f.fock, [even, f.u[1]],
                    [[c.dagger().times_i().scale(-1) for c in even], f.p0[1]])


@pytest.mark.parametrize("kind", MUTATIONS)
def test_mutated_scans_equal_the_one_site_oracle(kind):
    f = build_fields(2, 3)
    for x, A, y, B in ((0, 0, 2, 1), (1, 1, 0, 0), (2, 0, 2, 1)):
        fields = mutant_fields(f, kind, x, A, y, B)
        assert_scans_match_oracle(fields)
        assert not canonical_etc_check(fields).passed
        ops = mutant_fock(f.fock, kind, A, B)
        assert car_check(ops).to_dict() == oracles.car_site_scan(ops).to_dict()
        assert not car_check(ops).passed
    even = even_at_site_0()
    assert canonical_etc_check(even).to_dict() == oracles.canonical_site_scan(even).to_dict()
    assert canonical_etc_check(even).witness == ("p-u", 0, 0, 1, 0)


def test_cross_site_rule_reads_the_earlier_site():
    # u = [[1, 1], [-1, -1]] keeps the CAR with the standard momentum but is
    # not parity-odd; with site 1's field zero every pair with x < y holds,
    # so the first failure is {p0(1), u(0)}, met at x > y
    f = build_fields(1, 2)
    u = GQSparse.from_int(np.array([[1, 1], [-1, -1]]))
    fields = FieldSet(f.fock, [[u], [u.zero_like()]], f.p0)
    rep = canonical_etc_check(fields)
    assert rep.witness == ("p-u", 1, 0, 0, 0)
    assert rep.to_dict() == oracles.canonical_site_scan(fields).to_dict()
    assert rep.to_dict() == oracles.canonical_scan(fields).to_dict()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 2), (2, 2), (2, 3), (4, 2)]), st.sampled_from(MUTATIONS),
       st.integers(0, 15), st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_random_mutants_equal_the_one_site_oracle(shape, kind, x, A, y, B):
    (n, N), f = shape, build_fields(*shape)
    x, y, A, B = x % N, y % N, A % n, B % n
    assert_scans_match_oracle(mutant_fields(f, kind, x, A, y, B))
    ops = mutant_fock(f.fock, kind, A, B)
    assert car_check(ops).to_dict() == oracles.car_site_scan(ops).to_dict()


def test_scan_rows_are_decided_a_chunk_at_a_time(monkeypatch):
    # at 16 modes one case row outweighs the budget: every chunk is one row,
    # and its own product, so L never holds more than one row of blocks; at
    # 8 modes on two sites the rows fill several chunks, each within the
    # budget; rows that compute nothing (a commutator of operators on
    # different sites) weigh 0, so they fill a chunk up to CHUNK
    chunks, products = [], []
    fails, decide = RelationKernel._fails, RelationKernel._decide

    def spy(kernel, plan, lo, hi):
        # the weights the window's chunks were cut by
        chunks.append(plan.weight[lo:hi].tolist())
        return fails(kernel, plan, lo, hi)

    def decide_spy(kernel, plan, groups, mult, K):
        # the cases whose keys one product decides
        products.append(sorted(set(plan.gcase[groups].tolist())))
        return decide(kernel, plan, groups, mult, K)
    monkeypatch.setattr(RelationKernel, "_fails", spy)
    monkeypatch.setattr(RelationKernel, "_decide", decide_spy)
    assert car_check(build_fock(16, 1)).passed
    assert chunks and all(len(chunk) == 1 and chunk[0] >= BUDGET for chunk in chunks)
    assert products and all(len(product) == 1 for product in products)
    chunks.clear()
    assert canonical_etc_check(build_fields(8, 2)).passed
    assert len(chunks) > 1
    assert all(len(c) <= CHUNK and sum(c[:-1]) < BUDGET for c in chunks)
    chunks.clear()
    f = build_fock(2, 1)
    kernel = RelationKernel([SiteOp(2, 4, {0: f.a[0]}), SiteOp(2, 4, {1: f.adag[1]}),
                             SiteOp(2, 4, {0: f.a[1], 1: f.a[1]})])
    rows = [(k, ("c", 1, 0, 1)) for k in range(CHUNK + 6)]
    assert kernel.first_failure("cross", rows).passed
    assert chunks == [[0] * CHUNK, [0] * 6]
    # a live term weighs d plus its factors' entries at each shared site; a
    # key repeated at another site, or already decided, weighs 0
    assert kernel.weight([("c", 1, 0, 2), ("c", 1, 1, 1), ("o", 0, 2)]) == 4 + 2 + 2
    assert kernel.weight([("o", 1, 2)]) == 4 + 2
    chunks.clear()
    assert not kernel.first_failure("live", rows[:3] + [(3, ("c", 1, 0, 2))]).passed
    assert chunks == [[0, 0, 0, 8]]
    assert kernel.weight([("c", -1, 2, 0)]) == 0


# --- quadratic cache ---------------------------------------------------

def test_row_is_the_transposed_ladder_stack():
    # the row of a† is read off the stack of the lowering operators; a
    # one-entry matrix gives that pair's product
    f = build_fock(2, 2)
    cache = QuadraticCache(f.a)
    assert cache.dim == 4
    expect = sp.hstack([op.dagger().re for op in f.a], format="csr")
    assert np.array_equal(cache.row.toarray(), expect.toarray())
    for m in range(2):
        for mp in range(2):
            one = [[int((i, j) == (m, mp)) for j in range(2)] for i in range(2)]
            assert cache.bilinear(one) == f.adag[m] @ f.a[mp]


def test_bilinear_needs_integer_ladders():
    f = build_fock(2, 1)
    with pytest.raises(InputError):
        QuadraticCache([op.scale(Fraction(1, 2)) for op in f.a]).bilinear([[1, 0], [0, 1]])
    with pytest.raises(InputError):
        QuadraticCache([op.times_i() for op in f.a]).bilinear([[1, 0], [0, 1]])


def big_ladder(modes):
    """The Jordan-Wigner ladder with every entry times 2^40."""
    return [GQSparse.from_int(op.re * (1 << 40)) for op in _ladder(modes, range(1 << modes))]


def test_bilinear_of_2_40_entries_raises():
    a = big_ladder(2)
    with pytest.raises(OverflowError):
        QuadraticCache(a).bilinear([[1, 0], [0, 1]])
    with pytest.raises(OverflowError):
        _lemma(a, 3, 0)


def test_bilinear_identity_is_total_number(quat_fields):
    cache = QuadraticCache(quat_fields.fock.a)
    ident = [[Fraction(i == j) for j in range(4)] for i in range(4)]
    total = cache.bilinear(ident)
    expect = GQSparse.zero(cache.dim)
    for A in range(4):
        expect = expect + quat_fields.fock.adag[A] @ quat_fields.fock.a[A]
    assert total == expect


def test_bilinear_linear(quat_fields):
    cache = QuadraticCache(quat_fields.fock.a)
    m1 = [[Fraction((i + j) % 3 - 1) for j in range(4)] for i in range(4)]
    m2 = [[Fraction(i - j) for j in range(4)] for i in range(4)]
    s = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
    assert cache.bilinear(s) == cache.bilinear(m1) + cache.bilinear(m2)


# --- the bilinear lemma's sector -----------------------------------------

def hard_core_bosons(ladder):
    """The same pattern of entries with no Jordan-Wigner sign."""
    return [GQSparse.from_int(abs(op.re)) for op in ladder]


@pytest.mark.parametrize("particles,passed", [(None, False), (2, False), (1, True)])
def test_hard_core_bosons_need_two_particles(particles, passed):
    # the lemma fails for hard-core bosons on the full space, and on the
    # states of at most two particles; at most one particle cannot see it
    modes = 6
    states = range(1 << modes) if particles is None else _states(modes, particles)
    rep = _lemma(hard_core_bosons(_ladder(modes, states)), 20, 0)
    assert rep.passed == passed and rep.witness == (None if passed else (0,))


def spans_chunks(monkeypatch, a, trials, seed, per_chunk):
    """_lemma with chunks of `per_chunk` trials, and the chunk sizes it used."""
    d = a[0].dim
    monkeypatch.setattr(etc, "LEMMA_BUDGET", per_chunk * d * d)
    sizes = []
    first_failure_chunked = etc.first_failure_chunked

    def spy(prop, cases, fails, size):
        def counted(chunk):
            sizes.append(len(chunk))
            return fails(chunk)
        return first_failure_chunked(prop, cases, counted, size)
    monkeypatch.setattr(etc, "first_failure_chunked", spy)
    return _lemma(a, trials, seed), sizes


@pytest.mark.parametrize("kind", ["fermions", "hard-core bosons"])
@pytest.mark.parametrize("particles", [None, 2])
def test_lemma_equals_the_per_trial_oracle(monkeypatch, kind, particles):
    modes = 5
    states = range(1 << modes) if particles is None else _states(modes, particles)
    a = _ladder(modes, states)
    a = hard_core_bosons(a) if kind == "hard-core bosons" else a
    rep, sizes = spans_chunks(monkeypatch, a, 7, 2, 3)
    assert rep.to_dict() == oracles.lemma_walk(a, 7, 2).to_dict()
    assert rep.passed == (kind == "fermions")
    assert sizes == ([3, 3, 1] if rep.passed else [3])


def test_lemma_witness_after_passing_chunks(monkeypatch):
    # one mode of a single fermion and one zero mode: a† M a = M_00 n, so
    # the lemma fails exactly when [M, N]_00 != 0, at trial 3 for seed 76
    a = [GQSparse.from_int(sp.csr_matrix(np.array([[0, 1], [0, 0]]))), GQSparse.zero(2)]
    rep, sizes = spans_chunks(monkeypatch, a, 12, 76, 2)
    assert rep.witness == (3,) == oracles.lemma_walk(a, 12, 76).witness
    assert sizes == [2, 2]


@pytest.mark.parametrize("trials,m,chunk", [(15, 8, 64), (3, 4, 1), (9, 3, 2), (40, 32, 4)])
def test_lemma_draws_equal_the_per_draw_stream(trials, m, chunk):
    """The bulk draws give each trial the M and N of randint(-3, 3) drawn one
    at a time, M's then N's row by row, across chunks of any size."""
    for seed in range(5):
        rng = random.Random(seed)
        for (trial,), M, N in etc._draws(seed, m, trials, chunk):
            for X in (M, N):
                assert X.tolist() == [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        assert trial == trials - 1


def test_lemma_on_fock_ladders_equals_the_oracle():
    f = build_fock(3, 2)
    a = [*f.a, *f.a]    # one site's operators twice: not the CAR of 6 modes
    assert _lemma(f.a, 9, 1).to_dict() == oracles.lemma_walk(f.a, 9, 1).to_dict()
    assert _lemma(a, 9, 1).to_dict() == oracles.lemma_walk(a, 9, 1).to_dict()
