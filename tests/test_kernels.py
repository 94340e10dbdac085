"""The integer kernels against their `Fraction` oracles (`oracles.py`): the
same report, witness included, on random tensors and generator sets.

Entries come at three sizes: small rationals with denominators, integers
near 2^20 and integers near 2^31.  Small entries never leave int64 (or the
exact float64 tier of matrix products); near
2^31 every identity's bound passes 2^62, so the kernels must take the
object-dtype fallback over Python ints, and the tests check that they did.
Near 2^20 the quadratic Yamaguti and Jacobi contractions of a tensor must stay
in int64, while the cubic Mal'tsev and quartic Lie-Cartan residuals fall back.

`check_glc` and `realize_check` are held to their oracles in blocks of one
label row too, so every family crosses blocks.  The sparse label-row
product (`matrices.rows_times`), on dense rows and on (row, column, value)
triples (`matrices.Rows`), is held to the dense contraction, the matrix
product (`matrices.mat_mul`) to `np.einsum` over Python ints on both sides of
its float64 tier's 2^53 edge, and the integer echelon (`matrices.Echelon`)
to the `Fraction` one (`oracles.echelon_add`): the same rows admitted and
the same reduced form, with entries past the int64 guard too, and through
them the closure oracle's dimension and the Y-quotient; its block admission
leaves the rows of admitting one row at a time (`oracles.RowEchelon`).  The
Mal'tsev scan is held to its oracle on m7 scaled so that its products take
each tier of `mat_mul`, and on an r = 14 tensor that fails past the scan's
first chunk."""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from mnl import algebra, matrices
from mnl.algebra import StructureTensor, catalog_algebra, is_lie, is_maltsev
from mnl.birep import (GeneratorSet, check_glc, octonion_lr_generators,
                       quaternion_lr_generators)
from mnl.envelope import build_envelope, check_jacobi, matrix_closure_dim, realize_check


@contextlib.contextmanager
def int64_decisions():
    """Every verdict of the overflow guard while the block runs: False is a
    fallback to Python ints."""
    seen = []
    original = matrices.fits_int64

    def spy(*bounds):
        seen.append(original(*bounds))
        return seen[-1]
    matrices.fits_int64 = spy
    try:
        yield seen
    finally:
        matrices.fits_int64 = original


def near(power):
    return st.builds(lambda sign, off: sign * ((1 << power) + off),
                     st.sampled_from([-1, 1]), st.integers(-8, 8))


SIZES = {
    "small": st.fractions(min_value=-3, max_value=3, max_denominator=4),
    "2^20": near(20),
    "2^31": near(31),
}
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def check_path(size, seen):
    if size == "small":
        assert False not in seen, "small entries left the int64 path"
    if size == "2^31":
        assert False in seen, "entries near 2^31 did not take the object fallback"


@st.composite
def tensors(draw, size):
    """A random antisymmetric tensor, or a scaled Mal'tsev one with one
    entry changed, with entries of the given size."""
    value = SIZES[size]
    if draw(st.booleans()):
        r = draw(st.integers(2, 4))
        keys = [(i, j, k) for i in range(r) for j in range(r) for k in range(j + 1, r)]
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6, unique=True))
        ent = {}
        for key in chosen:
            v = Fraction(draw(value))
            ent[key], ent[(key[0], key[2], key[1])] = v, -v
        return StructureTensor(r, ent)
    c = catalog_algebra(draw(st.sampled_from(["su2", "sl2"]))).scaled(draw(value.filter(bool)))
    if draw(st.booleans()):
        ent = dict(c.entries)
        i, j, k = draw(st.sampled_from(sorted(key for key in ent if key[1] < key[2])))
        ent[(i, j, k)] += 1
        ent[(i, k, j)] -= 1
        c = StructureTensor(c.dim, ent)
    return c


@pytest.mark.parametrize("size", SIZES)
@SETTINGS
@given(data=st.data())
def test_lie_maltsev_and_yamaguti_match_oracles(size, data):
    c = data.draw(tensors(size))
    with int64_decisions() as quadratic:
        lie = is_lie(c)
        yamaguti = algebra._contract_yamaguti(c)
    with int64_decisions() as cubic:
        maltsev = is_maltsev(c)
    assert lie.to_dict() == oracles.is_lie(c).to_dict()
    assert maltsev.to_dict() == oracles.is_maltsev(c).to_dict()
    assert yamaguti.entries == oracles.contract_yamaguti(c).entries
    check_path(size, quadratic + cubic)
    if size == "2^20":
        assert False not in quadratic, "a quadratic contraction near 2^20 left int64"


def m7_block_sum():
    """m7 plus m7 with c[1][0][2] (and c[1][2][0]) doubled, r = 14: the second
    block fails the identity, at probe e_7, past the scan's first chunk."""
    m7 = catalog_algebra("m7")
    ent = dict(m7.entries)
    for (i, j, k), v in m7.entries.items():
        ent[(i + 7, j + 7, k + 7)] = v * (2 if (i, j, k) in ((1, 0, 2), (1, 2, 0)) else 1)
    return StructureTensor(14, ent)


F64, I64, OBJ = "float64", "int64", "object"
# each case's factor on m7 (None: the block sum) and the tier of each product
# of its scan, in the order A = [x, .], A C, C A, T(A C + C A), A^2, A^2 C,
# C A^2, chunk by chunk
MALTSEV_SCANS = {
    "m7": (1, [F64] * 7),
    "m7 near 2^16": ((1 << 16) + 1, [F64, F64, F64, I64, F64, I64, I64]),
    "m7 near 2^20": ((1 << 20) + 3, [F64, F64, F64, OBJ, F64, OBJ, OBJ]),
    "m7 near 2^31": (5 - (1 << 31), [F64] + [OBJ] * 6),
    "r=14 block sum": (None, [F64] * 14),
}


@pytest.mark.parametrize("case", MALTSEV_SCANS)
def test_maltsev_scan_in_every_tier_and_past_its_first_chunk(case):
    """A passing m7 scaled so that the scan's products take each tier of
    `mat_mul`, and a failing r = 14 tensor whose witness lies in the second
    chunk: the oracle's report each time."""
    scale, tiers = MALTSEV_SCANS[case]
    c = m7_block_sum() if scale is None else catalog_algebra("m7").scaled(scale)
    with matmul_dtypes() as seen:
        report = is_maltsev(c)
    assert report.to_dict() == oracles.is_maltsev(c).to_dict()
    assert [dtype.name for dtype in seen] == tiers
    if c.dim == 14:    # seven products a chunk: two chunks ran
        assert report.witness == (7, 10, 8)


def scaled_quaternion(lam, bump):
    """The quaternion generators times lam, paired with 2 lam su2, and
    T_0[i][j] raised by one at bump = (i, j) unless it is None."""
    gen = quaternion_lr_generators()
    S = [[[lam * x for x in row] for row in m] for m in gen.S]
    T = [[[lam * x for x in row] for row in m] for m in gen.T]
    if bump is not None:
        T[0][bump[0]][bump[1]] += 1
    return GeneratorSet(gen.r, gen.dim, S, T), catalog_algebra("su2").scaled(2 * lam)


@st.composite
def generator_sets(draw, size):
    """A random generator set on a random r = 2 tensor, or the scaled
    quaternion set, passing or with one entry bumped."""
    value = SIZES[size]
    lam = draw(value.filter(bool))
    if draw(st.booleans()):
        dim = draw(st.integers(2, 3))
        mats = st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        S, T = (draw(st.lists(mats, min_size=2, max_size=2)) for _ in "ST")
        return GeneratorSet(2, dim, S, T), StructureTensor(2, {(0, 0, 1): lam, (0, 1, 0): -lam})
    bump = draw(st.none() | st.tuples(st.integers(0, 3), st.integers(0, 3)))
    return scaled_quaternion(lam, bump)


@pytest.mark.parametrize("size", SIZES)
@SETTINGS
@given(data=st.data())
def test_check_glc_matches_oracle(size, data):
    gen, c = data.draw(generator_sets(size))
    with int64_decisions() as seen:
        report = check_glc(gen, c)
    assert report.to_dict() == oracles.check_glc(gen, c).to_dict()
    check_path(size, seen)


@pytest.mark.parametrize("size", SIZES)
@SETTINGS
@given(data=st.data(), bump=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_realize_check_matches_oracle(size, data, bump):
    gen, c = scaled_quaternion(data.draw(SIZES[size].filter(bool)), bump)
    env = build_envelope(c)
    with int64_decisions() as seen:
        report = realize_check(env, gen, c)
    assert report.to_dict() == oracles.realize_check(env, gen, c).to_dict()
    check_path(size, seen)


@pytest.mark.parametrize("size", SIZES)
@settings(SETTINGS, suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_row_blocks_keep_the_witness(size, data, monkeypatch):
    """With one label row of A per block, every pair family crosses blocks,
    and the witness is still the first failing pair in A-major order."""
    monkeypatch.setattr(matrices, "_BLOCK", 1)
    gen, c = data.draw(generator_sets(size))
    assert check_glc(gen, c).to_dict() == oracles.check_glc(gen, c).to_dict()
    env = build_envelope(c)
    assert realize_check(env, gen, c).to_dict() == oracles.realize_check(env, gen, c).to_dict()


def test_empty_family_passes():
    """At r = 1 no Y_jk has j < k, so the yy family is empty and passes."""
    gen = GeneratorSet(1, 2, [[[1, 0], [0, 1]]], [[[0, 1], [1, 0]]])
    c = StructureTensor(1, {})
    report = check_glc(gen, c)
    assert report.to_dict() == oracles.check_glc(gen, c).to_dict()
    assert report.families["yy"].passed


def test_one_row_blocks_on_swapped_octonions(monkeypatch):
    """The octonion generators with S_0 and S_1 exchanged fail, in blocks of
    one label row as in the default blocks."""
    monkeypatch.setattr(matrices, "_BLOCK", 1)
    gen, c = octonion_lr_generators(), catalog_algebra("m7")
    S = list(gen.S)
    S[0], S[1] = S[1], S[0]
    gen = GeneratorSet(gen.r, gen.dim, S, list(gen.T))
    report = check_glc(gen, c)
    assert not report.passed
    assert report.to_dict() == oracles.check_glc(gen, c).to_dict()
    env = build_envelope(c)
    assert realize_check(env, gen, c).to_dict() == oracles.realize_check(env, gen, c).to_dict()


@pytest.mark.parametrize("size", SIZES)
@SETTINGS
@given(data=st.data())
def test_check_jacobi_matches_oracle(size, data):
    """A bracket table of a scaled su2 or sl2, one coefficient changed."""
    value = SIZES[size]
    c = catalog_algebra(data.draw(st.sampled_from(["su2", "sl2"]))).scaled(
        data.draw(value.filter(bool)))
    env = build_envelope(c)
    brackets = oracles.bracket_table(env)
    a, b = data.draw(st.sampled_from(sorted(brackets)))
    lbl = data.draw(st.sampled_from(env.basis))
    row = brackets[(a, b)]
    row[lbl] = row.get(lbl, Fraction(0)) + data.draw(value.filter(bool))
    env = oracles.with_brackets(env, brackets)
    with int64_decisions() as seen:
        report = check_jacobi(env)
    assert report.to_dict() == oracles.check_jacobi(env).to_dict()
    check_path(size, seen)


def test_lie_fallback_sees_an_even_jacobiator():
    """[e0, e1] = l e1, [e0, e2] = l e2 and [e1, e2] = m e0 have the
    Jacobiator -2 l m e0: even and, near 2^31, past int64, so `is_lie`
    decides it over Python ints and must still count it as nonzero."""
    lam, mu = (1 << 31) + 1, (1 << 31) + 3
    ent = {}
    for (i, j, k), v in (((1, 0, 1), lam), ((2, 0, 2), lam), ((0, 1, 2), mu)):
        ent[i, j, k], ent[i, k, j] = Fraction(v), Fraction(-v)
    c = StructureTensor(3, ent)
    with int64_decisions() as seen:
        report = is_lie(c)
    assert False in seen
    assert report.to_dict() == oracles.is_lie(c).to_dict()
    assert not report.passed and report.witness == (0, 1, 2)


def test_guarded_contraction_is_exact_past_int64():
    """2^40 squared in a 2 x 2 product is 2^81, past int64: the exact value."""
    a = np.array([[1 << 40, 1 << 40], [0, 0]], dtype=np.int64)
    out = matrices.mat_mul(a, a.T)
    assert out.dtype == object and out[0, 0] == 1 << 81


@contextlib.contextmanager
def matmul_dtypes():
    """The dtype of the operands of every np.matmul while the block runs."""
    seen = []
    original = np.matmul

    def spy(a, b, *args, **kwargs):
        seen.append(a.dtype)
        return original(a, b, *args, **kwargs)
    np.matmul = spy
    try:
        yield seen
    finally:
        np.matmul = original


@pytest.mark.parametrize("a, b", [
    ([[(1 << 53) - 1]], [[1]]),               # the bound 2^53 - 1: float64
    ([[1 << 26]], [[1 << 27]]),               # the bound 2^53: int64
    ([[1 << 27, 1]], [[1 << 26], [1]]),       # 2^53 + 1, which float64 would round
])
def test_mat_mul_float_tier_at_its_edge(a, b, monkeypatch):
    monkeypatch.setattr(matrices, "_GEMM", 1)
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    with matmul_dtypes() as seen:
        out = matrices.mat_mul(a, b)
    bound = a.shape[-1] * int(np.abs(a).max()) * int(np.abs(b).max())
    assert seen == [np.float64 if bound < 1 << 53 else np.int64]
    assert out.dtype == np.int64 and (out == a.astype(object) @ b.astype(object)).all()


@pytest.mark.parametrize("a_shape, b_shape, tier", [
    ((9, 8, 8), (9, 8, 8), np.int64),    # 4,608 multiply-adds
    ((56, 8), (8, 56), np.float64),      # 25,088
    ((8, 8), (60, 8, 8), np.float64),    # 30,720: a broadcast against b's stack
])
def test_small_products_stay_in_int64(a_shape, b_shape, tier):
    """Below `matrices._GEMM` multiply-adds a product runs in int64."""
    a = np.arange(math.prod(a_shape), dtype=np.int64).reshape(a_shape) % 7 - 3
    b = np.arange(math.prod(b_shape), dtype=np.int64).reshape(b_shape) % 5 - 2
    with matmul_dtypes() as seen:
        out = matrices.mat_mul(a, b)
    assert seen == [tier]
    assert out.dtype == np.int64 and (out == np.matmul(a.astype(object), b.astype(object))).all()


def sparse_ints(magnitude):
    """Mostly zero integers, the others small or near 2^magnitude."""
    return st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                     near(magnitude) if magnitude else st.integers(-3, 3))


@settings(SETTINGS, suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])
@given(data=st.data(), magnitude=st.sampled_from([0, 26, 31, 40]))
def test_mat_mul_matches_einsum(data, magnitude, monkeypatch):
    """A stack of products, one factor shared or stacked, with the float64
    tier open to products of any size: near 2^26 the bound k max|a| max|b|
    falls on both sides of 2^53, so the product runs in float64 strictly
    below it and in int64 at or above it; near 2^31 the bound passes 2^62,
    and near 2^40 the products themselves pass int64 (the factors held as
    Python ints), so mat_mul must take the object path there.  Every path
    stays exact."""
    monkeypatch.setattr(matrices, "_GEMM", 1)
    s, m, k, p = (data.draw(st.integers(1, 4)) for _ in range(4))
    entries = sparse_ints(magnitude)

    def array(*shape):
        flat = data.draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.array(flat, dtype=object).reshape(shape)
    a, b = array(s, m, k), array(*data.draw(st.sampled_from([(s, k, p), (k, p)])))
    if magnitude < 40:
        a, b = a.astype(np.int64), b.astype(np.int64)
    with int64_decisions() as seen, matmul_dtypes() as tier:
        out = matrices.mat_mul(a, b)
    expected = np.einsum("...ik,...kj->...ij", a.astype(object), b.astype(object))
    assert out.shape == expected.shape and (out == expected).all()
    bound = k * max(int(np.abs(a).max()), 1) * max(int(np.abs(b).max()), 1)
    assert (out.dtype == object) == (bound >= 1 << 62) == (False in seen)
    assert tier == [np.float64 if bound < 1 << 53 else np.int64 if bound < 1 << 62 else object]


@SETTINGS
@given(data=st.data(), magnitude=st.sampled_from([0, 31]))
def test_rows_times_matches_contract(data, magnitude):
    """Near 2^31, |R| |X| alone passes 2^62: the product must take the
    Python-int fallback and still be exact."""
    n, t = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
    entries = sparse_ints(magnitude)
    R = np.array(data.draw(st.lists(st.lists(entries, min_size=t, max_size=t),
                                    min_size=n, max_size=n)), dtype=object).reshape(n, t)
    X = np.array(data.draw(st.lists(entries, min_size=t * 6, max_size=t * 6)),
                 dtype=object).reshape(t, 2, 3)
    R, X = (a.astype(np.int64) for a in (R, X))
    with int64_decisions() as seen:
        out = matrices.rows_times(R, X)
    expected = np.einsum("nt,tij->nij", R.astype(object), X.astype(object))
    assert out.shape == (n, 2, 3) and (out == expected).all()
    # the bound reads X's rows that meet a nonzero of R
    met = X[R.any(axis=0)].astype(object)
    bound = max([0] + [int(np.count_nonzero(row)) for row in R]) * max(
        int(np.abs(R.astype(object)).max(initial=0)), 1) * max(int(np.abs(met).max(initial=0)), 1)
    assert (out.dtype == object) == (bound >= 1 << 62) == (False in seen)


@SETTINGS
@given(data=st.data(), magnitude=st.sampled_from([0, 31]))
def test_rows_times_of_triples_matches_the_dense_product(data, magnitude):
    """(row, column, value) triples in row order, with empty rows (the
    trailing ones too) and positions met more than once, contract as the
    dense matrix of their sums; `Rows.summed` gives that matrix's `Rows.of`."""
    size, t = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 6))
    triples = sorted(data.draw(st.lists(st.tuples(
        st.integers(0, max(size - 1, 0)), st.integers(0, t - 1), sparse_ints(magnitude)),
        max_size=12 if size else 0)), key=lambda e: e[0])
    n, w, v = (np.array([e[i] for e in triples], dtype=np.int64) for i in range(3))
    R = np.zeros((size, t), dtype=object)
    for i, k, x in triples:
        R[i, k] += x
    X = np.array(data.draw(st.lists(sparse_ints(magnitude), min_size=t * 6, max_size=t * 6)),
                 dtype=np.int64).reshape(t, 2, 3)
    out = matrices.rows_times(matrices.Rows(n, w, v, size), X)
    expected = np.einsum("nt,tij->nij", R, X.astype(object))
    assert out.shape == (size, 2, 3) and (out == expected).all()
    summed, dense = matrices.Rows.summed(size, t, [(n, w, v)]), matrices.Rows.of(R)
    for a, b in zip(summed, dense):
        assert np.array_equal(a, b)


def test_rows_times_of_zero_and_empty_rows():
    X = np.arange(12, dtype=np.int64).reshape(3, 4)
    for R in (np.zeros((2, 3), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)):
        out = matrices.rows_times(R, X)
        assert out.shape == (len(R), 4) and not out.any()


def echelon_blocks(draw, width, entries):
    """Blocks of integer rows, some of them combinations of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append([p * x + q * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=width, max_size=width)))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return [rows[i:j] for i, j in zip([0] + cuts, cuts + [len(rows)])]


@SETTINGS
@given(data=st.data(), magnitude=st.sampled_from([0, 40, 62]))
def test_echelon_matches_fraction_oracle(data, magnitude):
    """Entries near 2^40 and 2^62: the reduction's products pass the int64
    guard, and the rows must still reduce exactly over Python ints."""
    width = data.draw(st.integers(1, 6))
    blocks = echelon_blocks(data.draw, width, sparse_ints(magnitude))
    span, pivots, seen = matrices.Echelon(width), {}, []
    for block in blocks:
        X = np.array(block, dtype=object).reshape(len(block), width)
        if all(abs(v) < 1 << 62 for v in X.flat):
            X = X.astype(np.int64)
        with int64_decisions() as decided:
            grew = span.add(X)
        seen += decided
        expected = [oracles.echelon_add(pivots, {t: Fraction(v) for t, v in enumerate(row) if v})
                    for row in block]
        assert list(grew) == expected
    assert len(span.pivots) == len(pivots)
    assert {p: {t: Fraction(int(row[t]), int(row[p])) for t in np.flatnonzero(row)}
            for row, p in zip(span.rows, span.pivots)} == pivots
    if any(abs(v) >= 1 << 62 for block in blocks for row in block for v in row):
        assert False in seen, "entries past 2^62 did not take the object fallback"


def test_echelon_admits_rows_off_the_earlier_lines():
    """A zero row and rows on an earlier row's line (its negation or a
    multiple) cannot grow the span; rows that differ from it in one entry can."""
    block = [[1, 1, 0], [2, 1, 0], [0, 0, 0], [-2, -2, 0], [0, 0, 5], [4, 2, 0], [0, 0, -1]]
    pivots = {}
    expected = [oracles.echelon_add(pivots, {t: Fraction(v) for t, v in enumerate(row) if v})
                for row in block]
    grew = matrices.Echelon(3).add(np.array(block, dtype=np.int64))
    assert list(grew) == expected == [True, True, False, False, True, False, False]


@SETTINGS
@given(data=st.data(), magnitude=st.sampled_from([0, 40, 62]))
def test_echelon_block_admission_equals_row_at_a_time(data, magnitude):
    """`Echelon.add` leaves the rows, pivots and verdicts of admitting a
    block's rows one at a time (`oracles.RowEchelon`), row for row, over
    blocks with zero rows and repeats up to sign; near 2^40 and 2^62 the
    in-block steps take the object fallback.  Each block costs at most two
    `_clear` calls whatever its rank."""
    width = data.draw(st.integers(1, 6))
    blocks = echelon_blocks(data.draw, width, sparse_ints(magnitude))
    for block in blocks:
        for _ in range(data.draw(st.integers(0, 2))):    # a zero row, or a row again up to sign
            sign = data.draw(st.sampled_from([-1, 1]))
            row = ([sign * v for v in data.draw(st.sampled_from(block))]
                   if block and data.draw(st.booleans()) else [0] * width)
            block.insert(data.draw(st.integers(0, len(block))), row)
    span, reference = matrices.Echelon(width), oracles.RowEchelon(width)
    for block in blocks:
        X = np.array(block, dtype=object).reshape(len(block), width)
        if all(abs(v) < 1 << 62 for v in X.flat):
            X = X.astype(np.int64)
        with mock.patch.object(matrices, "_clear", wraps=matrices._clear) as clear:
            grew = span.add(X)
        assert clear.call_count <= 2
        assert grew.tolist() == reference.add(X).tolist()
        assert span.rows.tolist() == reference.rows.tolist()
        assert span.pivots == reference.pivots


@SETTINGS
@given(data=st.data())
def test_matrix_closure_dim_matches_oracle(data):
    r, dim = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    mats = st.lists(st.lists(SIZES["small"], min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)
    S, T = (data.draw(st.lists(mats, min_size=r, max_size=r)) for _ in "ST")
    gen = GeneratorSet(r, dim, S, T)
    assert matrix_closure_dim(gen) == oracles.matrix_closure_dim(gen)


@pytest.mark.parametrize("name", ["m7", "r10", "su2"])
def test_y_quotient_matches_oracle(name, bench_r10):
    c = bench_r10 if name == "r10" else catalog_algebra(name)
    env = build_envelope(c)
    expand, rank = oracles.y_quotient(c)
    assert list(env.expand) == list(expand) and env.expand == expand
    assert env.relation_rank == rank
