"""The integer kernels against their `Fraction` oracles (`oracles.py`): the
same report, witness included, on random tensors and generator sets.

Entries come at three sizes: small rationals with denominators, integers
near 2^20 and integers near 2^31.  Small entries stay on the int64 path; near
2^31 every identity's bound passes 2^62, so the kernels must take the
object-dtype fallback over Python ints, and the tests check that they did.
Near 2^20 the quadratic Yamaguti and Jacobi contractions of a tensor must stay
in int64, while the cubic Mal'tsev and quartic Lie-Cartan residuals fall back."""

import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from mnl import algebra, matrices
from mnl.algebra import StructureTensor, catalog_algebra, is_lie, is_maltsev
from mnl.birep import GeneratorSet, check_glc, quaternion_lr_generators
from mnl.envelope import EnvelopeAlgebra, build_envelope, check_jacobi, realize_check


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
@SETTINGS
@given(data=st.data())
def test_check_jacobi_matches_oracle(size, data):
    """A bracket table of a scaled su2 or sl2, one coefficient changed."""
    value = SIZES[size]
    c = catalog_algebra(data.draw(st.sampled_from(["su2", "sl2"]))).scaled(
        data.draw(value.filter(bool)))
    env = build_envelope(c)
    brackets = dict(env.brackets)
    a, b = data.draw(st.sampled_from(sorted(brackets)))
    lbl = data.draw(st.sampled_from(env.basis))
    row = dict(brackets[(a, b)])
    row[lbl] = row.get(lbl, Fraction(0)) + data.draw(value.filter(bool))
    brackets[(a, b)] = row
    env = EnvelopeAlgebra(env.r, env.basis, env.expand, brackets, env.relation_rank)
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
