"""End-to-end acceptance suite: the one run of the whole verification
chain, one test per pillar, each printing a single pass/fail summary line.

Run with `pytest -s --durations=0 tests/test_acceptance.py` to see the lines
as they appear and the time of each pillar; the whole file stays under a
minute.  Per-layer times come from `mnlbench/run.py --trace 1`.
"""

import numpy as np
import pytest

from mnl.algebra import (StructureTensor, catalog_algebra, cayley_dickson,
                         commutator_tensor, is_lie, is_maltsev)
from mnl.birep import GeneratorSet, check_glc, extract_yamagutians, lr_generators
from mnl.envelope import (build_envelope, check_jacobi, matrix_closure_dim,
                          realize_check)
from mnl.etc import (bilinear_lemma_check, charge_algebra_check,
                     charge_densities, charges, etc_verify, locality_check)
from mnl.fock import build_fields, canonical_etc_check
from mnl.loops import (chein_double, group_catalog, is_associative, is_moufang,
                       octonion_unit_loop, signed_unit_loop, symmetric_group_s3,
                       tangent_structure_constants, unit_octonion_chart)
from oracles import commutator, mat_eq, mat_lincomb
from fractions import Fraction


def _announce(name, passed):
    print(f"\n[acceptance] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed


# Frozen mutation list: the first 20 antisymmetric entry pairs (i, j, k)
# with j < k of the m7 tensor, in lexicographic order; zeroing any one
# pair (and its partner) must break the Mal'tsev identity.
M7_MUTATIONS = (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 0, 2), (1, 3, 5),
    (1, 4, 6), (2, 0, 1), (2, 3, 6), (2, 4, 5), (3, 0, 4),
    (3, 1, 5), (3, 2, 6), (4, 0, 3), (4, 1, 6), (4, 2, 5),
    (5, 0, 6), (5, 1, 3), (5, 2, 4), (6, 0, 5), (6, 1, 4),
)


def test_1_maltsev_suite(m7):
    ok = is_maltsev(m7).passed
    lie = is_lie(m7)
    ok = ok and not lie.passed and lie.witness is not None
    for (i, j, k) in M7_MUTATIONS:
        ent = dict(m7.entries)
        del ent[(i, j, k)]
        del ent[(i, k, j)]
        ok = ok and not is_maltsev(StructureTensor(7, ent)).passed
    _announce("1 maltsev suite (m7 + 20 mutations, exact)", ok)


def test_2_loop_suite(oct_loop):
    cd = chein_double(symmetric_group_s3())
    ok = oct_loop.order == 16 and cd.order == 12
    for t in (oct_loop, cd):
        ok = ok and is_moufang(t).passed and not is_associative(t).passed
    for name, g in group_catalog().items():
        if g.order <= 8:
            ok = ok and is_moufang(g).passed and is_associative(g).passed
    _announce("2 loop suite (octonion loop, Chein double, group catalog)", ok)


def test_3_tangent_extraction(m7):
    chart = unit_octonion_chart()
    target = np.zeros((7, 7, 7))
    for (i, j, k), v in m7.entries.items():
        target[i, j, k] = float(v)
    err1 = np.abs(tangent_structure_constants(chart, 1e-3) - target).max()
    err2 = np.abs(tangent_structure_constants(chart, 5e-4) - target).max()
    ok = err1 <= 1e-5 and 3.5 <= err1 / err2 <= 4.5
    _announce(f"3 tangent extraction (err {err1:.2e}, halving ratio "
              f"{err1 / err2:.2f})", ok)


def test_4_glc_theorem(oct_gen, m7, quat_gen, su2_doubled):
    ok = check_glc(oct_gen, m7).passed
    Y = extract_yamagutians(quat_gen, su2_doubled)
    for j in range(3):
        for k in range(3):
            expect_terms = []
            for p in range(3):
                v = su2_doubled.c(p, j, k)
                if v:
                    expect_terms.append((Fraction(1, 3) * v, quat_gen.S[p]))
                    expect_terms.append((-Fraction(1, 3) * v, quat_gen.T[p]))
            expect = mat_lincomb(expect_terms) if expect_terms else \
                [[Fraction(0)] * 4 for _ in range(4)]
            ok = ok and mat_eq(Y[(j, k)], expect)
            red = [(su2_doubled.c(p, j, k), quat_gen.S[p]) for p in range(3)]
            ok = ok and mat_eq(commutator(quat_gen.S[j], quat_gen.S[k]),
                               mat_lincomb(red))
    _announce("4 generalized Lie-Cartan relations (octonion + quaternion)", ok)


def test_5_envelope(su2, m7, oct_gen):
    env_su2 = build_envelope(su2)
    ok = env_su2.dim == 9 and check_jacobi(env_su2).passed
    env_m7 = build_envelope(m7)
    ok = ok and check_jacobi(env_m7).passed and env_m7.dim <= 35
    closure = matrix_closure_dim(oct_gen)
    ok = ok and env_m7.dim == closure
    ok = ok and realize_check(env_m7, oct_gen, m7).passed
    _announce(f"5 envelope (su2 dim 9; m7 dim {env_m7.dim} = closure "
              f"{closure}, jacobi + realize)", ok)


# The octonion densities at one and two sites, shared by tests 6 and 7.
@pytest.fixture(scope="module")
def oct_dens(oct_fields, oct_gen, m7):
    return charge_densities(oct_fields, oct_gen, m7)


@pytest.fixture(scope="module")
def oct_fields2():
    return build_fields(8, 2)


@pytest.fixture(scope="module")
def oct_dens2(oct_fields2, oct_gen, m7):
    return charge_densities(oct_fields2, oct_gen, m7)


def test_6_etc(oct_fields, oct_dens, oct_fields2, oct_dens2,
               quat_fields, quat_gen, su2_doubled):
    ok = True
    for fields, dens in ((oct_fields, oct_dens), (oct_fields2, oct_dens2)):
        ok = ok and canonical_etc_check(fields).passed
        rep = etc_verify(dens)
        ok = ok and rep.passed and len(rep.equations) == 11
    # two sites: every cross-site commutator vanishes
    ok = ok and locality_check(oct_dens2).passed
    # associative control: quaternion densities have [s, t] = 0
    qdens = charge_densities(quat_fields, quat_gen, su2_doubled)
    for j in range(3):
        for k in range(3):
            ok = ok and qdens.s[j][0].commutator(qdens.t[k][0]).is_zero()
    ok = ok and etc_verify(qdens).passed
    _announce("6 density ETC (octonion canonical + 11 equations at N=1 and "
              "N=2, N=2 locality, quaternion associative)", ok)


def test_7_charge_algebra_theorem(oct_dens, oct_dens2, m7):
    ok = charge_algebra_check(charges(oct_dens), m7).passed
    ok = ok and charge_algebra_check(charges(oct_dens2), m7).passed
    _announce("7 charge algebra theorem (N=1 and N=2)", ok)


def test_8_meta_consistency(quat_fields, quat_gen, su2_doubled, oct_fields2):
    ok = bilinear_lemma_check(quat_fields, trials=100, seed=0).passed
    # octonion fields at two sites: 16 modes, decided on <= 2 particles
    ok = ok and bilinear_lemma_check(oct_fields2, trials=100, seed=0).passed
    # matrix-level and density-level verdicts must agree on every variant
    variants = [quat_gen]
    S = list(quat_gen.S)
    S[0], S[1] = S[1], S[0]
    variants.append(GeneratorSet(3, 4, S, list(quat_gen.T)))
    T = list(quat_gen.T)
    T[2] = [[2 * v for v in row] for row in T[2]]
    variants.append(GeneratorSet(3, 4, list(quat_gen.S), T))
    variants.append(GeneratorSet(3, 4, list(quat_gen.T), list(quat_gen.S)))
    agree = 0
    for gen in variants:
        glc = check_glc(gen, su2_doubled).passed
        dens = etc_verify(charge_densities(quat_fields, gen, su2_doubled)).passed
        ok = ok and (glc == dens)
        agree += glc == dens
    _announce(f"8 meta-consistency (bilinear lemma 100 trials at N=1 and octonion N=2; "
              f"etc == glc on {agree}/{len(variants)} variants)", ok)


# The Cayley-Dickson family beyond the two compact builtins.  Each algebra is
# one sign tuple; its unit loop, commutator tensor and L/R generators are
# read off its multiplication tensor.

def _cayley_dickson_chain(signs):
    A = cayley_dickson(signs)
    return signed_unit_loop(A), commutator_tensor(A), lr_generators(A)


def _theorem_at_one_site(c, gen):
    """GLC, the envelope with Jacobi and realization, and the canonical ETC,
    all 11 density ETC equations and the charge algebra at N=1; returns
    (all passed, envelope dim, closure dim)."""
    env = build_envelope(c)
    closure = matrix_closure_dim(gen)
    ok = check_glc(gen, c).passed and check_jacobi(env).passed
    ok = ok and realize_check(env, gen, c).passed
    fields = build_fields(gen.dim, 1)
    dens = charge_densities(fields, gen, c)
    rep = etc_verify(dens)
    ok = ok and canonical_etc_check(fields).passed
    ok = ok and rep.passed and len(rep.equations) == 11
    ok = ok and charge_algebra_check(charges(dens), c).passed
    return ok, env.dim, closure


def test_9_split_octonions():
    """The theorem's non-compact case: signs (-1, -1, +1)."""
    loop, c, gen = _cayley_dickson_chain((-1, -1, 1))
    assoc, lie = is_associative(loop), is_lie(c)
    ok = loop.order == 16 and is_moufang(loop).passed
    ok = ok and not assoc.passed and assoc.witness == (1, 2, 4)
    ok = ok and is_maltsev(c).passed and not lie.passed and lie.witness == (0, 1, 3)
    passed, env_dim, closure = _theorem_at_one_site(c, gen)
    ok = ok and passed and env_dim == closure == 28
    _announce(f"9 split octonions (Moufang order 16, Mal'tsev not Lie, envelope "
              f"{env_dim} = closure {closure}, ETC + charge algebra at N=1)", ok)


def test_10_split_quaternions():
    """Signs (-1, +1): associative, like the quaternions."""
    loop, c, gen = _cayley_dickson_chain((-1, 1))
    ok = is_moufang(loop).passed and is_associative(loop).passed
    ok = ok and is_lie(c).passed and is_maltsev(c).passed
    passed, env_dim, closure = _theorem_at_one_site(c, gen)
    ok = ok and passed and (env_dim, closure) == (9, 6)
    _announce(f"10 split quaternions (associative, Lie, envelope {env_dim}, "
              f"closure {closure}, ETC + charge algebra at N=1)", ok)


def test_11_sedenions():
    """Signs (-1, -1, -1, -1), the negative control: +e_a is loop element a
    and -e_a element 16 + a."""
    loop, c, _ = _cayley_dickson_chain((-1, -1, -1, -1))
    moufang, maltsev = is_moufang(loop), is_maltsev(c)
    ok = loop.order == 32
    ok = ok and not moufang.passed and moufang.witness == (1, 2, 12)
    ok = ok and not maltsev.passed and maltsev.witness == (0, 9, 3)
    _announce("11 sedenions (not Moufang at (e1, e2, e12), not Mal'tsev at "
              "(0, 9, 3))", ok)
