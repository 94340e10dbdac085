import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from mnl import algebra, birep, envelope, matrices
from mnl.algebra import StructureTensor, catalog_algebra, is_maltsev
from mnl.birep import GeneratorSet
from mnl.envelope import (EnvelopeInconsistencyError, _check_quotient_consistency,
                          _reduce_relations, build_envelope, check_jacobi,
                          matrix_closure_dim, realize_check)
from mnl.report import InputError


@pytest.fixture(scope="module")
def env_su2(su2):
    return build_envelope(su2)


@pytest.fixture(scope="module")
def env_m7(m7):
    return build_envelope(m7)


def test_su2_dimension(env_su2):
    # 2*3 + 3 Yamagutians, no relations survive reduction to cut them:
    # the single cyclic row for (j,k,l)=(1,2,3) vanishes identically
    assert env_su2.dim == 9
    assert env_su2.relation_rank == 0
    assert env_su2.dimension_bound == 9


def test_abelian_dimension():
    for r in (1, 2, 3, 5):
        env = build_envelope(catalog_algebra(f"abelian({r})"))
        assert env.dim == 2 * r + r * (r - 1) // 2
        assert env.relation_rank == 0
        # the Y's are central and [S_j, S_k] collapses to 2 Y_jk
        for j in range(r):
            for k in range(j + 1, r):
                assert env.bracket(("S", j), ("S", k)) == {("Y", j, k): Fraction(2)}
                assert env.bracket(("S", j), ("T", k)) == {("Y", j, k): Fraction(-1)}
        ys = [l for l in env.basis if l[0] == "Y"]
        for y in ys:
            for b in env.basis:
                assert not env.bracket(y, b)


def test_m7_dimension(env_m7, oct_gen):
    assert env_m7.dimension_bound == 35
    assert env_m7.relation_rank == 7
    assert env_m7.dim == 28
    # independent oracle: commutator closure of the matrix generators
    assert matrix_closure_dim(oct_gen) == 28


def test_quaternion_closure(quat_gen):
    # S and T spans overlap only in the generators themselves; closure
    # adds nothing new because su(2) x su(2) is 6-dimensional
    assert matrix_closure_dim(quat_gen) == 6


def test_jacobi_su2(env_su2):
    assert check_jacobi(env_su2).passed


def test_jacobi_m7(env_m7):
    assert check_jacobi(env_m7).passed


def test_jacobi_fails_on_perturbed_table(env_su2):
    bad = oracles.bracket_table(env_su2)
    row = bad[(("S", 0), ("S", 1))]
    row[("T", 2)] = row.get(("T", 2), Fraction(0)) + 1
    perturbed = oracles.with_brackets(env_su2, bad)
    rep = check_jacobi(perturbed)
    assert not rep.passed
    assert rep.witness is not None


def test_bracket_ss_structure(env_su2, su2):
    # [S_1, S_2] = 2 Y_12 + (1/3) S_3 + (2/3) T_3
    row = env_su2.bracket(("S", 0), ("S", 1))
    assert row[("Y", 0, 1)] == 2
    assert row[("S", 2)] == Fraction(1, 3)
    assert row[("T", 2)] == Fraction(2, 3)


def test_bracket_antisymmetry(env_m7):
    for a in env_m7.basis:
        for b in env_m7.basis:
            ab = env_m7.bracket(a, b)
            ba = env_m7.bracket(b, a)
            assert ab == {lbl: -v for lbl, v in ba.items()}


def test_reductive_split(env_m7):
    # [Y, Y] stays in the span of the Y's; [Y, S/T] stays in span(S) / span(T)
    ys = [l for l in env_m7.basis if l[0] == "Y"]
    for a in ys:
        for b in ys:
            assert all(l[0] == "Y" for l in env_m7.bracket(a, b))
        for j in range(7):
            assert all(l[0] == "S" for l in env_m7.bracket(a, ("S", j)))
            assert all(l[0] == "T" for l in env_m7.bracket(a, ("T", j)))


def test_realize_octonion(env_m7, oct_gen, m7):
    assert realize_check(env_m7, oct_gen, m7).passed


def test_realize_quaternion(quat_gen, su2_doubled):
    env = build_envelope(su2_doubled)
    assert check_jacobi(env).passed
    assert realize_check(env, quat_gen, su2_doubled).passed


def test_realize_fails_on_mutated_generators(env_m7, oct_gen, m7):
    S = list(oct_gen.S)
    S[2] = [[2 * v for v in row] for row in S[2]]
    mutated = GeneratorSet(7, 8, S, list(oct_gen.T))
    rep = realize_check(env_m7, mutated, m7)
    assert not rep.passed
    assert rep.witness is not None


def test_realize_dimension_mismatch(env_m7, quat_gen, m7):
    with pytest.raises(InputError):
        realize_check(env_m7, quat_gen, m7)


def test_build_rejects_non_maltsev():
    ent = dict(catalog_algebra("m7").entries)
    del ent[(2, 0, 1)]
    del ent[(2, 1, 0)]
    with pytest.raises(InputError):
        build_envelope(StructureTensor(7, ent))


def test_maltsev_precondition_runs_once_per_tensor(monkeypatch):
    # build_envelope reads the report its caller's is_maltsev kept on the tensor
    scans = []
    scan = algebra._maltsev_scan
    monkeypatch.setattr(algebra, "_maltsev_scan", lambda c: scans.append(c) or scan(c))
    c = StructureTensor(7, dict(catalog_algebra("m7").entries))
    rep = is_maltsev(c)
    build_envelope(c)
    assert is_maltsev(c) is rep and scans == [c]


def test_dim_never_exceeds_bound():
    for name in ("su2", "sl2", "m7", "abelian(4)"):
        env = build_envelope(catalog_algebra(name))
        assert env.dim <= env.dimension_bound


def test_json_export(env_m7):
    blob = env_m7.to_json_dict()
    assert blob["dimension"] == 28
    assert blob["relation_rank"] == 7
    assert len(blob["basis"]) == 28
    assert blob["basis"][0] == "S1" and "T3" in blob["basis"]
    json.dumps(blob)  # serializable


def test_eliminated_y_expansions_are_y_combinations(env_m7):
    kept = {(l[1], l[2]) for l in env_m7.basis if l[0] == "Y"}
    for (j, k), expr in env_m7.expand.items():
        for lbl in expr:
            assert lbl[0] == "Y" and (lbl[1], lbl[2]) in kept
        if (j, k) in kept:
            assert expr == {("Y", j, k): Fraction(1)}


def test_reduce_relations_back_substitutes_with_sign():
    # Y01 + Y02 = 0 and Y02 + Y12 = 0: eliminating the second pivot, Y02, from
    # the first relation leaves Y01 = Y12, not Y01 = -Y12
    def Y(j, k):
        return ("Y", j, k)
    rows = np.array([[1, 1, 0], [0, 1, 1]])
    expand = {(0, 1): {Y(1, 2): 1}, (0, 2): {Y(1, 2): -1}, (1, 2): {Y(1, 2): 1}}
    for order in (rows, rows[::-1]):
        assert _reduce_relations(order, [(0, 1), (0, 2), (1, 2)]) == (expand, 2)


def test_quotient_consistency_catches_a_wrong_table_entry(env_m7, m7):
    # the brackets of an eliminated Y are read through the table entries of
    # the basis Y's in its expansion; a wrong entry there must be caught
    _check_quotient_consistency(m7, env_m7)
    y = next(lbl for expr in env_m7.expand.values() if len(expr) > 1 for lbl in expr)
    bad = oracles.bracket_table(env_m7)
    row = bad[(y, ("S", 0))]
    row[("T", 0)] = row.get(("T", 0), Fraction(0)) + 1
    perturbed = oracles.with_brackets(env_m7, bad)
    with pytest.raises(EnvelopeInconsistencyError):
        _check_quotient_consistency(m7, perturbed)


def fresh(c, gen):
    """A copy of a tensor and of a generator set, with nothing kept on them."""
    return (StructureTensor(c.dim, dict(c.entries)),
            GeneratorSet(gen.r, gen.dim, [[list(row) for row in m] for m in gen.S],
                         [[list(row) for row in m] for m in gen.T]))


def test_one_integer_stack_per_generator_set(monkeypatch, m7, oct_gen):
    """`check_glc`, `realize_check` and `matrix_closure_dim` read one stack of a set."""
    stacks, stack = [], matrices.stacked
    for mod in (matrices, birep, envelope):
        if hasattr(mod, "stacked"):
            monkeypatch.setattr(mod, "stacked",
                                lambda mats, dim: stacks.append(dim) or stack(mats, dim))
    env = build_envelope(m7)
    for _ in range(2):
        c, gen = fresh(m7, oct_gen)
        assert birep.check_glc(gen, c).passed and realize_check(env, gen, c).passed
        assert matrix_closure_dim(gen) == 28
    assert stacks == [8, 8]


# tracemalloc peaks, in MB, of the r=10 checks when they still read the table
# as dense label rows, measured as below (fresh inputs, after a warm-up): the
# sparse rows of a whole family must not hold more than the dense blocks did
PEAK_MB = {"check_glc": 1.081, "build_envelope": 1.341, "realize_check": 1.081}


def test_r10_checks_stay_within_their_memory(bench_r10, bench_r10_gen):
    def peak(call, *args):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            call(*args)
            return (tracemalloc.get_traced_memory()[1] - entry) / 2 ** 20
        finally:
            tracemalloc.stop()

    def peaks():
        env = build_envelope(fresh(bench_r10, bench_r10_gen)[0])
        return {"check_glc": peak(birep.check_glc, *fresh(bench_r10, bench_r10_gen)[::-1]),
                "build_envelope": peak(build_envelope, fresh(bench_r10, bench_r10_gen)[0]),
                "realize_check": peak(realize_check, env, *fresh(bench_r10, bench_r10_gen)[::-1])}
    peaks()
    got = peaks()
    assert all(got[name] <= PEAK_MB[name] for name in PEAK_MB), got
