import json
from fractions import Fraction

import pytest

from mnl import birep, loops
from mnl.birep import (GeneratorSet, LoopBirep, check_associative_birep,
                       check_birep, check_glc, extract_yamagutians,
                       octonion_lr_generators, quaternion_lr_generators,
                       regular_birep)
from oracles import commutator, eye, mat_eq, mat_is_zero, mat_lincomb
from mnl.report import InputError


def small_groups():
    cat = loops.group_catalog()
    return [cat[name] for name in ("z1", "z2", "z3", "z4", "z5", "z6", "klein4", "s3")]


def test_regular_birep_passes_on_all_moufang_loops(oct_loop):
    tables = [oct_loop] + small_groups()
    tables += [loops.chein_double(g) for g in small_groups()]
    for t in tables:
        assert check_birep(regular_birep(t)).passed


def test_regular_birep_identity_matrices(oct_loop):
    b = regular_birep(oct_loop)
    assert mat_eq(b.S[0], eye(16))
    assert mat_eq(b.T[0], eye(16))


def test_regular_birep_s3_left_translation():
    s3 = loops.symmetric_group_s3()
    b = regular_birep(s3)
    g = s3.index("(12)")
    for x in range(6):
        col = [b.S[g][row][x] for row in range(6)]
        assert col == [Fraction(1) if row == s3.mul(g, x) else Fraction(0) for row in range(6)]


def test_regular_birep_right_translation_column(oct_loop):
    b = regular_birep(oct_loop)
    g = oct_loop.index("e1")
    x = oct_loop.index("e2")
    col = [b.T[g][row][x] for row in range(16)]
    assert col[oct_loop.mul(x, g)] == 1
    assert sum(col) == 1


def test_mutated_birep_fails(oct_loop):
    b = regular_birep(oct_loop)
    S = dict(b.S)
    S[oct_loop.index("e1")] = eye(16)
    rep = check_birep(LoopBirep(oct_loop, S, b.T))
    assert not rep.passed
    assert rep.witness is not None


def test_associative_birep_group_passes():
    z4 = loops.cyclic_group(4)
    assert check_associative_birep(regular_birep(z4)).passed


def test_associative_birep_fails_on_nonassociative(oct_loop):
    assert not check_associative_birep(regular_birep(oct_loop)).passed
    cd = loops.chein_double(loops.symmetric_group_s3())
    assert not check_associative_birep(regular_birep(cd)).passed


def test_associative_birep_implies_birep():
    for t in small_groups():
        b = regular_birep(t)
        if check_associative_birep(b).passed:
            assert check_birep(b).passed


def test_regular_birep_rejects_non_moufang():
    # a quasigroup with unit that is not Moufang
    t = loops.CayleyTable(5, (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0)))
    assert loops.is_quasigroup(t).passed and loops.has_unit(t).passed
    assert not loops.is_moufang(t).passed
    with pytest.raises(InputError):
        regular_birep(t)


# --- generator sets ----------------------------------------------------

def unit_vec(n, a):
    return [Fraction(i == a) for i in range(n)]


def apply_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def test_octonion_generators_actions(oct_gen):
    # S_1 1 = e1, S_1 e1 = -1, T_2 e1 = e1 e2 = e3
    assert apply_vec(oct_gen.S[0], unit_vec(8, 0)) == unit_vec(8, 1)
    assert apply_vec(oct_gen.S[0], unit_vec(8, 1)) == [Fraction(-1)] + [Fraction(0)] * 7
    assert apply_vec(oct_gen.T[1], unit_vec(8, 1)) == unit_vec(8, 3)


def test_generator_json_roundtrip(tmp_path, oct_gen):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(oct_gen.to_json_dict()))
    back = birep.load_generators(path)
    assert back.r == 7 and back.dim == 8
    for a, b in zip(back.S + back.T, list(oct_gen.S) + list(oct_gen.T)):
        assert mat_eq(a, b)


def test_generator_set_shape_validation():
    with pytest.raises(InputError):
        GeneratorSet(2, 2, [eye(2)], [eye(2), eye(2)])


# --- generalized Lie-Cartan relations ---------------------------------

def test_glc_octonion_m7(oct_gen, m7):
    rep = check_glc(oct_gen, m7)
    assert rep.passed
    assert set(rep.families) == {"ss", "tt", "y_antisymmetry", "y_cyclic",
                                 "reductivity_s", "reductivity_t", "yy"}


def test_glc_quaternion(quat_gen, su2_doubled):
    assert check_glc(quat_gen, su2_doubled).passed


def test_quaternion_yamagutians_closed_form(quat_gen, su2_doubled):
    # [S_j, T_k] = 0 for an associative algebra, so
    # Y_jk = (1/3) c^p_jk (S_p - T_p) exactly
    Y = extract_yamagutians(quat_gen, su2_doubled)
    for j in range(3):
        for k in range(3):
            assert mat_is_zero(commutator(quat_gen.S[j], quat_gen.T[k]))
            terms = []
            for p in range(3):
                v = su2_doubled.c(p, j, k)
                if v:
                    terms.append((Fraction(1, 3) * v, quat_gen.S[p]))
                    terms.append((-Fraction(1, 3) * v, quat_gen.T[p]))
            expect = mat_lincomb(terms) if terms else [[Fraction(0)] * 4 for _ in range(4)]
            assert mat_eq(Y[(j, k)], expect)


def test_quaternion_associative_reduction(quat_gen, su2_doubled):
    # [S_j, S_k] = c^p_jk S_p
    for j in range(3):
        for k in range(3):
            terms = [(su2_doubled.c(p, j, k), quat_gen.S[p]) for p in range(3)]
            assert mat_eq(commutator(quat_gen.S[j], quat_gen.S[k]), mat_lincomb(terms))


def test_glc_mutation_fails(oct_gen, m7):
    S = list(oct_gen.S)
    S[0], S[1] = S[1], S[0]
    mutated = GeneratorSet(7, 8, S, list(oct_gen.T))
    rep = check_glc(mutated, m7)
    assert not rep.passed
    failing = [name for name, r in rep.families.items() if not r.passed]
    assert failing
    for name in failing:
        assert rep.families[name].witness is not None


def test_glc_dimension_mismatch(oct_gen, su2):
    with pytest.raises(InputError):
        check_glc(oct_gen, su2)
