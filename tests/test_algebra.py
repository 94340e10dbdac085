import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fano import basis_octonion, oct_mul
from mnl import algebra
from mnl.algebra import StructureTensor, catalog_algebra, is_lie, is_maltsev, yamaguti_constants
from oracles import basis_vector, bracket, jacobiator
from mnl.report import InputError

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def rational_vectors(dim):
    return st.lists(rationals, min_size=dim, max_size=dim)


def oct_commutator_oracle(j, k):
    """[e_j, e_k] via the Fano-triple octonion product; imaginary part only."""
    ej, ek = basis_octonion(j), basis_octonion(k)
    prod = oct_mul(ej, ek)
    rev = oct_mul(ek, ej)
    diff = [a - b for a, b in zip(prod, rev)]
    assert diff[0] == 0
    return diff[1:]


# --- bracket -----------------------------------------------------------

def test_bracket_su2_epsilon():
    su2 = catalog_algebra("su2")
    assert bracket(su2, basis_vector(3, 0), basis_vector(3, 1)) == basis_vector(3, 2)


def test_bracket_self_is_zero():
    m7 = catalog_algebra("m7")
    e1 = basis_vector(7, 0)
    assert bracket(m7, e1, e1) == [Fraction(0)] * 7


def test_bracket_m7_matches_octonion_commutator():
    m7 = catalog_algebra("m7")
    for j in range(1, 8):
        for k in range(1, 8):
            got = bracket(m7, basis_vector(7, j - 1), basis_vector(7, k - 1))
            assert got == oct_commutator_oracle(j, k)


def test_bracket_dimension_mismatch():
    su2 = catalog_algebra("su2")
    with pytest.raises(InputError):
        bracket(su2, [Fraction(1)] * 4, basis_vector(3, 0))


@given(rational_vectors(3), rational_vectors(3))
def test_bracket_antisymmetry(x, y):
    su2 = catalog_algebra("su2")
    assert bracket(su2, x, y) == [-v for v in bracket(su2, y, x)]


@given(rational_vectors(3), rational_vectors(3), rational_vectors(3), rationals)
def test_bracket_bilinear(x, y, z, q):
    sl2 = catalog_algebra("sl2")
    xqz = [a + q * b for a, b in zip(x, z)]
    lhs = bracket(sl2, xqz, y)
    rhs = [a + q * b for a, b in zip(bracket(sl2, x, y), bracket(sl2, z, y))]
    assert lhs == rhs


# --- jacobiator --------------------------------------------------------

def test_jacobiator_su2_vanishes():
    su2 = catalog_algebra("su2")
    e = [basis_vector(3, a) for a in range(3)]
    assert jacobiator(su2, e[0], e[1], e[2]) == [Fraction(0)] * 3


def test_jacobiator_m7_quaternionic_triple():
    m7 = catalog_algebra("m7")
    e = [basis_vector(7, a) for a in range(7)]
    assert jacobiator(m7, e[0], e[1], e[2]) == [Fraction(0)] * 7


def test_jacobiator_m7_e1_e2_e4_from_oracle():
    # independent oracle: iterated octonion commutators
    m7 = catalog_algebra("m7")
    e = [basis_vector(7, a) for a in range(7)]

    def br(x, y):
        out = [Fraction(0)] * 8
        for j in range(7):
            for k in range(7):
                if x[j] and y[k]:
                    comm = oct_commutator_oracle(j + 1, k + 1)
                    for i in range(7):
                        out[i + 1] += x[j] * y[k] * comm[i]
        return out[1:]

    x, y, z = e[0], e[1], e[3]
    expected = [a + b + c for a, b, c in zip(br(x, br(y, z)), br(y, br(z, x)), br(z, br(x, y)))]
    assert any(expected)
    assert jacobiator(m7, x, y, z) == expected


@given(rational_vectors(7), rational_vectors(7), rational_vectors(7))
@settings(max_examples=25)
def test_jacobiator_totally_antisymmetric(x, y, z):
    m7 = catalog_algebra("m7")
    j = jacobiator(m7, x, y, z)
    neg = [-v for v in j]
    assert jacobiator(m7, y, x, z) == neg
    assert jacobiator(m7, x, z, y) == neg
    assert jacobiator(m7, z, y, x) == neg


# --- is_lie / is_maltsev ----------------------------------------------

def test_is_lie_catalog():
    assert is_lie(catalog_algebra("su2")).passed
    assert is_lie(catalog_algebra("sl2")).passed
    assert is_lie(catalog_algebra("abelian(4)")).passed
    rep = is_lie(catalog_algebra("m7"))
    assert not rep.passed
    assert rep.witness == (0, 1, 3)  # e1, e2, e4


def test_is_maltsev_catalog():
    assert is_maltsev(catalog_algebra("m7")).passed
    assert is_maltsev(catalog_algebra("su2")).passed
    assert is_maltsev(catalog_algebra("sl2")).passed


def test_is_maltsev_mutated_m7_fails():
    m7 = catalog_algebra("m7")
    ent = dict(m7.entries)
    del ent[(2, 0, 1)]  # c[3][1][2] and its antisymmetric partner
    del ent[(2, 1, 0)]
    rep = is_maltsev(StructureTensor(7, ent))
    assert not rep.passed
    assert rep.witness is not None


@given(st.lists(rationals, min_size=3, max_size=3))
def test_dim2_tensors_are_lie_hence_maltsev(coeffs):
    # r = 2: any anticommutative product satisfies Jacobi identically
    ent = {}
    v = coeffs[0]
    if v:
        ent[(0, 0, 1)] = v
        ent[(0, 1, 0)] = -v
    w = coeffs[1]
    if w:
        ent[(1, 0, 1)] = w
        ent[(1, 1, 0)] = -w
    c = StructureTensor(2, ent)
    assert is_lie(c).passed
    assert is_maltsev(c).passed


def test_lie_implies_maltsev_on_catalog():
    for name in ("su2", "sl2", "abelian(3)", "abelian(6)"):
        c = catalog_algebra(name)
        if is_lie(c).passed:
            assert is_maltsev(c).passed


# --- catalog and JSON --------------------------------------------------

def test_catalog_m7_entry():
    m7 = catalog_algebra("m7")
    assert m7.c(2, 0, 1) == 2  # c[3][1][2] = 2 in 1-based labels


def test_catalog_abelian():
    c = catalog_algebra("abelian(5)")
    assert c.dim == 5
    assert not c.entries


def test_catalog_unknown():
    with pytest.raises(InputError):
        catalog_algebra("e8")


def test_json_roundtrip(tmp_path):
    m7 = catalog_algebra("m7")
    path = tmp_path / "m7.json"
    path.write_text(json.dumps(m7.to_json_dict()))
    assert algebra.load_tensor(path).entries == m7.entries


def test_json_antisymmetric_completion():
    data = {"dim": 3, "entries": [[3, 1, 2, 1, 1]]}
    c = StructureTensor.from_json_dict(data)
    assert c.c(2, 0, 1) == 1
    assert c.c(2, 1, 0) == -1


def test_json_conflict_detection():
    data = {"dim": 3, "entries": [[3, 1, 2, 1, 1], [3, 2, 1, 1, 1]]}
    with pytest.raises(InputError):
        StructureTensor.from_json_dict(data)


def test_json_bad_denominator():
    with pytest.raises(InputError):
        StructureTensor.from_json_dict({"dim": 2, "entries": [[1, 1, 2, 1, 0]]})


def test_tensor_antisymmetry_enforced():
    with pytest.raises(InputError):
        StructureTensor(2, {(0, 0, 1): Fraction(1)})


# --- Yamaguti constants ------------------------------------------------

def test_yamaguti_su2_value():
    d = yamaguti_constants(catalog_algebra("su2"))
    assert d.d(1, 0, 1, 0) == Fraction(1, 3)


def test_yamaguti_su2_closed_form():
    # for c = epsilon: d^p_jkl = (1/3)(delta_lj delta_pk - delta_lk delta_pj)
    d = yamaguti_constants(catalog_algebra("su2"))
    for p in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    expect = Fraction((l == j) * (p == k) - (l == k) * (p == j), 3)
                    assert d.d(p, j, k, l) == expect


def test_yamaguti_abelian_zero():
    d = yamaguti_constants(catalog_algebra("abelian(4)"))
    assert not d.entries


@pytest.mark.parametrize("name", ["su2", "sl2"])
def test_yamaguti_lie_identity(name):
    # Jacobi collapses the contraction: 6 d^p_jkl = 2 c^p_sl c^s_jk
    c = catalog_algebra(name)
    d = yamaguti_constants(c)
    r = c.dim
    for p in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    rhs = sum(2 * c.c(p, s, l) * c.c(s, j, k) for s in range(r))
                    assert 6 * d.d(p, j, k, l) == rhs


def test_yamaguti_m7_denominators_divide_three(m7):
    d = yamaguti_constants(m7)
    assert d.entries
    for v in d.entries.values():
        assert 3 % v.denominator == 0


def test_yamaguti_computed_once_per_tensor(m7):
    assert yamaguti_constants(m7) is yamaguti_constants(m7)
    fresh = StructureTensor(m7.dim, dict(m7.entries))
    assert fresh == m7
    d = yamaguti_constants(fresh)
    assert d is not yamaguti_constants(m7) and d == yamaguti_constants(m7)
