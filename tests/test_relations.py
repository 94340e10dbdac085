"""Golden reports for the generalized Lie-Cartan relations in every
realization: generator matrices (`check_glc`), the envelope map
(`realize_check`), lattice densities (`etc_verify`) and integrated charges
(`charge_algebra_check`).

The generator sets below break the relations, so every family reports the
first case that fails; each witness pins the order in which the cases are
walked as well as the verdict."""

import hashlib
import json

import pytest

from mnl.birep import GeneratorSet, check_glc
from mnl.envelope import build_envelope, realize_check
from mnl.etc import charge_algebra_check, charge_densities, charges, etc_verify
from mnl.fock import build_fields

BOTH_FAIL = "as printed [t,s]: fail; as [t,t]: fail"


def swapped_s01(gen):
    S = list(gen.S)
    S[0], S[1] = S[1], S[0]
    return GeneratorSet(gen.r, gen.dim, S, list(gen.T))


def bumped_t0(gen):
    T = [[list(row) for row in m] for m in gen.T]
    T[0][1][2] += 1
    return GeneratorSet(gen.r, gen.dim, list(gen.S), T)


def witnesses(families):
    return {name: rep.witness for name, rep in families.items()}


@pytest.fixture(scope="module")
def swapped_oct(oct_gen):
    return swapped_s01(oct_gen)


@pytest.fixture(scope="module")
def bumped_quat(quat_gen):
    return bumped_t0(quat_gen)


@pytest.fixture(scope="module")
def swapped_oct_dens(swapped_oct, m7):
    return charge_densities(build_fields(8, 1), swapped_oct, m7)


@pytest.fixture(scope="module")
def bumped_quat_dens(bumped_quat, su2_doubled):
    return charge_densities(build_fields(4, 2), bumped_quat, su2_doubled)


# --- generator matrices -------------------------------------------------

def test_glc_swapped_octonion(swapped_oct, m7):
    assert witnesses(check_glc(swapped_oct, m7).families) == {
        "ss": (0, 0), "tt": (0, 0), "y_antisymmetry": (0, 0), "y_cyclic": (0, 2, 3),
        "reductivity_s": ("S", 0, 0, 0), "reductivity_t": ("T", 0, 0, 0),
        "yy": (0, 1, 0, 1)}


def test_glc_bumped_quaternion(bumped_quat, su2_doubled):
    assert witnesses(check_glc(bumped_quat, su2_doubled).families) == {
        "ss": (0, 0), "tt": (0, 0), "y_antisymmetry": (0, 0), "y_cyclic": (0, 1, 2),
        "reductivity_s": ("S", 0, 0, 0), "reductivity_t": ("T", 0, 0, 1),
        "yy": (0, 1, 0, 1)}


# --- the envelope map ---------------------------------------------------

def test_realize_swapped_octonion(swapped_oct, m7):
    rep = realize_check(build_envelope(m7), swapped_oct, m7)
    assert not rep.passed and rep.witness == ("expand", 0, 1)


def test_realize_bumped_quaternion(bumped_quat, su2_doubled):
    rep = realize_check(build_envelope(su2_doubled), bumped_quat, su2_doubled)
    assert not rep.passed and rep.witness == (("S", 0), ("T", 0))


def test_envelope_table_m7_digest(m7):
    text = json.dumps(build_envelope(m7).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4f38bdf012ed829f169d154b3bd2a8430fa353b83f4b2e1e66ca1033b28f7ecd"


# --- densities ----------------------------------------------------------

def test_etc_swapped_octonion_one_site(swapped_oct_dens, m7):
    rep = etc_verify(swapped_oct_dens, m7)
    assert witnesses(rep.equations) == {
        "1": (0, 1, 0, 0), "2": (0, 0, 0, 0), "3": ("both readings fail",),
        "4": (0, 0, 0), "5": (0, 1, 3, 0), "6": (0, 1, 0, 0, 0), "7": (0, 1, 0, 0, 0),
        "8": (0, 1, 0, 2, 0, 0), "assoc-s": (0, 0, 0, 0), "assoc-t": (0, 0, 0, 0),
        "symmetry": (0, 0, 0, 0)}
    assert rep.equations["3"].detail == BOTH_FAIL
    assert not any(rep.equations[name].passed for name in rep.equations)


def test_etc_bumped_quaternion_two_sites(bumped_quat_dens, su2_doubled):
    rep = etc_verify(bumped_quat_dens, su2_doubled)
    assert witnesses(rep.equations) == {
        "1": None, "2": (0, 0, 0, 0), "3": ("both readings fail",), "4": (0, 0, 0),
        "5": None, "6": (1, 2, 0, 0, 0), "7": (0, 1, 0, 0, 0), "8": (0, 1, 0, 2, 0, 0),
        "assoc-s": (0, 0, 0, 0), "assoc-t": (0, 0, 0, 0), "symmetry": (0, 0, 0, 0)}
    assert rep.equations["1"].passed and rep.equations["5"].passed
    assert rep.equations["3"].detail == BOTH_FAIL


# --- integrated charges -------------------------------------------------

def test_charge_algebra_swapped_octonion(swapped_oct_dens, m7):
    rep = charge_algebra_check(charges(swapped_oct_dens), m7)
    assert not rep.passed and rep.witness == ("st", 0, 0)


def test_charge_algebra_bumped_quaternion(bumped_quat_dens, su2_doubled):
    rep = charge_algebra_check(charges(bumped_quat_dens), su2_doubled)
    assert not rep.passed and rep.witness == ("st", 0, 0)
