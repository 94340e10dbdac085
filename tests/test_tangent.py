import numpy as np
import pytest

from mnl import algebra, loops
from mnl.report import InputError


def translation_line_chart():
    """One-parameter abelian group (R, +): zero tangent tensor."""

    def multiply(v, w):
        return np.asarray(v, dtype=float) + np.asarray(w, dtype=float)

    def invert(v):
        return -np.asarray(v, dtype=float)

    return loops.ParamLoopChart(1, multiply, invert)


def exact_m7_array():
    m7 = algebra.catalog_algebra("m7")
    out = np.zeros((7, 7, 7))
    for (i, j, k), v in m7.entries.items():
        out[i, j, k] = float(v)
    return out


def test_chart_unit_axiom():
    ch = loops.unit_octonion_chart()
    v = 0.3 * np.eye(7)[2]
    assert np.allclose(ch.multiply(np.zeros(7), v), v, atol=1e-14)
    assert np.allclose(ch.multiply(v, np.zeros(7)), v, atol=1e-14)


def test_chart_inverse():
    ch = loops.unit_octonion_chart()
    v = np.array([0.1, -0.2, 0.05, 0.0, 0.3, -0.1, 0.2])
    assert np.allclose(ch.invert(v), -v)
    assert np.allclose(ch.multiply(v, ch.invert(v)), np.zeros(7), atol=1e-14)


def test_chart_product_matches_octonion_arithmetic():
    ch = loops.unit_octonion_chart()
    v = 0.1 * np.eye(7)[0]
    w = 0.1 * np.eye(7)[1]
    got = ch.multiply(v, w)
    # direct product of (sqrt(1-.01), .1 e1) and (sqrt(1-.01), .1 e2)
    s = np.sqrt(0.99)
    expect = np.array([0.1 * s, 0.1 * s, 0.01, 0, 0, 0, 0])
    assert np.allclose(got, expect, atol=1e-15)


def test_chart_domain_error():
    ch = loops.unit_octonion_chart()
    with pytest.raises(InputError):
        ch.multiply(np.ones(7), np.zeros(7))


def test_tangent_constants_match_m7():
    ch = loops.unit_octonion_chart()
    c = loops.tangent_structure_constants(ch, 1e-3)
    assert np.abs(c - exact_m7_array()).max() <= 1e-5


def test_tangent_constants_abelian_zero():
    ch = translation_line_chart()
    c = loops.tangent_structure_constants(ch, 1e-3)
    assert np.abs(c).max() <= 1e-8


def test_tangent_convergence_order():
    ch = loops.unit_octonion_chart()
    exact = exact_m7_array()
    e1 = np.abs(loops.tangent_structure_constants(ch, 1e-2) - exact).max()
    e2 = np.abs(loops.tangent_structure_constants(ch, 1e-3) - exact).max()
    # O(step^2): a 10x step reduction shrinks the error about 100x
    assert 50.0 <= e1 / e2 <= 200.0


def test_raw_asymmetry_small():
    ch = loops.unit_octonion_chart()
    raw = loops.tangent_structure_constants(ch, 1e-3, antisymmetrize=False)
    asym = np.abs(raw + np.swapaxes(raw, 1, 2)).max()
    assert asym <= 1e-6


def test_antisymmetry_exact_after_projection():
    ch = loops.unit_octonion_chart()
    c = loops.tangent_structure_constants(ch, 1e-3)
    assert np.abs(c + np.swapaxes(c, 1, 2)).max() == 0.0


def test_bracketing_robustness():
    ch = loops.unit_octonion_chart()
    left = loops.tangent_structure_constants(ch, 1e-3, bracketing="left")
    right = loops.tangent_structure_constants(ch, 1e-3, bracketing="right")
    assert np.abs(left - right).max() <= 1e-5


def test_step_validation():
    ch = loops.unit_octonion_chart()
    with pytest.raises(InputError):
        loops.tangent_structure_constants(ch, 0.5)
    with pytest.raises(InputError):
        loops.tangent_structure_constants(ch, 0.0)
