"""The batched tangent sweep and the stacked unit-octonion chart against the
per-pair loop and the per-point product of `oracles`, bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from mnl import loops
from mnl.report import InputError

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("antisymmetrize", [True, False])
@pytest.mark.parametrize("bracketing", ["left", "right"])
@pytest.mark.parametrize("step", [3e-2, 1e-3, 3e-4])
def test_batched_sweep_equals_the_per_pair_loop(step, bracketing, antisymmetrize):
    chart = loops.unit_octonion_chart()
    got = loops.tangent_structure_constants(chart, step, bracketing, antisymmetrize)
    want = oracles.tangent_structure_constants(chart, step, bracketing, antisymmetrize)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def points(rng, shape, radius):
    """Points of R^7 in a stack of the given shape, each of norm below radius."""
    v = rng.normal(size=shape + (7,))
    return radius * rng.uniform(size=shape + (1,)) * v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_stacked_multiply_equals_the_rows_bit_for_bit():
    chart = loops.unit_octonion_chart()
    rng = np.random.default_rng(0)
    v, w = points(rng, (6, 5), 0.99), points(rng, (6, 5), 0.99)
    v[0, :, 3] = -0.0
    w = np.asfortranarray(w)    # rows of stride other than one
    got = chart.multiply(v, w)
    assert got.shape == (6, 5, 7)
    for i in np.ndindex(6, 5):
        assert got[i].tobytes() == chart.multiply(v[i], w[i]).tobytes()
        # the oracle's |v|^2 is a BLAS dot, whose kernel depends on the stride
        vi, wi = np.ascontiguousarray(v[i]), np.ascontiguousarray(w[i])
        assert got[i].tobytes() == oracles.octonion_product(vi, wi).tobytes()
    assert np.array_equal(chart.invert(v), -v)


def test_stack_with_one_point_outside_the_chart_raises():
    chart = loops.unit_octonion_chart()
    v = points(np.random.default_rng(1), (4,), 0.5)
    outside = v.copy()
    outside[2] = np.eye(7)[1]    # |v| = 1
    for args in ((outside, v), (v, outside)):
        with pytest.raises(InputError):
            chart.multiply(*args)


def test_convergence_script_observes_second_order():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "tangent_convergence.py"),
                          "--steps", "1e-2", "1e-3"], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    order = float(run.stdout.split()[-1])
    assert abs(order - 2.0) < 0.1
