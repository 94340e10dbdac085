"""The names the benchmark's tracer wraps must exist in the program.

`mnlbench/tracing.py` looks up each traced function and method by name when
`mnlbench/run.py --trace 1` starts; a renamed or deleted one would only show
up there.  `mnlbench/` is not a package, so the module is loaded by path."""

import importlib.util
import sys
from pathlib import Path

import mnl.cli  # noqa: F401  (imports every module the tracer wraps)
from mnl import fock

TRACING = Path(__file__).resolve().parents[1] / "mnlbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("mnlbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_exist():
    tracing = _load_tracing()
    for stem, (modname, attr) in tracing.FUNCTIONS.items():
        assert modname in sys.modules, stem
        assert callable(getattr(sys.modules[modname], attr, None)), stem
    for stem, (cls, attr) in tracing.METHODS.items():
        assert attr in vars(getattr(fock, cls)), stem


def test_workload_calls_resolve():
    # `mnlbench/workloads.py` calls these by name, and wraps `build_fock`
    from mnl import etc
    ops = fock.build_fock(2, 3)
    assert isinstance(ops, fock.FockOps) and ops.dim == 2 ** 6
    for name in ("build_fields", "build_fock", "canonical_etc_check"):
        assert callable(getattr(fock, name)), name
    assert callable(fock.GQSparse.from_int)
    for name in ("charge_densities", "etc_verify", "locality_check", "charges",
                 "charge_algebra_check"):
        assert callable(getattr(etc, name)), name
    # the octonion-n2 check reads densities as full-space operators
    for attr in ("full", "re", "im", "den"):
        assert attr in vars(fock.SiteOp), attr
