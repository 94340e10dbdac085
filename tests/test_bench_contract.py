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
