"""Verification workbench for Moufang loops, their tangent Mal'tsev
algebras, generalized Lie-Cartan envelopes, and lattice Noether charge
algebras."""

import importlib

from .algebra import (StructureTensor, YamagutiTensor, catalog_algebra, is_lie, is_maltsev,
                      yamaguti_constants)
from .birep import (GeneratorSet, LoopBirep, check_associative_birep,
                    check_birep, check_glc, octonion_lr_generators,
                    quaternion_lr_generators, regular_birep)
from .envelope import (EnvelopeAlgebra, build_envelope, check_jacobi,
                       matrix_closure_dim, realize_check)
from .loops import (CayleyTable, ParamLoopChart, chein_double, group_catalog,
                    is_associative, is_moufang, is_quasigroup, loop_commutator,
                    octonion_unit_loop, tangent_structure_constants,
                    unit_octonion_chart)
from .report import CheckReport, InputError

__version__ = "0.1.0"

# the names of the Fock layer, which loads scipy, imported on first use
_LAZY = {**dict.fromkeys(("ChargeDensitySet", "ChargeSet", "bilinear_lemma_check",
                          "charge_algebra_check", "charge_densities", "charges", "etc_verify",
                          "locality_check"), "etc"),
         **dict.fromkeys(("FieldSet", "FockOps", "GQSparse", "build_fields", "build_fock",
                          "canonical_etc_check", "car_check"), "fock")}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
