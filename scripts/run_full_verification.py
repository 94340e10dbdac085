#!/usr/bin/env python3
"""Run the whole verification chain end to end and print one line per stage.

Stages: Moufang loop checks, Mal'tsev identity, numeric tangent extraction,
generator relations, envelope construction with the matrix-closure oracle,
the Fock fields and their canonical ETC, the charge densities, lattice
density ETC, integrated charge algebra, and the bilinear lemma.  Every build
happens inside a stage, so the stage times add up to the last line's total.

Exit status 0 when every stage passes.
"""

import argparse
import sys
import time

import numpy as np

from mnl.algebra import catalog_algebra, is_lie, is_maltsev
from mnl.birep import check_glc, octonion_lr_generators
from mnl.envelope import (build_envelope, check_jacobi, matrix_closure_dim,
                          realize_check)
from mnl.etc import (bilinear_lemma_check, charge_algebra_check,
                     charge_densities, charges, etc_verify, locality_check)
from mnl.fock import build_fields, canonical_etc_check
from mnl.loops import (chein_double, is_associative, is_moufang,
                       octonion_unit_loop, symmetric_group_s3,
                       tangent_structure_constants, unit_octonion_chart)


def stage(name, fn):
    t0 = time.monotonic()
    passed, note = fn()
    dt = time.monotonic() - t0
    print(f"{'PASS' if passed else 'FAIL'}  {name:<42} {note}  ({dt:.1f}s)")
    return passed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=2, choices=(1, 2),
                        help="lattice sites for the octonion ETC stage")
    parser.add_argument("--trials", type=int, default=100,
                        help="random pairs for the bilinear lemma")
    args = parser.parse_args()

    m7 = catalog_algebra("m7")
    gen = octonion_lr_generators()

    def loops_stage():
        loop = octonion_unit_loop()
        cd = chein_double(symmetric_group_s3())
        ok = all(is_moufang(t).passed and not is_associative(t).passed
                 for t in (loop, cd))
        return ok, "octonion loop + Chein double: Moufang, nonassociative"

    def maltsev_stage():
        lie = is_lie(m7)
        return (is_maltsev(m7).passed and not lie.passed,
                f"Mal'tsev holds, Jacobi fails at {lie.witness}")

    def tangent_stage():
        chart = unit_octonion_chart()
        exact = np.zeros((7, 7, 7))
        for (i, j, k), v in m7.entries.items():
            exact[i, j, k] = float(v)
        err = float(np.abs(tangent_structure_constants(chart, 1e-3) - exact).max())
        return err <= 1e-5, f"max |error| = {err:.2e}"

    def glc_stage():
        return check_glc(gen, m7).passed, "all relation families, exact"

    def envelope_stage():
        env = build_envelope(m7)
        closure = matrix_closure_dim(gen)
        ok = (check_jacobi(env).passed and env.dim == closure
              and realize_check(env, gen, m7).passed)
        return ok, f"dim {env.dim} = closure {closure}, Jacobi + realization"

    built = {}  # the fields and densities, each built inside its stage

    def canonical_stage():
        fields = built["fields"] = build_fields(8, args.sites)
        return (canonical_etc_check(fields).passed,
                f"N={args.sites}, Fock dimension {fields.fock.dim}")

    def densities_stage():
        dens = built["dens"] = charge_densities(built["fields"], gen, m7)
        return True, f"s, t and Yamagutian densities on {dens.sites} site(s)"

    def etc_stage():
        dens = built["dens"]
        ok = etc_verify(dens).passed
        if args.sites > 1:
            ok = ok and locality_check(dens).passed
        return ok, f"N={args.sites}, Fock dimension {built['fields'].fock.dim}"

    def charge_stage():
        return (charge_algebra_check(charges(built["dens"]), m7).passed,
                "integrated charges close on the full bracket table")

    def lemma_stage():
        return (bilinear_lemma_check(build_fields(4, 1),
                                     trials=args.trials, seed=0).passed,
                f"{args.trials} seeded random matrix pairs")

    t0 = time.monotonic()
    ok = True
    for name, fn in (("loop checks", loops_stage),
                     ("Mal'tsev identity (m7)", maltsev_stage),
                     ("tangent extraction", tangent_stage),
                     ("generator relations", glc_stage),
                     ("envelope + closure oracle", envelope_stage),
                     ("fields + canonical ETC", canonical_stage),
                     ("charge densities", densities_stage),
                     ("density equal-time commutators", etc_stage),
                     ("charge algebra", charge_stage),
                     ("bilinear lemma", lemma_stage)):
        ok = stage(name, fn) and ok
    print(f"{'PASS' if ok else 'FAIL'}  {'all stages':<42} ({time.monotonic() - t0:.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
