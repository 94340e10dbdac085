#!/usr/bin/env python3
"""Layer microbench: the time of each check on the benchmark's own inputs,
without the rest of the chain.

    python3 scripts/bench_layers.py TAG                # the dense exact layer
    python3 scripts/bench_layers.py TAG --group etc    # the density ETC and charges
    python3 scripts/bench_layers.py TAG --group fock   # fields, densities, lemma
    python3 scripts/bench_layers.py TAG --group loops  # loop scans, tangent sweep
    python3 scripts/bench_layers.py TAG --parent DIR   # paired against DIR's checkout

It imports `src/mnl` and `mnlbench` of the checkout it sits in.  The
inputs are written as JSON once (by `mnlbench.workloads` for seed 0) and
read back through `algebra.load_tensor` and `birep.load_generators`; the
catalog algebras, generator sets, Cayley tables and charts are built by the
package's own constructors.

- `dense`: m7 with the signed octonion generators and the r=10 block sum
  (m7 plus doubled su2, octonion plus quaternion generators), both built by
  `mnlbench.workloads.ExactAlgebra`.  Besides the public checks, two inner
  stages of them: `envelope._check_quotient_consistency` and
  `birep._labelled_operators`, each on a tensor that `build_envelope` has
  already read, so what the tensor keeps is made outside the timed call;
  and the envelope's JSON table, `EnvelopeAlgebra.to_json_dict`.
- `etc`: `etc_verify` and `charge_algebra_check` on the octonion
  generators at one site (m7, dimension 2^8), on the quaternionic line of
  `mnlbench.workloads.OctonionN2` at two sites (r=3, two sites of
  dimension 2^8), on the octonion generators at two sites and on the
  quaternion generators (doubled su2) at two sites (the second `etc`
  command of `mnlbench`'s cli-session) and three of dimension 2^4; the
  theorem (`charges` and `charge_algebra_check`) on densities that
  `etc_verify` has already checked; and the order of `mnl etc` on one
  density set: `charge_densities`, `etc_verify`, `locality_check` at more
  than one site, `charges` and the theorem; `canonical_etc_check` on the
  fields of the octonion generators at two sites.  And `etc_verify` alone on the
  octonion generators doubled on two diagonal blocks (r=7, 16 modes, one
  site of dimension 2^16).
- `fock`: the octonion fields at two sites (8 modes each, dimension 2^16),
  `build_fields` with `canonical_etc_check`, `car_check` on a fresh
  `build_fock(8, 2)` and, on fresh fields, `charge_densities` of the
  octonion generators; `bilinear_lemma_check` at 15 trials on the fields of
  one site of 8 modes and of two sites of 4, and at 10 trials on four sites
  of 8 (32 modes); `car_check` on a fresh `build_fock(16, 1)` (one site
  of dimension 2^16); and `charge_densities` on the fields of that site for
  the quaternion generators on four diagonal blocks (r=3, 16 modes) and su2
  scaled by 2.
- `loops`: the loop checks of one `exact-algebra` round in its order (the
  octonion loop's `is_moufang` and `is_associative`; for each catalog group
  `is_associative`, `chein_double` and both scans of the double), and those
  two scans of the octonion loop alone; `chein_double`, `is_moufang` and
  `is_associative` on the order-128 Chein double of z64; and the round's
  tangent sweep, `tangent_structure_constants` of the unit-octonion chart at
  the three steps of `mnlbench.workloads.ExactAlgebra`, and at its smallest
  step alone.

Each function runs five times, every run on fresh copies of its inputs
(tensor, generator set, envelope, densities and charges), so no value kept
on an input from an earlier run hides the work (Cayley tables and charts
keep no such value, and are built once); the copies are made outside
the timed call, which is timed by the process's CPU time
(`time.process_time`), steadier than the wall clock on a shared host.  Four
more runs, untimed, record the peak of the memory that `tracemalloc` sees
allocated during the call: the first, which can differ (a module's first
use, a cache filled), is dropped, and the median of the other three kept.  Writes BENCH_<TAG>.json at the checkout's root
with the lowest, median and highest of the runs of each function, in
seconds, and that peak in MB; the lowest is the figure to compare.

With `--parent DIR`, the `src/mnl` of the checkout at DIR and of this one
are imported side by side, as the packages `mnl_parent` and `mnl_change`
(a symlink each in a temporary directory; their relative imports keep each
package whole), and each builds its inputs from the same JSON.  Each
function then runs PAIRS times on each side, the two sides alternating which
runs first, so a load on the host that comes and goes falls on both.  The
file holds both sides' figures and the number of pairs in which the change
was faster.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import mnl  # noqa: E402

from mnlbench import workloads  # noqa: E402

RUNS = 5
PAIRS = 15
PEAKS = 3
SEED = 0
SUBMODULES = ("algebra", "birep", "envelope", "etc", "fock", "loops")


def fresh_tensor(c):
    return type(c)(c.dim, dict(c.entries))


def fresh_generators(gen):
    def copy(ms):
        return [[list(row) for row in m] for m in ms]
    return type(gen)(gen.r, gen.dim, copy(gen.S), copy(gen.T))


def built(m, c):
    """A fresh tensor and its envelope."""
    c = fresh_tensor(c)
    return c, m.envelope.build_envelope(c)


def dense_cases(m):
    """name -> (inputs from (tensor, generators), each freshly made; the timed call)"""
    return {
        "is_maltsev": (lambda c, g: (fresh_tensor(c),), m.algebra.is_maltsev),
        "yamaguti_constants": (lambda c, g: (fresh_tensor(c),), m.algebra.yamaguti_constants),
        "check_glc": (lambda c, g: (fresh_generators(g), fresh_tensor(c)), m.birep.check_glc),
        "build_envelope": (lambda c, g: (fresh_tensor(c),), m.envelope.build_envelope),
        "check_jacobi": (lambda c, g: (m.envelope.build_envelope(fresh_tensor(c)),),
                         m.envelope.check_jacobi),
        "matrix_closure_dim": (lambda c, g: (fresh_generators(g),),
                               m.envelope.matrix_closure_dim),
        "realize_check": (lambda c, g: (m.envelope.build_envelope(fresh_tensor(c)),
                                        fresh_generators(g), fresh_tensor(c)),
                          m.envelope.realize_check),
        "_check_quotient_consistency": (lambda c, g: built(m, c),
                                        m.envelope._check_quotient_consistency),
        "_labelled_operators": (lambda c, g: (fresh_generators(g), built(m, c)[0]),
                                m.birep._labelled_operators),
        "to_json_dict": (lambda c, g: built(m, c)[1:], m.envelope.EnvelopeAlgebra.to_json_dict),
    }


def fresh_densities(m, c, gen, sites):
    return m.etc.charge_densities(m.fock.build_fields(gen.dim, sites), fresh_generators(gen),
                                  fresh_tensor(c))


def verified(m, c, gen, sites):
    """Fresh densities after `etc_verify`, and their tensor."""
    d, c = fresh_densities(m, c, gen, sites), fresh_tensor(c)
    m.etc.etc_verify(d, c)
    return d, c


def etc_order(m, f, gen, c):
    """The checks of `mnl etc` after the canonical ETC, in its order, on one
    density set."""
    d = m.etc.charge_densities(f, gen, c)
    m.etc.etc_verify(d, c)
    if f.sites > 1:
        m.etc.locality_check(d)
    m.etc.charge_algebra_check(m.etc.charges(d), c)


def etc_cases(m, sites):
    return {
        "etc_verify": (lambda c, g: (fresh_densities(m, c, g, sites), fresh_tensor(c)),
                       m.etc.etc_verify),
        "charge_algebra_check": (lambda c, g: (m.etc.charges(fresh_densities(m, c, g, sites)),
                                               fresh_tensor(c)),
                                 m.etc.charge_algebra_check),
        "theorem_after_etc_verify": (
            lambda c, g: verified(m, c, g, sites),
            lambda d, c: m.etc.charge_algebra_check(m.etc.charges(d), c)),
        "mnl_etc_order": (lambda c, g: (m.fock.build_fields(g.dim, sites), fresh_generators(g),
                                        fresh_tensor(c)),
                          lambda f, g, c: etc_order(m, f, g, c)),
    }


def written(workdir):
    """The inputs read from JSON, written once: name -> path, and the tangent steps."""
    work = workloads.ExactAlgebra(SEED, workdir)
    line = workloads.OctonionN2(SEED, workdir)
    paths = {"m7": os.path.join(workdir, "m7_tensor.json"),
             "m7_gen": os.path.join(workdir, "m7_generators.json"),
             "r10": work.r10_tensor_path, "r10_gen": work.r10_gen_path,
             "line": line.tensor_path, "line_gen": line.gen_path}
    workloads.write_tensor(paths["m7"], work.m7)
    workloads.write_generators(paths["m7_gen"], work.oct_gen)
    return paths, work.steps


def dense_inputs(m, paths, steps):
    def read(name):
        return m.algebra.load_tensor(paths[name]), m.birep.load_generators(paths[name + "_gen"])
    return {"m7": (*read("m7"), dense_cases(m)), "r10": (*read("r10"), dense_cases(m))}


def diagonal_blocks(gen, blocks):
    """gen's L/R generators repeated on `blocks` diagonal blocks."""
    n = gen.dim

    def diag(m):
        return [[m[i % n][j % n] if i // n == j // n else 0 for j in range(n * blocks)]
                for i in range(n * blocks)]
    return type(gen)(gen.r, n * blocks, [diag(m) for m in gen.S], [diag(m) for m in gen.T])


def etc_inputs(m, paths, steps):
    m7, oct_gen = m.algebra.catalog_algebra("m7"), m.birep.octonion_lr_generators()
    su2x2, quat_gen = m.algebra.catalog_algebra("su2").scaled(2), m.birep.quaternion_lr_generators()
    canonical = {"canonical_etc_check": (lambda c, g: (m.fock.build_fields(g.dim, 2),),
                                         m.fock.canonical_etc_check)}
    return {"octonion-n1": (m7, oct_gen, etc_cases(m, 1)),
            "octonion-line-n2": (m.algebra.load_tensor(paths["line"]),
                                 m.birep.load_generators(paths["line_gen"]), etc_cases(m, 2)),
            "octonion-n2": (m7, oct_gen, {**etc_cases(m, 2), **canonical}),
            "quaternion-n2": (su2x2, quat_gen, etc_cases(m, 2)),
            "quaternion-n3": (su2x2, quat_gen, etc_cases(m, 3)),
            "octonion-doubled-16x1": (m7, diagonal_blocks(oct_gen, 2),
                                      {"etc_verify": etc_cases(m, 1)["etc_verify"]})}


LEMMA_TRIALS = 15


def lemma_cases(m, n, sites, trials=LEMMA_TRIALS):
    return {"bilinear_lemma_check": (
        lambda c, g: (m.fock.build_fields(n, sites),),
        lambda f: m.etc.bilinear_lemma_check(f, trials=trials, seed=SEED))}


def fock_inputs(m, paths, steps):
    m7, oct_gen = m.algebra.catalog_algebra("m7"), m.birep.octonion_lr_generators()
    fields = {
        "build_fields+canonical_etc_check": (
            lambda c, g: (), lambda: m.fock.canonical_etc_check(m.fock.build_fields(8, 2))),
        "car_check": (lambda c, g: (m.fock.build_fock(8, 2),), m.fock.car_check),
        "charge_densities": (lambda c, g: (m.fock.build_fields(8, 2), fresh_generators(g),
                                           fresh_tensor(c)), m.etc.charge_densities),
    }
    return {"octonion-n2": (m7, oct_gen, fields),
            "lemma-8x1": (m7, oct_gen, lemma_cases(m, 8, 1)),
            "lemma-4x2": (m7, oct_gen, lemma_cases(m, 4, 2)),
            "lemma-8x4": (m7, oct_gen, lemma_cases(m, 8, 4, trials=10)),
            "car-16x1": (m7, oct_gen, {"car_check": (lambda c, g: (m.fock.build_fock(16, 1),),
                                                     m.fock.car_check)}),
            "densities-16x1": (m.algebra.catalog_algebra("su2").scaled(2),
                               diagonal_blocks(m.birep.quaternion_lr_generators(), 4), {
                "charge_densities": (lambda c, g: (m.fock.build_fields(16, 1), fresh_generators(g),
                                                   fresh_tensor(c)), m.etc.charge_densities)})}


def loop_stage(loops, oct_loop, catalog):
    """The loop checks of one `exact-algebra` round, in its order."""
    loops.is_moufang(oct_loop)
    loops.is_associative(oct_loop)
    for group in catalog.values():
        loops.is_associative(group)
        double = loops.chein_double(group)
        loops.is_moufang(double)
        loops.is_associative(double)


def loop_inputs(m, paths, steps):
    loops = m.loops
    oct_loop, catalog = loops.octonion_unit_loop(), loops.group_catalog()
    z64 = loops.cyclic_group(64)
    double = loops.chein_double(z64)
    chart = loops.unit_octonion_chart()
    return {
        "exact-algebra": (None, None, {
            "loop_stage": (lambda c, g: (loops, oct_loop, catalog), loop_stage),
            "is_moufang": (lambda c, g: (oct_loop,), loops.is_moufang),
            "is_associative": (lambda c, g: (oct_loop,), loops.is_associative)}),
        "chein-z64": (None, None, {
            "chein_double": (lambda c, g: (z64,), loops.chein_double),
            "is_moufang": (lambda c, g: (double,), loops.is_moufang),
            "is_associative": (lambda c, g: (double,), loops.is_associative)}),
        "tangent": (None, None, {
            "three_step_sweep": (
                lambda c, g: (chart, steps),
                lambda chart, steps: [loops.tangent_structure_constants(chart, h) for h in steps]),
            "tangent_structure_constants": (lambda c, g: (chart, steps[-1]),
                                            loops.tangent_structure_constants)}),
    }


GROUPS = {"dense": dense_inputs, "etc": etc_inputs, "fock": fock_inputs, "loops": loop_inputs}


def run_once(c, gen, case):
    """The process time of one call on fresh inputs."""
    inputs, call = case
    args = inputs(c, gen)
    t0 = time.process_time()
    call(*args)
    return time.process_time() - t0


def peak_mb(c, gen, case):
    """The tracemalloc peak of a call on fresh inputs, in MB: the median of
    PEAKS calls after one more, whose reading is dropped."""
    inputs, call = case
    peaks = []
    for _ in range(PEAKS + 1):
        args = inputs(c, gen)
        tracemalloc.start()
        try:
            call(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return statistics.median(peaks[1:])


def stats(times, peak):
    return {"min_s": min(times), "median_s": statistics.median(times),
            "max_s": max(times), "tracemalloc_peak_mb": peak}


def measure(c, gen, cases):
    out = {}
    for name, case in cases.items():
        times = [run_once(c, gen, case) for _ in range(RUNS)]
        out[name] = stats(times, peak_mb(c, gen, case))
        print(f"  {name:20s} {out[name]['min_s'] * 1e3:9.2f} ms "
              f"{out[name]['tracemalloc_peak_mb']:8.2f} MB", file=sys.stderr)
    return out


def measure_pairs(parent, change):
    """Both sides of each case, PAIRS alternating pairs; parent and change
    are (tensor, generators, cases) of one input."""
    out = {}
    for name in change[2]:
        sides = {"parent": (*parent[:2], parent[2][name]), "change": (*change[:2], change[2][name])}
        times = {"parent": [], "change": []}
        for k in range(PAIRS):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                times[side].append(run_once(*sides[side]))
        out[name] = {side: stats(times[side], peak_mb(*sides[side])) for side in sides}
        out[name]["change_faster_pairs"] = sum(new < old for old, new in
                                               zip(times["parent"], times["change"]))
        print(f"  {name:20s} " + " ".join(
            f"{side} {out[name][side]['min_s'] * 1e3:8.2f}/"
            f"{out[name][side]['median_s'] * 1e3:8.2f} ms" for side in sides)
            + f"  faster in {out[name]['change_faster_pairs']}/{PAIRS}", file=sys.stderr)
    return out


def package(src, name, workdir):
    """The package at `src` (a `mnl` directory) with its submodules, imported
    as `name` through a symlink in `workdir`."""
    os.symlink(src, os.path.join(workdir, name))
    pkg = importlib.import_module(name)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return pkg


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tag")
    parser.add_argument("--group", choices=sorted(GROUPS), default="dense")
    parser.add_argument("--parent", metavar="DIR",
                        help="a checkout to pair against, function by function")
    args = parser.parse_args()
    doc = {"tag": args.tag, "group": args.group}
    with tempfile.TemporaryDirectory() as workdir:
        paths, steps = written(workdir)
        results = {}
        if args.parent is None:
            doc["runs"] = RUNS
            for label, (c, gen, cases) in GROUPS[args.group](mnl, paths, steps).items():
                print(f"{label}:", file=sys.stderr)
                results[label] = measure(c, gen, cases)
        else:
            doc["pairs"] = PAIRS
            sys.path.insert(0, workdir)
            sides = [GROUPS[args.group](package(os.path.join(src, "src", "mnl"), name, workdir),
                                        paths, steps)
                     for src, name in ((os.path.abspath(args.parent), "mnl_parent"),
                                       (ROOT, "mnl_change"))]
            for label, change in sides[1].items():
                print(f"{label}:", file=sys.stderr)
                results[label] = measure_pairs(sides[0][label], change)
    doc.update({"seed": SEED, "clock": "process_time",
                "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                         "python": platform.python_version()},
                "results": results})
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(path, file=sys.stderr)


if __name__ == "__main__":
    main()
