#!/usr/bin/env python3
"""Layer microbench of the dense exact layer: the time of each check on the
benchmark's own inputs, without the rest of the chain.

    python3 scripts/bench_layers.py TAG

It imports `src/mnl` and `mnlbench` of the checkout it sits in.  The inputs
are m7 with the signed octonion generators and the r=10 block sum (m7 plus
doubled su2, octonion plus quaternion generators), both built by
`mnlbench.workloads.ExactAlgebra` for seed 0.  Each function runs five
times, every run on fresh copies of the tensor, generator set and envelope,
so no value kept on an input from an earlier run hides the work; the copies
are made outside the timed call.  Writes BENCH_<TAG>.json at the checkout's
root with the median, lowest and highest of the runs of each function, in
seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from mnl import algebra, birep, envelope  # noqa: E402

from mnlbench import workloads  # noqa: E402

RUNS = 5
SEED = 0


def fresh_tensor(c):
    return algebra.StructureTensor(c.dim, dict(c.entries))


def fresh_generators(gen):
    def copy(ms):
        return [[list(row) for row in m] for m in ms]
    return birep.GeneratorSet(gen.r, gen.dim, copy(gen.S), copy(gen.T))


# name -> (inputs from (tensor, generators), each freshly made; the timed call)
CASES = {
    "is_maltsev": (lambda c, g: (fresh_tensor(c),), algebra.is_maltsev),
    "yamaguti_constants": (lambda c, g: (fresh_tensor(c),), algebra.yamaguti_constants),
    "check_glc": (lambda c, g: (fresh_generators(g), fresh_tensor(c)), birep.check_glc),
    "build_envelope": (lambda c, g: (fresh_tensor(c),), envelope.build_envelope),
    "check_jacobi": (lambda c, g: (envelope.build_envelope(fresh_tensor(c)),),
                     envelope.check_jacobi),
    "matrix_closure_dim": (lambda c, g: (fresh_generators(g),), envelope.matrix_closure_dim),
    "realize_check": (lambda c, g: (envelope.build_envelope(fresh_tensor(c)),
                                    fresh_generators(g), fresh_tensor(c)),
                      envelope.realize_check),
}


def measure(c, gen):
    out = {}
    for name, (inputs, call) in CASES.items():
        times = []
        for _ in range(RUNS):
            args = inputs(c, gen)
            t0 = time.perf_counter()
            call(*args)
            times.append(time.perf_counter() - t0)
        out[name] = {"median_s": statistics.median(times), "min_s": min(times),
                     "max_s": max(times)}
        print(f"  {name:20s} {out[name]['median_s'] * 1e3:9.2f} ms", file=sys.stderr)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tag")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        work = workloads.ExactAlgebra(SEED, workdir)
    inputs = {"m7": (work.m7, work.oct_gen), "r10": (work.r10, work.r10_gen)}
    results = {}
    for label, (c, gen) in inputs.items():
        print(f"{label}:", file=sys.stderr)
        results[label] = measure(c, gen)
    doc = {"tag": args.tag, "runs": RUNS, "seed": SEED,
           "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
           "results": results}
    path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(path, file=sys.stderr)


if __name__ == "__main__":
    main()
