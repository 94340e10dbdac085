"""Batch command-line interface: every verification pipeline behind one
subcommand, with machine-readable reports.

Exit codes: 0 all declared properties pass, 1 algebraic violation,
2 usage/input error, 3 internal error (a crash, traceback on stderr; never a
verdict).  Reports carry "schema": 1 and are byte-deterministic
for identical inputs (MNL_SEED pins the randomized checks, default 0).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback

import numpy as np

from . import algebra, birep, envelope, etc, fock, loops
from .report import InputError

SCHEMA = 1

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


# builtin loop name -> its factory: the octonion loop, the catalog groups and
# the Chein double of each catalog group
_BUILTIN_LOOPS = {"octonion-loop": loops.octonion_unit_loop, **loops.GROUPS,
                  **{f"chein-{name}": (lambda build=build: loops.chein_double(build()))
                     for name, build in loops.GROUPS.items()}}


def _resolve_loop(ref: str) -> loops.CayleyTable:
    if ref.startswith("builtin:"):
        name = ref[len("builtin:"):]
        if name in _BUILTIN_LOOPS:
            return _BUILTIN_LOOPS[name]()
        if name.startswith("chein-"):
            raise InputError(f"unknown group {name[len('chein-'):]!r} for Chein double")
        raise InputError(f"unknown builtin loop {ref!r}")
    try:
        with open(ref) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read Cayley table from {ref}: {exc}") from exc
    return loops.CayleyTable.from_json_dict(data)


def _resolve_tensor(ref: str) -> algebra.StructureTensor:
    if ref.startswith("builtin:"):
        name = ref[len("builtin:"):]
        if name == "su2-doubled":
            return algebra.catalog_algebra("su2").scaled(2)
        return algebra.catalog_algebra(name)
    return algebra.load_tensor(ref)


# builtin generator set -> (its factory, the tensor it realizes by default)
_BUILTIN_GENERATORS = {
    "builtin:octonion": (birep.octonion_lr_generators, "builtin:m7"),
    "builtin:quaternion": (birep.quaternion_lr_generators, "builtin:su2-doubled"),
}


def _resolve_generators(ref: str) -> birep.GeneratorSet:
    if ref in _BUILTIN_GENERATORS:
        return _BUILTIN_GENERATORS[ref][0]()
    if ref.startswith("builtin:"):
        raise InputError(f"unknown builtin generator set {ref!r}")
    return birep.load_generators(ref)


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        out = "\n".join(text_lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out)
        except OSError as exc:
            raise InputError(f"cannot write report to {args.out}: {exc}") from exc
    else:
        sys.stdout.write(out)


def _report_line(name, rep):
    status = "pass" if rep.passed else "fail"
    extra = ""
    if rep.witness is not None:
        extra = f"  witness={rep.witness}"
    if rep.detail:
        extra += f"  [{rep.detail}]"
    return f"{name}: {status}{extra}"


def cmd_loop_check(args):
    table = _resolve_loop(args.cayley)
    reps = {"quasigroup": loops.is_quasigroup(table)}
    reps["unit"] = loops.has_unit(table)
    declared_ok = reps["quasigroup"].passed and reps["unit"].passed
    if declared_ok:
        reps["moufang"] = loops.is_moufang(table)
        declared_ok = reps["moufang"].passed
    reps["associative"] = loops.is_associative(table)
    payload = {
        "schema": SCHEMA,
        "command": "loop-check",
        "input": args.cayley,
        "order": table.order,
        "results": {k: v.to_dict() for k, v in reps.items()},
        "pass": declared_ok,
    }
    lines = [f"loop-check {args.cayley} (order {table.order})"]
    lines += [_report_line(k, v) for k, v in sorted(reps.items())]
    _emit(args, payload, lines)
    return EXIT_PASS if declared_ok else EXIT_VIOLATION


def cmd_maltsev(args):
    c = _resolve_tensor(args.tensor)
    lie = algebra.is_lie(c)
    maltsev = algebra.is_maltsev(c)
    payload = {
        "schema": SCHEMA,
        "command": "maltsev",
        "input": args.tensor,
        "dim": c.dim,
        "results": {"lie": lie.to_dict(), "maltsev": maltsev.to_dict()},
        "pass": maltsev.passed,
    }
    lines = [f"maltsev {args.tensor} (dim {c.dim})",
             _report_line("lie", lie), _report_line("maltsev", maltsev)]
    _emit(args, payload, lines)
    return EXIT_PASS if maltsev.passed else EXIT_VIOLATION


def cmd_envelope(args):
    c = _resolve_tensor(args.tensor)
    try:
        env = envelope.build_envelope(c)
    except envelope.NotMaltsevError as exc:
        pre = exc.report
        payload = {"schema": SCHEMA, "command": "envelope", "input": args.tensor,
                   "results": {"maltsev-precondition": pre.to_dict()}, "pass": False}
        _emit(args, payload, ["envelope: precondition failed",
                              _report_line("maltsev-precondition", pre)])
        return EXIT_VIOLATION
    jac = envelope.check_jacobi(env)
    results = {"jacobi": jac.to_dict()}
    passed = jac.passed
    lines = [f"envelope {args.tensor}: dim {env.dim} (bound {env.dimension_bound}, "
             f"relation rank {env.relation_rank})", _report_line("jacobi", jac)]
    oracle = {}
    if args.oracle:
        gen = _resolve_generators(args.oracle)
        closure = envelope.matrix_closure_dim(gen)
        glc = birep.check_glc(gen, c)
        realized = envelope.realize_check(env, gen, c) if glc.passed else None
        oracle = {
            "generators": args.oracle,
            "matrix_closure_dim": closure,
            "dims_match": closure == env.dim,
            "glc": glc.to_dict(),
            "realize": realized.to_dict() if realized else None,
        }
        passed = passed and glc.passed and realized is not None and realized.passed \
            and closure == env.dim
        lines.append(f"oracle {args.oracle}: closure dim {closure} "
                     f"({'match' if closure == env.dim else 'MISMATCH'})")
        if realized:
            lines.append(_report_line("realize", realized))
        lines.append("glc: " + ("pass" if glc.passed else "fail"))
    payload = {
        "schema": SCHEMA,
        "command": "envelope",
        "input": args.tensor,
        "envelope": env.to_json_dict(),
        "oracle": oracle,
        "results": results,
        "pass": passed,
    }
    _emit(args, payload, lines)
    return EXIT_PASS if passed else EXIT_VIOLATION


def cmd_etc(args):
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    gen = _resolve_generators(args.generators)
    tensor = args.tensor or _BUILTIN_GENERATORS.get(args.generators, (None, None))[1]
    if tensor is None:
        raise InputError("file-based generators need --tensor")
    c = _resolve_tensor(tensor)
    try:
        seed = int(os.environ.get("MNL_SEED", "0"))
    except ValueError:
        raise InputError(f"MNL_SEED must be an integer, got {os.environ['MNL_SEED']!r}") from None
    fields = fock.build_fields(gen.dim, args.sites)
    canonical = fock.canonical_etc_check(fields)
    dens = etc.charge_densities(fields, gen, c)
    etc_rep = etc.etc_verify(dens, c)
    results = {"canonical": canonical.to_dict()}
    results.update({f"eq-{k}" if k.isdigit() else k: v.to_dict()
                    for k, v in etc_rep.equations.items()})
    if args.sites > 1:
        results["locality"] = etc.locality_check(dens).to_dict()
    q = etc.charges(dens)
    theorem = etc.charge_algebra_check(q, c)
    results["theorem"] = theorem.to_dict()
    lemma = etc.bilinear_lemma_check(fields, trials=args.trials, seed=seed)
    results["bilinear-lemma"] = lemma.to_dict()
    passed = all(entry["pass"] for entry in results.values())
    payload = {
        "schema": SCHEMA,
        "command": "etc",
        "scenario": {"generators": args.generators, "sites": args.sites,
                     "trials": args.trials, "seed": seed, "format": args.format},
        "convention": etc.CONVENTION,
        "results": results,
        "pass": passed,
    }
    lines = [f"etc {args.generators} --sites {args.sites} "
             f"(Fock dimension {fields.fock.dim})",
             f"convention: {etc.CONVENTION}"]
    for key in sorted(results):
        entry = results[key]
        line = f"{key}: {'pass' if entry['pass'] else 'fail'}"
        if entry.get("witness"):
            line += f"  witness={entry['witness']}"
        if entry.get("detail"):
            line += f"  [{entry['detail']}]"
        lines.append(line)
    _emit(args, payload, lines)
    return EXIT_PASS if passed else EXIT_VIOLATION


def cmd_tangent(args):
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise InputError(f"--tol must be a finite number >= 0, got {args.tol}")
    chart = loops.unit_octonion_chart()
    numeric = loops.tangent_structure_constants(chart, args.step)
    exact = algebra.catalog_algebra("m7")
    target = np.zeros((7, 7, 7))
    for (i, j, k), v in exact.entries.items():
        target[i, j, k] = float(v)
    err = float(np.abs(numeric - target).max())
    passed = err <= args.tol
    payload = {
        "schema": SCHEMA,
        "command": "tangent",
        "step": args.step,
        "tolerance": args.tol,
        "max_abs_error": err,
        "pass": passed,
    }
    _emit(args, payload, [f"tangent extraction at step {args.step}: "
                          f"max |error| = {err:.3e} (tol {args.tol:g})",
                          "pass" if passed else "fail"])
    return EXIT_PASS if passed else EXIT_VIOLATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mnl",
        description="Verification workbench for Moufang loops, Mal'tsev "
                    "algebras, and their Noether charge algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("loop-check", help="quasigroup/unit/Moufang/associativity suite")
    p.add_argument("cayley", help="Cayley table JSON path or builtin:NAME")
    common(p)
    p.set_defaults(func=cmd_loop_check)

    p = sub.add_parser("maltsev", help="Lie and Mal'tsev identity checks")
    p.add_argument("tensor", help="structure tensor JSON path or builtin:NAME")
    common(p)
    p.set_defaults(func=cmd_maltsev)

    p = sub.add_parser("envelope", help="enveloping Lie algebra construction and certification")
    p.add_argument("tensor", help="structure tensor JSON path or builtin:NAME")
    p.add_argument("--oracle", default=None,
                   help="generator set (path or builtin:NAME) for the closure oracle")
    common(p)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("etc", help="lattice charge-density ETC verification")
    p.add_argument("generators", help="generator set JSON path or builtin:NAME")
    p.add_argument("--sites", type=int, default=1)
    p.add_argument("--trials", type=int, default=100,
                   help="random pairs for the bilinear lemma check")
    p.add_argument("--tensor", default=None,
                   help="structure tensor (inferred for builtin generators)")
    common(p)
    p.set_defaults(func=cmd_etc)

    p = sub.add_parser("tangent", help="numeric tangent constants vs the exact catalog")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-5)
    common(p)
    p.set_defaults(func=cmd_tangent)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return exc.code
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        # a crash must not read as exit 1, "violation"
        traceback.print_exc()
        print("error: internal error; no verdict was reached", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
