"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces each traced public function of `mnl` with a
wrapper, at every place the function is bound: the modules import one
another's functions by name, so `yamaguti_constants` alone is bound in
`algebra`, `birep`, `envelope` and `etc`.  The `GQSparse` operators and
`QuadraticCache.bilinear` are replaced on their classes.

Each call becomes one span record (name, start, end, parent, nested flag),
kept in memory and written out by the caller once the run ends.  Fock results
are inspected for their nnz and the bit width of their largest entry or
denominator.  That inspection happens after the span closes; its cost is
accumulated separately and subtracted from every enclosing span, so the
per-layer times hold only the program's own work.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

# metric stem -> (module, attribute); the function is looked up there and then
# replaced wherever any mnl module binds it
FUNCTIONS = {
    "loops.is_moufang": ("mnl.loops", "is_moufang"),
    "loops.tangent_structure_constants": ("mnl.loops", "tangent_structure_constants"),
    "algebra.is_maltsev": ("mnl.algebra", "is_maltsev"),
    "algebra.yamaguti_constants": ("mnl.algebra", "yamaguti_constants"),
    "birep.check_glc": ("mnl.birep", "check_glc"),
    "birep.extract_yamagutians": ("mnl.birep", "extract_yamagutians"),
    "envelope.build_envelope": ("mnl.envelope", "build_envelope"),
    "envelope.check_jacobi": ("mnl.envelope", "check_jacobi"),
    "envelope.matrix_closure_dim": ("mnl.envelope", "matrix_closure_dim"),
    "envelope.realize_check": ("mnl.envelope", "realize_check"),
    "matrices.mat_mul": ("mnl.matrices", "mat_mul"),
    "fock.build_fields": ("mnl.fock", "build_fields"),
    "fock.canonical_etc_check": ("mnl.fock", "canonical_etc_check"),
    "etc.charge_densities": ("mnl.etc", "charge_densities"),
    "etc.etc_verify": ("mnl.etc", "etc_verify"),
    "etc.locality_check": ("mnl.etc", "locality_check"),
    "etc.charges": ("mnl.etc", "charges"),
    "etc.charge_algebra_check": ("mnl.etc", "charge_algebra_check"),
    "etc.bilinear_lemma_check": ("mnl.etc", "bilinear_lemma_check"),
    "cli.loop_check": ("mnl.cli", "cmd_loop_check"),
    "cli.maltsev": ("mnl.cli", "cmd_maltsev"),
    "cli.envelope": ("mnl.cli", "cmd_envelope"),
    "cli.etc": ("mnl.cli", "cmd_etc"),
    "cli.tangent": ("mnl.cli", "cmd_tangent"),
}

# metric stem -> (class in mnl.fock, method); fock.eq returns a bool, the
# others a GQSparse
METHODS = {
    "fock.add": ("GQSparse", "__add__"),
    "fock.matmul": ("GQSparse", "__matmul__"),
    "fock.scale": ("GQSparse", "scale"),
    "fock.eq": ("GQSparse", "__eq__"),
    "fock.commutator": ("GQSparse", "commutator"),
    "fock.bilinear": ("QuadraticCache", "bilinear"),
}

# spans whose self time (duration minus their fock child spans) is reported
SELF_TIMED = ("etc.etc_verify",)

TIME_STEMS = [
    "fock.commutator", "fock.matmul", "fock.add", "fock.bilinear",
    "algebra.is_maltsev", "algebra.yamaguti_constants",
    "birep.check_glc", "birep.extract_yamagutians",
    "envelope.build_envelope", "envelope.check_jacobi",
    "envelope.matrix_closure_dim", "envelope.realize_check",
    "matrices.mat_mul", "loops.is_moufang", "loops.tangent_structure_constants",
    "fock.build_fields", "fock.canonical_etc_check", "etc.charge_densities",
    "etc.etc_verify", "etc.locality_check", "etc.charges",
    "etc.charge_algebra_check", "etc.bilinear_lemma_check",
    "cli.loop_check", "cli.maltsev", "cli.envelope", "cli.etc", "cli.tangent",
]
CALL_STEMS = [
    "fock.commutator", "fock.matmul", "fock.add", "fock.scale", "fock.eq",
    "algebra.is_maltsev", "algebra.yamaguti_constants", "matrices.mat_mul",
]


class Tracer:
    def __init__(self):
        self.records = []      # [name, start, end, parent, nested, observe_s inside]
        self._stack = []
        self._active = {}      # name -> open spans of that name
        self._observe_s = 0.0  # total time spent inspecting fock results
        self.nnz_max = 0
        self.bits_max = 0

    # --- recording ---
    def _wrap(self, name, fn, observe):
        records, stack, active = self.records, self._stack, self._active
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(records)
            parent = stack[-1] if stack else -1
            nested = active.get(name, 0) > 0
            records.append(None)
            stack.append(idx)
            active[name] = active.get(name, 0) + 1
            obs0 = self._observe_s
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[name] -= 1
                records[idx] = (name, t0, t1, parent, nested, self._observe_s - obs0)
            if observe:
                self._observe(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observe(self, op):
        t0 = time.perf_counter()
        nnz = op.re.nnz + op.im.nnz
        if nnz > self.nnz_max:
            self.nnz_max = nnz
        top = abs(op.den)
        for part in (op.re, op.im):
            if part.nnz:
                top = max(top, int(np.abs(part.data).max()))
        if top.bit_length() > self.bits_max:
            self.bits_max = top.bit_length()
        self._observe_s += time.perf_counter() - t0

    def install(self):
        """Wrap every traced function at each of its binding sites."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "mnl" or n.startswith("mnl."))]
        for stem, (modname, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(stem, orig, observe=False)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        fock = sys.modules["mnl.fock"]
        for stem, (cls, attr) in METHODS.items():
            klass = getattr(fock, cls)
            orig = klass.__dict__[attr]
            setattr(klass, attr, self._wrap(stem, orig, observe=stem != "fock.eq"))

    def reset(self):
        """Start a new round: drop the records and the maxima."""
        self.records.clear()
        self.nnz_max = 0
        self.bits_max = 0

    # --- reporting ---
    def _net(self, rec):
        return rec[2] - rec[1] - rec[5]

    def metrics(self):
        """Per-layer totals over the records since the last reset."""
        time_s = {stem: 0.0 for stem in TIME_STEMS}
        calls = {stem: 0 for stem in CALL_STEMS}
        self_s = {stem: 0.0 for stem in SELF_TIMED}
        fock_child = {}
        for rec in self.records:
            name, parent = rec[0], rec[3]
            if name in calls:
                calls[name] += 1
            if name in time_s and not rec[4]:
                time_s[name] += self._net(rec)
            if parent >= 0 and name.startswith("fock."):
                fock_child[parent] = fock_child.get(parent, 0.0) + self._net(rec)
        for idx, rec in enumerate(self.records):
            if rec[0] in self_s and not rec[4]:
                self_s[rec[0]] += self._net(rec) - fock_child.get(idx, 0.0)
        out = {}
        for stem, v in time_s.items():
            out[f"{stem}_s"] = (v, "s")
        for stem, v in calls.items():
            out[f"{stem}_calls"] = (v, "count")
        for stem, v in self_s.items():
            out[f"{stem}_self_s"] = (v, "s")
        out["fock.op_nnz_max"] = (self.nnz_max, "count")
        out["fock.entry_bits_max"] = (self.bits_max, "bits")
        return out


def write_spans(path, rounds):
    """One JSON line per span, in call order; ids restart in each round."""
    with open(path, "w") as fh:
        for rnd, records in enumerate(rounds):
            for idx, (name, t0, t1, parent, _nested, obs) in enumerate(records):
                fh.write(json.dumps({"round": rnd, "id": idx, "parent": parent,
                                     "name": name, "start": t0, "end": t1,
                                     "observe_s": obs}) + "\n")
