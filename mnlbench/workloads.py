"""The three workloads.  Each is set up from a seed, then runs whole rounds of
the same verdicts, then checks outputs against answers obtained apart from
the program.

A workload object has three phases:

* construction (set-up): import-time work plus the builtin and generated
  inputs, written as JSON where the program reads files;
* `round(tally)`: the timed calls into `mnl`, one `tally.expect` per verdict
  compared with its known answer;
* `check()`: independent reconstructions and negative checks, untimed;
  returns the names of the checks that did not hold.

Every call into the program goes through a module attribute (`etc.etc_verify`,
not a name imported from it), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from mnl import algebra, birep, cli, envelope, etc, fock, loops

from . import oracle

ETC_EQUATIONS = ("1", "2", "3", "4", "5", "6", "7", "8",
                 "assoc-s", "assoc-t", "symmetry")


class Tally:
    """Verdicts attempted and the names of those that missed their answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def expect(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok


# --- input generation -------------------------------------------------------

def signed_tensor(c, signs):
    """The same algebra in the basis s_i e_i: c'^i_jk = s_i s_j s_k c^i_jk."""
    return algebra.StructureTensor(
        c.dim, {(i, j, k): signs[i] * signs[j] * signs[k] * v
                for (i, j, k), v in c.entries.items()})


def signed_generators(gen, signs):
    """S'_j = s_j S_j and T'_j = s_j T_j, the generators for that basis."""
    def neg(m, s):
        return [[s * x for x in row] for row in m]

    return birep.GeneratorSet(gen.r, gen.dim,
                              [neg(m, s) for m, s in zip(gen.S, signs)],
                              [neg(m, s) for m, s in zip(gen.T, signs)])


def block_sum(c1, c2):
    ent = dict(c1.entries)
    ent.update({(i + c1.dim, j + c1.dim, k + c1.dim): v
                for (i, j, k), v in c2.entries.items()})
    return algebra.StructureTensor(c1.dim + c2.dim, ent)


def block_generators(g1, g2):
    """Block-diagonal S and T: g1's matrices on the first block, g2's on the second."""
    n = g1.dim + g2.dim

    def embed(m, off):
        out = [[Fraction(0)] * n for _ in range(n)]
        for i, row in enumerate(m):
            for j, v in enumerate(row):
                out[off + i][off + j] = Fraction(v)
        return out

    S = [embed(m, 0) for m in g1.S] + [embed(m, g1.dim) for m in g2.S]
    T = [embed(m, 0) for m in g1.T] + [embed(m, g1.dim) for m in g2.T]
    return birep.GeneratorSet(g1.r + g2.r, n, S, T)


def write_tensor(path, c):
    """The README's tensor shape: 1-based [i, j, k, num, den] rows, j < k."""
    rows = sorted([i + 1, j + 1, k + 1, v.numerator, v.denominator]
                  for (i, j, k), v in c.entries.items() if j < k)
    with open(path, "w") as fh:
        json.dump({"dim": c.dim, "entries": rows}, fh)


def write_generators(path, gen):
    def enc(m):
        return [[[Fraction(x).numerator, Fraction(x).denominator] for x in row] for row in m]

    with open(path, "w") as fh:
        json.dump({"r": gen.r, "dim": gen.dim,
                   "S": [enc(m) for m in gen.S], "T": [enc(m) for m in gen.T]}, fh)


def swapped_s01(gen):
    """The negative control: S_0 and S_1 exchanged, T unchanged."""
    S = list(gen.S)
    S[0], S[1] = S[1], S[0]
    return birep.GeneratorSet(gen.r, gen.dim, S, list(gen.T))


def fails_with_witness(reports):
    return any(not rep.passed and rep.witness is not None for rep in reports)


def etc_fails_with_witness(gen, c):
    """Densities of a generator set on one site must fail the ETC check."""
    fields = fock.build_fields(gen.dim, 1)
    rep = etc.etc_verify(etc.charge_densities(fields, gen, c), c)
    return not rep.passed and fails_with_witness(rep.equations.values())


# --- exact-algebra ------------------------------------------------------------

class ExactAlgebra:
    """Everything before the Fock space: loops, Mal'tsev, tangent, GLC,
    envelope and closure, for m7 and an r=10 block sum read from JSON."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.oct_loop = loops.octonion_unit_loop()
        self.catalog = loops.group_catalog()
        signs = [int(s) for s in rng.choice([-1, 1], size=10)]
        m7 = algebra.catalog_algebra("m7")
        self.m7 = signed_tensor(m7, signs[:7])
        self.oct_gen = signed_generators(birep.octonion_lr_generators(), signs[:7])
        # every antisymmetric pair (i, j, k), j < k, scaled by 0, -1 or 2
        self.mutants = []
        for (i, j, k), v in sorted(self.m7.entries.items()):
            if j < k:
                factor = int(rng.choice([0, -1, 2]))
                ent = dict(self.m7.entries)
                ent[(i, j, k)] = factor * v
                ent[(i, k, j)] = -factor * v
                self.mutants.append(((i, j, k, factor), algebra.StructureTensor(7, ent)))
        self.tangent_exact = np.zeros((7, 7, 7))
        for key, v in m7.entries.items():
            self.tangent_exact[key] = float(v)
        h = float(rng.uniform(1e-3, 2e-3))
        self.steps = [4 * h, 2 * h, h]
        su2d = algebra.catalog_algebra("su2").scaled(2)
        self.r10 = signed_tensor(block_sum(m7, su2d), signs)
        self.r10_gen = signed_generators(
            block_generators(birep.octonion_lr_generators(),
                             birep.quaternion_lr_generators()), signs)
        self.r10_tensor_path = os.path.join(workdir, "r10_tensor.json")
        self.r10_gen_path = os.path.join(workdir, "r10_generators.json")
        write_tensor(self.r10_tensor_path, self.r10)
        write_generators(self.r10_gen_path, self.r10_gen)

    def round(self, t):
        t.expect("loop:octonion:moufang", loops.is_moufang(self.oct_loop).passed)
        t.expect("loop:octonion:nonassociative",
                 not loops.is_associative(self.oct_loop).passed)
        for name, group in self.catalog.items():
            t.expect(f"group:{name}:associative", loops.is_associative(group).passed)
            double = loops.chein_double(group)
            t.expect(f"chein:{name}:moufang", loops.is_moufang(double).passed)
            t.expect(f"chein:{name}:associative-iff-abelian",
                     loops.is_associative(double).passed == oracle.ABELIAN[name])

        t.expect("m7:maltsev", algebra.is_maltsev(self.m7).passed)
        lie = algebra.is_lie(self.m7)
        t.expect("m7:not-lie", not lie.passed and lie.witness is not None)
        for key, mutant in self.mutants:
            rep = algebra.is_maltsev(mutant)
            t.expect(f"m7-mutant{key}:not-maltsev", not rep.passed and rep.witness is not None)

        chart = loops.unit_octonion_chart()
        errs = [float(np.abs(loops.tangent_structure_constants(chart, h)
                             - self.tangent_exact).max()) for h in self.steps]
        t.expect("tangent:error", errs[-1] <= oracle.TANGENT_TOL)
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(self.steps[i] / self.steps[i + 1])
                  for i in range(len(errs) - 1)]
        t.expect("tangent:order", all(abs(o - oracle.TANGENT_ORDER) < 0.1 for o in orders))

        r10 = algebra.load_tensor(self.r10_tensor_path)
        r10_gen = birep.load_generators(self.r10_gen_path)
        for label, c, gen in (("m7", self.m7, self.oct_gen), ("r10", r10, r10_gen)):
            t.expect(f"{label}:glc", birep.check_glc(gen, c).passed)
            env = envelope.build_envelope(c)
            t.expect(f"{label}:jacobi", envelope.check_jacobi(env).passed)
            closure = envelope.matrix_closure_dim(gen)
            if label == "m7":
                t.expect("m7:closure", closure == oracle.SO8_DIM)
                t.expect("m7:envelope-dim", env.dim == oracle.SO8_DIM)
            else:
                lower = oracle.SO8_DIM + oracle.SO3_SO3_DIM
                t.expect("r10:closure", closure == lower)
                t.expect("r10:envelope-dim", lower <= env.dim <= env.dimension_bound)
            t.expect(f"{label}:realize", envelope.realize_check(env, gen, c).passed)

    def check(self):
        bad = []
        lie, maltsev = oracle.identities(self.m7, self.rng)
        if lie or not maltsev:
            bad.append("oracle:m7")
        lie, maltsev = oracle.identities(self.r10, self.rng)
        if lie or not maltsev:
            bad.append("oracle:r10")
        for key, mutant in self.mutants:
            if oracle.identities(mutant, self.rng)[1]:
                bad.append(f"oracle:m7-mutant{key}")
        perturbed = swapped_s01(self.oct_gen)
        if not fails_with_witness(birep.check_glc(perturbed, self.m7).families.values()):
            bad.append("negative:glc")
        if not etc_fails_with_witness(perturbed, self.m7):
            bad.append("negative:etc")
        return bad


# --- octonion-n2 --------------------------------------------------------------

def fano_lines(c):
    """Index triples closed under the bracket: the quaternionic lines of m7."""
    return [tri for tri in itertools.combinations(range(c.dim), 3)
            if all(i in tri for (i, j, k) in c.entries if j in tri and k in tri)]


def restrict(c, idx):
    pos = {p: q for q, p in enumerate(idx)}
    return algebra.StructureTensor(len(idx), {
        (pos[i], pos[j], pos[k]): v for (i, j, k), v in c.entries.items()
        if i in pos and j in pos and k in pos})


def overflow_probe():
    """Square a GQSparse whose one entry is 2^40: the answer is 2^80 exactly,
    or OverflowError.  A wrapped int64 product is a wrong answer."""
    m = sp.csr_matrix(([1 << 40], ([0], [0])), shape=(2, 2), dtype=np.int64)
    op = fock.GQSparse.from_int(m)
    try:
        sq = op @ op
    except OverflowError:
        return True
    if sq.im.nnz or sq.re.nnz != 1:
        return False
    return Fraction(int(sq.re[0, 0]), sq.den) == 1 << 80


class OctonionN2:
    """The Fock stages at two sites of eight modes (dimension 2^16), for the
    generators of one quaternionic line of the octonions."""

    MODES, SITES = 8, 2

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.rng = rng
        m7 = algebra.catalog_algebra("m7")
        lines = fano_lines(m7)
        chosen = lines[int(rng.integers(len(lines)))]
        line = [chosen[p] for p in rng.permutation(3)]
        signs = [int(s) for s in rng.choice([-1, 1], size=3)]
        oct_gen = birep.octonion_lr_generators()
        self.tensor = signed_tensor(restrict(m7, line), signs)
        self.gen = signed_generators(
            birep.GeneratorSet(3, 8, [oct_gen.S[p] for p in line],
                               [oct_gen.T[p] for p in line]), signs)
        self.tensor_path = os.path.join(workdir, "line_tensor.json")
        self.gen_path = os.path.join(workdir, "line_generators.json")
        write_tensor(self.tensor_path, self.tensor)
        write_generators(self.gen_path, self.gen)
        self.last = None

    def round(self, t):
        c = algebra.load_tensor(self.tensor_path)
        gen = birep.load_generators(self.gen_path)
        fields = fock.build_fields(self.MODES, self.SITES)
        t.expect("fock:dim", fields.fock.dim == 2 ** (self.MODES * self.SITES))
        t.expect("canonical-etc", fock.canonical_etc_check(fields).passed)
        dens = etc.charge_densities(fields, gen, c)
        rep = etc.etc_verify(dens, c)
        for eq in ETC_EQUATIONS:
            t.expect(f"etc:{eq}", eq in rep.equations and rep.equations[eq].passed)
        t.expect("locality", etc.locality_check(dens).passed)
        t.expect("charge-algebra", etc.charge_algebra_check(etc.charges(dens), c).passed)
        t.expect("overflow:2^40-squared", overflow_probe())
        self.last = dens

    def check(self):
        bad = []
        n = self.MODES
        full = oracle.jw_lowering(n * self.SITES)
        one = oracle.jw_lowering(n)
        ident = sp.identity(2 ** n, dtype=np.int64, format="csr")
        for _ in range(4):
            fam = "st"[int(self.rng.integers(2))]
            j = int(self.rng.integers(3))
            x = int(self.rng.integers(self.SITES))
            mat = (self.gen.S if fam == "s" else self.gen.T)[j]
            k = oracle.site_density_times_i(full, n, x, mat)
            local = oracle.site_density_times_i(one, n, 0, mat)
            embedded = sp.kron(local, ident) if x == 0 else sp.kron(ident, local)
            op = (self.last.s if fam == "s" else self.last.t)[j][x]
            if not oracle.program_density_is(op, k):
                bad.append(f"density:{fam}{j}@{x}")
            if not oracle.same_int(k, embedded):
                bad.append(f"site-local:{fam}{j}@{x}")
        return bad


# --- cli-session --------------------------------------------------------------

LEMMA_TRIALS = "15"

COMMANDS = (
    ("loop-check", "builtin:octonion-loop"),
    ("loop-check", "builtin:chein-s3"),
    ("maltsev", "builtin:m7"),
    ("envelope", "builtin:m7", "--oracle", "builtin:octonion"),
    ("etc", "builtin:octonion", "--sites", "1", "--trials", LEMMA_TRIALS),
    ("etc", "builtin:quaternion", "--sites", "2", "--trials", LEMMA_TRIALS),
    ("tangent",),
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv) + ["--format", "json"])
    return code, out.getvalue()


def _all_pass(results):
    return bool(results) and all(entry["pass"] for entry in results.values())


def expect_report(t, argv, code, text):
    """Known answers for one README command."""
    tag = " ".join(argv)
    t.expect(f"{tag}:exit", code == 0)
    try:
        rep = json.loads(text)
    except ValueError:
        t.expect(f"{tag}:json", False)
        return
    res = rep.get("results", {})
    cmd = argv[0]
    if cmd == "loop-check":
        t.expect(f"{tag}:moufang", res["moufang"]["pass"])
        t.expect(f"{tag}:nonassociative", not res["associative"]["pass"])
        t.expect(f"{tag}:order", rep["order"] == (16 if "octonion" in argv[1] else 12))
    elif cmd == "maltsev":
        t.expect(f"{tag}:maltsev", res["maltsev"]["pass"])
        t.expect(f"{tag}:not-lie", not res["lie"]["pass"] and res["lie"]["witness"])
    elif cmd == "envelope":
        t.expect(f"{tag}:dim", rep["envelope"]["dimension"] == oracle.SO8_DIM)
        t.expect(f"{tag}:closure", rep["oracle"]["matrix_closure_dim"] == oracle.SO8_DIM)
        t.expect(f"{tag}:jacobi", res["jacobi"]["pass"])
        t.expect(f"{tag}:glc", _all_pass(rep["oracle"]["glc"]))
        t.expect(f"{tag}:realize", rep["oracle"]["realize"]["pass"])
    elif cmd == "etc":
        want = {f"eq-{e}" if e.isdigit() else e for e in ETC_EQUATIONS}
        want |= {"canonical", "theorem", "bilinear-lemma"}
        if argv[argv.index("--sites") + 1] != "1":
            want.add("locality")
        t.expect(f"{tag}:families", set(res) == want)
        t.expect(f"{tag}:all-pass", _all_pass(res))
    elif cmd == "tangent":
        t.expect(f"{tag}:error", rep["max_abs_error"] <= oracle.TANGENT_TOL)


class CliSession:
    """The README's commands through `cli.main` in one process, JSON output."""

    # at least two rounds, so that every report can be compared with its repeat
    min_rounds = 2

    def __init__(self, seed, workdir):
        os.environ["MNL_SEED"] = str(seed)
        self.perturbed_path = os.path.join(workdir, "perturbed_generators.json")
        write_generators(self.perturbed_path, swapped_s01(birep.octonion_lr_generators()))
        self.reports = []      # one list of report texts per round
        self.report_bytes = 0

    def round(self, t):
        reports = []
        for argv in COMMANDS:
            code, text = run_cli(argv)
            expect_report(t, argv, code, text)
            reports.append(text)
        self.reports.append(reports)
        self.report_bytes = sum(len(text.encode()) for text in reports)

    def check(self):
        first = self.reports[0]
        bad = sorted({" ".join(argv) + ":repeat" for later in self.reports[1:]
                      for argv, a, b in zip(COMMANDS, first, later) if a != b})
        code, text = run_cli(("envelope", "builtin:m7", "--oracle", self.perturbed_path))
        glc = json.loads(text)["oracle"]["glc"] if code == 1 else {}
        if not any(not e["pass"] and e["witness"] for e in glc.values()):
            bad.append("negative:glc")
        code, text = run_cli(("etc", self.perturbed_path, "--tensor", "builtin:m7",
                              "--sites", "1", "--trials", "1"))
        res = json.loads(text)["results"] if code == 1 else {}
        if not any(not e["pass"] and e["witness"] for e in res.values()):
            bad.append("negative:etc")
        return bad


def keep_fock_spaces_alive():
    """Hold every FockOps the program builds until the process ends.

    `etc` caches site products under id(fock) and never evicts them; once a
    Fock space is freed, a later one can receive the same id and silently reuse
    the earlier products.  Keeping them referenced makes every round do the
    same work, so per-round counts repeat exactly."""
    kept = []
    build = fock.build_fock

    def build_and_keep(*args, **kwargs):
        ops = build(*args, **kwargs)
        kept.append(ops)
        return ops

    fock.build_fock = build_and_keep


WORKLOADS = {
    "exact-algebra": ExactAlgebra,
    "octonion-n2": OctonionN2,
    "cli-session": CliSession,
}
