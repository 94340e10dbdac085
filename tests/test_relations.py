"""Golden reports for the generalized Lie-Cartan relations in every
realization: generator matrices (`check_glc`), the envelope map
(`realize_check`), lattice densities (`etc_verify`) and integrated charges
(`charge_algebra_check`); the relation kernel's anticommutator terms; and
its ledger, which names factors up to a unit phase.

The generator sets below break the relations, so every family reports the
first case that fails; each witness pins the order in which the cases are
walked as well as the verdict."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from mnl.birep import GeneratorSet, check_glc
from mnl.envelope import build_envelope, realize_check
from mnl.etc import (ChargeDensitySet, charge_algebra_check, charge_densities, charges,
                     etc_verify, locality_check)
from mnl import relations
from mnl.fock import GQSparse, SiteOp, _states, build_fields, build_fock
from mnl.relations import Ledger, RelationKernel
from mnl.report import BoundError, InputError

BOTH_FAIL = "as printed [t,s]: fail; as [t,t]: fail"


def swapped_s01(gen):
    S = list(gen.S)
    S[0], S[1] = S[1], S[0]
    return GeneratorSet(gen.r, gen.dim, S, list(gen.T))


def bumped_t0(gen):
    T = [[list(row) for row in m] for m in gen.T]
    T[0][1][2] += 1
    return GeneratorSet(gen.r, gen.dim, list(gen.S), T)


def witnesses(families):
    return {name: rep.witness for name, rep in families.items()}


@pytest.fixture(scope="module")
def swapped_oct(oct_gen):
    return swapped_s01(oct_gen)


@pytest.fixture(scope="module")
def bumped_quat(quat_gen):
    return bumped_t0(quat_gen)


@pytest.fixture(scope="module")
def swapped_oct_dens(swapped_oct, m7):
    return charge_densities(build_fields(8, 1), swapped_oct, m7)


@pytest.fixture(scope="module")
def bumped_quat_dens(bumped_quat, su2_doubled):
    return charge_densities(build_fields(4, 2), bumped_quat, su2_doubled)


# --- generator matrices -------------------------------------------------

def test_glc_swapped_octonion(swapped_oct, m7):
    assert witnesses(check_glc(swapped_oct, m7).families) == {
        "ss": (0, 0), "tt": (0, 0), "y_antisymmetry": (0, 0), "y_cyclic": (0, 2, 3),
        "reductivity_s": ("S", 0, 0, 0), "reductivity_t": ("T", 0, 0, 0),
        "yy": (0, 1, 0, 1)}


def test_glc_bumped_quaternion(bumped_quat, su2_doubled):
    assert witnesses(check_glc(bumped_quat, su2_doubled).families) == {
        "ss": (0, 0), "tt": (0, 0), "y_antisymmetry": (0, 0), "y_cyclic": (0, 1, 2),
        "reductivity_s": ("S", 0, 0, 0), "reductivity_t": ("T", 0, 0, 1),
        "yy": (0, 1, 0, 1)}


# --- the envelope map ---------------------------------------------------

def test_realize_swapped_octonion(swapped_oct, m7):
    rep = realize_check(build_envelope(m7), swapped_oct, m7)
    assert not rep.passed and rep.witness == ("expand", 0, 1)


def test_realize_bumped_quaternion(bumped_quat, su2_doubled):
    rep = realize_check(build_envelope(su2_doubled), bumped_quat, su2_doubled)
    assert not rep.passed and rep.witness == (("S", 0), ("T", 0))


def test_envelope_table_m7_digest(m7):
    text = json.dumps(build_envelope(m7).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "4f38bdf012ed829f169d154b3bd2a8430fa353b83f4b2e1e66ca1033b28f7ecd"


# --- densities ----------------------------------------------------------

def test_etc_swapped_octonion_one_site(swapped_oct_dens, m7):
    rep = etc_verify(swapped_oct_dens, m7)
    assert witnesses(rep.equations) == {
        "1": (0, 1, 0, 0), "2": (0, 0, 0, 0), "3": ("both readings fail",),
        "4": (0, 0, 0), "5": (0, 1, 3, 0), "6": (0, 1, 0, 0, 0), "7": (0, 1, 0, 0, 0),
        "8": (0, 1, 0, 2, 0, 0), "assoc-s": (0, 0, 0, 0), "assoc-t": (0, 0, 0, 0),
        "symmetry": (0, 0, 0, 0)}
    assert rep.equations["3"].detail == BOTH_FAIL
    assert not any(rep.equations[name].passed for name in rep.equations)


def test_etc_bumped_quaternion_two_sites(bumped_quat_dens, su2_doubled):
    rep = etc_verify(bumped_quat_dens, su2_doubled)
    assert witnesses(rep.equations) == {
        "1": None, "2": (0, 0, 0, 0), "3": ("both readings fail",), "4": (0, 0, 0),
        "5": None, "6": (1, 2, 0, 0, 0), "7": (0, 1, 0, 0, 0), "8": (0, 1, 0, 2, 0, 0),
        "assoc-s": (0, 0, 0, 0), "assoc-t": (0, 0, 0, 0), "symmetry": (0, 0, 0, 0)}
    assert rep.equations["1"].passed and rep.equations["5"].passed
    assert rep.equations["3"].detail == BOTH_FAIL


# --- integrated charges -------------------------------------------------

def test_charge_algebra_swapped_octonion(swapped_oct_dens, m7):
    rep = charge_algebra_check(charges(swapped_oct_dens), m7)
    assert not rep.passed and rep.witness == ("st", 0, 0)


def test_charge_algebra_bumped_quaternion(bumped_quat_dens, su2_doubled):
    rep = charge_algebra_check(charges(bumped_quat_dens), su2_doubled)
    assert not rep.passed and rep.witness == ("st", 0, 0)


# --- anticommutator terms of the relation kernel ------------------------

def test_kernel_anticommutator_is_pq_plus_qp():
    f = build_fock(2, 1)
    P = f.a[0].plus([(Fraction(1, 2), f.adag[0]), (Fraction(1, 2), f.adag[1].times_i())])
    Q = f.adag[0].scale(Fraction(-2, 3)).plus([(1, f.a[1])])
    ops = [P, Q, P @ Q + Q @ P, P @ P + P @ P, Q @ P]
    cases = [
        [("a", 1, 0, 1), ("o", -1, 2)],                     # {P, Q} = PQ + QP
        [("a", Fraction(3, 2), 1, 0), ("o", Fraction(-3, 2), 2)],
        [("a", 1, 0, 0), ("o", -1, 3)],                     # a == b is not skipped
        [("a", 1, 0, 1), ("c", -1, 0, 1), ("o", -2, 4)],    # {P, Q} - [P, Q] = 2 QP
        [("a", 1, 0, 0)],
        [("a", 1, 0, 1), ("o", 1, 2)],
        [("a", 1, 0, 1)],
    ]
    assert list(RelationKernel(ops).fails(cases)) == [False] * 4 + [True] * 3
    # the ladder's CAR: {a_0, a_0^dag} = I, {a_0, a_1^dag} = 0, {a_0, a_0} = 0
    ladder = RelationKernel([f.a[0], f.adag[0], f.adag[1], GQSparse.identity(4)])
    assert list(ladder.fails([[("a", 1, 0, 1), ("o", -1, 3)], [("a", 1, 0, 2)],
                              [("a", 1, 0, 0)], [("a", 1, 0, 1)]])) == [False, False, False, True]


def test_kernel_anticommutator_bound():
    def diag(v):
        return GQSparse.from_int(sp.csr_matrix(([v], ([0], [0])), shape=(2, 2), dtype=np.int64))
    # {P, P} = 2 P^2: 2^61 at 2^30 is below the bound; 2^63 at 2^31 would wrap
    assert list(RelationKernel([diag(1 << 30)]).fails([[("a", 1, 0, 0)]])) == [True]
    with pytest.raises(OverflowError):
        RelationKernel([diag(1 << 31)]).fails([[("a", 1, 0, 0)]])
    with pytest.raises(OverflowError):
        RelationKernel([diag(1 << 30), diag(1 << 31)]).fails([[("a", 1, 0, 1)]])


def test_kernel_anticommutator_needs_one_site():
    f = build_fock(1, 1)
    ops = [SiteOp(2, 2, {0: f.a[0], 1: f.a[0]}), SiteOp(2, 2, {1: f.adag[0]})]
    with pytest.raises(InputError):
        RelationKernel(ops).fails([[("a", 1, 0, 1)]])
    assert list(RelationKernel(ops).fails([[("c", 1, 0, 1)]])) == [True]



def test_kernel_bound_is_exact_at_the_edge():
    # 2 (2^61 - 1) = 2^62 - 2 is below the bound and 2 * 2^61 is not, though
    # both round to 2^62 in float64
    one = RelationKernel([GQSparse.identity(2)])
    assert list(one.fails([[("o", (1 << 61) - 1, 0), ("o", 1 - (1 << 61), 0)]])) == [False]
    assert list(one.fails([[("o", (1 << 62) - 1, 0)]])) == [True]
    for case in ([("o", 1 << 61, 0), ("o", -(1 << 61), 0)], [("o", 1 << 62, 0)],
                 [("o", (1 << 64, 3), 0)]):
        with pytest.raises(BoundError):
            one.fails([case])


KERNEL_SITE_DIM = 4


@st.composite
def straddling_rows(draw):
    """Operators and rows whose bounds straddle 2^62: two factors with
    entries up to 3 * 2^20, and their products by i^k, either as plain
    operators (every term kind) or as SiteOps on 2 or 3 sites that hold one
    factor object at every site (commutators, o and i terms); coefficients
    up to 2^22 over denominators up to 4, written as ints, Fractions or
    unreduced (p, r) pairs, zero at times; [a, a] terms; rows whose first
    terms tie but for their phase; and most rows with their negation, so
    that they hold."""
    def big():
        parts = [np.array(draw(st.lists(st.integers(-3, 3), min_size=16, max_size=16)),
                          dtype=np.int64).reshape(4, 4) << draw(st.integers(0, 20))
                 for _ in range(2)]
        return GQSparse(KERNEL_SITE_DIM, *map(sp.csr_matrix, parts), draw(st.integers(1, 3)))
    X, Y = (draw(st.builds(big).filter(lambda f: f.nnz)) for _ in range(2))
    sites, chained = draw(st.sampled_from([1, 2, 3])), draw(st.booleans())

    def build():
        # the operators and the ledger to hand their kernel, made anew on
        # each call: i X and -Y built apart, or i X, -Y and -i X by chains
        # of minus_i on that ledger, so that X's class is met at phases 1
        # and 3 and Y's at 2
        ledger, identity = Ledger(), GQSparse.identity(KERNEL_SITE_DIM)
        if chained:
            iX, minus_Y = minus_i_chain(ledger, X)[3], minus_i_chain(ledger, Y)[2]
            base = [X, iX, Y, minus_Y, identity, ledger.minus_i(X)]
        else:
            base = [X, X.times_i(), Y, Y.scale(-1), identity]
        if sites == 1:
            return base, ledger
        return ([SiteOp(sites, KERNEL_SITE_DIM, dict.fromkeys(range(sites), f)) for f in base]
                + [SiteOp(sites, KERNEL_SITE_DIM, {0: Y})]), ledger
    ops, kinds = build()[0], "caoi" if sites == 1 else "coi"

    def coefficient():
        p = draw(st.integers(-(1 << 22), 1 << 22) if draw(st.booleans())
                 else st.integers(-8, 8))
        r, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        return draw(st.sampled_from([p, Fraction(p, r), (p * m, r * m)]))
    index = st.integers(0, len(ops) - 1)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = []
        for _ in range(draw(st.integers(1, 4))):
            kind, a = draw(st.sampled_from(kinds)), draw(index)
            row.append((kind, coefficient(), a, draw(index)) if kind in "ca" else
                       (kind, coefficient(), a))
        rows.append(row)
    q = coefficient()
    rows += [[("o", q, 0), ("o", q, 1)], [("c", q, 0, 2), ("c", q, 1, 2)], [("c", q, 3, 3)]]
    # most rows cancel, as their terms and their negations (q [b, a] for
    # q [a, b]), so that they hold
    rows = [row + [("c", q, *idx[::-1]) if kind == "c" else
                   (kind, -Fraction(*q) if isinstance(q, tuple) else -q, *idx)
                   for kind, q, *idx in row]
            if draw(st.integers(0, 4)) else row for row in rows]
    return build, draw(st.permutations(rows))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(straddling_rows())
def test_array_kernel_equals_the_case_by_case_walk(drawn):
    # verdicts, witnesses and BoundError, including a failure before the
    # first case out of bound
    build, rows = drawn
    ops, ledger = build()
    walk = [((k,), *row) for k, row in enumerate(rows)]

    def run(check):
        try:
            return check().to_dict()
        except BoundError:
            return "BoundError"
    kernel = RelationKernel(ops, ledger)
    assert run(lambda: kernel.first_failure("rows", walk)) == \
        run(lambda: oracles.kernel_walk(ops, "rows", walk))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(straddling_rows(), st.data())
def test_a_walk_set_equals_its_walks_one_by_one(drawn, data):
    # walks of the drawn rows, a row at times in several walks or twice in
    # one, the failing walks (or those out of bound) before the passing
    # ones: one call gives each walk's report, BoundError at the same walk,
    # and leaves the memo holding the keys that the walks made one after
    # another leave.  A small CHUNK, BUDGET and window (_BLOCK // CHUNK
    # terms) split the windows and chunks inside walks and between them, a
    # failing walk at times still open at a window's end.  The chunks are
    # those of the walks made one by one, each in one window, and at the
    # default BUDGET the reports are those of the case-by-case walk
    build, rows = drawn
    ops = build()[0]
    picks = st.lists(st.integers(0, len(rows) - 1), max_size=8)
    walks = [[((w, k), *rows[i]) for k, i in enumerate(walk)]
             for w, walk in enumerate(data.draw(st.lists(picks, min_size=1, max_size=5)))]
    with pytest.MonkeyPatch.context() as mp:
        chunk = data.draw(st.sampled_from([1, 2, 3, 64]))
        budget = data.draw(st.sampled_from([1, 40, 150, relations.BUDGET]))
        oracle = budget == relations.BUDGET
        for module in (relations, oracles):
            mp.setattr(module, "CHUNK", chunk)
        mp.setattr(relations, "BUDGET", budget)
        mp.setattr(relations, "_BLOCK", chunk << 20)    # each walk in one window

        def passes(walk):
            try:
                return RelationKernel(*build()).first_failure("w", walk).passed
            except BoundError:
                return False
        walks = sorted(walks, key=passes)

        def kernel():
            # the coefficients numbered alike on both ledgers, as keys hold
            # those numbers
            out = RelationKernel(*build())
            for walk in walks:
                for _, *case in walk:
                    out.weight(case)
            return out

        sizes, fails = [], RelationKernel._fails    # the cases of each chunk decided
        mp.setattr(RelationKernel, "_fails",
                   lambda k, plan, lo, hi: sizes.append(hi - lo) or fails(k, plan, lo, hi))

        def run(check, kernel=None):
            sizes.clear()
            try:
                out = [rep.to_dict() for rep in check(kernel)]
            except BoundError:
                out = "BoundError"
            return out, kernel and dict(kernel.memo), list(sizes)

        def one_by_one(kernel):
            return [kernel.first_failure(str(w), walk) for w, walk in enumerate(walks)]
        whole = run(one_by_one, kernel())
        mp.setattr(relations, "_BLOCK", chunk * data.draw(st.sampled_from([1, 3, 8, 256])))
        together = run(lambda k: k.first_failures([(str(w), walk)
                                                   for w, walk in enumerate(walks)]), kernel())
        assert together == run(one_by_one, kernel()) == whole
        if oracle:
            assert together[0] == run(lambda _: [oracles.kernel_walk(ops, str(w), walk)
                                                 for w, walk in enumerate(walks)])[0]


# --- the ledger: factors up to a unit phase ------------------------------

def times_i(op, k):
    for _ in range(k):
        op = op.times_i()
    return op


def minus_i_chain(ledger, op):
    """op, -i op, -op and i op, each from the one before by `ledger.minus_i`."""
    chain = [op]
    for _ in range(3):
        chain.append(ledger.minus_i(chain[-1]))
    return chain


def test_ledger_interns_each_factor_up_to_a_unit_phase():
    # a and the -i a, -a and i a that minus_i makes from it are one class at
    # phases 0, 3, 2 and 1; an operator equal to -i a but built apart, and
    # a^dag, are classes of their own
    f = build_fock(2, 1)
    ledger = Ledger()
    chain = minus_i_chain(ledger, f.a[0])
    assert [ledger.intern(op) for op in chain] == [(0, 0), (0, 3), (0, 2), (0, 1)]
    assert ledger.minus_i(f.a[0]) is chain[1] and ledger.intern(ledger.minus_i(chain[3])) == (0, 0)
    assert ledger.intern(f.adag[0]) == (1, 0)
    assert ledger.intern(ledger.minus_i(f.adag[0])) == (1, 3)
    apart = times_i(f.a[0], 3)
    assert apart == chain[1] and ledger.intern(apart) == (2, 0)
    assert len(ledger.factors) == 3


def test_kernel_anticommutators_at_every_phase():
    # {i^k a_0, i^j a_0^dag} = i^(k+j) I, and {i^k a_0, i^j a_0} = 0, with
    # i^k op from minus_i chains; i a_0 built apart is a class of its own
    f = build_fock(2, 1)
    ledger = Ledger()
    ops = [chain[-k] for op in (f.a[0], f.adag[0], GQSparse.identity(4))
           for chain in [minus_i_chain(ledger, op)] for k in range(4)]
    cases, want = [], []
    for k in range(4):
        for j in range(4):
            cases += [[("a", 1, k, 4 + j), ("o", -1, 8 + (k + j) % 4)],
                      [("a", 1, k, 4 + j), ("o", 1, 8 + (k + j) % 4)], [("a", 1, k, j)]]
            want += [False, True, False]
    kernel = RelationKernel(ops, ledger)
    assert list(kernel.fails(cases)) == want
    assert len(kernel.ledger.factors) == 3
    apart = RelationKernel([times_i(f.a[0], 1), ops[4], ops[9]], ledger)
    assert list(apart.fails([[("a", 1, 0, 1), ("o", -1, 2)], [("a", 1, 0, 1), ("o", 1, 2)]])) \
        == [False, True]
    assert apart.classes == [3, 1, 2] and len(ledger.factors) == 4


def turns(draw, sites):
    """Drawn powers of i, per density label and site, at times one density
    drawn to stand, times i^k, in place of another, and whether the powers
    are chains of the ledger's minus_i."""
    powers = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=sites, max_size=sites)
    labels = [("s", j) for j in range(3)] + [("t", j) for j in range(3)] + \
        [("Y", j) for j in range(3)]
    return {label: draw(powers) for label in labels}, \
        draw(st.none() | st.tuples(st.sampled_from(labels), st.sampled_from(labels),
                                   st.integers(0, 3))), draw(st.booleans())


@st.composite
def turned_densities(draw):
    """The quaternion generators at 1 or 2 sites, or with S_0 and S_1
    swapped: every density at every site times a drawn power of i, and at
    times one density times i^k in place of another."""
    sites = draw(st.sampled_from([1, 2]))
    return ("quaternion", sites, draw(st.booleans()), *turns(draw, sites))


@st.composite
def sector_densities(draw):
    """`turned_densities` of the quaternion generators or of the octonion
    line, at 1-3 sites."""
    case, sites = draw(st.sampled_from(["quaternion", "octonion-line"])), draw(st.integers(1, 3))
    return (case, sites, draw(st.booleans()), *turns(draw, sites))


def turned(drawn, quat_gen, su2_doubled, oct_gen, m7, sector=False):
    """The densities of a drawn case, turned, as a hand-built set on a fresh
    ledger: of the sector `charge_densities` gives them, or of the whole
    space.  i^k F is built apart, or by a chain of the ledger's minus_i, so
    that F's class is met at phase k; a density in place of another is
    built apart."""
    case, sites, swap, powers, copy, chained = drawn
    gen, c = (quat_gen, su2_doubled) if case == "quaternion" else \
        oracles.quaternionic_line(oct_gen, m7)
    gen = swapped_s01(gen) if swap else gen
    dens = charge_densities(build_fields(gen.dim, sites), gen, c)
    ledger = Ledger(dens.ledger.sector if sector else None)
    rows = {"s": [list(row) for row in dens.s], "t": [list(row) for row in dens.t],
            "Y": [list(row) for row in dens.Y.values()]}
    if copy:
        (fa, ja), (fb, jb), k = copy
        rows[fa][ja] = [times_i(op, k) for op in rows[fb][jb]]

    def turn(f, k):
        return minus_i_chain(ledger, f)[-k] if chained and k else times_i(f, k)
    for (family, j), power in powers.items():
        rows[family][j] = [SiteOp(sites, op.site_dim, {x: turn(f, power[x])
                                                       for x, f in op.factors.items()})
                           for op in rows[family][j]]
    return ChargeDensitySet(3, sites, rows["s"], rows["t"], dict(zip(dens.Y, rows["Y"])), c,
                            ledger), c


def reports_and_walk(dens, c):
    """The reports of the kernel, in the order of `mnl etc` on one ledger,
    and of the oracles' case-by-case walk on the same operators."""
    return ([etc_verify(dens).to_dict(), locality_check(dens).to_dict(),
             charge_algebra_check(charges(dens), c).to_dict()],
            [oracles.etc_verify(dens).to_dict(), oracles.locality_check(dens).to_dict(),
             oracles.charge_algebra_check(charges(dens), c).to_dict()])


TURN_SETTINGS = settings(max_examples=15, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.function_scoped_fixture])


@TURN_SETTINGS
@given(drawn=turned_densities())
def test_kernel_on_densities_times_powers_of_i_equals_the_walk(drawn, quat_gen, su2_doubled,
                                                               oct_gen, m7):
    kernel, walk = reports_and_walk(*turned(drawn, quat_gen, su2_doubled, oct_gen, m7))
    assert kernel == walk


@TURN_SETTINGS
@given(drawn=sector_densities())
def test_sector_verdicts_equal_the_full_space_walk(drawn, quat_gen, su2_doubled, oct_gen, m7):
    # every density is a bilinear times a unit phase, so deciding its
    # residuals on the states of at most two particles of a site gives the
    # walk's reports on the whole space of the site
    dens, c = turned(drawn, quat_gen, su2_doubled, oct_gen, m7, sector=True)
    kernel, walk = reports_and_walk(dens, c)
    assert kernel == walk and dens.ledger.sector is not None


# --- the sector's guards ---------------------------------------------------

def test_sector_takes_only_number_conserving_factors():
    # 3 modes: the sector leaves out the one state of three particles
    f = build_fock(3, 1)
    hop, number = f.adag[0] @ f.a[1], f.adag[0] @ f.a[0]
    ledger = Ledger(_states(3, 2))
    assert ledger.intern(number) == (0, 0) and len(ledger.parts[0][0][2]) == 7 + 1
    # 4 entries on the whole space, at 100, 101, 110 and 111; 3 on the sector
    assert number.nnz == 4 and ledger.entries == [3] and ledger.counts == [1]
    assert ledger.intern(hop) == (1, 0)
    for op in (f.a[0], f.adag[1], hop + f.a[0] @ f.a[1]):
        with pytest.raises(InputError):
            ledger.intern(op)
    with pytest.raises(InputError):
        RelationKernel([hop, f.a[0]], Ledger(_states(3, 2)))
    # a full-space ledger takes any factor
    assert list(RelationKernel([f.a[0], f.adag[0], GQSparse.identity(8)]).fails(
        [[("a", 1, 0, 1), ("o", -1, 2)]])) == [False]


def test_sector_is_of_one_sites_modes():
    f = build_fock(3, 1)
    hop = f.adag[0] @ f.a[1]
    for modes in (2, 4):
        with pytest.raises(InputError):
            RelationKernel([hop], Ledger(_states(modes, 2)))
        with pytest.raises(InputError):
            RelationKernel([SiteOp(2, 8, {0: hop, 1: hop})], Ledger(_states(modes, 2)))
    kernel = RelationKernel([SiteOp(2, 8, {0: hop, 1: hop})], Ledger(_states(3, 2)))
    assert kernel.classes == [0] and kernel.d == 7


def test_swapped_octonion_theorem_after_etc_verify(swapped_oct, m7):
    # one density set, checked in the order of `mnl etc`: the theorem reads
    # the ledger that etc_verify filled and keeps its pinned witness
    dens = charge_densities(build_fields(8, 1), swapped_oct, m7)
    assert not etc_verify(dens, m7).passed
    rep = charge_algebra_check(charges(dens), m7)
    assert not rep.passed and rep.witness == ("st", 0, 0)
    cold = charge_densities(build_fields(8, 1), swapped_oct, m7)
    assert rep.to_dict() == charge_algebra_check(charges(cold), m7).to_dict()
