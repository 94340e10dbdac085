"""Finite loops as Cayley tables, loop constructions, and numeric extraction
of tangent structure constants from an analytic chart of the unit octonions.

Everything here except `tangent_structure_constants` (and the charts it
consumes) is exact integer table arithmetic; the charts are the one place in
the package where floating point is allowed.

Each table scan is integer-array indexing into `CayleyTable.array`. The
triple scans (`is_moufang`, `is_associative`) decide a slab of their outer
index at a time, SLAB // n^2 values of it and at least one (so about 2^16
triples, n^2 when n^2 > SLAB), and return the first failing triple in the
order of the triple loop, as Python ints. A chart's `multiply` and `invert`
act on the last axis of stacks of points (see `ParamLoopChart`), so the
4r^2 commutators of one step of the tangent sweep are one batched chain of
chart calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .algebra import OCTONIONS, QUATERNIONS, cayley_dickson
from .report import CheckReport, InputError, fail, is_int, ok


@dataclass(frozen=True)
class CayleyTable:
    """Finite magma with distinguished unit at index 0; row = left factor."""

    order: int
    table: Tuple[Tuple[int, ...], ...]
    names: Optional[Tuple[str, ...]] = None
    array: np.ndarray = field(init=False, repr=False, compare=False)   # the table, (n, n) ints

    def __post_init__(self):
        n = self.order
        if not is_int(n) or n <= 0:
            raise InputError("order must be a positive integer")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InputError("table shape does not match order")
        entries = [v for row in self.table for v in row]
        if set(map(type, entries)) != {int} or min(entries) < 0 or max(entries) >= n:
            for v in entries:    # name the first bad entry
                if not (is_int(v) and 0 <= v < n):
                    raise InputError(f"table entry {v!r} "
                                     + ("out of range" if is_int(v) else "must be an integer"))
        if self.names is not None and len(self.names) != n:
            raise InputError("names length does not match order")
        object.__setattr__(self, "array", np.array(self.table, dtype=np.intp))
        self.array.flags.writeable = False

    def mul(self, g, h):
        return self.table[g][h]

    def index(self, name):
        if self.names is None:
            raise InputError("table has no element names")
        if name not in self.names:
            raise InputError(f"table has no element named {name!r}")
        return self.names.index(name)

    def right_inverse(self, g):
        """The first x with g*x = 0, if any."""
        hits = np.flatnonzero(self.array[g] == 0)
        return int(hits[0]) if hits.size else None

    def to_json_dict(self):
        d = {"order": self.order, "table": [list(r) for r in self.table]}
        if self.names is not None:
            d["names"] = list(self.names)
        return d

    @staticmethod
    def from_json_dict(data) -> "CayleyTable":
        if not isinstance(data, dict) or "order" not in data or "table" not in data:
            raise InputError("Cayley table JSON needs 'order' and 'table'")
        names = data.get("names")
        if not (isinstance(data["table"], list)
                and all(isinstance(row, list) for row in data["table"])):
            raise InputError("'table' must be a list of rows")
        if names is not None and not isinstance(names, list):
            raise InputError("'names' must be a list")
        return CayleyTable(
            data["order"],
            tuple(tuple(row) for row in data["table"]),
            tuple(names) if names is not None else None,
        )


SLAB = 1 << 16     # triples a triple scan decides at once, about


def _first_triple(n, fails):
    """The first (x, y, z) in lexicographic order, as Python ints, at which
    fails(xs) (an (len(xs), n, n) bool array for the outer indices xs) holds,
    a slab of outer indices at a time; None if there is none."""
    width = max(1, SLAB // (n * n))
    for lo in range(0, n, width):
        bad = fails(np.arange(lo, min(lo + width, n))[:, None, None])
        if bad.any():
            x, y, z = np.unravel_index(int(bad.argmax()), bad.shape)
            return lo + int(x), int(y), int(z)
    return None


def is_quasigroup(t: CayleyTable) -> CheckReport:
    """Latin-square scan; witness names the offending row or column."""
    full = np.arange(t.order)
    for kind, lines in (("row", t.array), ("column", t.array.T)):
        bad = np.flatnonzero((np.sort(lines, axis=1) != full).any(axis=1))
        if bad.size:
            return fail("quasigroup", witness=(kind, int(bad[0])))
    return ok("quasigroup")


def has_unit(t: CayleyTable) -> CheckReport:
    full = np.arange(t.order)
    bad = np.flatnonzero((t.array[0] != full) | (t.array[:, 0] != full))
    return fail("unit", witness=(int(bad[0]),)) if bad.size else ok("unit")


def is_moufang(t: CayleyTable) -> CheckReport:
    """(ag)(ha) = (a(gh))a for all triples (a, g, h), plus two-sided inverses."""
    if not is_quasigroup(t).passed or not has_unit(t).passed:
        raise InputError("is_moufang requires a quasigroup with unit 0")
    T, n = t.array, t.order
    g, h = np.arange(n)[:, None], np.arange(n)
    bad = np.flatnonzero(T[(T == 0).argmax(axis=1), h] != 0)    # (h's right inverse) h != 0
    if bad.size:
        return fail("moufang", witness=(int(bad[0]),), detail="no two-sided inverse")
    witness = _first_triple(n, lambda a: T[T[a, g], T[h, a]] != T[T[a, T], a])
    return fail("moufang", witness=witness) if witness else ok("moufang")


def is_associative(t: CayleyTable) -> CheckReport:
    T, n = t.array, t.order
    h, a = np.arange(n)[:, None], np.arange(n)
    witness = _first_triple(n, lambda g: T[T[g, h], a] != T[g, T])
    return fail("associative", witness=witness) if witness else ok("associative")


def loop_commutator(t: CayleyTable, g, h):
    """((g*h)*g^-1)*h^-1, left-bracketed by convention."""
    gi = t.right_inverse(g)
    hi = t.right_inverse(h)
    if gi is None or hi is None:
        raise InputError("element without right inverse")
    return t.table[t.table[t.table[g][h]][gi]][hi]


def is_group(t: CayleyTable) -> bool:
    return is_quasigroup(t).passed and has_unit(t).passed and is_associative(t).passed


def chein_double(g: CayleyTable) -> CayleyTable:
    """Order-2n Moufang loop M(G,2) on G u Gu:
    g*h = gh, g*(hu) = (hg)u, (gu)*h = (gh^-1)u, (gu)*(hu) = h^-1 g."""
    if not is_group(g):
        raise InputError("chein_double needs a group table")
    T, n = g.array, g.order
    inv = (T == 0).argmax(axis=1)
    table = np.block([[T, T.T + n], [T[:, inv] + n, T[inv].T]])
    names = None
    if g.names is not None:
        names = tuple(g.names) + tuple(f"{nm}u" for nm in g.names)
    return CayleyTable(2 * n, tuple(map(tuple, table.tolist())), names)


def signed_unit_loop(table) -> CayleyTable:
    """The loop of the signed units +-e_a of a signed unit table (see
    `algebra.cayley_dickson`): +e_a is element a and -e_a element k + a, for
    k units, named "1", "e1", .., "-1", "-e1", .."""
    k = len(table)
    n = 2 * k

    def mul(g, h):
        idx, sign = table[g % k][h % k]
        return idx if sign * (-1) ** (g // k + h // k) > 0 else k + idx

    labels = ["1"] + [f"e{a}" for a in range(1, k)]
    rows = tuple(tuple(mul(g, h) for h in range(n)) for g in range(n))
    return CayleyTable(n, rows, tuple(labels) + tuple("-" + l for l in labels))


def octonion_unit_loop() -> CayleyTable:
    """The order-16 loop {+-1, +-e1..+-e7} of basis octonions."""
    return signed_unit_loop(cayley_dickson(OCTONIONS))


def quaternion_group() -> CayleyTable:
    """Q8 as the loop {+-1, +-e1, +-e2, +-e3} of basis quaternions."""
    return signed_unit_loop(cayley_dickson(QUATERNIONS))


def cyclic_group(n: int) -> CayleyTable:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return CayleyTable(n, table, tuple(str(a) for a in range(n)))


def direct_product(s: CayleyTable, t: CayleyTable) -> CayleyTable:
    n, m = s.order, t.order

    def idx(a, b):
        return a * m + b

    table = [[0] * (n * m) for _ in range(n * m)]
    for a in range(n):
        for b in range(m):
            for c in range(n):
                for d in range(m):
                    table[idx(a, b)][idx(c, d)] = idx(s.table[a][c], t.table[b][d])
    return CayleyTable(n * m, tuple(tuple(r) for r in table))


def symmetric_group_s3() -> CayleyTable:
    # left-to-right action: (g*h)(x) = h(g(x))
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    names = ("e", "(12)", "(13)", "(23)", "(123)", "(132)")
    table = []
    for g in perms:
        row = []
        for h in perms:
            comp = tuple(h[g[x]] for x in range(3))
            row.append(perms.index(comp))
        table.append(tuple(row))
    return CayleyTable(6, tuple(table), names)


def dihedral_group_d4() -> CayleyTable:
    # elements r^a s^b, (a,b)*(c,d) = (a + c*(-1)^b mod 4, b+d mod 2)
    def idx(a, b):
        return b * 4 + a

    table = [[0] * 8 for _ in range(8)]
    for a in range(4):
        for b in range(2):
            for c in range(4):
                for d in range(2):
                    table[idx(a, b)][idx(c, d)] = idx((a + (c if b == 0 else -c)) % 4, (b + d) % 2)
    return CayleyTable(8, tuple(tuple(r) for r in table))


# catalog name -> the function that builds its table
GROUPS: Dict[str, Callable[[], CayleyTable]] = {
    **{f"z{n}": (lambda n=n: cyclic_group(n)) for n in range(1, 9)},
    "klein4": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "z2xz4": lambda: direct_product(cyclic_group(2), cyclic_group(4)),
    "z2xz2xz2": lambda: direct_product(cyclic_group(2), GROUPS["klein4"]()),
    "s3": symmetric_group_s3,
    "d4": dihedral_group_d4,
    "q8": quaternion_group,
}


def group_catalog() -> Dict[str, CayleyTable]:
    return {name: build() for name, build in GROUPS.items()}


# ---------------------------------------------------------------------------
# analytic charts (floating point)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamLoopChart:
    """Analytic loop in one coordinate chart around the unit (origin 0).

    `multiply` and `invert` act on the last axis: given stacks of points of
    shape (..., dim) (one point is a stack of none), they return the stack of
    results, each point's result the same floats as if it were computed
    alone."""

    dim: int
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    invert: Callable[[np.ndarray], np.ndarray]


def _by_product(table):
    """(cols, signs): cols[a, i] = b and signs[a, i] = sign where
    table[a][b] = (i, sign), for a signed unit table whose rows are
    permutations of the units."""
    cols, signs = np.zeros((len(table),) * 2, dtype=np.intp), np.zeros((len(table),) * 2)
    for a, row in enumerate(table):
        for b, (idx, sign) in enumerate(row):
            cols[a, idx], signs[a, idx] = b, sign
    return cols, signs


_OCT_COLS, _OCT_SIGNS = _by_product(cayley_dickson(OCTONIONS))


def unit_octonion_chart() -> ParamLoopChart:
    """Chart v in R^7 (|v| < 1) -> unit octonion (sqrt(1-|v|^2), v);
    products projected back to the imaginary part."""

    def embed(v):
        v = np.ascontiguousarray(v, dtype=float)    # BLAS picks its dot kernel by the stride
        s = np.vecdot(v, v)
        if (s >= 1.0).any():
            raise InputError("chart argument outside |v| < 1")
        return np.concatenate((np.sqrt(1.0 - s)[..., None], v), axis=-1)

    def multiply(v, w):
        x, y = embed(v), embed(w)
        q = 0.0    # sum over (a, b) of x_a y_b e_a e_b, term by term in lexicographic order
        for a in range(8):
            q = q + x[..., a, None] * (_OCT_SIGNS[a] * y[..., _OCT_COLS[a]])
        return q[..., 1:]

    def invert(v):
        return -np.asarray(v, dtype=float)

    return ParamLoopChart(7, multiply, invert)


def chart_commutator(chart: ParamLoopChart, g, h, bracketing="left"):
    m, inv = chart.multiply, chart.invert
    if bracketing == "left":
        return m(m(m(g, h), inv(g)), inv(h))
    if bracketing == "right":
        return m(g, m(h, m(inv(g), inv(h))))
    raise InputError(f"unknown bracketing {bracketing!r}")


def tangent_structure_constants(chart: ParamLoopChart, step: float,
                                bracketing="left", antisymmetrize=True) -> np.ndarray:
    """c^i_jk from the central mixed second difference of the commutator map
    at the origin, as a float array of shape (r, r, r); InputError if one is not finite.
    The 4r^2 commutators [+-step e_j, +-step e_k] are one stack of chart calls."""
    if not 0.0 < step < 0.1:
        raise InputError("step must lie in (0, 0.1)")
    e = step * np.eye(chart.dim)
    # g[s, j, k] = +-step e_j and h[s, j, k] = +-step e_k, signs (+,+), (-,+), (+,-), (-,-)
    g, h = np.broadcast_arrays(np.stack([e, -e, e, -e])[:, :, None],
                               np.stack([e, e, -e, -e])[:, None])
    pp, mp, pm, mm = chart_commutator(chart, g, h, bracketing)
    with np.errstate(all="ignore"):    # a non-finite quotient raises below
        c = np.moveaxis(pp - mp - pm + mm, -1, 0) / (4.0 * step * step)
    if not np.isfinite(c).all():
        raise InputError(f"step {step} gives a non-finite difference quotient")
    if antisymmetrize:
        c = 0.5 * (c - np.swapaxes(c, 1, 2))
    return c
