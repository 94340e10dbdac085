"""Finite loops as Cayley tables, loop constructions, and numeric extraction
of tangent structure constants from an analytic chart of the unit octonions.

Everything here except `tangent_structure_constants` (and the charts it
consumes) is exact integer table arithmetic; the charts are the one place in
the package where floating point is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __post_init__(self):
        n = self.order
        if not is_int(n) or n <= 0:
            raise InputError("order must be a positive integer")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InputError("table shape does not match order")
        for row in self.table:
            for v in row:
                if not is_int(v):
                    raise InputError(f"table entry {v!r} must be an integer")
                if not 0 <= v < n:
                    raise InputError(f"table entry {v!r} out of range")
        if self.names is not None and len(self.names) != n:
            raise InputError("names length does not match order")

    def mul(self, g, h):
        return self.table[g][h]

    def index(self, name):
        if self.names is None:
            raise InputError("table has no element names")
        return self.names.index(name)

    def right_inverse(self, g):
        """The unique x with g*x = 0, if any."""
        for x in range(self.order):
            if self.table[g][x] == 0:
                return x
        return None

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


def is_quasigroup(t: CayleyTable) -> CheckReport:
    """Latin-square scan; witness names the offending row or column."""
    n = t.order
    full = set(range(n))
    for g in range(n):
        if set(t.table[g]) != full:
            return fail("quasigroup", witness=("row", g))
    for h in range(n):
        if {t.table[g][h] for g in range(n)} != full:
            return fail("quasigroup", witness=("column", h))
    return ok("quasigroup")


def has_unit(t: CayleyTable) -> CheckReport:
    for g in range(t.order):
        if t.table[0][g] != g or t.table[g][0] != g:
            return fail("unit", witness=(g,))
    return ok("unit")


def is_moufang(t: CayleyTable) -> CheckReport:
    """(ag)(ha) = (a(gh))a for all triples, plus two-sided inverses."""
    if not is_quasigroup(t).passed or not has_unit(t).passed:
        raise InputError("is_moufang requires a quasigroup with unit 0")
    n = t.order
    for g in range(n):
        gi = t.right_inverse(g)
        if gi is None or t.table[gi][g] != 0:
            return fail("moufang", witness=(g,), detail="no two-sided inverse")
    for a in range(n):
        for g in range(n):
            ag = t.table[a][g]
            for h in range(n):
                if t.table[ag][t.table[h][a]] != t.table[t.table[a][t.table[g][h]]][a]:
                    return fail("moufang", witness=(a, g, h))
    return ok("moufang")


def is_associative(t: CayleyTable) -> CheckReport:
    n = t.order
    for g in range(n):
        for h in range(n):
            gh = t.table[g][h]
            for a in range(n):
                if t.table[gh][a] != t.table[g][t.table[h][a]]:
                    return fail("associative", witness=(g, h, a))
    return ok("associative")


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
    n = g.order
    inv = [g.right_inverse(x) for x in range(n)]
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            table[a][b] = g.table[a][b]
            table[a][n + b] = n + g.table[b][a]
            table[n + a][b] = n + g.table[a][inv[b]]
            table[n + a][n + b] = g.table[inv[b]][a]
    names = None
    if g.names is not None:
        names = tuple(g.names) + tuple(f"{nm}u" for nm in g.names)
    return CayleyTable(2 * n, tuple(tuple(r) for r in table), names)


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
    """Analytic loop in one coordinate chart around the unit (origin 0)."""

    dim: int
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    invert: Callable[[np.ndarray], np.ndarray]


def _sign_tensor(table) -> np.ndarray:
    """T[a, b, i] = sign where table[a][b] = (i, sign), zero elsewhere."""
    T = np.zeros((len(table),) * 3)
    for a, row in enumerate(table):
        for b, (idx, sign) in enumerate(row):
            T[a, b, idx] = sign
    return T


_OCT_T = _sign_tensor(cayley_dickson(OCTONIONS))


def unit_octonion_chart() -> ParamLoopChart:
    """Chart v in R^7 (|v| < 1) -> unit octonion (sqrt(1-|v|^2), v);
    products projected back to the imaginary part."""

    def embed(v):
        v = np.asarray(v, dtype=float)
        s = float(v @ v)
        if s >= 1.0:
            raise InputError("chart argument outside |v| < 1")
        return np.concatenate(([np.sqrt(1.0 - s)], v))

    def multiply(v, w):
        q = np.einsum("a,b,abi->i", embed(v), embed(w), _OCT_T)
        return q[1:]

    def invert(v):
        return -np.asarray(v, dtype=float)

    return ParamLoopChart(7, multiply, invert)


def translation_line_chart() -> ParamLoopChart:
    """One-parameter abelian group (R, +): zero tangent tensor."""

    def multiply(v, w):
        return np.asarray(v, dtype=float) + np.asarray(w, dtype=float)

    def invert(v):
        return -np.asarray(v, dtype=float)

    return ParamLoopChart(1, multiply, invert)


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
    at the origin, as a float array of shape (r, r, r); InputError if one is not finite."""
    if not 0.0 < step < 0.1:
        raise InputError("step must lie in (0, 0.1)")
    r = chart.dim
    c = np.zeros((r, r, r))
    for j in range(r):
        ej = np.zeros(r)
        ej[j] = step
        for k in range(r):
            ek = np.zeros(r)
            ek[k] = step
            val = (chart_commutator(chart, ej, ek, bracketing)
                   - chart_commutator(chart, -ej, ek, bracketing)
                   - chart_commutator(chart, ej, -ek, bracketing)
                   + chart_commutator(chart, -ej, -ek, bracketing))
            with np.errstate(all="ignore"):    # a non-finite quotient raises below
                c[:, j, k] = val / (4.0 * step * step)
    if not np.isfinite(c).all():
        raise InputError(f"step {step} gives a non-finite difference quotient")
    if antisymmetrize:
        c = 0.5 * (c - np.swapaxes(c, 1, 2))
    return c
