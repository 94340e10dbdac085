"""The array scans of `mnl.loops` against the triple loops of `oracles`:
equal reports, witnesses included, on relabelled cyclic groups and Chein
doubles and on their corruptions, and bounded memory at order 128.  The
array constructions (Chein doubles, direct products, the Cayley-Dickson
tensor and its unit loop) against the entry-by-entry ones."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mnl.algebra import QUATERNIONS, cayley_dickson
from mnl.loops import (GROUPS, CayleyTable, chein_double, cyclic_group, direct_product,
                       group_catalog, has_unit, is_associative, is_moufang, is_quasigroup,
                       octonion_unit_loop, signed_unit_loop)
from mnl.report import InputError, fail

BASES = ([cyclic_group(n) for n in range(1, 11)]
         + [chein_double(g) for g in group_catalog().values()])


def from_rows(rows):
    return CayleyTable(len(rows), tuple(map(tuple, rows)))


def switch(rows, x1, x2, y1, y2):
    """Swap the two symbols of the intercalate in rows x1, x2 and columns y1, y2."""
    for x in (x1, x2):
        rows[x][y1], rows[x][y2] = rows[x][y2], rows[x][y1]


def intercalates(rows):
    """The 2x2 Latin subsquares (x1, x2, y1, y2) off the unit's row and column."""
    n = len(rows)
    return [(x1, x2, y1, y2) for x1 in range(1, n) for x2 in range(x1 + 1, n)
            for y1 in range(1, n) for y2 in range(y1 + 1, n)
            if rows[x1][y1] == rows[x2][y2] and rows[x1][y2] == rows[x2][y1]]


@st.composite
def tables(draw):
    """A catalog loop relabelled by a permutation that fixes 0, then left
    whole, with one or two entries changed (no longer Latin), with one intercalate
    switched (still a loop, seldom Moufang) or with two rows swapped (Latin,
    no unit)."""
    base = draw(st.sampled_from(BASES))
    n = base.order
    perm = [0] + draw(st.permutations(range(1, n)))
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[perm[x]][perm[y]] = perm[base.table[x][y]]
    kind = draw(st.sampled_from(["whole", "entries", "intercalate", "rows"]))
    if kind == "entries" and n > 1:
        for _ in range(draw(st.integers(1, 2))):
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[x][y] = (rows[x][y] + draw(st.integers(1, n - 1))) % n
    elif kind == "intercalate" and intercalates(rows):
        switch(rows, *draw(st.sampled_from(intercalates(rows))))
    elif kind == "rows" and n > 1:
        x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[x], rows[y] = rows[y], rows[x]
    return from_rows(rows)


def assert_same(got, want):
    assert got == want
    if got.witness is not None:
        assert all(type(w) in (int, str) for w in got.witness)


def assert_scans_equal(t):
    for scan, oracle in ((is_quasigroup, oracles.is_quasigroup), (has_unit, oracles.has_unit),
                         (is_associative, oracles.is_associative)):
        assert_same(scan(t), oracle(t))
    if oracles.is_quasigroup(t).passed and oracles.has_unit(t).passed:
        assert_same(is_moufang(t), oracles.is_moufang(t))
    else:
        with pytest.raises(InputError):
            is_moufang(t)


@given(tables())
@settings(max_examples=150, deadline=None)
def test_scans_equal_the_triple_loops(t):
    assert_scans_equal(t)


def test_catalog_scans_and_doubles_equal_the_oracles():
    for t in [octonion_unit_loop()] + BASES:
        assert_scans_equal(t)
    for g in group_catalog().values():
        assert chein_double(g).table == oracles.chein_double_table(g)


def test_direct_products_equal_the_entrywise_tables():
    z2, z4, klein4 = cyclic_group(2), cyclic_group(4), GROUPS["klein4"]()
    for name, s, t in (("klein4", z2, z2), ("z2xz4", z2, z4), ("z2xz2xz2", z2, klein4)):
        assert GROUPS[name]().table == oracles.direct_product_table(s, t)
    s, t = cyclic_group(3), chein_double(cyclic_group(3))
    assert direct_product(s, t).table == oracles.direct_product_table(s, t)


@pytest.mark.parametrize("signs", [s for n in range(1, 5)
                                   for s in itertools.product((-1, 1), repeat=n)])
def test_cayley_dickson_equals_the_unit_table(signs):
    table = oracles.unit_table(signs)
    A = cayley_dickson(signs)
    assert A.dtype == np.int64 and np.array_equal(A, oracles.sign_tensor(table))
    assert signed_unit_loop(A).table == oracles.unit_loop_table(table)


@pytest.mark.parametrize("at,value,product", [((1, 2, 3), 0, "e1 e2"), ((1, 2, 1), 1, "e1 e2"),
                                              ((2, 1, 3), -2, "e2 e1")])
def test_unit_loop_needs_plus_or_minus_one_unit(at, value, product):
    # e1 e2 = e3 in the quaternions: make it 0 or e3 + e1, or make e2 e1 = -2 e3
    A = cayley_dickson(QUATERNIONS)
    A[at] = value
    with pytest.raises(InputError, match=f"{product} is not plus or minus one unit"):
        signed_unit_loop(A)


def test_order_128_double_in_bounded_memory():
    d = chein_double(cyclic_group(64))
    for scan in (is_moufang, is_associative):
        tracemalloc.start()
        try:
            assert scan(d).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (scan.__name__, peak)
    rows = [list(r) for r in d.table]
    rows[126][127] = (rows[126][127] + 1) % 128
    broken = from_rows(rows)
    assert_same(is_quasigroup(broken), oracles.is_quasigroup(broken))
    assert_same(is_associative(broken), oracles.is_associative(broken))
    # a switched intercalate late in the table keeps a loop that is not Moufang:
    # in the double of z64, (64 + a)(64 + b) = b^-1 a = a - b, so the rows and
    # columns 64 + a and 64 + a + 32 meet in one
    rows = [list(r) for r in d.table]
    switch(rows, 95, 127, 95, 127)
    loop = from_rows(rows)
    rep = is_moufang(loop)
    assert not rep.passed
    assert_same(rep, oracles.is_moufang(loop))


@pytest.mark.parametrize("n", [3, 100])
def test_associativity_fails_only_in_the_last_slab(n):
    """A magma whose product is 0 except in its last row, which is 1: only
    the triples (n - 1, h, a) fail, (n - 1)(ha) = 1 against ((n - 1)h)a = 0."""
    t = from_rows([[0] * n for _ in range(n - 1)] + [[1] * n])
    assert is_associative(t) == fail("associative", witness=(n - 1, 0, 0))
    if n < 10:
        assert is_associative(t) == oracles.is_associative(t)


def test_index_of_unknown_name_is_an_input_error():
    t = octonion_unit_loop()
    assert t.index("-e7") == 15
    with pytest.raises(InputError, match="'e9'"):
        t.index("e9")
    with pytest.raises(InputError, match="no element names"):
        CayleyTable(1, ((0,),)).index("e")


def test_table_array_is_read_only():
    t = cyclic_group(4)
    assert t.array.tolist() == [list(r) for r in t.table]
    with pytest.raises(ValueError):
        t.array[0, 0] = 1
