"""The integer bracket table and the sparse Jacobi check against their
`Fraction` oracles (`oracles.py`).

Every ordered label pair's row (`birep.bracket_rows`), Y_kj and Y_jj
included, and every triple's cyclic row (`birep.cyclic_rows`), its
(row, label, value) triples summed per row, must equal the Fraction table's
(`oracles.glc_bracket`, `oracles.y_cyclic`), and the triples must come one
nonzero entry a position, in row-major order: on m7,
su2-doubled, sl2, the benchmark's r=10 block sum, and the random tensors of
`test_kernels.py` at each entry size, whose entries near 2^31 take the
Python-int path.  On the same tensors (the Mal'tsev ones), the envelope's
table must be the oracle's (`oracles.envelope_brackets`): every basis
pair's bracket as read out (`EnvelopeAlgebra.bracket`), and the stored
(K F, K) as `matrices.scaled` packs it, dtype included.  The Jacobi check
over the nonzero brackets must give the oracle's witness on one-entry
mutants of the m7 and r=10 envelope tables."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import oracles
from mnl.algebra import StructureTensor, catalog_algebra, is_maltsev
from mnl.birep import bracket_rows, cyclic_rows, labels
from mnl.envelope import build_envelope, check_jacobi
from test_kernels import SETTINGS, SIZES, check_path, int64_decisions, tensors


def assert_one_entry_a_position(R, size, width):
    key = R.n * width + R.t
    assert R.size == size and (np.diff(key) > 0).all() and all(R.v)
    assert ((0 <= R.t) & (R.t < width)).all() and ((0 <= R.n) & (R.n < size)).all()


def assert_table_matches_oracle(c):
    d = oracles.contract_yamaguti(c)
    lbls = labels(c.dim)
    a, b = np.divmod(np.arange(len(lbls) ** 2), len(lbls))
    rows = bracket_rows(c, a, b)
    assert_one_entry_a_position(rows[0], len(a), len(lbls))
    assert oracles.row_vecs(*rows, lbls) == [
        oracles.glc_bracket(c, d, lbls[i], lbls[j]) for i, j in zip(a, b)]
    triples = list(itertools.product(range(c.dim), repeat=3))
    rows = cyclic_rows(c, *np.array(triples).T)
    assert_one_entry_a_position(rows[0], len(triples), len(lbls))
    assert oracles.row_vecs(*rows, lbls) == [oracles.y_cyclic(c, *t) for t in triples]


def assert_envelope_matches_oracle(c):
    env = build_envelope(c)
    want = oracles.envelope_brackets(c, env)
    assert oracles.bracket_table(env) == want
    (F, K), (G, L) = env.structure, oracles.with_brackets(env, want).structure
    assert (F.dtype, K) == (G.dtype, L) and np.array_equal(F, G)


def builtin(name, bench_r10):
    return {"m7": catalog_algebra("m7"), "su2-doubled": catalog_algebra("su2").scaled(2),
            "sl2": catalog_algebra("sl2"), "r10": bench_r10}[name]


@pytest.mark.parametrize("name", ["m7", "su2-doubled", "sl2", "r10"])
def test_bracket_rows_match_oracle_on_builtins(name, bench_r10):
    assert_table_matches_oracle(builtin(name, bench_r10))


@pytest.mark.parametrize("name", ["m7", "su2-doubled", "sl2", "r10"])
def test_envelope_table_matches_oracle_on_builtins(name, bench_r10):
    assert_envelope_matches_oracle(builtin(name, bench_r10))


@pytest.mark.parametrize("size", SIZES)
@SETTINGS
@given(data=st.data())
def test_bracket_rows_match_oracle(size, data):
    c = data.draw(tensors(size))
    with int64_decisions() as seen:
        assert_table_matches_oracle(c)
    check_path(size, seen)


@pytest.mark.parametrize("size", SIZES)
@SETTINGS
@given(data=st.data())
def test_envelope_table_matches_oracle(size, data):
    c = data.draw(tensors(size))
    assume(is_maltsev(c).passed)
    with int64_decisions() as seen:
        assert_envelope_matches_oracle(c)
    check_path(size, seen)


@pytest.mark.parametrize("c, jkln", [
    # d^1_011 = 2/3 and d^2_012 = 2/3: one entry, 4/3 Y_12
    (StructureTensor(3, {(0, 0, 1): 1, (0, 1, 0): -1, (2, 0, 1): 2, (2, 1, 0): -2,
                         (1, 1, 2): -1, (1, 2, 1): 1}), (0, 1, 1, 2)),
    # [Y_12, Y_12] in sl2: d^1_121 = -d^2_122 = 2/3, so no entry
    (catalog_algebra("sl2"), (1, 2, 1, 2)),
])
def test_y_y_row_sums_its_two_terms_at_one_label(c, jkln):
    """[Y_jk, Y_ln] = d^p_jkl Y_pn + d^p_jkn Y_lp: both terms meet at Y_ln."""
    j, k, l, n = jkln
    d, lbls = oracles.contract_yamaguti(c), labels(c.dim)
    assert d.d(l, j, k, l) and d.d(n, j, k, n)
    y = lbls.index(("Y", l, n))
    R, den = bracket_rows(c, [lbls.index(("Y", j, k))], [y])
    assert_one_entry_a_position(R, 1, len(lbls))
    total = d.d(l, j, k, l) + d.d(n, j, k, n)
    assert [Fraction(int(v), den) for v in R.v[R.t == y]] == ([total] if total else [])
    assert oracles.row_vecs(R, den, lbls) == [
        oracles.glc_bracket(c, d, ("Y", j, k), ("Y", l, n))]


@pytest.mark.parametrize("name", ["m7", "r10"])
def test_sparse_jacobi_matches_oracle_on_mutants(name, bench_r10):
    """20 bracket tables of the envelope, each with one coefficient moved by 1."""
    env = build_envelope(bench_r10 if name == "r10" else catalog_algebra(name))
    rng = random.Random(0)
    for _ in range(20):
        brackets = oracles.bracket_table(env)
        key, lbl = rng.choice(sorted(brackets)), rng.choice(env.basis)
        row = brackets[key]
        row[lbl] = row.get(lbl, Fraction(0)) + rng.choice([-1, 1])
        mutant = oracles.with_brackets(env, brackets)
        report = check_jacobi(mutant)
        assert not report.passed
        assert report.to_dict() == oracles.check_jacobi(mutant).to_dict()
