"""The integer bracket table and the sparse Jacobi check against their
`Fraction` oracles (`oracles.py`).

Every ordered label pair's row (`birep.bracket_rows`), Y_kj and Y_jj
included, and every triple's cyclic row (`birep.cyclic_rows`) must equal the
Fraction table's (`oracles.glc_bracket`, `oracles.y_cyclic`): on m7,
su2-doubled, sl2, the benchmark's r=10 block sum, and the random tensors of
`test_kernels.py` at each entry size, whose entries near 2^31 take the
Python-int path.  The Jacobi check over the nonzero brackets must give the
oracle's witness on one-entry mutants of the m7 and r=10 envelope tables."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from mnl.algebra import catalog_algebra
from mnl.birep import bracket_rows, cyclic_rows, labels
from mnl.envelope import EnvelopeAlgebra, build_envelope, check_jacobi
from test_kernels import SETTINGS, SIZES, check_path, int64_decisions, tensors


def assert_table_matches_oracle(c):
    d = oracles.contract_yamaguti(c)
    lbls = labels(c.dim)
    a, b = np.divmod(np.arange(len(lbls) ** 2), len(lbls))
    assert oracles.row_vecs(*bracket_rows(c, a, b), lbls) == [
        oracles.glc_bracket(c, d, lbls[i], lbls[j]) for i, j in zip(a, b)]
    triples = list(itertools.product(range(c.dim), repeat=3))
    assert oracles.row_vecs(*cyclic_rows(c, *np.array(triples).T), lbls) == [
        oracles.y_cyclic(c, *t) for t in triples]


@pytest.mark.parametrize("name", ["m7", "su2-doubled", "sl2", "r10"])
def test_bracket_rows_match_oracle_on_builtins(name, bench_r10):
    builtins = {"m7": catalog_algebra("m7"), "su2-doubled": catalog_algebra("su2").scaled(2),
                "sl2": catalog_algebra("sl2"), "r10": bench_r10}
    assert_table_matches_oracle(builtins[name])


@pytest.mark.parametrize("size", SIZES)
@SETTINGS
@given(data=st.data())
def test_bracket_rows_match_oracle(size, data):
    c = data.draw(tensors(size))
    with int64_decisions() as seen:
        assert_table_matches_oracle(c)
    check_path(size, seen)


@pytest.mark.parametrize("name", ["m7", "r10"])
def test_sparse_jacobi_matches_oracle_on_mutants(name, bench_r10):
    """20 bracket tables of the envelope, each with one coefficient moved by 1."""
    env = build_envelope(bench_r10 if name == "r10" else catalog_algebra(name))
    rng = random.Random(0)
    for _ in range(20):
        brackets = dict(env.brackets)
        key, lbl = rng.choice(sorted(brackets)), rng.choice(env.basis)
        row = dict(brackets[key])
        row[lbl] = row.get(lbl, Fraction(0)) + rng.choice([-1, 1])
        brackets[key] = row
        mutant = EnvelopeAlgebra(env.r, env.basis, env.expand, brackets, env.relation_rank)
        report = check_jacobi(mutant)
        assert not report.passed
        assert report.to_dict() == oracles.check_jacobi(mutant).to_dict()
