"""Independent reference for the octonions: the seven published Fano triples
and the exact product they define.  The tests hold `mnl.algebra.cayley_dickson`
and everything derived from it against this table, so it is written out by
hand here and not computed by the doubling.

Basis is (1, e1, ..., e7) with e_a e_b = -delta_ab + f_abc e_c, where f is
totally antisymmetric and f_pqr = +1 for each triple below.
"""

from fractions import Fraction

FANO_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)


def fano_table():
    """table[a][b] = (index, sign) meaning e_a e_b = sign * e_index, 0 = unit."""
    table = [[None] * 8 for _ in range(8)]
    for a in range(8):
        table[a][0] = (a, 1)
        table[0][a] = (a, 1)
    for a in range(1, 8):
        table[a][a] = (0, -1)
    for p, q, r in FANO_TRIPLES:
        for x, y, z in ((p, q, r), (q, r, p), (r, p, q)):
            table[x][y] = (z, 1)
            table[y][x] = (z, -1)
    assert all(entry is not None for row in table for entry in row)
    return tuple(tuple(row) for row in table)


FANO_TABLE = fano_table()


def product(table, x, y):
    """Exact product of two coefficient sequences under a signed unit table."""
    out = [Fraction(0)] * len(table)
    for a, xa in enumerate(x):
        if not xa:
            continue
        for b, yb in enumerate(y):
            if not yb:
                continue
            idx, sign = table[a][b]
            out[idx] += sign * xa * yb
    return out


def oct_mul(x, y):
    """Exact product of two octonions given as length-8 coefficient sequences."""
    return product(FANO_TABLE, x, y)


def oct_conj(x):
    """Conjugate: flips the sign of the imaginary part."""
    return [x[0]] + [-c for c in x[1:]]


def basis_octonion(a):
    """Coefficient vector of e_a (a = 0 gives the unit)."""
    v = [Fraction(0)] * 8
    v[a] = Fraction(1)
    return v
