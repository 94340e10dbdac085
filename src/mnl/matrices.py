"""Small dense exact-matrix helpers over Fraction (dimensions stay <= 16)."""

from fractions import Fraction


def zeros(n, m=None):
    m = n if m is None else m
    return [[Fraction(0)] * m for _ in range(n)]


def eye(n):
    out = zeros(n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(q, a):
    q = Fraction(q)
    return [[q * x for x in row] for row in a]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = zeros(n, p)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(p):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a):
    return all(not x for row in a for x in row)


def mat_lincomb(terms):
    """Sum of q * M over (q, M) pairs; terms must be nonempty."""
    it = iter(terms)
    q0, m0 = next(it)
    acc = mat_scale(q0, m0)
    for q, m in it:
        acc = mat_add(acc, mat_scale(q, m))
    return acc
