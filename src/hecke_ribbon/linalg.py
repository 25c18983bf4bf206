"""Small exact linear algebra over the integers, fraction-free: one
Gauss-Jordan elimination in Bareiss's form (1968), whose divisions are
all exact; dividing its result by the last pivot gives the rational
reduced row echelon form."""

from __future__ import annotations


def rref(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """The fraction-free reduced row echelon form, in which every pivot
    equals the last one, and the pivot columns; the input is not modified."""
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        # A positive pivot keeps unit pivots at 1, and a step with p == prev
        # leaves a row with f == 0 as it is: sparse rows then cost nothing.
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        p, prow = m[r][c], m[r]
        for i in range(nrows):
            f = m[i][c]
            if i != r and (f or p != prev):
                m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], prow)]
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows: list[list[int]]) -> int:
    return len(rref(rows)[1])


def left_kernel(rows: list[list[int]]) -> list[list[int]]:
    """An integer basis of {x : x M = 0} for the matrix given by rows."""
    nrows = len(rows)
    red, pivots = rref([list(col) for col in zip(*rows)])
    d = red[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for fc in range(nrows):
        if fc in pivots:
            continue
        vec = [0] * nrows
        vec[fc] = d
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def mat_mul_rows(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    nb = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * nb
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(nb):
                    if brow[j]:
                        acc[j] += x * brow[j]
        out.append(acc)
    return out
