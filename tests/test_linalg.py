"""The sparse fraction-free echelon against a Gauss-Jordan reference over
the rationals."""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from hecke_ribbon.linalg import Echelon, left_kernel


def reference_rref(rows):
    """Textbook Gauss-Jordan over Fraction, pivoting on the first nonzero
    row of each column; the pivot columns of rows taken as columns are the
    rows that are independent of the rows before them."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


# the entries a drawn byte stands for, by its residue mod 18: zero for 10
# of them, as for a draw from integers(-4, 4) | just(0), and zero for the
# byte 0 that Hypothesis shrinks towards
ENTRIES = (0,) * 10 + (1, -1, 2, -2, 3, -3, 4, -4)


@st.composite
def matrices(draw):
    """Integer matrices from 0x0 to 8x8, with forced dependent rows,
    zero rows and zero columns mixed in.  The entries are read off one
    drawn byte string, which costs one draw where a list of entries
    costs one per entry."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.integers(-4, 4) | st.just(0)
    cells = draw(st.binary(min_size=nrows * ncols, max_size=nrows * ncols))
    m = [[ENTRIES[b % 18] for b in cells[i * ncols : (i + 1) * ncols]] for i in range(nrows)]
    for i in range(nrows):
        how = draw(st.sampled_from(["keep", "keep", "combine", "zero"]))
        if how == "zero":
            m[i] = [0] * ncols
        elif how == "combine" and i >= 2:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(entry), draw(entry)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if ncols:
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
            for row in m:
                row[c] = 0
    return m


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def reference_rank(rows):
    return len(reference_rref(rows)[1])


# a row with content 2 and a negative pivot, so that a pivot row kept
# negative or with its content left in fails on every run
@settings(deadline=None, max_examples=300)
@given(matrices())
@example([[-2, 4, 0], [0, 3, 6], [-2, 7, 6]])
def test_echelon_matches_rational_reference(m):
    """add is True exactly at the rows that the reference finds
    independent of the rows before them, reduce is empty exactly at the
    others and zero at every pivot column, and the pivot rows are
    primitive, positive at their least column and zero at the earlier
    pivot columns."""
    independent = set(reference_rref([list(col) for col in zip(*m)])[1])
    ech = Echelon()
    for k, row in enumerate(m):
        rem = ech.reduce(sparse(row))
        assert not any(p in rem for p in ech.rows)
        assert bool(rem) == (k in independent)
        assert ech.add(sparse(row)) == (k in independent)
    assert len(ech.rows) == len(independent)
    earlier = []
    for p, row in ech.rows.items():
        assert p == min(row) and row[p] > 0
        assert all(isinstance(v, int) and v for v in row.values())
        assert gcd(*row.values()) == 1
        assert not any(q in row for q in earlier)
        earlier.append(p)
    ncols = len(m[0]) if m else 0
    dense = [[row.get(c, 0) for c in range(ncols)] for row in ech.rows.values()]
    assert reference_rank(m + dense) == len(ech.rows)


@settings(deadline=None, max_examples=300)
@given(matrices())
@example([[-2, 4, 0], [0, 3, 6], [-2, 7, 6]])
def test_left_kernel_is_a_basis(m):
    basis = left_kernel([sparse(row) for row in m])
    ncols = len(m[0]) if m else 0
    assert len(basis) == len(m) - reference_rank(m)
    for vec in basis:
        assert vec and all(0 <= k < len(m) and isinstance(v, int) and v for k, v in vec.items())
        assert all(sum(v * m[k][j] for k, v in vec.items()) == 0 for j in range(ncols))
    assert reference_rank([[vec.get(k, 0) for k in range(len(m))] for vec in basis]) == len(basis)
