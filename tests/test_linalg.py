"""The fraction-free elimination against a Gauss-Jordan reference over
the rationals."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hecke_ribbon.linalg import left_kernel, rank, rref


def reference_rref(rows):
    """Textbook Gauss-Jordan over Fraction, same pivot choice as rref."""
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


@st.composite
def matrices(draw):
    """Integer matrices from 0x0 to 8x8, with forced dependent rows,
    zero rows and zero columns mixed in."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.integers(-4, 4) | st.just(0)
    m = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
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


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_rref_matches_rational_reference(m):
    red, pivots = rref(m)
    ref, ref_pivots = reference_rref(m)
    assert pivots == ref_pivots
    d = red[len(pivots) - 1][pivots[-1]] if pivots else 1
    assert d != 0
    assert all(red[r][c] == d for r, c in enumerate(pivots))
    for row, ref_row in zip(red, ref):
        assert [Fraction(a, d) for a in row] == ref_row
    assert rank(m) == len(ref_pivots)


@settings(deadline=None, max_examples=300)
@given(matrices())
def test_left_kernel_is_a_basis(m):
    basis = left_kernel(m)
    ncols = len(m[0]) if m else 0
    assert len(basis) == len(m) - rank(m)
    for vec in basis:
        assert all(isinstance(x, int) for x in vec)
        assert all(sum(v * row[j] for v, row in zip(vec, m)) == 0 for j in range(ncols))
    assert rank(basis) == len(basis)
