from itertools import product as cartesian

import pytest
from hypothesis import given, strategies as st

from box_oracle import box_coordinates, decompositions_by_boxes, small_generalized_shapes, subshape_by_boxes
from hecke_ribbon import shapes
from hecke_ribbon.qpoly import QPoly
from hecke_ribbon.series import schur_coproduct
from hecke_ribbon.shapes import (
    Shape,
    ShapeError,
    bracket_set,
    complement,
    composition,
    decompositions,
    descent_band,
    descent_set,
    enumerate_shapes,
    format_shape,
    from_descents,
    glue_parts,
    interval,
    parse_shape,
    pseudo_composition,
    reverse,
    transpose,
)


def compositions(max_size=8):
    return st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple)


def pseudo_parts():
    return st.tuples(st.integers(0, 3), st.lists(st.integers(1, 3), max_size=3)).map(
        lambda t: (t[0],) + tuple(t[1])
    )


def test_descent_set_examples():
    assert sorted(descent_set(composition((2, 3, 1, 1)))) == [2, 5, 6]
    assert descent_set(composition((7,))) == frozenset()
    assert sorted(descent_set(pseudo_composition((0, 2, 1)))) == [0, 2]


def test_from_descents_examples():
    assert from_descents({2, 5, 6}, 7, "A").parts == (2, 3, 1, 1)
    assert from_descents(set(), 5, "A").parts == (5,)
    assert from_descents({0, 2}, 3, "B").parts == (0, 2, 1)
    with pytest.raises(ShapeError):
        from_descents({3}, 3, "A")
    with pytest.raises(ShapeError):
        from_descents({-1}, 3, "B")


@given(compositions())
def test_descent_round_trip(parts):
    shape = composition(parts)
    assert from_descents(descent_set(shape), shape.size, "A") == shape


@given(pseudo_parts())
def test_descent_round_trip_pseudo(parts):
    shape = pseudo_composition(parts)
    assert from_descents(descent_set(shape), shape.size, "B") == shape


def test_complement_reverse_transpose():
    assert complement(composition((2, 1, 1))).parts == (1, 3)
    assert complement(composition((4,))).parts == (1, 1, 1, 1)
    assert complement(pseudo_composition((0, 2, 1))).parts == (1, 2)
    assert reverse(composition((2, 3, 1, 1))).parts == (1, 1, 3, 2)
    assert transpose(composition((2, 3, 1, 1))).parts == (3, 1, 2, 1)
    assert transpose(composition((5,))).parts == (1,) * 5


@given(compositions())
def test_involutions(parts):
    shape = composition(parts)
    assert complement(complement(shape)) == shape
    assert reverse(reverse(shape)) == shape
    assert transpose(transpose(shape)) == shape
    assert transpose(shape) == complement(reverse(shape))


def test_enumerate_shapes_order_and_counts():
    assert [s.parts for s in enumerate_shapes(3, "A")] == [
        (3,),
        (2, 1),
        (1, 2),
        (1, 1, 1),
    ]
    assert [s.parts for s in enumerate_shapes(1, "B")] == [(1,), (0, 1)]
    assert [s.parts for s in enumerate_shapes(0, "A")] == [()]
    for n in range(1, 8):
        assert len(enumerate_shapes(n, "A")) == 2 ** (n - 1)
        assert len(enumerate_shapes(n, "B")) == 2**n


@given(st.frozensets(st.integers(0, 8)), st.frozensets(st.integers(0, 8)))
def test_interval_lists_every_set_between_in_bit_mask_order(lower, extra):
    upper = lower | extra
    free = sorted(upper - lower)
    out = interval(lower, upper)
    assert len(out) == len(set(out)) == 2 ** len(free)
    for mask, s in enumerate(out):
        assert s == lower | {x for i, x in enumerate(free) if mask >> i & 1}
    assert interval(upper | {9}, upper) == ()


def test_glue():
    assert glue_parts((2,), (1, 3), "dot") == (2, 1, 3)
    assert glue_parts((2,), (1, 3), "triangle") == (3, 3)
    assert glue_parts((0, 1), (2,), "triangle") == (0, 3)


def test_bracket_set_regression():
    shape = Shape("A", ((2,), (2, 2), (3, 2)))
    assert {b.parts for b in bracket_set(shape)} == {
        (2, 2, 2, 3, 2),
        (4, 2, 3, 2),
        (2, 2, 5, 2),
        (4, 5, 2),
    }
    assert bracket_set(composition((3, 1))) == (composition((3, 1)),)
    assert {b.parts for b in bracket_set(Shape("A", ((1,), (1,))))} == {(1, 1), (2,)}


# every generalized shape with at most 3 components, of size at most 6
# in type A and 4 in types B and D, the empty shapes included
BAND_FAMILY = [Shape("A", ())] + [
    shape
    for kind, top in (("A", 6), ("B", 4), ("D", 4))
    for n in range(top + 1)
    for shape in shapes.enumerate_generalized(n, kind, 3)
]


def test_bracket_band_coherence():
    """The trusted base of the ribbon coproduct on masks: a shape's
    bracket set, built by gluing its components, has exactly the descent
    sets of the interval between the two sets of its descent band."""
    for shape in BAND_FAMILY:
        got = [descent_set(b) for b in bracket_set(shape)]
        want = interval(*descent_band(shape))
        assert len(got) == len(want) and set(got) == set(want), shape


def _schur_coproduct_by_brackets(shape):
    """The ribbon coproduct as the sum over the monotone splittings of the
    products of the two factors' bracket sets, built as shapes.  The
    splittings come from the box-coordinate oracle, not from
    ``decompositions``, which runs the same walk as ``schur_coproduct``."""
    out = {}
    for beta, gamma, _ in decompositions_by_boxes(shape):
        for left in bracket_set(beta):
            for right in bracket_set(gamma):
                key = (left.parts, right.parts)
                out[key] = out.get(key, 0) + 1
    return {key: QPoly.of(c) for key, c in out.items()}


def test_schur_coproduct_equals_the_bracket_set_formula():
    for shape in BAND_FAMILY:
        assert schur_coproduct(shape) == _schur_coproduct_by_brackets(shape), shape


def brute_decomposition_count(components):
    """Independent oracle: monotone two-colorings of explicitly built
    ribbon coordinates (rows bottom to top, overlap in one column), each
    component placed one row and one column clear of the previous one."""
    coords = []
    row = col = 1
    for parts in components:
        for r, p in enumerate(parts, start=row):
            coords.extend((r, col + j) for j in range(p))
            col += p - 1
        row = max(r for r, _ in coords) + 2
        col += 2
    n = len(coords)
    count = 0
    for colors in cartesian((0, 1), repeat=n):
        color = dict(zip(coords, colors))
        ok = True
        for (r, c), value in color.items():
            if (r, c - 1) in color and color[(r, c - 1)] > value:
                ok = False
            if (r + 1, c) in color and color[(r + 1, c)] > value:
                ok = False
        count += ok
    return count


def test_decomposition_counts_against_oracle():
    frozen = {(1, 3): 7, (1, 1): 3, (3,): 4, (2, 2): 8}
    for parts, expected in frozen.items():
        assert brute_decomposition_count([parts]) == expected
        assert len(decompositions(composition(parts))) == expected
    assert brute_decomposition_count([(2,), (1, 1)]) == 3 * 3
    for n in range(1, 7):
        for s in shapes.enumerate_generalized(n, "A", 3):
            assert len(decompositions(s)) == brute_decomposition_count(s.components)


def test_decompositions_are_sorted_and_sized():
    # lexicographic in the assignment (b < g), and each factor has as many
    # boxes as its label; in kinds B and D the bare 0-box adds nothing
    for kind, top in (("A", 6), ("B", 5), ("D", 5)):
        for n in range(top + 1):
            for s in shapes.enumerate_generalized(n, kind, 3):
                decs = decompositions(s)
                assignments = [d.assignment for d in decs]
                assert assignments == sorted(assignments)
                assert len(set(assignments)) == len(assignments)
                for d in decs:
                    assert d.beta.size == d.assignment.count("b")
                    assert d.gamma.size == d.assignment.count("g")
                    assert d.gamma.kind == "A"
                    assert (d.beta.kind == "A") == (kind == "A")


def test_decomposition_structure():
    for dec in decompositions(composition((2, 2))):
        assert dec.beta.size + dec.gamma.size == 4
    # the diagonal splitting of (2,2) gives two one-box components
    split = [d for d in decompositions(composition((2, 2))) if d.assignment == ("b", "g", "b", "g")]
    assert len(split) == 1
    assert split[0].beta.components == ((1,), (1,))


def test_decompositions_pseudo():
    decs = decompositions(pseudo_composition((2,)))
    got = {(d.beta.parts, d.gamma.kind, d.gamma.size) for d in decs}
    assert got == {((2,), "A", 0), ((1,), "A", 1), ((0,), "A", 2)}
    for d in decs:
        assert d.beta.kind == "B"
    # a gamma cell may not sit on top of the 0-box
    only = decompositions(pseudo_composition((0, 1)))
    assert len(only) == 1 and only[0].beta.parts == (0, 1)


def test_box_oracle_reading_order():
    boxes, zero_box = box_coordinates(composition((2, 3, 1, 1)))
    assert boxes == ((1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 4), (4, 4))
    assert zero_box is None
    assert box_coordinates(composition((2, 1))) == (((1, 1), (1, 2), (2, 2)), None)
    boxes, zero_box = box_coordinates(pseudo_composition((0, 2, 1)))
    assert zero_box == (0, 1) and boxes[0] == (1, 1)  # box 0 sits on top of the 0-box
    # later components start above and right of everything before them
    boxes, zero_box = box_coordinates(Shape("B", ((0,), (1,), (2,))))
    assert (boxes, zero_box) == (((2, 3), (4, 5), (4, 6)), (0, 1))


def test_subshape_of_boxes_equals_the_box_oracle():
    # every subset of the boxes, with and without the 0-box
    for shape in small_generalized_shapes():
        for mask in range(2 ** shape.size):
            picked = [i for i in range(shape.size) if mask >> i & 1]
            for with_zero in (False, True):
                got = shapes.subshape_of_boxes(shape, picked, with_zero)
                assert got == subshape_by_boxes(shape, picked, with_zero), (shape, picked, with_zero)


def test_decompositions_equal_the_box_oracle():
    for shape in small_generalized_shapes():
        got = [(d.beta, d.gamma, d.assignment) for d in decompositions(shape)]
        assert got == decompositions_by_boxes(shape), shape


def test_masks_match_the_sets():
    """The bit-mask form of interval; the label of a descent mask, as the
    differences of the sorted cuts; and the shape of a descent band given
    as masks."""
    def bits(mask):
        return frozenset(j for j in range(8) if mask >> j & 1)

    for upper in range(2**6):
        for lower in range(2**6):
            if not lower & ~upper:
                got = [bits(s) for s in shapes._mask_interval(lower, upper)]
                assert got == list(interval(bits(lower), bits(upper))), (lower, upper)
    for kind in shapes.KINDS:
        for n in range(7):
            for mask in range(2**n):
                cuts = [0, *sorted(bits(mask) - ({0} if kind == "A" else set())), n]
                want = tuple(b - a for a, b in zip(cuts, cuts[1:])) if n or kind != "A" else ()
                assert shapes._mask_parts(kind, n, mask) == want, (kind, n, mask)
    for shape in small_generalized_shapes():
        lower, upper = (sum(1 << j for j in d) for d in descent_band(shape))
        assert shapes._band_shape(shape.kind, shape.size, lower, upper) == shape


def test_glue_band():
    # triangle gluing (4,5,2), dot gluing (2,2,2,3,2)
    shape = Shape("A", ((2,), (2, 2), (3, 2)))
    assert descent_band(shape) == ({4, 9}, {2, 4, 6, 9})
    assert descent_band(Shape("A", ())) == (frozenset(), frozenset())


def test_descent_band_equals_the_gluings():
    # oracle: the descent sets of the triangle and dot gluings of all
    # components, glued one component at a time
    for kind in ("A", "B", "D"):
        for n in range(7):
            for shape in shapes.enumerate_generalized(n, kind, 3):
                glued = {}
                for mode in ("triangle", "dot"):
                    parts = shape.components[0]
                    for comp in shape.components[1:]:
                        parts = glue_parts(parts, comp, mode)
                    glued[mode] = shapes.parts_descents(parts)
                assert descent_band(shape) == (glued["triangle"], glued["dot"]), shape


def test_parse_format_round_trip():
    for text, kind in [("[2,3,1]", "A"), ("[0,2,1]", "B"), ("[2]+[2,2]+[3,2]", "A"), ("[]", "A")]:
        shape = parse_shape(text, kind)
        assert parse_shape(format_shape(shape), kind) == shape


def test_shape_validation():
    with pytest.raises(ShapeError):
        Shape("A", ((0, 1),))
    with pytest.raises(ShapeError):
        Shape("B", ((1, 0),))
    with pytest.raises(ShapeError):
        Shape("D", ((1,),))
    assert Shape("B", ((0,),)).size == 0
