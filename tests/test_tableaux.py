import dataclasses
import pickle
import tracemalloc
from itertools import product as cartesian

import pytest

from box_oracle import (
    box_coordinates,
    fits_boxes,
    format_by_boxes,
    small_generalized_shapes,
    standard_by_boxes,
)
from hecke_ribbon import groups, shapes
from hecke_ribbon.shapes import Shape, ShapeError, composition, pseudo_composition
from hecke_ribbon.tableaux import (
    Tableau,
    format_tableau,
    is_semistandard,
    is_standard,
    parse_tableau,
    pattern_words,
    reading_word,
    semistandard_tableaux,
    split_tableau,
    standard_tableaux,
    standard_words,
    tau0,
    tau1,
    theta_map,
    theta_word,
)


def brute_standard_words(shape):
    """Independent oracle: filter every group window through the raw
    row/column filling rules on explicit coordinates."""
    kind, n = shape.kind, shape.size
    return sorted(w.window for w in groups.enumerate_group(kind, n) if standard_by_boxes(shape, w.window))


def test_counts_match_displayed_modules():
    assert len(standard_tableaux(composition((2, 1, 1)))) == 3
    assert len(standard_tableaux(composition((1, 2, 1)))) == 5


def test_standard_enumeration_equals_filling_filter():
    for kind, n in (("A", 5), ("B", 3), ("D", 3)):
        for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
            shape = s if kind == "A" else Shape(kind, s.components)
            got = sorted(t.entries for t in standard_tableaux(shape))
            assert got == brute_standard_words(shape), shape
    # generalized shapes too
    for shape in shapes.enumerate_generalized(4, "B", 2):
        got = sorted(t.entries for t in standard_tableaux(shape))
        assert got == brute_standard_words(shape), shape


def test_count_identity_bracket_classes():
    for kind, size in (("A", 6), ("B", 4), ("D", 4)):
        for shape in shapes.enumerate_generalized(size, kind, 3):
            count = len(standard_tableaux(shape))
            expected = sum(
                len(groups.descent_class(kind, beta).elements)
                for beta in shapes.bracket_set(shape)
            )
            assert count == expected, shape


def test_displayed_signed_tableaux_round_trip():
    shape = pseudo_composition((2, 3, 1, 1))
    t = Tableau(shape, (2, 3, -4, -1, 6, -5, -7))
    assert is_standard(shape, t.entries)
    assert format_tableau(t) == "-7/-5/-4,-1,6/0*,2,3"
    assert parse_tableau(format_tableau(t), shape) == t
    assert is_standard(pseudo_composition((0, 2, 3, 1, 1)), (-6, 5, -4, 1, 7, 2, -3))


def test_tableau_needs_one_entry_per_box():
    shape = composition((2, 1))
    for entries in ((1, 2, 3, 4), (1,), ()):
        with pytest.raises(ShapeError):
            Tableau(shape, entries)
    with pytest.raises(ShapeError):
        Tableau(pseudo_composition((0, 2)), (0, 1, 2))
    assert str(Tableau(shape, (1, 2, 3))) == "3/1,2"


def test_tableaux_are_slotted_values():
    """Enumerated tableaux are slotted frozen values, equal, hashable,
    replaceable and picklable like constructed ones."""
    shape = composition((2, 1, 2))
    t = standard_tableaux(shape)[1]
    built = Tableau(shape, t.entries)
    assert not hasattr(t, "__dict__") and not hasattr(built, "__dict__")
    assert type(t) is Tableau and t == built and hash(t) == hash(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.shape
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.extra = 1
    other = dataclasses.replace(t, entries=standard_tableaux(shape)[0].entries)
    assert other == standard_tableaux(shape)[0] and other != t
    assert pickle.loads(pickle.dumps(t)) == t
    assert len({t, built, other}) == 2


def test_tau_extremes_match_class_scan():
    for kind, n in (("A", 5), ("B", 4), ("D", 4)):
        for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
            shape = s if kind == "A" else Shape(kind, s.components)
            cls = groups.descent_class(kind, shape)
            assert reading_word(tau0(shape)) == cls.minimum, shape
            assert reading_word(tau1(shape)) == cls.maximum, shape


def test_tau_displayed_fillings():
    assert format_tableau(tau0(pseudo_composition((1, 3, 2)))) == "4,6/1,3,5/0*,2"
    assert format_tableau(tau1(pseudo_composition((0, 2, 1, 2, 1)))) == "-6/-5,-4/-3/-2,-1/0*"
    assert format_tableau(tau0(pseudo_composition((0, 1, 1, 2, 2)))) == "4,6/-3,5/-2/-1/0*"
    assert format_tableau(tau1(pseudo_composition((3, 2, 1)))) == "-6/-5,-4/0*,1,2,3"
    assert format_tableau(tau0(pseudo_composition((1, 3, 2), "D"))) == "4,6/1,3,5/0*,2"
    assert format_tableau(tau0(pseudo_composition((0, 1, 1, 2, 2), "D"))) == "4,6/-3,5/-2/1/0*"
    assert format_tableau(tau0(pseudo_composition((0, 2, 3, 1), "D"))) == "5/-1,4,6/-3,2/0*"
    assert format_tableau(tau1(pseudo_composition((0, 2, 1, 2, 1), "D"))) == "-6/-5,-4/-3/-2,-1/0*"
    assert format_tableau(tau1(pseudo_composition((3, 2, 1), "D"))) == "-6/-5,-4/0*,-1,2,3"
    assert format_tableau(tau1(pseudo_composition((1, 2, 1, 2), "D"))) == "-6,-5/-4/-2,1/0*,3"
    # single column fills top to bottom, reading word is the reversal
    assert reading_word(tau1(composition((1, 1, 1, 1)))).window == (4, 3, 2, 1)


def test_canonical_fillings_beyond_the_group_guard():
    # B_9 and D_9 are over the group guard; w0, the diagram automorphism
    # and the canonical fillings do not enumerate them
    with pytest.raises(groups.ResourceLimitError):
        groups.enumerate_group("B", 9)
    w0 = groups.longest_element("B", 9)
    assert w0.window == tuple(range(-1, -10, -1)) and groups.length(w0) == 81
    assert groups.diagram_automorphism("B", 9) == {i: i for i in range(9)}
    assert groups.diagram_automorphism("D", 9) == {0: 1, 1: 0, **{i: i for i in range(2, 9)}}
    for shape in (pseudo_composition((0, 2, 1, 3, 2, 1)), pseudo_composition((1, 3, 2, 3), "D")):
        for t in (tau0(shape), tau1(shape)):
            assert is_standard(shape, t.entries), t
            assert groups.descents(reading_word(t)) == shapes.descent_set(shape), t


def test_theta_identities():
    for n in range(1, 6):
        for s in shapes.enumerate_shapes(n, "A"):
            assert theta_map(tau1(s)) == tau0(shapes.transpose(s))
            for t in standard_tableaux(s):
                image = theta_map(t)
                assert image.shape == shapes.transpose(s)
                assert theta_map(image) == t
    for kind in ("B", "D"):
        for n in range(2 if kind == "D" else 1, 5):
            for s in shapes.enumerate_shapes(n, "B"):
                shape = Shape(kind, s.components)
                assert theta_map(tau0(shape)) == tau1(shapes.complement(shape)), shape
                for t in standard_tableaux(shape):
                    image = theta_map(t)
                    assert image.shape == shapes.complement(shape)
                    if kind == "B":
                        assert theta_map(image) == t


def box_reflection(t):
    """Independent oracle for theta: reflect the diagram boxes, through
    the antidiagonal onto the transpose in type A and through the diagonal
    with negation onto the complement in types B and D, where type D then
    negates the entry of absolute value 1 if the sign count is odd."""
    kind, (boxes, _) = t.shape.kind, box_coordinates(t.shape)
    if kind == "A":
        target = shapes.transpose(t.shape)
        rmax = max((r for r, _ in boxes), default=0)
        cmax = max((c for _, c in boxes), default=0)
        image = {(cmax + 1 - c, rmax + 1 - r): e for (r, c), e in zip(boxes, t.entries)}
    else:
        target = shapes.complement(t.shape)
        image = {(c, r): -e for (r, c), e in zip(boxes, t.entries)}
    target_boxes, _ = box_coordinates(target)
    assert set(image) == set(target_boxes)
    entries = [image[b] for b in target_boxes]
    if kind == "D" and sum(e < 0 for e in entries) % 2:
        p = [abs(e) for e in entries].index(1)
        entries[p] = -entries[p]
    return Tableau(target, tuple(entries))


def test_theta_equals_the_box_reflection():
    count = 0
    for kind, top in (("A", 6), ("B", 5), ("D", 5)):
        for n in range(2 if kind == "D" else 1, top + 1):
            for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
                for t in standard_tableaux(Shape(kind, s.components)):
                    assert theta_map(t) == box_reflection(t), t
                    count += 1
    assert count == 873 + 4282 + 2140  # every group element once


def test_theta_on_words_agrees_with_theta_map():
    """theta_word, which the symmetry certificate applies to module bases,
    is theta_map's reading word on every standard tableau of A <= 5 and
    B/D <= 4."""
    count = 0
    for kind, top in (("A", 5), ("B", 4), ("D", 4)):
        for n in range(2 if kind == "D" else 1, top + 1):
            for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
                for t in standard_tableaux(Shape(kind, s.components)):
                    assert theta_word(kind, t.entries) == theta_map(t).entries, t
                    count += 1
    assert count == 153 + 442 + 220  # every group element once


def test_standard_words_are_the_group_windows():
    """The words are the group table's own window tuples, in the order
    and with the entries of ``standard_tableaux``."""
    for shape in (composition((2, 1, 2)), pseudo_composition((0, 2, 1)), Shape("D", ((1, 1), (2,)))):
        windows = {w.window: w.window for w in groups.enumerate_group(shape.kind, shape.size)}
        words = standard_words(shape)
        assert words == tuple(t.entries for t in standard_tableaux(shape)), shape
        assert all(windows[w] is w for w in words), shape


def test_split_reassembly_round_trip():
    # the two pieces are standard, their shapes decompose the ambient
    # shape, and writing them back into their box regions recovers the
    # original filling
    for n in range(1, 7):
        for s in shapes.enumerate_shapes(n, "A"):
            for t in standard_tableaux(s):
                for m in range(n + 1):
                    left, right = split_tableau(t, m)
                    assert left.shape.size == m
                    assert is_standard(left.shape, left.entries)
                    assert is_standard(right.shape, right.entries)
                    low = [i for i, v in enumerate(t.entries) if v <= m]
                    high = [i for i, v in enumerate(t.entries) if v > m]
                    lshape, lorder = shapes.subshape_of_boxes(s, low)
                    hshape, horder = shapes.subshape_of_boxes(s, high)
                    assert (lshape, hshape) == (left.shape, right.shape)
                    rebuilt = [0] * t.n
                    for pos, e in zip(lorder, left.entries):
                        rebuilt[pos] = e
                    for pos, e in zip(horder, right.entries):
                        rebuilt[pos] = e + m
                    assert tuple(rebuilt) == t.entries


def test_semistandard_counts():
    k = 4
    assert len(semistandard_tableaux(composition((1,)), range(1, k + 1))) == k
    assert len(semistandard_tableaux(composition((1, 1)), range(1, k + 1))) == k * (k - 1) // 2
    # type B row of two with the 0-box: brute force over all 9 pairs
    brute = [
        (a, b)
        for a, b in cartesian((-1, 0, 1), repeat=2)
        if 0 <= a <= b
    ]
    got = semistandard_tableaux(pseudo_composition((2,)), (-1, 0, 1))
    assert got == sorted(brute)


def test_semistandard_unique_word_pseudo_ribbon():
    # every word over a window is the reading word of exactly one
    # semistandard filling of exactly one pseudo-ribbon shape
    window = (-2, -1, 0, 1, 2)
    n = 3
    by_word = {}
    for s in shapes.enumerate_shapes(n, "B"):
        for word in semistandard_tableaux(s, window):
            by_word.setdefault(word, []).append(s.parts)
    for word in cartesian(window, repeat=n):
        assert len(by_word.get(word, [])) == 1, word


def test_type_d_semistandard_displayed():
    shape = pseudo_composition((0, 2, 3, 1, 1), "D")
    entries = (-2, 1, -1, -1, 0, -2, -3)
    assert is_semistandard(shape, entries)
    assert not is_standard(shape, entries)


def test_semistandard_unique_word_type_d():
    window = (-2, -1, 0, 1, 2)
    n = 2
    by_word = {}
    for s in shapes.enumerate_shapes(n, "B"):
        shape = Shape("D", s.components)
        for word in semistandard_tableaux(shape, window):
            by_word.setdefault(word, []).append(s.parts)
    for word in cartesian(window, repeat=n):
        assert len(by_word.get(word, [])) == 1, word


def test_parse_format_round_trip():
    # the text is the rows of the box coordinates, and reads back
    family = small_generalized_shapes()
    assert {Shape("A", ()), Shape("B", ((0,),))} <= set(family)
    for shape in family:
        for t in standard_tableaux(shape):
            text = format_tableau(t)
            assert text == format_by_boxes(shape, t.entries), t
            assert parse_tableau(text, shape) == t
    assert format_tableau(Tableau(Shape("A", ()), ())) == ""
    assert format_tableau(Tableau(Shape("B", ((0,),)), ())) == "0*"


def test_filling_predicates_equal_the_box_oracle():
    # every word over a small window on the shapes of size at most 3, and
    # every signed permutation on the single ribbons of size 4
    for shape in small_generalized_shapes():
        if shape.size > 3:
            continue
        for w in cartesian(range(-2, 3), repeat=shape.size):
            assert is_semistandard(shape, w) == fits_boxes(shape, w, strict_rows=False), (shape, w)
            assert is_standard(shape, w) == standard_by_boxes(shape, w), (shape, w)
    for kind in "ABD":
        for s in shapes.enumerate_shapes(4, "A" if kind == "A" else "B"):
            shape = Shape(kind, s.components)
            for w in groups.enumerate_group("B", 4):
                assert is_standard(shape, w.window) == standard_by_boxes(shape, w.window), (shape, w)


def test_semistandard_words_equal_filling_filter():
    # every generalized shape with n <= 4 and at most 3 components: the
    # enumerated words are the sorted words of W^n that fit the box coordinates
    for kind, window in (("A", range(1, 6)), ("B", range(-2, 3)), ("D", range(-2, 3))):
        family = [Shape("A", ())] if kind == "A" else []
        for n in range(5):
            family.extend(shapes.enumerate_generalized(n, kind, 3))
        for shape in family:
            words = cartesian(window, repeat=shape.size)
            brute = [w for w in words if fits_boxes(shape, w, strict_rows=False)]
            assert semistandard_tableaux(shape, window) == brute, shape


def test_pattern_words_equal_relation_filter():
    # every pattern of up to three relations, against a filter over all
    # words; the 0-box value is 0 in type B and -w[1] in type D (whose
    # words have at least two letters)
    holds = {
        None: lambda a, b: True,
        "<=": lambda a, b: a <= b,
        "<": lambda a, b: a < b,
        "=": lambda a, b: a == b,
        ">": lambda a, b: a > b,
    }
    window = range(-2, 3)
    for kind, sizes in (("A", range(4)), ("B", range(4)), ("D", range(2, 4))):
        for n in sizes:
            for pattern in cartesian(holds, repeat=n):

                def ok(w):
                    if kind != "A" and n:
                        zval = 0 if kind == "B" else -w[1]
                        if not holds[pattern[0]](zval, w[0]):
                            return False
                    return all(holds[pattern[j]](w[j - 1], w[j]) for j in range(1, n))

                expected = [w for w in cartesian(window, repeat=n) if ok(w)]
                assert pattern_words(kind, pattern, window, "words") == expected, (kind, pattern)


def test_guard_messages_name_their_objects():
    groups.set_limits(tableau=1)
    try:
        for enumerate_standard in (standard_words, standard_tableaux):
            with pytest.raises(groups.ResourceLimitError, match=r"^standard tableaux of \[2\]\+\[1\] count 3 "):
                enumerate_standard(Shape("A", ((2,), (1,))))
        with pytest.raises(groups.ResourceLimitError, match=r"^semistandard tableaux of \[2\] count 3 "):
            semistandard_tableaux(pseudo_composition((2,)), (-1, 0, 1))
        with pytest.raises(groups.ResourceLimitError, match=r"^words count 2 exceeds the guard 1$"):
            pattern_words("A", (None,), (1, 2), "words")
    finally:
        groups.set_limits()


def test_semistandard_guard():
    # the guard raises exactly when the count exceeds the limit
    groups.set_limits(tableau=5)
    try:
        assert len(semistandard_tableaux(composition((1,)), range(1, 6))) == 5
        with pytest.raises(groups.ResourceLimitError):
            semistandard_tableaux(composition((1,)), range(1, 7))
        with pytest.raises(groups.ResourceLimitError):
            semistandard_tableaux(composition((2, 1)), range(1, 30))
    finally:
        groups.set_limits()
    # the words are counted before any is built: an enumeration too large
    # to hold raises with its exact count and holds no memory for it
    tracemalloc.start()
    try:
        with pytest.raises(groups.ResourceLimitError, match="count 177100 exceeds the guard 1000"):
            groups.set_limits(tableau=1000)
            semistandard_tableaux(composition((6,)), range(1, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        groups.set_limits()
    assert peak < 1_000_000
