import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from hecke_ribbon import groups, shapes
from hecke_ribbon.groups import (
    GroupElement,
    ResourceLimitError,
    descent_class,
    descents,
    diagram_automorphism,
    enumerate_group,
    generator,
    generators,
    group_order,
    identity,
    inverse,
    length,
    length_stats,
    longest_element,
    min_coset_reps,
    multiply,
    parabolic_longest,
)


def signed_windows(n):
    perms = st.permutations(list(range(1, n + 1)))
    signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    return st.tuples(perms, signs).map(
        lambda t: tuple(p * s for p, s in zip(*t))
    )


def test_multiply_examples():
    a = GroupElement("A", (2, 3, 1))
    b = GroupElement("A", (3, 1, 2))
    assert multiply(a, b).window == (1, 2, 3)
    s0 = generator("B", 3, 0)
    assert multiply(s0, s0) == identity("B", 3)
    d0, d1 = generator("D", 2, 0), generator("D", 2, 1)
    assert multiply(d0, d1).window == (-1, -2)


def test_descent_examples():
    assert descents(GroupElement("A", (3, 2, 1))) == frozenset({1, 2})
    assert descents(GroupElement("B", (-2, -1))) == frozenset({0})
    assert descents(GroupElement("D", (-2, -1, 3))) == frozenset({0})


def test_length_examples():
    assert length_stats(GroupElement("A", (3, 2, 1))) == (3, 0, 0, 3)
    assert length_stats(identity("B", 3)) == (0, 0, 0, 0)
    assert length_stats(GroupElement("B", (-1, 2, 3))) == (0, 1, 0, 1)
    assert length_stats(generator("D", 3, 0))[3] == 1


def test_orders():
    assert len(enumerate_group("A", 3)) == 6
    assert len(enumerate_group("B", 2)) == 8
    assert len(enumerate_group("D", 3)) == 24
    assert group_order("B", 4) == 384


@given(signed_windows(3))
def test_inverse_is_inverse(window):
    w = GroupElement("B", window)
    assert multiply(w, inverse(w)) == identity("B", 3)
    assert multiply(inverse(w), w) == identity("B", 3)


def test_group_axioms():
    import random

    rng = random.Random(2024)
    for kind, n in (("A", 4), ("B", 4), ("D", 4)):
        elems = enumerate_group(kind, n)
        e = identity(kind, n)
        for u in elems:  # identity and inverses, exhaustively
            assert multiply(u, e) == u == multiply(e, u)
            assert multiply(u, inverse(u)) == e
        for _ in range(300):  # associativity on sampled triples
            u, v, w = (elems[rng.randrange(len(elems))] for _ in range(3))
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_length_changes_by_one_and_descent_rule():
    for kind, n in (("A", 6), ("B", 4), ("D", 4)):
        gens = generators(kind, n)
        for w in enumerate_group(kind, n):
            ell = length(w)
            for i, s in gens.items():
                assert abs(length(multiply(s, w)) - ell) == 1
                # a right descent means right multiplication goes down
                assert (i in descents(w)) == (length(multiply(w, s)) < ell)


def test_descent_classes_partition_group():
    for kind, n in (("A", 4), ("B", 3), ("D", 3)):
        total = 0
        for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
            shape = s if kind == "A" else shapes.Shape(kind, s.components)
            cls = descent_class(kind, shape)
            total += len(cls.elements)
            lengths = sorted(length(w) for w in cls.elements)
            assert lengths[0] == length(cls.minimum)
            assert lengths[-1] == length(cls.maximum)
            if len(lengths) > 1:
                assert lengths[0] < lengths[1] and lengths[-2] < lengths[-1]
        assert total == group_order(kind, n)


def test_descent_class_examples():
    cls = descent_class("A", shapes.composition((2, 1)))
    assert {w.window for w in cls.elements} == {(1, 3, 2), (2, 3, 1)}
    sign = descent_class("A", shapes.composition((1, 1, 1, 1)))
    assert len(sign.elements) == 1
    assert length(sign.minimum) == 6


def test_min_coset_reps():
    reps = min_coset_reps("A", shapes.composition((2, 1)))
    assert len(reps) == 3
    assert min_coset_reps("A", shapes.composition((4,))) == (identity("A", 4),)
    assert min_coset_reps("B", shapes.pseudo_composition((3,))) == (identity("B", 3),)
    # counts are multinomial coefficients in type A
    from math import factorial

    for s in shapes.enumerate_shapes(5, "A"):
        count = len(min_coset_reps("A", s))
        expected = factorial(5)
        for p in s.parts:
            expected //= factorial(p)
        assert count == expected


def test_parabolic_longest_matches_scan():
    for kind, top in (("A", 5), ("B", 4), ("D", 4)):
        for n in range(2 if kind == "D" else 1, top + 1):
            for s in shapes.enumerate_shapes(n, kind):
                dset = shapes.descent_set(s)
                assert parabolic_longest(kind, n, dset) == descent_class(kind, s).minimum, s
            assert longest_element(kind, n) == max(enumerate_group(kind, n), key=length)
    with pytest.raises(ValueError):
        parabolic_longest("A", 3, {0})
    with pytest.raises(ValueError):
        parabolic_longest("D", 1, set())


def test_diagram_automorphism():
    assert diagram_automorphism("A", 4) == {1: 3, 2: 2, 3: 1}
    assert diagram_automorphism("B", 3) == {0: 0, 1: 1, 2: 2}
    assert diagram_automorphism("D", 3) == {0: 1, 1: 0, 2: 2}
    assert diagram_automorphism("D", 4) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_resource_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_group("B", 9)
    groups.set_limits(10, None)
    try:
        with pytest.raises(ResourceLimitError):
            enumerate_group("A", 4)
    finally:
        groups.set_limits(None, None)


def test_guard_formats_its_message_only_when_it_fires():
    formatted = []

    class Probe:
        def __format__(self, spec):
            formatted.append(spec)
            return "probe"

    groups.guard(3, 3, "things of {}", Probe())
    assert formatted == []
    with pytest.raises(ResourceLimitError, match=r"^things of probe count 4 exceeds the guard 3$"):
        groups.guard(4, 3, "things of {}", Probe())
    assert formatted == [""]
    groups.set_limits(10, None)
    try:
        with pytest.raises(ResourceLimitError, match=r"^group A_4 count 24 exceeds the guard 10$"):
            enumerate_group("A", 4)
    finally:
        groups.set_limits(None, None)


def test_resource_guard_env(monkeypatch):
    monkeypatch.setenv("HECKE_RIBBON_MAX_ENUM", "10")
    assert groups.group_limit() == 10
    with pytest.raises(ResourceLimitError):
        enumerate_group("A", 4)
    monkeypatch.delenv("HECKE_RIBBON_MAX_ENUM")
    assert groups.group_limit() == groups.DEFAULT_GROUP_LIMIT


def test_validate():
    with pytest.raises(ValueError):
        groups.validate(GroupElement("A", (1, -2)))
    with pytest.raises(ValueError):
        groups.validate(GroupElement("D", (-1, 2)))
    with pytest.raises(ValueError):
        groups.validate(GroupElement("B", (1, 1)))


def test_descent_buckets_are_read_only():
    buckets = groups._descent_buckets("A", 3)
    with pytest.raises(TypeError):
        buckets[frozenset()] = ()


def test_enumerate_group_is_in_window_order():
    """``band_elements`` merges descent classes by sorting element
    indices, which is window order only because the group is enumerated
    in window order."""
    for kind, top in (("A", 7), ("B", 5), ("D", 5)):
        for n in range(2 if kind == "D" else 0, top + 1):
            windows = [w.window for w in enumerate_group(kind, n)]
            assert windows == sorted(windows), (kind, n)
            assert len(set(windows)) == group_order(kind, n)


@functools.cache
def _with_descents(kind, n):
    return [(w, descents(w)) for w in enumerate_group(kind, n)]


def _brute_band(kind, n, lower, upper):
    return tuple(w for w, d in _with_descents(kind, n) if lower <= d <= upper)


def test_band_elements_match_a_brute_filter():
    """Every band lower <= upper of generator indices at n <= 4, and the
    descent band of every generalized shape of size <= 5."""
    for kind in shapes.KINDS:
        for n in range(2 if kind == "D" else 0, 5):
            pos = list(shapes.positions(kind, n))
            subsets = [
                frozenset(c) for k in range(len(pos) + 1) for c in itertools.combinations(pos, k)
            ]
            elems = enumerate_group(kind, n)
            for upper in subsets:
                for lower in (d for d in subsets if d <= upper):
                    got = groups.band_elements(kind, n, lower, upper)
                    assert got == _brute_band(kind, n, lower, upper), (kind, n, lower, upper)
                    indices = groups.band_indices(kind, n, lower, upper)
                    assert tuple(elems[g] for g in indices) == got and list(indices) == sorted(indices)
        for n in range(2 if kind == "D" else 1, 6):
            for shape in shapes.enumerate_generalized(n, kind, n):
                lower, upper = shapes.descent_band(shape)
                got = groups.band_elements(kind, n, lower, upper)
                assert got == _brute_band(kind, n, lower, upper), shape


def test_diagram_automorphism_is_read_only():
    sigma = groups.diagram_automorphism("D", 3)
    with pytest.raises(TypeError):
        sigma[0] = 0
    assert groups.diagram_automorphism("D", 3) == {0: 1, 1: 0, 2: 2}


def test_left_actions_match_multiply():
    """The table agrees with the group's own product, inverse, descents
    and length formula; its D(w^-1) sets are shared, one per distinct set."""
    for kind, top in (("A", 6), ("B", 5), ("D", 5)):
        for n in range(2 if kind == "D" else 0, top + 1):
            elems = enumerate_group(kind, n)
            table = groups.left_actions(kind, n)
            gens = generators(kind, n)
            assert set(table.step) == set(table.lowers) == set(gens)
            assert len(table.lengths) == len(table.inverse_descents) == len(elems)
            shared = set(table.inverse_descents)
            assert len({id(d) for d in table.inverse_descents}) == len(shared), (kind, n)
            for g, w in enumerate(elems):
                assert table.index[w.window] == g
                assert table.descents[g] == descents(w)
                assert table.lengths[g] == groups.length(w), (kind, w)
                left = descents(inverse(w))
                assert table.inverse_descents[g] == left, (kind, w)
                for i, s in gens.items():
                    assert elems[table.step[i][g]] == multiply(s, w), (kind, w, i)
                    assert table.lowers[i][g] == (i in left), (kind, w, i)


def test_left_actions_are_read_only():
    table = groups.left_actions("B", 3)
    with pytest.raises(TypeError):
        table.step[1] = ()
    with pytest.raises(TypeError):
        table.step[1][0] = 0
    with pytest.raises(TypeError):
        table.lowers[0] = ()
    with pytest.raises(TypeError):
        table.index[(1, 2, 3)] = 1
    with pytest.raises(TypeError):
        table.descents[0] = frozenset()
    with pytest.raises(TypeError):
        table.lengths[0] = 1
    with pytest.raises(TypeError):
        table.inverse_descents[0] = frozenset()
    for field in ("step", "lengths", "inverse_descents"):
        with pytest.raises(AttributeError):
            setattr(table, field, ())
    assert groups.left_actions("B", 3) is table


def test_left_actions_are_guarded():
    with pytest.raises(ResourceLimitError):
        groups.left_actions("B", 9)


def test_unknown_kind_is_rejected():
    for call in (
        lambda: enumerate_group("all", 3),
        lambda: group_order("all", 3),
        lambda: groups.left_actions("all", 2),
        lambda: groups.validate(GroupElement("all", (-1, 2))),
        lambda: generator("all", 2, 1),
        lambda: identity("C", 2),
        lambda: parabolic_longest("all", 2, {1}),
    ):
        with pytest.raises(ValueError, match="unknown kind"):
            call()
