import dataclasses
import json
import pickle
from itertools import product as cartesian

import pytest

from hecke_ribbon import demazure, groups, modules, shapes
from hecke_ribbon.demazure import (
    Poly,
    build_polynomial_module,
    demazure as pi,
    demazure_bar as pibar,
    format_poly,
    parse_poly,
    triangularity_check,
    x_alpha,
)
from hecke_ribbon.shapes import Shape, composition


def test_operator_examples():
    assert pi(1, Poly.monomial(2, (1, 0))) == parse_poly("x1 + x2", 2)
    f = parse_poly("x1*x2 + x3", 3)
    assert pi(1, f) == f  # symmetric in the first two variables
    xa = x_alpha((2, 1, 1))  # in four variables since the size is 4
    assert xa == parse_poly("x1^2*x2^2*x3", 4)
    assert pibar(2, xa) == parse_poly("x1^2*x2*x3^2", 4)
    assert pibar(1, xa) == Poly(4, ())


def test_x_alpha_values():
    assert x_alpha((4,)) == Poly.one(4)
    assert x_alpha((1, 1, 1, 1)) == parse_poly("x1^3*x2^2*x3", 4)  # staircase
    # bar operators kill the base monomial off the descent set
    for parts in [(2, 1), (1, 2, 1), (3, 1)]:
        base = x_alpha(parts)
        d = shapes.parts_descents(parts)
        for i in range(1, sum(parts)):
            if i not in d:
                assert pibar(i, base) == Poly(sum(parts), ())
            else:
                assert pibar(i, base) != Poly(sum(parts), ())


def test_operator_relations_exhaustive_small():
    n = 3
    for m in cartesian(range(4), repeat=n):
        if sum(m) > 5:
            continue
        f = Poly.monomial(n, m)
        for i in range(1, n):
            assert pi(i, pi(i, f)) == pi(i, f)
            assert pibar(i, pibar(i, f)) == -1 * pibar(i, f)
        assert pi(1, pi(2, pi(1, f))) == pi(2, pi(1, pi(2, f)))


def test_closed_form_satisfies_defining_identity():
    # (x_i - x_{i+1}) pi_i(f) = x_i f - x_{i+1} s_i(f), checked by multiplication
    for n in range(2, 6):
        x = {i: parse_poly(f"x{i}", n) for i in range(1, n + 1)}
        for m in cartesian(range(9), repeat=n):
            if sum(m) > 8:
                continue
            f = Poly.monomial(n, m)
            for i in range(1, n):
                swapped = f.permute(groups.generator("A", n, i))
                assert (x[i] - x[i + 1]) * pi(i, f) == x[i] * f - x[i + 1] * swapped, (m, i)


def test_closed_form_cases():
    assert pi(1, parse_poly("x1^3*x2*x3", 3)) == parse_poly(
        "x1^3*x2*x3 + x1^2*x2^2*x3 + x1*x2^3*x3", 3
    )  # a >= b
    assert pi(1, parse_poly("x1^2*x2^2", 2)) == parse_poly("x1^2*x2^2", 2)  # a == b
    assert pi(2, parse_poly("x1*x2^2*x3^3", 3)) == Poly(3, ())  # b == a + 1
    assert pi(1, parse_poly("x2^4", 2)) == parse_poly("-x1^3*x2 - x1^2*x2^2 - x1*x2^3", 2)


def test_parse_poly_rejects_bad_input():
    for text in ("x0", "x9", "x1^-1", "x1^", "x^2", "xa", "x1^2.5", "x1*-2", "x1*"):
        with pytest.raises(ValueError):
            parse_poly(text, 3)


def test_parse_format_round_trip():
    for text in ("x1^2*x2^2*x3 - 2*x1*x4", "1", "x2 - x1", "-3*x1^5"):
        f = parse_poly(text, 4)
        assert parse_poly(format_poly(f), 4) == f


def test_permute_leading_terms():
    base = x_alpha((2, 1))
    seen = set()
    for w in groups.min_coset_reps("A", composition((2, 1))):
        lead = base.permute(w).terms[0][0]
        assert lead not in seen
        seen.add(lead)


def test_triangularity():
    for n in range(1, 6):
        for s in shapes.enumerate_shapes(n, "A"):
            assert triangularity_check(s) == [], s.parts


def test_bar_word_application():
    # pibar_w x_alpha does not depend on the reduced word of w: applying the
    # bar operators along the word that peels the largest left descent
    # matches the cached images, which peel the smallest
    for parts in [(2, 1), (1, 1, 1), (1, 2, 1), (1, 1, 1, 1)]:
        gens = groups.generators("A", sum(parts))
        for w in groups.min_coset_reps("A", composition(parts)):
            word, cur = [], w
            while left := groups.descents(groups.inverse(cur)):
                word.append(max(left))
                cur = groups.multiply(gens[word[-1]], cur)
            f = x_alpha(parts)
            for i in reversed(word):
                f = pibar(i, f)
            assert f == demazure._bar_images(parts)[w.window], w


def test_polynomial_module_matches_row_separated():
    for n in range(1, 6):
        for s in shapes.enumerate_shapes(n, "A"):
            module, label = build_polynomial_module(s)
            assert module.dim == modules.build_m(s).dim
            assert label == shapes.split_rows(s)


def test_projective_polynomial_submodules():
    # the three distinguished submodules of the module generated by the
    # staircase-like monomial of (2,1,1)
    for shape, dim in (
        (Shape("A", ((2, 1), (1,))), 8),
        (Shape("A", ((2,), (1, 1))), 6),
        (composition((2, 1, 1)), 3),
    ):
        module, label = build_polynomial_module(shape, "P")
        assert module.dim == dim
        assert label == shape
    full, _ = build_polynomial_module(composition((2, 1, 1)))
    assert full.dim == 12


def test_one_dimensional_cases():
    module, _ = build_polynomial_module(composition((3,)))
    assert module.dim == 1
    assert all(col == ((),) for col in (module.gens[i] for i in (1, 2)))


def test_polynomial_module_reads_back_from_json():
    # the basis is labeled by the target's tableaux, so it reads back
    for shape, model in (
        (composition((2, 1, 1)), "M"),
        (Shape("A", ((2, 1), (1,))), "P"),
        (composition((3,)), None),
    ):
        module, _ = build_polynomial_module(shape, model)
        back = modules.module_from_json(json.loads(json.dumps(modules.module_to_json(module))))
        assert back.basis == module.basis, shape
        assert back.gens == module.gens, shape


def test_bar_images_are_read_only():
    images = demazure._bar_images((2, 1))
    with pytest.raises(TypeError):
        images[(1, 2, 3)] = Poly(3, ())


def test_poly_constructor_normalises_and_validates():
    # a zero term is dropped, equal monomials are summed, terms are sorted
    assert not Poly(2, (((1, 0), 0),))
    assert Poly(2, (((1, 0), 0),)) == Poly(2, ())
    assert Poly(2, (((0, 1), 2), ((1, 0), 1), ((0, 1), -2))) == Poly.monomial(2, (1, 0))
    assert Poly(2, ([[1, 0], 1],)).terms == (((1, 0), 1),)
    # a monomial of the wrong length no longer reaches the operators
    for terms in ((((1, 0, 5), 1),), (((1,), 1),), (((1, -1), 1),), (((1, 0), 1.0),), (((True, 0), 1),)):
        with pytest.raises(ValueError):
            Poly(2, terms)
    with pytest.raises(ValueError):
        Poly.monomial(2, (1, 0, 5))
    # arithmetic between different numbers of variables
    f, g = parse_poly("x1", 2), parse_poly("x1", 3)
    for combine in (f.__add__, f.__sub__, f.__mul__):
        with pytest.raises(ValueError):
            combine(g)


def test_polys_are_slotted_values():
    """Poly is frozen like tableaux.Tableau: a new name, a field and a
    deletion all raise FrozenInstanceError, and results built unchecked by
    ``_make`` still replace, hash and pickle like constructed ones."""
    f = Poly.one(2)
    assert not hasattr(f, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.foo = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.n = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del f.terms
    g = -parse_poly("x1 - x2", 2)
    assert pickle.loads(pickle.dumps(g)) == g and hash(pickle.loads(pickle.dumps(g))) == hash(g)
    assert dataclasses.replace(g, terms=f.terms) == f


def test_poly_is_an_immutable_value():
    f = parse_poly("x1^2 - 3*x2", 2)
    for name in ("n", "terms"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert repr(f) == "Poly(n=2, terms=(((0, 1), -3), ((2, 0), 1)))"
    assert hash(f) == hash((2, f.terms)) and f == Poly(2, f.terms) and f != f.terms
    assert f - f == Poly(2, ()) and f - 2 * f == -f and str(f - 2 * f) == "-x1^2 + 3*x2"
