import dataclasses
import json
import pickle
from itertools import product as cartesian
from operator import add
from types import MappingProxyType

import pytest

from hecke_ribbon import demazure, groups, modules, shapes, verify
from hecke_ribbon.demazure import (
    Poly,
    build_polynomial_module,
    demazure as pi,
    demazure_bar as pibar,
    format_poly,
    parse_poly,
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
            assert pibar(i, f) == pi(i, f) - f
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


def test_poly_products_keep_their_signs():
    """Products of polynomials with signed terms, pinned: a product that
    came out negated would still satisfy the defining identity of pi_i,
    whose two sides are both products."""
    assert parse_poly("x1 - x2", 2) * parse_poly("x1 + x2", 2) == parse_poly("x1^2 - x2^2", 2)
    assert parse_poly("x1", 2) * parse_poly("x1", 2) == parse_poly("x1^2", 2)
    assert parse_poly("-x1", 2) * parse_poly("x2", 2) == parse_poly("-x1*x2", 2)


def _general_product(f, g):
    """f * g as the sum over all pairs of terms, normalised by the
    constructor: the rule the one-term shift must agree with."""
    return Poly(f.n, tuple((tuple(map(add, m1, m2)), c1 * c2) for m1, c1 in f.terms for m2, c2 in g.terms))


def test_one_term_products_match_the_general_product():
    polys = [
        parse_poly("x1^2*x3 - 3*x2 + 5", 3),
        parse_poly("-2*x1*x2^4 + x3^2 - x1", 3),
        Poly(3, ()),
    ]
    terms = [parse_poly(t, 3) for t in ("x1", "-x2^2*x3", "7", "-4*x1*x3^3")]
    for f in polys + terms:
        for t in terms:
            for got, want in ((f * t, _general_product(f, t)), (t * f, _general_product(t, f))):
                assert got == want and got.terms == want.terms, (f, t)
    # no variables: the only monomial is the empty one
    for c, d in ((1, 1), (-3, 2), (2, -5)):
        f, t = Poly.monomial(0, (), c), Poly.monomial(0, (), d)
        assert f * t == t * f == _general_product(f, t) == Poly.monomial(0, (), c * d)
    assert Poly(0, ()) * Poly.one(0) == Poly.one(0) * Poly(0, ()) == Poly(0, ())


def test_poly_arithmetic_rejects_other_operands():
    f = parse_poly("x1 - x2", 2)
    for combine in (
        lambda: f + 1,
        lambda: f - 1,
        lambda: f * 1.5,
        lambda: 1.5 * f,
        lambda: f * None,
        lambda: 1 + f,
        lambda: 1 - f,
    ):
        with pytest.raises(TypeError):
            combine()
    assert 2 * f == f * 2 == f + f


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


def _bar_images_by_multiplication(alpha):
    """The bar images of x_alpha along the weak order, walked with group
    element arithmetic: the minimal coset representatives sorted by
    length, each image pi-bar_i of the image at s_i w, with i the least
    left descent of w."""
    images = {}
    gens = groups.generators("A", sum(alpha))
    for w in sorted(groups.min_coset_reps("A", composition(alpha)), key=groups.length):
        left = groups.descents(groups.inverse(w))
        if not left:
            images[w.window] = x_alpha(alpha)
            continue
        i = min(left)
        images[w.window] = pibar(i, images[groups.multiply(gens[i], w).window])
    return images


def test_bar_images_match_the_group_arithmetic_walk():
    for n in range(7):
        for s in shapes.enumerate_shapes(n, "A"):
            images = demazure._bar_images(s.parts)
            assert list(images.items()) == list(_bar_images_by_multiplication(s.parts).items()), s


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


def test_row_separated_model_is_the_projective_model_of_the_rows():
    for n in range(5):
        for s in shapes.enumerate_shapes(n, "A"):
            module, label = build_polynomial_module(s)
            rows, rows_label = build_polynomial_module(shapes.split_rows(s), "P")
            assert (module.basis, module.gens, label) == (rows.basis, rows.gens, rows_label), s


def _planted_images(monkeypatch, plant):
    """Replace the bar images of every composition by plant(window, image)."""
    bar_images = demazure._bar_images

    def planted(alpha):
        return MappingProxyType({w: plant(w, f) for w, f in bar_images(alpha).items()})

    monkeypatch.setattr(demazure, "_bar_images", planted)


def test_in_place_check_rejects_a_negated_basis_polynomial(monkeypatch):
    """The bar image of x_(2,1) at 2,3,1, negated, has leading coefficient
    -1, which the triangularity check rejects where the basis is built,
    before any action is compared."""
    _planted_images(monkeypatch, lambda w, f: -f if w == (2, 3, 1) else f)
    with pytest.raises(
        modules.CertificationError, match=r"^triangularity fails for \[2,1\]: w=2,3,1: missing unit leading term$"
    ):
        build_polynomial_module(composition((2, 1)))


@pytest.mark.parametrize(
    "plant, shape, model, witness",
    [
        # every image zeroed: no basis polynomial has its lead, which the
        # window alone would not notice
        (lambda w, f: f * 0, Shape("A", ((2,), (1, 1))), "P", r"\[2\]\+\[1,1\]: w=1,2,4,3: missing unit leading term"),
        (lambda w, f: f * 0, composition((2, 2, 2)), None, r"\[2,2,2\]: w=1,2,3,4,5,6: missing unit leading term"),
        # x1*x3, the lead at 1,3,2, added at 2,3,1: a second term of the
        # leading exponent pattern (1,1), not a smaller one
        (
            lambda w, f: f + parse_poly("x1*x3", 3) if w == (2, 3, 1) else f,
            composition((2, 1)),
            None,
            r"\[2,1\]: w=2,3,1: stray monomial \(1, 0, 1\)",
        ),
    ],
    ids=["zeroed-P", "zeroed-M", "stray"],
)
def test_planted_bar_images_fail_triangularity(monkeypatch, plant, shape, model, witness):
    _planted_images(monkeypatch, plant)
    with pytest.raises(modules.CertificationError, match=rf"^triangularity fails for {witness}$"):
        build_polynomial_module(shape, model)


def test_triangular_plant_still_fails_the_action(monkeypatch):
    """The constant 1 added to the image at 2,3,1 keeps it triangular (the
    constant is below every lead of x_(2,1)) and leaves its own bar images
    unchanged, since pi-bar_i kills constants, but basis 1 (word 1,3,2) no
    longer maps onto it under generator 1."""
    _planted_images(monkeypatch, lambda w, f: f + Poly.one(3) if w == (2, 3, 1) else f)
    with pytest.raises(modules.CertificationError, match=r"\[2\]\+\[1\]: generator 1 fails at basis 1$"):
        build_polynomial_module(composition((2, 1)))


def test_left_action_step_outside_the_band_reports_fail(monkeypatch, fresh_caches):
    """s_1 w = 2,1,3 at w = 2,3,1 in A_3 (it is 1,3,2) leaves the band of
    (2,1), so the walk has no image to apply pi-bar_1 to: a FAIL with a
    witness, not a KeyError that stops the run."""
    left_actions = groups.left_actions

    def wrong(kind, n):
        table = left_actions(kind, n)
        if (kind, n) != ("A", 3):
            return table
        g, h = table.index[(2, 3, 1)], table.index[(2, 1, 3)]
        step = {**table.step, 1: table.step[1][:g] + (h,) + table.step[1][g + 1 :]}
        return dataclasses.replace(table, step=MappingProxyType(step))

    monkeypatch.setattr(groups, "left_actions", wrong)
    [result] = verify.run(["demazure"], max_size=3)
    assert (result.name, result.passed) == ("demazure", False)
    assert result.detail == "bar images of x_[2,1]: s_1 w leaves the band at w=2,3,1"


def test_in_place_check_rejects_a_wrong_target(monkeypatch):
    """An emptied column of P_[2,1], a column of two entries, and a target
    on the words of another shape, which have no bar image of x_(2,1)."""
    build_p, shape = modules.build_p, composition((2, 1))
    target = build_p(shape)
    assert target.gens[1][0] == ((1, 1),)
    emptied = {**target.gens, 1: ((),) + target.gens[1][1:]}
    doubled = {**target.gens, 1: (((1, 1), (2, 1)),) + target.gens[1][1:]}
    for planted, witness in (
        (modules.HeckeModule("A", 3, target.basis, emptied, shape), r"generator 1 fails at basis 0$"),
        (modules.HeckeModule("A", 3, target.basis, doubled, shape), r"generator 1 has 2 entries at basis 0$"),
        (build_p(composition((1, 2))), r"word \(2, 1, 3\) has no bar image$"),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(modules, "build_p", lambda s: planted if s == shape else build_p(s))
            with pytest.raises(modules.CertificationError, match=r"\[2,1\]: " + witness):
                build_polynomial_module(shape, "P")


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
