import random

import pytest
from hypothesis import given, settings, strategies as st

from hecke_ribbon import groups, modules, series, shapes
from hecke_ribbon.qpoly import ONE, QPoly, q_factorial, q_multinomial
from hecke_ribbon.series import (
    SeriesElement,
    TruncatedNCSeries,
    antipode,
    band_product_identity,
    convert,
    coproduct,
    element as E,
    evaluate_commutative,
    evaluate_noncommutative,
    graded_characteristic_direct,
    noncommutative_characteristic,
    nsym_product,
    pairing,
    q_ribbon,
    qsym_product,
    quasisymmetric_characteristic,
    ribbon_sum_identity,
    schur_coproduct,
    series_from_json,
    series_to_json,
    skew,
    truncation_independent,
    unit,
)
from hecke_ribbon.shapes import Shape, composition, pseudo_composition


def comps(n):
    return [s.parts for s in shapes.enumerate_shapes(n, "A")]


def test_conversion_examples_and_round_trips():
    assert convert(E("QSym", "F", (2,)), "M") == E("QSym", "M", (2,)) + E("QSym", "M", (1, 1))
    assert convert(E("NSym", "s", (1, 1)), "h") == E("NSym", "h", (1, 1)) - E("NSym", "h", (2,))
    for space, b1, b2, kind in (
        ("QSym", "F", "M", "A"),
        ("NSym", "s", "h", "A"),
        ("QSymB", "F", "M", "B"),
        ("NSymB", "h", "s", "B"),
        ("NSymD", "h", "s", "D"),
    ):
        lo = 2 if kind == "D" else 0
        for n in range(lo, 5):
            for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
                e = E(space, b1, s.parts)
                assert convert(convert(e, b2), b1) == e


def test_unitriangular_conversion():
    # the change of basis is unitriangular for the refinement order
    for parts in comps(4):
        out = convert(E("NSym", "h", parts), "s")
        assert out.terms[parts] == ONE
        for other in out.terms:
            assert shapes.parts_descents(other) <= shapes.parts_descents(parts)


def test_shuffle_product():
    prod = qsym_product(E("QSym", "F", (1, 1)), E("QSym", "F", (2,)))
    expected = {}
    for w in [(2, 1, 3, 4), (2, 3, 1, 4), (3, 2, 1, 4), (2, 3, 4, 1), (3, 2, 4, 1), (3, 4, 2, 1)]:
        key = shapes.parts_from_descents(
            groups.descents(groups.GroupElement("A", w)), 4, "A"
        )
        expected[key] = expected.get(key, QPoly()) + 1
    assert prod.terms == expected
    assert qsym_product(E("QSym", "F", (1,)), E("QSym", "F", (1,))) == (
        E("QSym", "F", (2,)) + E("QSym", "F", (1, 1))
    )
    f = E("QSym", "F", (2, 1)) + E("QSym", "F", (3,), 2)
    assert qsym_product(unit("QSym", "F"), f) == f


def test_qsym_product_commutes():
    rng = random.Random(5)
    pool = [p for n in range(1, 5) for p in comps(n)]
    for _ in range(20):
        a, b = rng.choice(pool), rng.choice(pool)
        x, y = E("QSym", "F", a), E("QSym", "F", b)
        assert qsym_product(x, y) == qsym_product(y, x)


def test_nsym_product_rules():
    assert nsym_product(E("NSym", "s", (2,)), E("NSym", "s", (1, 3))) == (
        E("NSym", "s", (2, 1, 3)) + E("NSym", "s", (3, 3))
    )
    assert nsym_product(E("NSymB", "s", (0, 1)), E("NSym", "s", (1,))) == (
        E("NSymB", "s", (0, 1, 1)) + E("NSymB", "s", (0, 2))
    )
    assert nsym_product(E("NSym", "h", (2,)), E("NSym", "h", (3, 1))) == E(
        "NSym", "h", (2, 3, 1)
    )
    # h-route product agrees with the two-term rule after conversion
    for a in comps(3):
        for b in comps(2):
            sa, sb = E("NSym", "s", a), E("NSym", "s", b)
            via_h = convert(nsym_product(convert(sa, "h"), convert(sb, "h")), "s")
            assert via_h == nsym_product(sa, sb)
    with pytest.raises(ValueError):
        nsym_product(E("QSym", "F", (1,)), E("NSym", "s", (1,)))


def test_coproduct_fundamental_display():
    got = coproduct(E("QSym", "F", (1, 2)))
    assert got == (
        ((), (1, 2), ONE),
        ((1,), (2,), ONE),
        ((1, 1), (1,), ONE),
        ((1, 2), (), ONE),
    )


def test_coproduct_row_is_prefix_cuts():
    got = {(l, r) for l, r, _ in coproduct(E("NSym", "s", (4,)))}
    assert got == {((4,), ()), ((3,), (1,)), ((2,), (2,)), ((1,), (3,)), ((), (4,))}


def test_comodule_maps():
    got = coproduct(E("QSymB", "F", (2, 1)))
    assert ((0,), (2, 1), ONE) in got and ((2, 1), (), ONE) in got
    assert len(got) == 4
    gotm = coproduct(E("QSymB", "M", (0, 2, 1)))
    assert gotm == (((0,), (2, 1), ONE), ((0, 2), (1,), ONE), ((0, 2, 1), (), ONE))
    gotd = coproduct(E("QSymD", "F", (1, 2)))
    assert all(sum(l) >= 2 for l, _, _ in gotd)
    gotdm = coproduct(E("QSymD", "M", (1, 1, 1)))
    assert gotdm == (((1, 1), (1,), ONE), ((1, 1, 1), (), ONE))
    with pytest.raises(ValueError):
        coproduct(E("NSymB", "s", (0, 1)))


def test_comodule_coassociativity():
    # (id x Delta) after the coaction equals (coaction x id) after it
    for space, kind in (("QSymB", "B"), ("QSymD", "D")):
        lo = 2 if kind == "D" else 0
        for n in range(lo, 5):
            for s in shapes.enumerate_shapes(n, "B"):
                left_route = {}
                for l, r, c in coproduct(E(space, "F", s.parts)):
                    for l2, r2, c2 in coproduct(E(space, "F", l)):
                        key = (l2, r2, r)
                        left_route[key] = left_route.get(key, QPoly()) + c * c2
                right_route = {}
                for l, r, c in coproduct(E(space, "F", s.parts)):
                    for l2, r2, c2 in coproduct(E("QSym", "F", r)):
                        key = (l, l2, r2)
                        right_route[key] = right_route.get(key, QPoly()) + c * c2
                left_route = {k: v for k, v in left_route.items() if v}
                right_route = {k: v for k, v in right_route.items() if v}
                assert left_route == right_route, s.parts


def test_coassociativity_type_a():
    for parts in comps(4):
        for basis, space in (("F", "QSym"), ("s", "NSym")):
            left_route, right_route = {}, {}
            for l, r, c in coproduct(E(space, basis, parts)):
                for l2, r2, c2 in coproduct(E(space, basis, l)):
                    key = (l2, r2, r)
                    left_route[key] = left_route.get(key, QPoly()) + c * c2
            for l, r, c in coproduct(E(space, basis, parts)):
                for l2, r2, c2 in coproduct(E(space, basis, r)):
                    key = (l, l2, r2)
                    right_route[key] = right_route.get(key, QPoly()) + c * c2
            assert {k: v for k, v in left_route.items() if v} == {
                k: v for k, v in right_route.items() if v
            }


def test_coproduct_is_algebra_map_on_samples():
    # Delta(fg) = Delta(f) Delta(g) with the componentwise shuffle product
    rng = random.Random(9)
    pool = [p for n in range(1, 4) for p in comps(n)]
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        lhs = {}
        for l, r, c in coproduct(qsym_product(E("QSym", "F", a), E("QSym", "F", b))):
            lhs[(l, r)] = lhs.get((l, r), QPoly()) + c
        rhs = {}
        for l1, r1, c1 in coproduct(E("QSym", "F", a)):
            for l2, r2, c2 in coproduct(E("QSym", "F", b)):
                left = qsym_product(E("QSym", "F", l1), E("QSym", "F", l2))
                right = qsym_product(E("QSym", "F", r1), E("QSym", "F", r2))
                for lk, lc in left.terms.items():
                    for rk, rc in right.terms.items():
                        key = (lk, rk)
                        rhs[key] = rhs.get(key, QPoly()) + c1 * c2 * lc * rc
        assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def labels(kind, sizes):
    return [s.parts for n in sizes for s in shapes.enumerate_shapes(n, kind)]


def test_pairing():
    assert pairing(E("NSym", "h", (2, 1)), E("QSym", "M", (2, 1))) == ONE
    assert pairing(E("NSym", "h", (2, 1)), E("QSym", "M", (1, 2))) == QPoly()
    for n in range(5):
        for a in shapes.enumerate_shapes(n, "A"):
            for b in shapes.enumerate_shapes(n, "A"):
                want = QPoly.of(1 if a == b else 0)
                assert pairing(E("NSym", "s", a.parts), E("QSym", "F", b.parts)) == want
    # s/F and h/M are dual bases in types B and D too; skew relies on it
    for nsym, qsym, kind, sizes in (
        ("NSymB", "QSymB", "B", range(4)),
        ("NSymD", "QSymD", "D", range(2, 5)),
    ):
        for a in labels(kind, sizes):
            for b in labels(kind, sizes):
                want = QPoly.of(1 if a == b else 0)
                assert pairing(E(nsym, "s", a), E(qsym, "F", b)) == want, (a, b)
                assert pairing(E(nsym, "h", a), E(qsym, "M", b)) == want, (a, b)


def test_antipode():
    assert antipode(E("QSym", "F", (2, 3, 1, 1))) == E("QSym", "F", (3, 1, 2, 1), -1)
    assert antipode(unit("QSym", "F")) == unit("QSym", "F")
    assert antipode(E("NSym", "s", (2, 1))) == E("NSym", "s", (2, 1), -1)
    with pytest.raises(ValueError):
        antipode(E("QSymB", "F", (0, 1)))


def test_skew():
    got = skew(E("NSym", "s", (2, 3)), E("QSym", "F", (2,)))
    assert got == E("NSym", "s", (1, 2)) + E("NSym", "s", (2, 1)) + E("NSym", "s", (3,), 2)
    # skewing a fundamental by a ribbon function keeps only a matching suffix
    assert skew(E("QSym", "F", (2, 3)), E("NSym", "s", (3,))) == E("QSym", "F", (2,))
    assert skew(E("QSym", "F", (2, 3)), E("NSym", "s", (1, 2))).is_zero()
    left = skew(E("QSymB", "F", (0, 2, 1)), E("NSymB", "s", (0, 2)), "left")
    assert left == E("QSym", "F", (1,))
    # f is checked against the paired factor even when a is zero
    with pytest.raises(ValueError):
        skew(SeriesElement("NSym", "s", {}), E("NSym", "s", (1,)))
    with pytest.raises(ValueError):
        skew(SeriesElement("NSym", "s", {}), E("QSymB", "F", (0, 1)))


def skew_by_pairing(a, f, side):
    """The defining sum: c * <f, paired factor> over the coproduct of a."""
    lspace, rspace = series.coproduct_spaces(a.space)
    out = SeriesElement(lspace if side == "right" else rspace, a.basis, {})
    for left, right, c in coproduct(a):
        kept, paired, space = (left, right, rspace) if side == "right" else (right, left, lspace)
        out = out + SeriesElement(
            out.space, a.basis, {kept: c * pairing(f, E(space, a.basis, paired))}
        )
    return out


def test_skew_matches_pairing_definition():
    sizes = {"A": range(4), "B": range(4), "D": range(2, 4)}
    dual = dict(zip(series.QSYM_SIDE, series.NSYM_SIDE))
    dual.update({n: q for q, n in dual.items()})
    cases = 0
    for space, bases in (("QSym", "MF"), ("QSymB", "MF"), ("QSymD", "MF"), ("NSym", "hs")):
        lspace, rspace = series.coproduct_spaces(space)
        for basis in bases:
            for parts in labels(series.SPACE_KIND[space], sizes[series.SPACE_KIND[space]]):
                a = E(space, basis, parts)
                for side, paired in (("right", rspace), ("left", lspace)):
                    fspace = dual[paired]
                    fkind = series.SPACE_KIND[fspace]
                    for fbasis in "MF" if fspace in series.QSYM_SIDE else "hs":
                        for fparts in labels(fkind, sizes[fkind]):
                            f = E(fspace, fbasis, fparts)
                            assert skew(a, f, side) == skew_by_pairing(a, f, side), (a, f, side)
                            cases += 1
    assert cases == 3364


def test_schur_coproduct_of_generalized_shapes():
    shape = Shape("A", ((1,), (1,)))
    got = schur_coproduct(shape)
    # both bracket elements appear at the ends of the splitting
    assert got[((), (1, 1))] == ONE and got[((), (2,))] == ONE
    assert got[((1,), (1,))] == QPoly.of(2)


def test_q_ribbon():
    for n in range(1, 6):
        for parts in comps(n):
            det = q_ribbon(parts, "det")
            assert det == q_ribbon(parts, "ie") == q_ribbon(parts, "brute"), parts
    for n in range(5, 13):
        assert q_ribbon((1,) * n, "det") == QPoly.q(n * (n - 1) // 2)
        assert q_ribbon((n,), "det") == ONE
    assert q_ribbon((2, 1), "det") == QPoly.of((0, 1, 1))


@pytest.mark.parametrize("method", ["det", "ie", "brute"])
@pytest.mark.parametrize("parts", [(2, 0, 1), (-1, 2)])
def test_q_ribbon_rejects_non_compositions(parts, method):
    with pytest.raises(shapes.ShapeError):
        q_ribbon(parts, method)


# a composition of n is its descent set, a subset of 1..n-1
LARGE_COMPOSITIONS = st.integers(8, 12).flatmap(
    lambda n: st.sets(st.integers(1, n - 1)).map(
        lambda dset: shapes.parts_from_descents(dset, n, "A")
    )
)


@settings(deadline=None, max_examples=15)
@given(LARGE_COMPOSITIONS)
def test_q_ribbon_det_matches_ie_above_desk_scale(parts):
    assert q_ribbon(parts, "det") == q_ribbon(parts, "ie")


def test_q_multinomial_specialization():
    # the sum of q-ribbon numbers over coarsenings is the q-multinomial
    for parts in comps(5):
        total = QPoly()
        for beta in shapes.coarsenings(composition(parts)):
            total = total + q_ribbon(beta.parts, "ie")
        assert total == q_multinomial(5, parts)


def test_band_and_interval_identities():
    for shape in (
        Shape("A", ((1,), (1,))),
        Shape("A", ((2, 1), (2,))),
        Shape("A", ((1,), (1,), (2,))),
    ):
        lhs, rhs = band_product_identity(shape)
        assert lhs == rhs
    lhs, rhs = ribbon_sum_identity((2, 3, 1, 2), (2, 1, 2, 1, 1, 1))
    assert lhs == rhs
    assert rhs == (
        q_multinomial(8, (3, 4, 1))
        * q_ribbon((2, 1), "ie")
        * q_ribbon((2, 1, 1), "ie")
        * q_ribbon((1,), "ie")
    )
    with pytest.raises(ValueError):
        ribbon_sum_identity((2, 1), (1, 1, 2))


def test_characteristics():
    c = modules.build_c(composition((2, 1)))
    assert quasisymmetric_characteristic(c) == E("QSym", "F", (2, 1))
    cb = modules.build_c(pseudo_composition((0, 2)))
    assert quasisymmetric_characteristic(cb) == E("QSymB", "F", (0, 2))
    # the characteristic of the row-separated module is the shuffle
    # product of the single-row fundamentals, while its one-dimensional
    # quotients are labeled by the coarsenings
    for parts in comps(4):
        m = modules.build_m(composition(parts))
        prod = unit("QSym", "F")
        for p in parts:
            prod = qsym_product(prod, E("QSym", "F", (p,)))
        assert quasisymmetric_characteristic(m) == prod, parts
    for parts in comps(4):
        module = modules.build_p(composition(parts))
        assert quasisymmetric_characteristic(module, graded=True) == graded_characteristic_direct(
            composition(parts)
        )
    labels = modules.filtration_by_descent(modules.build_p(Shape("A", ((2,), (2,))))).labels
    assert noncommutative_characteristic(labels, "A") == (
        E("NSym", "s", (4,)) + E("NSym", "s", (2, 2))
    )


def test_truncated_evaluation():
    assert evaluate_commutative(E("QSym", "M", (1, 1)), (1, 2)) == {(1, 1): 1}
    assert evaluate_commutative(E("QSym", "F", (2,)), (1, 2)) == {
        (2, 0): 1,
        (1, 1): 1,
        (0, 2): 1,
    }
    ev = evaluate_noncommutative(E("NSym", "s", (1, 1)), (1, 2, 3))
    assert ev.terms == {(2, 1): 1, (3, 1): 1, (3, 2): 1}
    with pytest.raises(ValueError):
        evaluate_commutative(E("QSymB", "F", (2,)), (-1, 0, 1))


def test_truncation_identities():
    # four letters, so that every ribbon of size 4 evaluates to nonzero
    window = (1, 2, 3, 4)
    for parts in comps(4):
        f = E("QSym", "F", parts)
        assert evaluate_commutative(f, window) == evaluate_commutative(convert(f, "M"), window)
        h = E("NSym", "h", parts)
        assert evaluate_noncommutative(h, window) == evaluate_noncommutative(
            convert(h, "s"), window
        )
    # the type B unit relation: a type A ribbon function is the sum of its
    # two pseudo-ribbon lifts
    window = tuple(range(-3, 4))
    for parts in comps(3):
        plain = evaluate_noncommutative(E("NSym", "s", parts), window)
        lifted = evaluate_noncommutative(
            E("NSymB", "s", parts) + E("NSymB", "s", (0,) + parts), window
        )
        assert plain == lifted, parts


def test_truncation_independence():
    window = tuple(range(-4, 5))
    elems = [
        evaluate_noncommutative(E("NSymB", "s", s.parts), window)
        for n in range(0, 4)
        for s in shapes.enumerate_shapes(n, "B")
    ]
    assert truncation_independent(elems)
    dependent = elems[:2] + [elems[0] + elems[1]]
    assert not truncation_independent(dependent)
    # NSym_n injects into k noncommuting letters only when k >= n: the
    # ribbon r_(1^n) needs n strictly increasing entries in one column
    def plain(window, max_size):
        return [
            evaluate_noncommutative(E("NSym", "s", s.parts), window)
            for n in range(1, max_size + 1)
            for s in shapes.enumerate_shapes(n, "A")
        ]

    assert truncation_independent(plain((1, 2, 3, 4), 4))
    assert truncation_independent(plain((1, 2, 3), 3))
    assert not truncation_independent(plain((1, 2, 3), 4))
    assert evaluate_noncommutative(E("NSym", "s", (1, 1, 1, 1)), (1, 2, 3)).terms == {}
    window5 = tuple(range(-5, 6))
    dtype = [
        evaluate_noncommutative(E("NSymD", "s", s.parts), window5)
        for n in range(2, 5)
        for s in shapes.enumerate_shapes(n, "B")
    ]
    assert truncation_independent(dtype)


def test_bracket_product_chain():
    # the ribbon function of a multi-component shape is the product of its
    # component functions and expands over the bracket set
    shape = Shape("A", ((2,), (2, 2), (3, 2)))
    prod = E("NSym", "s", (2,))
    for comp in shape.components[1:]:
        prod = nsym_product(prod, E("NSym", "s", comp))
    total = SeriesElement("NSym", "s", {})
    for gamma in shapes.bracket_set(shape):
        total = total + E("NSym", "s", gamma.parts)
    assert prod == total
    assert {g.parts for g in shapes.bracket_set(shape)} == {
        (2, 2, 2, 3, 2),
        (4, 2, 3, 2),
        (2, 2, 5, 2),
        (4, 5, 2),
    }


def test_d_space_degree_guard():
    with pytest.raises(shapes.ShapeError):
        E("QSymD", "F", (1,))
    with pytest.raises(shapes.ShapeError):
        E("NSymD", "s", (0, 1))


def test_series_json_round_trip():
    elem = E("NSym", "s", (2, 3)) + E("NSym", "s", (1, 1), QPoly.of((0, 1)))
    data = series_to_json(elem)
    assert series_from_json(data) == elem
    assert data["space"] == "NSym" and data["basis"] == "s"


@settings(max_examples=30)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple))
def test_antipode_is_involutive_up_to_sign_structure(parts):
    # applying the antipode twice returns the original element
    e = E("QSym", "F", parts)
    assert antipode(antipode(e)) == e
