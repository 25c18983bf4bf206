import json
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hecke_ribbon import groups, modules, series, shapes
from hecke_ribbon.qpoly import ONE, QPoly, q_factorial, q_multinomial
from hecke_ribbon.series import (
    SeriesElement,
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
        assert out.terms[parts] == 1
        for other in out.terms:
            assert shapes.parts_descents(other) <= shapes.parts_descents(parts)


def test_shuffle_product():
    prod = qsym_product(E("QSym", "F", (1, 1)), E("QSym", "F", (2,)))
    expected = {}
    for w in [(2, 1, 3, 4), (2, 3, 1, 4), (3, 2, 1, 4), (2, 3, 4, 1), (3, 2, 4, 1), (3, 4, 2, 1)]:
        key = shapes.parts_from_descents(
            groups.descents(groups.GroupElement("A", w)), 4, "A"
        )
        expected[key] = expected.get(key, 0) + 1
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
        ((), (1, 2), 1),
        ((1,), (2,), 1),
        ((1, 1), (1,), 1),
        ((1, 2), (), 1),
    )


def test_coproduct_row_is_prefix_cuts():
    got = {(l, r) for l, r, _ in coproduct(E("NSym", "s", (4,)))}
    assert got == {((4,), ()), ((3,), (1,)), ((2,), (2,)), ((1,), (3,)), ((), (4,))}


def test_comodule_maps():
    got = coproduct(E("QSymB", "F", (2, 1)))
    assert ((0,), (2, 1), 1) in got and ((2, 1), (), 1) in got
    assert len(got) == 4
    gotm = coproduct(E("QSymB", "M", (0, 2, 1)))
    assert gotm == (((0,), (2, 1), 1), ((0, 2), (1,), 1), ((0, 2, 1), (), 1))
    gotd = coproduct(E("QSymD", "F", (1, 2)))
    assert all(sum(l) >= 2 for l, _, _ in gotd)
    gotdm = coproduct(E("QSymD", "M", (1, 1, 1)))
    assert gotdm == (((1, 1), (1,), 1), ((1, 1, 1), (), 1))
    with pytest.raises(ValueError):
        coproduct(E("NSymB", "s", (0, 1)))
    # the zero element of a space without a coproduct has none either
    for space in ("NSymB", "NSymD"):
        for basis in ("h", "s"):
            zero = SeriesElement(space, basis, {})
            with pytest.raises(ValueError, match="no coproduct"):
                coproduct(zero)
            with pytest.raises(ValueError, match="no coproduct"):
                series.skew(zero, E("QSym", "F", (1,)))


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


def _coassociativity_routes(space, basis, parts):
    """(Delta x id) Delta and (id x Delta) Delta of a type A basis element,
    as sparse dicts over label triples."""
    left_route, right_route = {}, {}
    for l, r, c in coproduct(E(space, basis, parts)):
        for l2, r2, c2 in coproduct(E(space, basis, l)):
            key = (l2, r2, r)
            left_route[key] = left_route.get(key, QPoly()) + c * c2
        for l2, r2, c2 in coproduct(E(space, basis, r)):
            key = (l, l2, r2)
            right_route[key] = right_route.get(key, QPoly()) + c * c2
    return (
        {k: v for k, v in left_route.items() if v},
        {k: v for k, v in right_route.items() if v},
    )


def test_coassociativity_type_a():
    for parts in comps(4):
        for basis, space in (("F", "QSym"), ("s", "NSym")):
            left_route, right_route = _coassociativity_routes(space, basis, parts)
            assert left_route == right_route


@st.composite
def small_compositions(draw):
    """A composition of size at most 6, the empty one included."""
    size = draw(st.integers(0, 6))
    picks = draw(st.lists(st.booleans(), min_size=max(size - 1, 0), max_size=max(size - 1, 0)))
    cuts = frozenset(i + 1 for i, b in enumerate(picks) if b)
    return shapes.parts_from_descents(cuts, size, "A")


@settings(deadline=None, max_examples=40)
@given(small_compositions(), st.sampled_from((("QSym", "F"), ("QSym", "M"), ("NSym", "s"))))
def test_coassociativity_on_drawn_compositions(parts, space_basis):
    left_route, right_route = _coassociativity_routes(*space_basis, parts)
    assert left_route == right_route, parts


@settings(deadline=None, max_examples=40)
@given(small_compositions())
def test_ribbon_coproduct_memo_matches_schur_coproduct(parts):
    # the memoised row holds schur_coproduct's QPoly constants as ints
    cop = schur_coproduct(composition(parts))
    assert all(type(c) is QPoly and c.degree == 0 for c in cop.values())
    want = tuple((l, r, c(1)) for (l, r), c in sorted(cop.items()))
    series._coproduct_row.cache_clear()
    assert coproduct(E("NSym", "s", parts)) == want  # cold: computes the label
    assert coproduct(E("NSym", "s", parts)) == want  # warm: reads it back


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
    # pairing values follow the coefficient rule: ints when constant
    assert pairing(E("NSym", "h", (2, 1)), E("QSym", "M", (2, 1))) == 1
    assert pairing(E("NSym", "h", (2, 1)), E("QSym", "M", (1, 2))) == 0
    q = QPoly.q(1)
    assert pairing(E("NSym", "h", (2, 1), q), E("QSym", "M", (2, 1), q)) == QPoly.q(2)
    # q - q is the constant 0, and (1 + q) - q the constant 1
    x = E("QSym", "M", (2,), q) + E("QSym", "M", (1, 1), QPoly((1, 1)))
    assert pairing(E("NSym", "h", (2,)) - E("NSym", "h", (1, 1)), x) == -1
    for n in range(5):
        for a in shapes.enumerate_shapes(n, "A"):
            for b in shapes.enumerate_shapes(n, "A"):
                want = 1 if a == b else 0
                assert pairing(E("NSym", "s", a.parts), E("QSym", "F", b.parts)) == want
    # s/F and h/M are dual bases in types B and D too; skew relies on it
    for nsym, qsym, kind, sizes in (
        ("NSymB", "QSymB", "B", range(4)),
        ("NSymD", "QSymD", "D", range(2, 5)),
    ):
        for a in labels(kind, sizes):
            for b in labels(kind, sizes):
                want = 1 if a == b else 0
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
    assert skew(E("QSym", "F", (2, 3)), E("NSym", "s", (1, 2))).terms == {}
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


def _via_h_from_qpoly_zero(shape):
    """The h-route of the benchmark's coproduct spot-check
    (perfbench/child.py, via_h), as it forms it: public conversions and
    coproducts, each product summed onto QPoly()."""
    h = SeriesElement("NSym", "h", {})
    for gamma in shapes.bracket_set(shape):
        h = h + convert(E("NSym", "s", gamma.parts), "h")
    total = {}
    for left, right, c in coproduct(h):
        ls = convert(E("NSym", "h", left), "s").terms
        rs = convert(E("NSym", "h", right), "s").terms
        for l2, cl in ls.items():
            for r2, cr in rs.items():
                total[(l2, r2)] = total.get((l2, r2), QPoly()) + c * cl * cr
    return {k: v for k, v in total.items() if v}


def test_schur_coproduct_values_stay_qpoly_for_the_benchmark():
    """schur_coproduct is the one exception to the coefficient rule: the
    benchmark compares its values with sums started from QPoly(), and
    QPoly(1) == 1 is False, so an int value would fail the benchmark."""
    family = [s for n in range(1, 5) for s in shapes.enumerate_generalized(n, "A", 3)]
    assert len(family) > 20
    for shape in family:
        direct = {k: v for k, v in schur_coproduct(shape).items() if v}
        assert direct and all(type(v) is QPoly for v in direct.values()), shape
        assert direct == _via_h_from_qpoly_zero(shape), shape


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
    for _ in range(2):  # a memoised call that raised must raise again
        with pytest.raises(shapes.ShapeError):
            q_ribbon(parts, method)


@pytest.mark.parametrize("method", ["det", "ie", "brute"])
def test_q_ribbon_takes_a_list_label(method):
    assert q_ribbon([2, 1], method) == q_ribbon((2, 1), method) == QPoly.of((0, 1, 1))


def test_q_ribbon_rejects_an_unknown_method_every_time():
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown method"):
            q_ribbon((2, 1), "pfaffian")


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
    assert ev == {(2, 1): 1, (3, 1): 1, (3, 2): 1}
    with pytest.raises(ValueError):
        evaluate_commutative(E("QSymB", "F", (2,)), (-1, 0, 1))
    # the type B units: the empty word, on both sides
    for basis in ("F", "M"):
        assert evaluate_commutative(E("QSymB", basis, (0,)), (0, 1, 2)) == {(0, 0, 0): 1}
    assert evaluate_noncommutative(E("NSymB", "s", (0,)), (0, 1, 2)) == {(): 1}


def test_monomial_evaluation_reads_exponents_in_window_order():
    # M_a sums the monomials whose nonzero exponents, read in window
    # order, are a: brute force over every exponent vector of size |a|
    window = (1, 2, 3, 4)
    for n in range(0, 5):
        vectors = [v for v in product(range(n + 1), repeat=len(window)) if sum(v) == n]
        for parts in comps(n):
            got = evaluate_commutative(E("QSym", "M", parts), window)
            expected = {v: 1 for v in vectors if tuple(e for e in v if e) == parts}
            assert got == expected, parts


def test_commutative_evaluation_guard_names_the_term():
    groups.set_limits(tableau=3)
    try:
        assert len(evaluate_commutative(E("QSym", "M", (1, 1)), (1, 2, 3))) == 3
        with pytest.raises(groups.ResourceLimitError, match=r"^index words of F\[2, 1\] count 4 "):
            evaluate_commutative(E("QSym", "F", (2, 1)), (1, 2, 3))
    finally:
        groups.set_limits()


def test_commutative_evaluation_against_index_words():
    # F_a (M_a) in types B and D sums the weakly increasing index words
    # that rise strictly at the descents of a (and stay equal elsewhere),
    # position 0 comparing with the 0-box value: 0 in B, -w[1] in D
    for kind, space, window, sizes in (
        ("B", "QSymB", (0, 1, 2), range(0, 4)),
        ("D", "QSymD", (-2, -1, 0, 1, 2), range(2, 5)),
    ):
        for n in sizes:
            words = [w for w in product(window, repeat=n) if list(w) == sorted(w)]
            for s in shapes.enumerate_shapes(n, "B"):
                dset = shapes.parts_descents(s.parts)
                for basis in ("F", "M"):

                    def ok(w):
                        prev = [0 if kind == "B" else -w[1], *w]  # prev[j] precedes w[j]
                        for j in range(n):
                            if j in dset:
                                if not prev[j] < w[j]:
                                    return False
                            elif not (prev[j] <= w[j] if basis == "F" else prev[j] == w[j]):
                                return False
                        return True

                    expected = {tuple(w.count(v) for v in window): 1 for w in words if ok(w)}
                    got = evaluate_commutative(E(space, basis, s.parts), window)
                    assert got == expected, (space, basis, s.parts)


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
    both = elems[0].keys() | elems[1].keys()
    dependent = elems[:2] + [{w: elems[0].get(w, 0) + elems[1].get(w, 0) for w in both}]
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
    assert evaluate_noncommutative(E("NSym", "s", (1, 1, 1, 1)), (1, 2, 3)) == {}
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


def test_type_b_unit_has_one_label():
    # the type B unit reads (0,) whether it is given as () or (0,)
    for space, basis in (("QSymB", "F"), ("QSymB", "M"), ("NSymB", "s"), ("NSymB", "h")):
        given_empty = E(space, basis, ())
        assert given_empty == unit(space, basis) == E(space, basis, (0,))
        assert str(given_empty) == f"{basis}[0]"


def test_series_json_round_trip():
    elem = E("NSym", "s", (2, 3)) + E("NSym", "s", (1, 1), QPoly.of((0, 1)))
    data = series_to_json(elem)
    assert series_from_json(data) == elem
    assert data["space"] == "NSym" and data["basis"] == "s"


@pytest.mark.parametrize(
    "space, basis, label",
    [
        ("QSym", "F", "[1,-2]"),
        ("QSym", "F", "[0,2]"),
        ("QSym", "M", "[2,0]"),
        ("NSymD", "s", "[1]"),
        ("QSymB", "F", "[1,0]"),
    ],
)
def test_series_from_json_rejects_malformed_labels(space, basis, label):
    data = {"space": space, "basis": basis, "terms": [{"shape": label, "coeff": [1]}]}
    with pytest.raises(shapes.ShapeError):
        series_from_json(data)


@pytest.mark.parametrize("coeff", [["x"], [1.5], [True], [1, 2.0]])
def test_series_from_json_rejects_non_integer_coefficients(coeff):
    data = {"space": "NSym", "basis": "s", "terms": [{"shape": "[2]", "coeff": coeff}]}
    with pytest.raises(ValueError, match=r"coefficient of \[2\]"):
        series_from_json(data)


def test_series_from_json_reads_the_type_b_unit_as_one_label():
    for label in ("[]", "[0]"):
        data = {"space": "QSymB", "basis": "F", "terms": [{"shape": label, "coeff": [1]}]}
        back = series_from_json(data)
        assert back == unit("QSymB", "F") == E("QSymB", "F", ())
        assert list(back.terms) == [(0,)]


@st.composite
def series_elements(draw, space=None, basis=None):
    """A sum of up to four basis elements of one space and basis (each
    drawn unless given), with coefficients in Z[q] (possibly cancelling
    to zero)."""
    if space is None:
        space = draw(st.sampled_from(sorted(series.SPACE_KIND)))
    if basis is None:
        basis = draw(st.sampled_from([b for b, sides in series.BASES.items() if space in sides]))
    kind = series.SPACE_KIND[space]
    elem = SeriesElement(space, basis, {})
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(2 if kind == "D" else 0, 5))
        idx = shapes.positions(kind, size)
        picks = draw(st.lists(st.booleans(), min_size=len(idx), max_size=len(idx)))
        parts = shapes.parts_from_descents(
            frozenset(i for i, b in zip(idx, picks) if b), size, kind
        )
        coeff = QPoly.of(tuple(draw(st.lists(st.integers(-3, 3), max_size=4))))
        elem = elem + E(space, basis, parts, coeff)
    return elem


@given(series_elements())
def test_series_json_round_trip_all_spaces(elem):
    data = series_to_json(elem)
    back = series_from_json(json.loads(json.dumps(data)))
    assert back == elem
    assert series_to_json(back) == data


@settings(max_examples=30)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple))
def test_antipode_is_involutive_up_to_sign_structure(parts):
    # applying the antipode twice returns the original element
    e = E("QSym", "F", parts)
    assert antipode(antipode(e)) == e


# --- the validating constructor and the one-term paths -------------------------


def test_constructor_checks_every_label():
    with pytest.raises(shapes.ShapeError):
        SeriesElement("QSym", "F", {(2, 0): 1})
    with pytest.raises(shapes.ShapeError):
        SeriesElement("NSymD", "s", {(1,): 1})
    assert SeriesElement("QSymB", "F", {(): 1}) == unit("QSymB", "F")
    # labels that the check maps to one label are summed
    assert SeriesElement("QSymB", "F", {(): 1, (0,): -1}).terms == {}
    assert SeriesElement("NSym", "s", {(2, 1): 2}) == E("NSym", "s", [2, 1], 2)


@pytest.mark.parametrize("coeff", ["12", (1.5, 2), (1, 2), 1.5, True, None])
def test_constructors_reject_coefficients_that_are_not_int_or_qpoly(coeff):
    name = re.escape(repr(coeff))
    with pytest.raises(TypeError, match=f"coefficient {name} is not an int or a QPoly"):
        SeriesElement("NSym", "s", {(1,): coeff})
    with pytest.raises(TypeError, match=f"coefficient {name} is not an int or a QPoly"):
        E("NSym", "s", (1,), coeff)
    with pytest.raises(TypeError, match=f"coefficient {name} is not an int or a QPoly"):
        E("NSym", "s", (1,)).scale(coeff)


def test_constructors_apply_the_coefficient_rule():
    # constants become ints, whether given as ints or as QPolys
    for elem in (
        SeriesElement("NSym", "s", {(1,): QPoly.of(2), (2,): QPoly((0, 1))}),
        E("NSym", "s", (1,), QPoly.of(2)) + E("NSym", "s", (2,), QPoly((0, 1))),
        series_from_json(series_to_json(E("NSym", "s", (1,), 2) + E("NSym", "s", (2,), QPoly.q(1)))),
    ):
        assert elem.terms == {(1,): 2, (2,): QPoly.q(1)} and type(elem.terms[(1,)]) is int
    # a sum of two QPolys that leaves a constant is an int, and 0 is dropped
    q = QPoly.q(1)
    elem = SeriesElement("QSym", "F", {(1,): QPoly((1, 1)), (2,): q}) - E("QSym", "F", (1,), q)
    assert elem.terms == {(1,): 1, (2,): q} and type(elem.terms[(1,)]) is int
    assert (elem - E("QSym", "F", (2,), q)).terms == {(1,): 1}
    assert E("QSym", "F", (2,), q).scale(QPoly.of(3)).terms == {(2,): QPoly.q(1, 3)}
    assert E("QSym", "F", (2,), QPoly((0,))).terms == {} == E("QSym", "F", (2,), 2).scale(0).terms
    assert elem.specialize_q(5).terms == {(1,): 1, (2,): 5}
    with pytest.raises(ValueError, match="constant coefficients"):
        evaluate_commutative(E("QSym", "F", (2,), q), (1, 2))
    with pytest.raises(ValueError, match="constant coefficients"):
        evaluate_noncommutative(E("NSym", "s", (2,), q), (1, 2))


def all_labels(space, max_size=5):
    kind = series.SPACE_KIND[space]
    return [
        s.parts
        for n in range(2 if kind == "D" else 0, max_size + 1)
        for s in shapes.enumerate_shapes(n, kind)
    ]


def bases_of(space):
    return [b for b, sides in series.BASES.items() if space in sides]


def coproduct_dict(elem):
    return {(l, r): c for l, r, c in coproduct(elem)}


@pytest.mark.parametrize("space", sorted(series.SPACE_KIND))
def test_one_term_paths_match_the_general_path(space):
    labels = all_labels(space)
    for basis in bases_of(space):
        for x, y in zip(labels, labels[1:] + labels[:1]):
            for c in (1, 3):
                one, other = E(space, basis, x, c), E(space, basis, y)
                both = one + other
                for target in bases_of(space):
                    assert convert(one, target) == convert(both, target) - convert(other, target)
                try:
                    got = coproduct(one)
                except ValueError:
                    with pytest.raises(ValueError):
                        coproduct(both)
                    continue
                assert list(got) == sorted(got)
                general = coproduct_dict(both)
                for key, d in coproduct_dict(other).items():
                    general[key] = general.get(key, 0) - d
                assert dict(((l, r), c) for l, r, c in got) == {k: v for k, v in general.items() if v}


def _reference_row(space, basis, parts):
    """The coproduct of one basis label computed afresh on every call, as
    a dict from label pairs to ints: the reading-order cuts of F, the
    deconcatenations of M, the product of the Δ(h_p) over the parts of
    an h label, and schur_coproduct for s."""
    kind = series.SPACE_KIND[space]
    out = {}
    if basis == "F":
        n, dset = sum(parts), shapes.parts_descents(parts)
        for i in range(2 if kind == "D" else 0, n + 1):
            left = shapes.parts_from_descents([d for d in dset if d < i], i, kind)
            right = shapes.parts_from_descents([d - i for d in dset if d > i], n - i, "A")
            out[left, right] = 1
    elif basis == "M":
        for i in range(len(parts) + 1):
            left, right = parts[:i], parts[i:]
            if 0 not in right and (kind != "D" or sum(left) >= 2):
                out[(left or (0,)) if kind == "B" else left, right] = 1
    elif basis == "h":
        for cuts in product(*(range(p + 1) for p in parts)):
            left = tuple(c for c in cuts if c)
            right = tuple(p - c for p, c in zip(parts, cuts) if p - c)
            out[left, right] = out.get((left, right), 0) + 1
    else:
        out = {key: c(1) for key, c in schur_coproduct(composition(parts)).items()}
    return out


def test_coproduct_rows_match_a_per_call_reference():
    """Every label's memoised row, cold and warm, equals the reference;
    rows are tuples of triples sorted by label pair with int
    multiplicities, and the row itself comes back for a coefficient of 1.
    Scaled elements and sums of two labels equal their summed rows."""
    series._coproduct_row.cache_clear()
    for space in sorted(series.SPACE_KIND):
        labels = all_labels(space, 6 if series.SPACE_KIND[space] == "A" else 4)
        for basis in bases_of(space):
            if basis in ("h", "s") and space != "NSym":
                continue
            for parts in labels:
                want = _reference_row(space, basis, parts)
                for _ in ("cold", "warm"):
                    row = coproduct(E(space, basis, parts))
                    assert type(row) is tuple and all(type(t) is tuple for t in row)
                    assert [(l, r) for l, r, _ in row] == sorted(want)
                    assert all(type(m) is int and m == want[l, r] for l, r, m in row), parts
                assert coproduct(E(space, basis, parts)) is row
            for x, y in zip(labels, labels[1:] + labels[:1]):
                for c in (3, QPoly((0, 1)), -1):
                    one = E(space, basis, x, c)
                    scaled = {(l, r): c * m for (l, r), m in _reference_row(space, basis, x).items()}
                    assert coproduct_dict(one) == scaled
                    summed = dict(scaled)
                    for key, m in _reference_row(space, basis, y).items():
                        summed[key] = summed.get(key, 0) + m
                    got = coproduct(one + E(space, basis, y))
                    assert list(got) == sorted(got)
                    assert {(l, r): m for l, r, m in got} == {k: v for k, v in summed.items() if v}
        series._coproduct_row.cache_clear()


def test_converted_terms_are_a_new_dict_every_time():
    for elem, target in ((E("NSym", "s", (2, 1)), "h"), (E("QSymB", "F", (0, 2), 3), "M")):
        first = convert(elem, target)
        want = dict(first.terms)
        first.terms[(9,)] = ONE
        first.terms.clear()
        assert convert(elem, target).terms == want
        assert convert(convert(elem, target), elem.basis) == elem


COEFFS = st.lists(st.integers(-3, 3), max_size=3).map(tuple)


DUAL_SPACE = dict(
    zip(series.QSYM_SIDE + series.NSYM_SIDE, series.NSYM_SIDE + series.QSYM_SIDE)
)


@st.composite
def results_of_operations(draw):
    """The elements, coproduct terms, table rows and pairing values that
    one drawn operation returns, as (space, label, coefficient) triples;
    a pairing value has no space or label."""
    elem = draw(series_elements())
    space, basis = elem.space, elem.basis
    kind = series.SPACE_KIND[space]
    ops = ["scale", "difference", "convert", "coproduct", "skew_right", "skew_left"]
    ops += ["pairing", "rows"]
    if space == "QSym" or space in series.NSYM_SIDE:
        ops.append("product")
    if kind == "A":
        ops.append("antipode")
    op = draw(st.sampled_from(ops))
    lspace, rspace = series.coproduct_spaces(space)
    has_coproduct = basis in "FM" or space == "NSym"
    if op == "coproduct":
        if not has_coproduct:  # h and s have no coproduct on the B/D sides
            return []
        return [t for l, r, c in coproduct(elem) for t in ((lspace, l, c), (rspace, r, c))]
    if op == "pairing":
        return [(None, None, pairing(elem, draw(series_elements(DUAL_SPACE[space]))))]
    if op == "rows":  # the memoised conversion and coproduct rows of its labels
        out = [
            (space, other, sign)
            for parts in elem.terms
            for target in bases_of(space)
            if target != basis
            for other, sign in series._conversion(parts, kind, basis, target)
        ]
        if has_coproduct:
            for parts in elem.terms:
                for l, r, m in series._coproduct_row(parts, kind, basis):
                    out += [(lspace, l, m), (rspace, r, m)]
        return out
    if op == "scale":
        out = elem.scale(QPoly.of(draw(COEFFS)))
    elif op == "difference":  # with terms in common, which may cancel
        out = elem - (draw(series_elements(space, basis)) + elem.scale(QPoly.of(draw(COEFFS))))
    elif op == "convert":
        out = convert(elem, draw(st.sampled_from(bases_of(space))))
    elif op == "antipode":
        out = antipode(elem)
    elif op == "product":
        g = draw(series_elements("QSym" if space == "QSym" else "NSym"))
        out = qsym_product(elem, g) if space == "QSym" else nsym_product(elem, g)
    else:
        paired = rspace if op == "skew_right" else lspace
        sides = series.QSYM_SIDE + series.NSYM_SIDE
        f = draw(series_elements(dict(zip(sides, series.NSYM_SIDE + series.QSYM_SIDE))[paired]))
        try:
            out = skew(elem, f, "right" if op == "skew_right" else "left")
        except ValueError:  # as for the coproduct
            return []
    return [(out.space, k, c) for k, c in out.terms.items()]


def check_normal(triples):
    """Every label is one that _check_key keeps, and every coefficient
    follows the coefficient rule: a nonzero int, or a QPoly of degree at
    least 1; a pairing value (no label) may be the int 0."""
    for space, label, c in triples:
        if label is not None:
            assert type(label) is tuple and series._check_key(space, label) == label
        if type(c) is QPoly:
            assert c.degree >= 1, f"{c!r} is a QPoly of degree {c.degree}"
        else:
            assert type(c) is int and (c or label is None), f"{c!r} is not a nonzero int"


@settings(deadline=None, max_examples=300)
@given(results_of_operations())
def test_operations_return_normal_terms(triples):
    check_normal(triples)


def test_normal_form_check_rejects_a_degree_zero_qpoly(monkeypatch):
    """A _collect that returns its constant sums as QPolys, as every sum did
    before the coefficient rule, fails the check; so does a constant
    coefficient, a zero term or a bool."""
    collect = series._collect
    monkeypatch.setattr(
        series,
        "_collect",
        lambda pairs: {k: QPoly.of(c) if type(c) is int else c for k, c in collect(pairs).items()},
    )
    elem = E("NSym", "s", (2, 1)) + E("NSym", "s", (1, 2), 3)
    with pytest.raises(AssertionError, match=r"QPoly\(coeffs=\(1,\)\) is a QPoly of degree 0"):
        check_normal([(elem.space, k, c) for k, c in elem.terms.items()])
    for c in (QPoly.of(2), 0, True):
        with pytest.raises(AssertionError):
            check_normal([("NSym", (1,), c)])
    check_normal([("NSym", (1,), QPoly.q(1)), ("NSym", (1,), -2), (None, None, 0)])
