"""Every certificate can fail.

Each certificate gets one planted bug, a plausible wrong variant of a
routine it relies on, and must raise CertificationError at small sizes.
The checks must also survive ``python -O``, so ``verify.py`` may hold no
``assert`` statement; and the package stays integer-only.
"""

import ast
import dataclasses
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import MappingProxyType

import pytest

from hecke_ribbon import demazure, groups, modules, series, shapes, tableaux, verify
from hecke_ribbon.qpoly import QPoly


pytestmark = pytest.mark.usefixtures("fresh_caches")


def _zero_skew(a, f, side="right"):
    space = series.coproduct_spaces(a.space)[0 if side == "right" else 1]
    return series.SeriesElement(space, a.basis, {})


def _dot_only_product(f, g):
    """nsym_product without the triangle gluing term."""
    terms = {}
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            terms[a + b] = terms.get(a + b, QPoly()) + ca * cb
    return series.SeriesElement(f.space, f.basis, terms)


def _drop_first(elem):
    return series.SeriesElement(elem.space, elem.basis, dict(list(elem.terms.items())[1:]))


def _planted(name):
    """(module, attribute, wrong variant) for the bug planted against one
    certificate; the variants wrap the routines as they are now."""
    coarsenings, bracket_set = shapes.coarsenings, shapes.bracket_set
    restrict_p, schur_coproduct = modules.restrict_p, series.schur_coproduct
    q_ribbon, bar, convert = series.q_ribbon, demazure.demazure_bar, series.convert
    direct = series.graded_characteristic_direct
    return {
        "relations": (modules, "coxeter_order", lambda kind, i, j: 2),
        "dimensions": (shapes, "coarsenings", lambda shape: coarsenings(shape)[1:]),
        "induction": (shapes, "bracket_set", lambda shape: bracket_set(shape)[:-1]),
        "restriction": (modules, "restrict_p", lambda shape, m: restrict_p(shape, m)[1:]),
        "coproduct": (
            series,
            "schur_coproduct",
            lambda shape: dict(list(schur_coproduct(shape).items())[1:]),
        ),
        "duality": (series, "nsym_product", _dot_only_product),
        "antipode": (shapes, "transpose", shapes.complement),
        "symmetry": (
            groups,
            "diagram_automorphism",
            lambda kind, n: {i: i for i in groups.generators(kind, n)},
        ),
        "skew": (series, "skew", _zero_skew),
        "qidentities": (
            series,
            "q_ribbon",
            lambda parts, method="det": q_ribbon(parts, method)
            * (QPoly.q(1) if method == "brute" else QPoly.of(1)),
        ),
        "demazure": (
            demazure,
            "demazure_bar",
            lambda i, f: demazure.demazure(i, f) if i == 1 else bar(i, f),
        ),
        "truncation": (
            series,
            "convert",
            lambda elem, target: _drop_first(convert(elem, target))
            if (elem.basis, target) == ("F", "M")
            else convert(elem, target),
        ),
        "characteristics": (
            series,
            "graded_characteristic_direct",
            lambda shape: direct(shape).specialize_q(1),
        ),
    }[name]


SMALL = {
    "relations": lambda: verify.cert_relations("A", 3),
    "dimensions": lambda: verify.cert_dimensions("A", 3),
    "induction": lambda: verify.cert_induction("A", 3),
    "restriction": lambda: verify.cert_restriction(3),
    "coproduct": lambda: verify.cert_coproduct(3, 3),
    "duality": lambda: verify.cert_duality(3, 3, 20),
    "antipode": lambda: verify.cert_antipode(3),
    "symmetry": lambda: verify.cert_symmetry(3, 3),
    "skew": lambda: verify.cert_skew(3),
    "qidentities": lambda: verify.cert_qidentities(3, 3, 3),
    "demazure": lambda: verify.cert_demazure(3, 2, 3),
    "truncation": lambda: verify.cert_truncation(3, 2),
    "characteristics": lambda: verify.cert_characteristics(3),
}


def test_every_certificate_has_a_planted_bug():
    assert set(SMALL) == set(verify.CERTIFICATES)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_certificate_passes_at_small_sizes(name):
    SMALL[name]()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_planted_bug_bites(name, monkeypatch):
    module, attr, wrong = _planted(name)
    monkeypatch.setattr(module, attr, wrong)
    with pytest.raises(modules.CertificationError):
        SMALL[name]()


def test_dropped_ribbon_coproduct_term_bites_skew(monkeypatch):
    """skew reads ribbon coproducts through the label memo, which is
    filled from schur_coproduct, so the coproduct bug reaches it too."""
    module, attr, wrong = _planted("coproduct")
    monkeypatch.setattr(module, attr, wrong)
    with pytest.raises(modules.CertificationError, match="left and right skews differ"):
        SMALL["skew"]()


def test_flipped_s_to_h_sign_bites_qidentities(monkeypatch):
    """The ie route of q_ribbon reads the s -> h table of _conversion, so
    one wrong sign there makes the three q-ribbon methods disagree."""
    conversion = series._conversion

    def flipped(parts, kind, frm, to):
        table = conversion(parts, kind, frm, to)
        if (frm, to) != ("s", "h") or len(table) < 2:
            return table
        (label, sign), *rest = table
        return ((label, -sign), *rest)

    monkeypatch.setattr(series, "_conversion", flipped)
    with pytest.raises(modules.CertificationError, match="q-ribbon methods disagree"):
        SMALL["qidentities"]()


def test_wrong_left_action_entry_bites_relations(monkeypatch):
    """build_p reads the tableau action off the group's left action table.
    One wrong entry there, s_1 w = w at w = 1,3,2 in A_3 (it is 2,3,1),
    makes the first bar generator fix the tableau of P_[2,1] with that
    reading word, so cert_relations("A", 3) reports FAIL on the quadratic
    relation."""
    left_actions = groups.left_actions

    def wrong(kind, n):
        table = left_actions(kind, n)
        if (kind, n) != ("A", 3):
            return table
        g = table.index[(1, 3, 2)]
        assert table.step[1][g] == table.index[(2, 3, 1)]
        step = {**table.step, 1: table.step[1][:g] + (g,) + table.step[1][g + 1 :]}
        return dataclasses.replace(table, step=MappingProxyType(step))

    monkeypatch.setattr(groups, "left_actions", wrong)
    (result,) = verify.run(["relations"], kind="A", max_size=3)
    assert not result.passed
    assert result.detail == "[2,1]: quadratic relation fails at generator 1"


def _with_table_entry(monkeypatch, field, window, right, wrong):
    """Plant one wrong entry of a field of the A_3 left action table at the
    element of the given window."""
    left_actions = groups.left_actions

    def planted(kind, n):
        table = left_actions(kind, n)
        if (kind, n) != ("A", 3):
            return table
        g = table.index[window]
        values = getattr(table, field)
        assert values[g] == right
        return dataclasses.replace(table, **{field: values[:g] + (wrong,) + values[g + 1 :]})

    monkeypatch.setattr(groups, "left_actions", planted)


def test_wrong_table_length_bites_qidentities(monkeypatch):
    """The brute q-ribbon route and the band identity read lengths off the
    group's table.  One wrong length there, 2 for w = 2,1,3 (it is 1),
    makes the brute q-ribbon number of [1,2] disagree with det and ie."""
    _with_table_entry(monkeypatch, "lengths", (2, 1, 3), 1, 2)
    (result,) = verify.run(["qidentities"], max_size=3)
    assert not result.passed
    assert result.detail == "q-ribbon methods disagree at [1,2]"


def test_wrong_table_inverse_descents_bite_characteristics(monkeypatch):
    """The tableau side of cert_characteristics reads D(w^-1) off the
    group's table, for the labels it sums and in the length filtration it
    certifies; the direct side computes D(w^-1) from the window.  One wrong
    entry, {2} for w = 2,3,1 (it is {1}), makes characteristics FAIL at
    the filtration's diagonal check, since the generator matrices, built
    from the table's ``lowers``, still act by -1 at generator 1 only."""
    _with_table_entry(monkeypatch, "inverse_descents", (2, 3, 1), {1}, frozenset({2}))
    (result,) = verify.run(["characteristics"], max_size=3)
    assert not result.passed
    assert result.detail == "length quotient not diagonal at (1, 1)"


def test_label_at_a_wrong_grade_bites_characteristics(monkeypatch):
    """The graded characteristic is summed from the length filtration's
    labels, layer by layer.  Moving the one label of the top layer of
    P_[2,1] (D(w^-1) of 2,3,1, at length 2) down to layer 0 makes
    characteristics FAIL against the direct route."""
    length_filtration = modules.length_filtration

    def planted(module, generator_index):
        filtr = length_filtration(module, generator_index)
        if module.shape != shapes.composition((2, 1)):
            return filtr
        bottom, top = filtr.labels
        return dataclasses.replace(filtr, labels=(bottom + top, ()))

    monkeypatch.setattr(modules, "length_filtration", planted)
    (result,) = verify.run(["characteristics"], max_size=3)
    assert not result.passed
    assert result.detail == "graded characteristics differ for [2,1]"


SHAPE_22 = shapes.Shape("A", ((2,), (2,)))


def _with_column(module, i, j, col):
    """The module with column j of generator i replaced by col."""
    gens = {**module.gens, i: module.gens[i][:j] + (col,) + module.gens[i][j + 1 :]}
    return modules.HeckeModule(module.kind, module.n, module.basis, gens, module.shape)


def _theta(module):
    """The theta twist M -> -(M + 1), keeping the shape: the column of a
    +1 arrow gets two entries.  Twisting commutes with restriction and
    with the descent quotients, so both certificates hold for it."""
    return dataclasses.replace(modules.twist(module, "theta"), shape=module.shape)


# column 1 of generator 1 of P_[2]+[2] is the arrow from basis 1 to basis 3
# (two entries after the twist); each plant keeps the graded rule
PLANTED_COLUMNS = {
    "flipped sign": (False, ((3, 1),), ((3, -1),)),
    "swapped arrow target": (False, ((3, 1),), ((4, 1),)),
    "two-entry column": (True, ((1, -1), (3, -1)), ((1, -1), (4, -1))),
}


@pytest.mark.parametrize("plant", sorted(PLANTED_COLUMNS))
def test_planted_column_bites_restriction_and_descent_quotients(plant, monkeypatch):
    twisted, right, wrong = PLANTED_COLUMNS[plant]
    build_p = modules.build_p
    prepare = _theta if twisted else (lambda module: module)
    monkeypatch.setattr(modules, "build_p", lambda shape: prepare(build_p(shape)))
    module = modules.build_p(SHAPE_22)
    assert module.gens[1][1] == right
    modules.restrict_p(SHAPE_22, 2)
    modules.filtration_by_descent(module)
    planted = _with_column(module, 1, 1, wrong)
    monkeypatch.setattr(
        modules, "build_p", lambda shape: planted if shape == SHAPE_22 else prepare(build_p(shape))
    )
    with pytest.raises(modules.CertificationError, match="restriction mismatch"):
        modules.restrict_p(SHAPE_22, 2)
    with pytest.raises(modules.CertificationError, match="quotient action mismatch"):
        modules.filtration_by_descent(planted)


def test_restriction_checks_blocks_with_equal_subshapes(monkeypatch):
    """Basis 0 (1,2,3,4) and basis 5 (3,4,1,2) of P_[2]+[2] both split at
    m = 2 into [2] and [2], from different boxes: two blocks, each of one
    tableau, so a wrong column at basis 0 is seen as well."""
    build_p = modules.build_p
    module = build_p(SHAPE_22)
    assert module.gens[1][0] == ()
    planted = _with_column(module, 1, 0, ((0, -1),))
    monkeypatch.setattr(modules, "build_p", lambda shape: planted if shape == SHAPE_22 else build_p(shape))
    with pytest.raises(modules.CertificationError, match="restriction mismatch"):
        modules.restrict_p(SHAPE_22, 2)


def test_restriction_reports_an_image_outside_its_block(monkeypatch):
    """A column of a smaller module with a row outside that module's basis
    has no pair in the block to be carried to: a row past the end, and a
    row -1 in place of the last row, which must not be read as the last.
    The blocks of P_[2]+[2] at m = 2 that hold 1 and 2 in different rows
    are P_[1]+[1] on both sides, planted at its last column."""
    build_p, half = modules.build_p, shapes.Shape("A", ((1,), (1,)))
    assert (half, half) in modules.restrict_p(SHAPE_22, 2)
    module = build_p(half)
    last = module.dim - 1
    assert module.gens[1][last] == ((last, -1),)
    for row in (module.dim, -1):
        planted = _with_column(module, 1, last, ((row, -1),))
        with monkeypatch.context() as patch:
            patch.setattr(modules, "build_p", lambda shape: planted if shape == half else build_p(shape))
            with pytest.raises(modules.CertificationError, match="not closed under the action"):
                modules.restrict_p(SHAPE_22, 2)


def test_restriction_checks_the_right_factor_against_the_shifted_generators(monkeypatch):
    """The right factor's generator i is the module's generator i + m.  At
    m = 2 the blocks of P_[2,3] are ([1]+[1], [1]+[2]) and ([2], [2]+[1]);
    a planted column of the right factor [2]+[1] alone, whose left factor
    differs from it, is reported at generator i + 2, and a row past the
    end of its basis as an image outside the block."""
    build_p, shape = modules.build_p, shapes.composition((2, 3))
    right = shapes.Shape("A", ((2,), (1,)))
    assert (shapes.composition((2,)), right) in modules.restrict_p(shape, 2)
    module = build_p(right)
    assert module.gens[1][1] == ((2, 1),) and module.gens[2][1] == ((1, -1),)
    for i, col, witness in (
        (1, ((2, -1),), "restriction mismatch at block ([2], [2]+[1]), generator 3, basis "),
        (2, ((module.dim, -1),), "restriction block is not closed under the action"),
    ):
        planted = _with_column(module, i, 1, col)
        with monkeypatch.context() as patch:
            patch.setattr(modules, "build_p", lambda s: planted if s == right else build_p(s))
            with pytest.raises(modules.CertificationError, match=re.escape(witness)):
                modules.restrict_p(shape, 2)


def test_retargeted_arrow_bites_symmetry(monkeypatch):
    """theta is certified on the module with its arrows reversed.  An arrow
    of P_alpha sent to another vector is caught there: into a vector that
    is no loop (the arrow 0 -> 1 of generator 1 of P_[2,1], sent to 0) by
    ``reverse_arrows``, and into a loop that no arrow reaches (the arrow
    1 -> 0 of generator 1 of P_[1,1] in type B, sent to 2) by the
    intertwining rule."""
    build_p = modules.build_p
    for shape, j, col, witness in (
        (shapes.composition((2, 1)), 0, ((0, 1),), "generator 1: the arrow from basis 0 to 0 ends at no loop"),
        (shapes.parse_shape("[1,1]", "B"), 1, ((2, 1),), "theta fails for [1,1]: intertwiner fails at generator 1"),
    ):
        module = build_p(shape)
        assert len(module.gens[1][j]) == 1 and module.gens[1][j][0][1] == 1
        planted = _with_column(module, 1, j, col)
        with monkeypatch.context() as patch:
            patch.setattr(modules, "build_p", lambda s: planted if s == shape else build_p(s))
            (result,) = verify.run(["symmetry"], max_size=3)
        assert not result.passed
        assert result.detail.startswith(witness), result.detail


def test_symmetry_requires_a_bijection(monkeypatch):
    """theta must send the basis of P_alpha one to one onto that of P of
    the image: a word sent outside the image's basis or two words sent to
    one, and an image of another dimension, each report FAIL."""
    theta_word, transpose = tableaux.theta_word, shapes.transpose
    with monkeypatch.context() as patch:
        # the two words of P_[2,1], 1,3,2 and 2,3,1, sent to one word of P_[2,1],
        # its own transpose
        patch.setattr(tableaux, "theta_word", lambda kind, w: theta_word(kind, (1, 3, 2) if w == (2, 3, 1) else w))
        (result,) = verify.run(["symmetry"], max_size=3)
    assert not result.passed
    assert result.detail == "theta is no bijection from P_[2,1] onto P_[2,1]: [1, 1]"
    with monkeypatch.context() as patch:
        patch.setattr(tableaux, "theta_word", lambda kind, w: w)
        (result,) = verify.run(["symmetry"], max_size=3)
    assert result.detail == "theta is no bijection from P_[2] onto P_[1,1]: [None]"
    with monkeypatch.context() as patch:
        patch.setattr(shapes, "transpose", lambda a: shapes.composition((1, 2)) if a.size == 3 else transpose(a))
        (result,) = verify.run(["symmetry"], max_size=3)
    assert result.detail == "dim P_[3] is 1, dim P_[1,2] is 2"


def test_quotient_reports_a_row_outside_the_basis():
    """A quotient column with a row outside the module's basis raises
    CertificationError, not a lookup error: a row past the end, and a row
    -1 in place of the last row, which must not be read as the last.  The
    graded rule, run first by the filtration, rejects both as well."""
    module = modules.build_p(SHAPE_22)
    top = module.dim - 1
    assert module.gens[2][top] == ((top, -1),)
    filtration = modules.filtration_by_descent(module)
    grade = [sum(j in layer for layer in filtration.layers) - 1 for j in range(module.dim)]
    quotient = [j for j, g in enumerate(grade) if g == grade[top]]
    for row in (module.dim, -1):
        planted = _with_column(module, 2, top, ((row, -1),))
        with pytest.raises(modules.CertificationError, match="outside the basis"):
            modules._certify_quotient(planted, quotient, grade, filtration.labels[grade[top]])
        with pytest.raises(modules.CertificationError, match="outside the layer"):
            modules.filtration_by_descent(planted)


def test_length_filtration_reports_a_row_outside_the_basis():
    """The graded rule bounds every row before the cyclicity walk reads
    one: a row past the end, or a row -1, in the last column of generator
    2 of P_[2]+[2] raises CertificationError, not IndexError or the
    ShapeError of a module that is not cyclic."""
    module = modules.build_p(SHAPE_22)
    top = module.dim - 1
    assert (module.dim, module.gens[2][top]) == (6, ((top, -1),))
    modules.length_filtration(module, 0)
    for row in (module.dim, -1):
        planted = _with_column(module, 2, top, ((row, -1),))
        with pytest.raises(modules.CertificationError, match="outside the layer"):
            modules.length_filtration(planted, 0)


def test_junction_read_as_on_top_bites_coproduct(monkeypatch):
    """A component junction read as "on top" goes into D0 of the bands
    that schur_coproduct counts; the h-route glues its bracket sets and
    reads no box relation, so the two routes differ."""
    _box_bits = shapes._box_bits

    def junction_on_top(band, j, follows):
        low, high = _box_bits(band, j, follows)
        return (1, 1) if follows and high else (low, high)

    monkeypatch.setattr(shapes, "_box_bits", junction_on_top)
    with pytest.raises(modules.CertificationError, match="coproduct mismatch"):
        verify.cert_coproduct(4, 3)


def test_coproduct_routes_read_no_ribbon_row(monkeypatch):
    """The direct route of cert_coproduct is schur_coproduct itself, and
    its h-route expands h coproducts: neither computes nor reads a
    memoised s row.  The spy sees every row read, memo hits included;
    the h-route's h rows and the F regression's row go through it too."""
    row, reads = series._coproduct_row, Counter()

    def spy(parts, kind, basis):
        reads[basis] += 1
        return row(parts, kind, basis)

    monkeypatch.setattr(series, "_coproduct_row", spy)
    verify.cert_coproduct(4, 3)
    assert reads["s"] == 0 and reads["h"] and reads["F"] == 1
    series.coproduct(series.element("NSym", "s", (1,)))
    assert reads["s"] == 1


def _cut_row(basis, kinds, keep):
    """_coproduct_row with the rows of one basis in some types cut to
    the slice keep."""
    row = series._coproduct_row

    def wrong(parts, kind, basis_):
        got = row(parts, kind, basis_)
        return got[keep] if basis_ == basis and kind in kinds else got

    return wrong


@pytest.mark.parametrize(
    "basis, kinds, keep, witness",
    [
        ("F", "BD", slice(None, -1), "module/comodule duality fails in B at (0,),(),(0,)"),
        ("M", "ABD", slice(1, None), "duality of product/coproduct fails at (),(1,),(1,)"),
    ],
)
def test_wrong_coproduct_row_bites_duality(monkeypatch, basis, kinds, keep, witness):
    """cert_duality pairs every F or M coproduct it takes against the
    product of two ribbon functions, so one triple missing from a
    memoised row fails it: the last F triple in types B and D (first
    seen at the type B unit, whose row is that one triple), or the first
    M triple."""
    monkeypatch.setattr(series, "_coproduct_row", _cut_row(basis, kinds, keep))
    with pytest.raises(modules.CertificationError, match=re.escape(witness)):
        verify.cert_duality(3, 2)


def test_checks_survive_optimize():
    script = (
        "from hecke_ribbon import series, verify\n"
        "def zero_skew(a, f, side='right'):\n"
        "    space = series.coproduct_spaces(a.space)[0 if side == 'right' else 1]\n"
        "    return series.SeriesElement(space, a.basis, {})\n"
        "series.skew = zero_skew\n"
        "print(__debug__, verify.run(['skew'], max_size=3)[0].passed)\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["False", "False"]


def test_demazure_checks_the_defining_identity(monkeypatch):
    pi = demazure.demazure

    def flipped(i, f):
        """The closed form with the sign of its a < b branch flipped."""
        out = demazure.Poly(f.n, ())
        for m, c in f.terms:
            image = pi(i, demazure.Poly.monomial(f.n, m, c))
            out = out + (-image if m[i - 1] < m[i] else image)
        return out

    monkeypatch.setattr(demazure, "demazure", flipped)
    with pytest.raises(modules.CertificationError, match="defining identity"):
        verify.cert_demazure(3, 2, 3)


def test_demazure_ties_the_bar_operator_to_pi(monkeypatch):
    """A pi-bar_i whose a < b branch stops at j = b - 1 drops the term
    -x_i^a x_{i+1}^b; on x_3 (i = 2) it returns 0, which still squares to
    minus itself, so only the tie pi-bar_i = pi_i - 1 catches it."""

    def short(i, f):
        terms = []
        for m, c in f.terms:
            a, b = m[i - 1], m[i]
            span, sign = (range(b + 1, a + 1), c) if a >= b else (range(a + 1, b), -c)
            terms += [(m[: i - 1] + (a + b - j, j) + m[i + 1 :], sign) for j in span]
        return demazure.Poly(f.n, tuple(terms))

    monkeypatch.setattr(demazure, "demazure_bar", short)
    with pytest.raises(modules.CertificationError, match=r"^pi-bar_2 is not pi_2 - 1 on \(0, 0, 1\)$"):
        verify.cert_demazure(3, 2, 3)


def test_wrong_left_action_entry_bites_demazure(monkeypatch):
    """The bar images of x_alpha are read along the group table's steps.
    One wrong entry, s_1 w = 1 at w = 2,3,1 in A_3 (it is 1,3,2), makes the
    image at 2,3,1 pi-bar_1 x_(2,1) = 0, which has no unit leading term."""
    left_actions = groups.left_actions

    def wrong(kind, n):
        table = left_actions(kind, n)
        if (kind, n) != ("A", 3):
            return table
        g, e = table.index[(2, 3, 1)], table.index[(1, 2, 3)]
        assert table.step[1][g] == table.index[(1, 3, 2)]
        step = {**table.step, 1: table.step[1][:g] + (e,) + table.step[1][g + 1 :]}
        return dataclasses.replace(table, step=MappingProxyType(step))

    monkeypatch.setattr(groups, "left_actions", wrong)
    with pytest.raises(modules.CertificationError, match=r"^triangularity fails for \[2,1\]: w=2,3,1: "):
        verify.cert_demazure(3, 2, 3)


def test_doubled_twisted_top_bites_antipode(monkeypatch):
    """A phi twist that returns M + M has the right top with a Hom space
    of dimension 2, which the antipode certificate must count."""
    twist = modules.twist

    def doubled(module, which):
        twisted = twist(module, which)
        if which != "phi":
            return twisted
        dim = twisted.dim
        gens = {
            i: cols + tuple(tuple((r + dim, v) for r, v in col) for col in cols)
            for i, cols in twisted.gens.items()
        }
        return modules.HeckeModule(twisted.kind, twisted.n, twisted.basis * 2, gens, None)

    monkeypatch.setattr(modules, "twist", doubled)
    with pytest.raises(modules.CertificationError, match=r"twisted top of P_\[1\] is \{frozenset\(\): 2\}"):
        verify.cert_antipode(3)


def test_verify_has_no_assert_statement():
    tree = ast.parse(Path(verify.__file__).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"verify.py uses assert at lines {lines}; use _require"


def test_package_is_integer_only():
    """No fractions import and no true division anywhere in the package;
    the divisions left are exact floor divisions, such as the content
    division of a pivot row in linalg.Echelon."""
    found = []
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}: true division")
            elif isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
                found.append(f"{path.name}:{node.lineno}: import fractions")
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                found.append(f"{path.name}:{node.lineno}: from fractions import")
    assert not found, found


def test_module_imports_are_used():
    """Every module-level import of the package is used in its module or
    exported by its ``__all__``, so a deletion leaves no stale import."""
    found = []
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert not found, found



def _references(node) -> tuple[Counter, Counter, set]:
    """Under an AST node: the counts of bare names and of attribute names,
    and the (module, name) pairs brought in by ``from .module import name``."""
    names, attrs, imported = Counter(), Counter(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            imported |= {(sub.module, alias.name) for alias in sub.names}
    return names, attrs, imported


def test_public_functions_are_used_or_documented():
    """Every public module-level function of the package is referenced in
    the package outside its own body, or named in the README's "What is
    inside" table, so a routine that nothing calls fails here instead of
    lingering.  A bare name counts only in the defining module and in the
    modules that import it, so a local variable elsewhere does not."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## What is inside\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`(?:\w+\.)*(\w+)(?:\([^`]*\))?`", table))
    paths = sorted(Path(verify.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    refs = {mod: _references(tree) for mod, tree in trees.items()}
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            name = getattr(node, "name", "_")
            if not isinstance(node, ast.FunctionDef) or name.startswith("_") or name in documented:
                continue
            total = sum(
                attrs[name] + (names[name] if other == mod or (mod, name) in imported else 0)
                for other, (names, attrs, imported) in refs.items()
            )
            own_names, own_attrs, _ = _references(node)
            if total == own_names[name] + own_attrs[name]:
                found.append(f"{mod}.py:{node.lineno}: {name}")
    assert not found, found


def test_subset_walks_go_through_interval():
    """Every walk over the sets between two descent sets goes through
    shapes.interval, which builds them without bit masks: the package has
    no ``1 << len(...)`` mask loop."""
    found = []
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.LShift)
                and isinstance(node.right, ast.Call)
                and getattr(node.right.func, "id", None) == "len"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
