"""Exhaustive desk-scale verification certificates.

Each certificate sweeps a family of shapes, certifies an exact
structural statement, and returns a one-line summary.  Every check goes
through ``_require``, which raises ``modules.CertificationError`` with a
witness, so the checks stay in force under ``python -O``.  The registry
at the bottom drives both the acceptance test suite and the command line
``verify`` subcommand; ``run`` reports a certificate that fails or
raises any other exception as FAIL and goes on with the next one, while
``ResourceLimitError`` propagates (the command line exits with 1 on a
FAIL and 3 on a guard).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from . import demazure, groups, modules, series, shapes, tableaux
from .qpoly import QPoly, q_multinomial
from .series import element as E

KIND_SIZES = {"A": 6, "B": 4, "D": 4}


@dataclass
class CertResult:
    name: str
    passed: bool
    detail: str


def _require(ok, witness: str, *args) -> None:
    """Raise CertificationError unless ok; the witness is a str.format
    template, filled in from args only when the check fails."""
    if not ok:
        raise modules.CertificationError(witness.format(*args))


def _single_shapes(kind: str, max_size: int, min_size: int = 1) -> list[shapes.Shape]:
    """Single ribbons of sizes min_size..max_size; type D starts at size 2."""
    lo = max(min_size, 2) if kind == "D" else min_size
    return [s for n in range(lo, max_size + 1) for s in shapes.enumerate_shapes(n, kind)]


def _generalized(kind: str, max_size: int, max_components: int = 3) -> list[shapes.Shape]:
    lo = 2 if kind == "D" else 1
    return [
        s
        for n in range(lo, max_size + 1)
        for s in shapes.enumerate_generalized(n, kind, max_components)
    ]


# --- 1. algebra relations ---------------------------------------------------


def cert_relations(kind: str = "A", max_size: int | None = None) -> str:
    family = _single_shapes(kind, max_size or KIND_SIZES[kind])
    for alpha in family:
        for module in (modules.build_p(alpha), modules.build_m(alpha), modules.build_c(alpha)):
            violations = modules.check_relations(module)
            _require(not violations, "{}: {[0]}", alpha, violations)
    return f"{3 * len(family)} modules of type {kind} pass the quadratic and braid relations"


# --- 2. dimensions ----------------------------------------------------------


def cert_dimensions(kind: str = "A", max_size: int | None = None) -> str:
    if kind == "A":
        for parts, dim in (((2, 1, 1), 3), ((1, 2, 1), 5)):
            got = modules.build_p(shapes.composition(parts)).dim
            _require(got == dim, "dim P_{} is {}, not {}", parts, got, dim)
    family = _single_shapes(kind, max_size or KIND_SIZES[kind])
    for alpha in family:
        size = len(groups.descent_class(kind, alpha).elements)
        _require(modules.build_p(alpha).dim == size, "dim P_{} != descent class size", alpha)
        total = sum(modules.build_p(beta).dim for beta in shapes.coarsenings(alpha))
        ok = modules.build_m(alpha).dim == total
        _require(ok, "dim M_{} != sum of projective dimensions", alpha)
    return f"{len(family)} dimension identities verified in type {kind}"


# --- 3. induction decompositions --------------------------------------------


def cert_induction(kind: str = "A", max_size: int | None = None) -> str:
    regression = shapes.Shape("A", ((2,), (2, 2), (3, 2)))
    got = {b.parts for b in shapes.bracket_set(regression)}
    want = {(2, 2, 2, 3, 2), (4, 2, 3, 2), (2, 2, 5, 2), (4, 5, 2)}
    _require(got == want, "bracket set of {} is {}", regression, got)
    family = _generalized(kind, max_size or KIND_SIZES[kind])
    for shape in family:
        labels = set(modules.filtration_by_descent(modules.build_p(shape)).labels)
        expected = set(shapes.bracket_set(shape))
        _require(labels == expected, "{}: layers {} != bracket set {}", shape, labels, expected)
    return f"{len(family)} descent filtrations certified in type {kind}"


# --- 4. restriction ---------------------------------------------------------


def cert_restriction(max_size: int = 6) -> str:
    checked = 0
    for alpha in _single_shapes("A", max_size):
        dim = modules.build_p(alpha).dim
        for m in range(alpha.size + 1):
            blocks = modules.restrict_p(alpha, m)
            total = sum(modules.build_p(b).dim * modules.build_p(g).dim for b, g in blocks)
            _require(total == dim, "{} at {}: block dimensions do not add up", alpha, m)
            checked += 1
    return f"{checked} restriction certificates pass in type A"


# --- 5. coproduct two-path --------------------------------------------------


def _schur_coproduct_via_h(shape: shapes.Shape) -> dict:
    """Expand the ribbon functions of the shape into h, apply the
    multiplicative coproduct, and convert both tensor legs back."""
    h = series.SeriesElement("NSym", "h", {})
    for gamma in shapes.bracket_set(shape):
        h = h + series.convert(E("NSym", "s", gamma.parts), "h")
    return series._collect(
        ((l2, r2), c * sl * sr)
        for left, right, c in series.coproduct(h)
        for l2, sl in series._conversion(left, "A", "h", "s")
        for r2, sr in series._conversion(right, "A", "h", "s")
    )


def cert_coproduct(max_size: int = 7, max_components: int = 3) -> str:
    """The ribbon coproduct of every generalized type A shape along two
    routes: directly, by ``schur_coproduct`` (the monotone splittings
    counted on descent masks), and through h (the bracket set glued as
    shapes, the h coproduct and the h/s conversion table, summed as
    ``QPoly``).  The two routes still share ``shapes.parts_descents``
    (the direct route reads it through ``descent_band``), the label of a
    descent mask (``shapes._mask_parts``, which ``parts_from_descents``
    calls on the h-route), ``Shape.size`` and the table of ``QPoly``
    constants."""
    got = {(l, r): c for l, r, c in series.coproduct(E("QSym", "F", (1, 2)))}
    want = {((), (1, 2)), ((1,), (2,)), ((1, 1), (1,)), ((1, 2), ())}
    _require(got == dict.fromkeys(want, QPoly.of(1)), "fundamental coproduct regression failed")
    family = _generalized("A", max_size, max_components)
    for shape in family:
        direct = {k: v for k, v in series.schur_coproduct(shape).items() if v}
        _require(direct == _schur_coproduct_via_h(shape), "coproduct mismatch for {}", shape)
    return f"{len(family)} ribbon coproducts agree along both routes"


# --- 6. duality -------------------------------------------------------------


def _adjoint(f, g, x, cop) -> bool:
    """Whether <fg, x> = sum of c <f, x_l> <g, x_r> over the coproduct
    terms (l, r, c) of x.  The right side reads <f, x_l> off f written
    once in the basis dual to that of x, so it rests on the dual bases."""
    fd, gd = (series.convert(e, series._DUAL_BASIS[x.basis]).terms for e in (f, g))
    rhs = QPoly()
    for l, r, c in cop:
        if l in fd and r in gd:
            rhs = rhs + c * fd[l] * gd[r]
    return series.pairing(series.nsym_product(f, g), x) == rhs


def cert_duality(max_size: int = 6, max_size_bd: int = 4, samples: int = 200) -> str:
    for kind, size in (("A", max_size), ("B", max_size_bd), ("D", max_size_bd)):
        nsym, qsym = series._NSYM_OF_KIND[kind], series._QSYM_OF_KIND[kind]
        for n in range(size + 1):
            labels = _single_shapes(kind, n, n)
            for a in labels:
                for b in labels:
                    got = series.pairing(E(nsym, "s", a.parts), E(qsym, "F", b.parts))
                    ok = got == QPoly.of(int(a == b))
                    _require(ok, "<s_{}, F_{}> = {} in type {}", a, b, got, kind)
    rng = random.Random(20240801)
    tried = 0
    for n in range(1, max_size + 1):
        all_n = [s.parts for s in shapes.enumerate_shapes(n, "A")]
        pool = [
            (a.parts, b.parts)
            for a in _single_shapes("A", n, 0)
            for b in shapes.enumerate_shapes(n - a.size, "A")
        ]
        for _ in range(samples):
            fa, gb = pool[rng.randrange(len(pool))]
            x = all_n[rng.randrange(len(all_n))]
            xe = E("QSym", rng.choice(("F", "M")), x)
            ok = _adjoint(E("NSym", "s", fa), E("NSym", "s", gb), xe, series.coproduct(xe))
            _require(ok, "duality of product/coproduct fails at {},{},{}", fa, gb, x)
        tried += samples
    # the one-sided comodule maps of types B and D against the right action
    for kind in ("B", "D"):
        nsym, qsym = series._NSYM_OF_KIND[kind], series._QSYM_OF_KIND[kind]
        for gamma in _single_shapes(kind, max_size_bd, 0):
            x = E(qsym, "F", gamma.parts)
            cop = series.coproduct(x)
            for a in _single_shapes(kind, gamma.size, 0):
                for b in shapes.enumerate_shapes(gamma.size - a.size, "A"):
                    ok = _adjoint(E(nsym, "s", a.parts), E("NSym", "s", b.parts), x, cop)
                    witness = "module/comodule duality fails in {} at {},{},{}"
                    _require(ok, witness, kind, a.parts, b.parts, gamma.parts)
    return f"dual bases exact; {tried} product/coproduct pairings agree"


# --- 7. antipode ------------------------------------------------------------


def cert_antipode(max_size: int = 6) -> str:
    for alpha in _single_shapes("A", max_size, 0):
        t, sign = shapes.transpose(alpha).parts, (-1) ** alpha.size
        for space, basis, mul in (
            ("QSym", "F", series.qsym_product),
            ("NSym", "s", series.nsym_product),
        ):
            x = E(space, basis, alpha.parts)
            _require(series.antipode(x) == E(space, basis, t, sign), "S({}_{})", basis, alpha)
            zero = series.SeriesElement(space, basis, {})
            total = sum(
                (
                    mul(series.antipode(E(space, basis, l)), E(space, basis, r)).scale(c)
                    for l, r, c in series.coproduct(x)
                ),
                zero,
            )
            expected = series.unit(space, basis) if alpha.size == 0 else zero
            _require(total == expected, "antipode axiom fails on {}_{}", basis, alpha)
    family = _single_shapes("A", max_size)
    for alpha in family:
        twisted = modules.twist(modules.twist(modules.build_p(alpha), "theta"), "phi")
        tops = modules.one_dim_quotients(twisted)
        expected = {shapes.descent_set(shapes.transpose(alpha)): 1}
        _require(tops == expected, "twisted top of P_{} is {}", alpha, tops)
    return f"antipode formulas, axiom, and {len(family)} twisted-top checks pass"


# --- 8. symmetry maps -------------------------------------------------------


def cert_symmetry(max_size: int = 6, max_size_bd: int = 4) -> str:
    """theta reverses the arrows of P_alpha onto P of the transpose in type
    A, and onto P of the complement, up to the diagram automorphism, in
    types B and D; it carries one canonical filling to the other."""
    checked = 0
    for kind, size in (("A", max_size), ("B", max_size_bd), ("D", max_size_bd)):
        for alpha in _single_shapes(kind, size):
            if kind == "A":
                image, sigma = shapes.transpose(alpha), None
                fills = (tableaux.tau1(alpha), tableaux.tau0(image))
            else:
                image = shapes.complement(alpha)
                sigma = groups.diagram_automorphism(kind, alpha.size)
                fills = (tableaux.tau0(alpha), tableaux.tau1(image))
            m1, m2 = modules.build_p(alpha), modules.build_p(image)
            index2 = {t.entries: j for j, t in enumerate(m2.basis)}
            cand = {j: index2[tableaux.theta_map(t).entries] for j, t in enumerate(m1.basis)}
            report = modules.intertwiner_check(m1, m2, cand, index_map=sigma, mode="antidirect")
            _require(not report, "intertwiner fails for {}: {[0]}", alpha, report)
            ok = tableaux.theta_map(fills[0]) == fills[1]
            _require(ok, "theta misses the canonical filling of {}", image)
            checked += 1
    return f"{checked} symmetry intertwiners certified"


# --- 9. skew elements -------------------------------------------------------


def cert_skew(max_size: int = 6) -> str:
    got = series.skew(E("NSym", "s", (2, 3)), E("QSym", "F", (2,)))
    want = E("NSym", "s", (1, 2)) + E("NSym", "s", (2, 1)) + E("NSym", "s", (3,), 2)
    _require(got == want, "skew ribbon regression failed")
    checked = 0
    for alpha in _single_shapes("A", max_size):
        n = alpha.size
        a, fa = E("NSym", "s", alpha.parts), E("QSym", "F", alpha.parts)
        dset = shapes.descent_set(alpha)
        for beta in _single_shapes("A", n, 0):
            f = E("QSym", "F", beta.parts)
            same = series.skew(a, f, "right") == series.skew(a, f, "left")
            _require(same, "left and right skews differ at {}, {}", alpha, beta)
            checked += 1
            # closed form: skewing a fundamental by a ribbon function keeps
            # the prefix exactly when the suffix matches
            k = beta.size
            m = n - k
            got = series.skew(fa, E("NSym", "s", beta.parts), "right")
            if beta.parts == shapes.parts_from_descents({d - m for d in dset if d > m}, k, "A"):
                prefix = shapes.parts_from_descents({d for d in dset if d < m}, m, "A")
                expected = E("QSym", "F", prefix)
            else:
                expected = series.SeriesElement("QSym", "F", {})
            _require(got == expected, "F_{}/s_{} case formula", alpha, beta)
    return f"skew regression and {checked} left/right agreements pass"


# --- 10. q-identities -------------------------------------------------------


def cert_qidentities(max_size: int = 6, ribbon_size: int = 7, band_size: int = 6) -> str:
    for alpha in _single_shapes("A", ribbon_size):
        det, ie, brute = (series.q_ribbon(alpha.parts, m) for m in ("det", "ie", "brute"))
        _require(det == ie == brute, "q-ribbon methods disagree at {}", alpha)
    lhs, rhs = series.ribbon_sum_identity((2, 3, 1, 2), (2, 1, 2, 1, 1, 1))
    _require(lhs == rhs, "the eight-box q-ribbon identity failed")
    blocks = [series.q_ribbon(parts, "ie") for parts in ((2, 1), (2, 1, 1), (1,))]
    product_form = q_multinomial(8, (3, 4, 1)) * blocks[0] * blocks[1] * blocks[2]
    _require(rhs == product_form, "the eight-box product form failed")
    pairs = 0
    for gamma in _single_shapes("A", max_size):
        for beta in shapes.coarsenings(gamma):
            lhs, rhs = series.ribbon_sum_identity(beta.parts, gamma.parts)
            _require(lhs == rhs, "interval identity fails at {} <= {}", beta.parts, gamma.parts)
            pairs += 1
    bands = _generalized("A", band_size, 3)
    for shape in bands:
        lhs, rhs = series.band_product_identity(shape)
        _require(lhs == rhs, "band identity fails at {}", shape)
    return (
        f"q-ribbon numbers by 3 methods, {pairs} interval identities, "
        f"{len(bands)} band identities"
    )


# --- 11. the polynomial model -----------------------------------------------


def cert_demazure(max_size: int = 5, op_degree: int = 6, op_vars: int = 5) -> str:
    pi, bar = demazure.demazure, demazure.demazure_bar
    mono = [m for m in product(range(op_degree + 1), repeat=op_vars) if sum(m) <= op_degree]
    x = {i: demazure.parse_poly(f"x{i}", op_vars) for i in range(1, op_vars + 1)}
    for m in mono:
        f = demazure.Poly.monomial(op_vars, m)
        p = {}  # pi_i f for each i, read again by the braid and commutation checks
        for i in range(1, op_vars):
            p[i] = pf = pi(i, f)
            sf = f.permute(groups.generator("A", op_vars, i))
            lhs, rhs = x[i] * pf - x[i + 1] * pf, x[i] * f - x[i + 1] * sf
            _require(lhs == rhs, "pi_{} fails its defining identity on {}", i, m)
            _require(pi(i, pf) == pf, "pi_{} not idempotent on {}", i, m)
            bf = bar(i, f)
            _require(bf == pf - f, "pi-bar_{} is not pi_{} - 1 on {}", i, i, m)
            _require(bar(i, bf) == -1 * bf, "bar relation fails on {}", m)
        for i in range(1, op_vars - 1):
            lhs = pi(i, pi(i + 1, p[i]))
            _require(lhs == pi(i + 1, pi(i, p[i + 1])), "braid fails on {} at {}", m, i)
        for i in range(1, op_vars):
            for j in range(i + 2, op_vars):
                _require(pi(i, p[j]) == pi(j, p[i]), "commutation fails on {}", m)
    family = _single_shapes("A", max_size)
    for alpha in family:
        demazure.build_polynomial_module(alpha)  # model M: every bar image of x_alpha
    for shape, model, dim in (
        (shapes.Shape("A", ((2, 1), (1,))), "P", 8),
        (shapes.Shape("A", ((2,), (1, 1))), "P", 6),
        (shapes.composition((2, 1, 1)), "P", 3),
        (shapes.composition((2, 1, 1)), "M", 12),
    ):
        module, _ = demazure.build_polynomial_module(shape, model)
        _require(module.dim == dim, "polynomial module {} has dim {}", shape, module.dim)
    return (
        f"operator relations on {len(mono)} monomials; "
        f"{len(family)} certified polynomial modules"
    )


# --- 12. truncation oracles -------------------------------------------------


def cert_truncation(max_size: int = 5, max_size_bd: int = 4) -> str:
    window3 = (1, 2, 3)
    ev_c, ev_nc = series.evaluate_commutative, series.evaluate_noncommutative
    for alpha in _single_shapes("A", max_size):
        f = E("QSym", "F", alpha.parts)
        ok = ev_c(f, window3) == ev_c(series.convert(f, "M"), window3)
        _require(ok, "F != sum of M for {}", alpha)
        h = E("NSym", "h", alpha.parts)
        ok = ev_nc(h, window3) == ev_nc(series.convert(h, "s"), window3)
        _require(ok, "h != sum of s for {}", alpha)
        ok = ev_nc(E("NSym", "s", alpha.parts), window3) == _eval_via_h(alpha.parts, window3)
        _require(ok, "tableau sum differs from the h-route for {}", alpha)
    radius = max_size_bd + 1
    window = tuple(range(-radius, radius + 1))
    sb = [ev_nc(E("NSymB", "s", a.parts), window) for a in _single_shapes("B", max_size_bd, 0)]
    _require(series.truncation_independent(sb), "type B ribbon functions are dependent")
    fd_rows = [ev_c(E("QSymD", "F", a.parts), window) for a in _single_shapes("D", max_size_bd)]
    _require(series.truncation_independent(fd_rows), "type D fundamentals are dependent")
    rules = 0
    for kind in ("B", "D"):
        space = series._NSYM_OF_KIND[kind]
        for a in _single_shapes(kind, max_size_bd, 0):
            for b in _single_shapes("A", max_size_bd - a.size):
                sa, sb2 = E(space, "s", a.parts), E("NSym", "s", b.parts)
                dot, tri = (shapes.glue_parts(a.parts, b.parts, m) for m in ("dot", "triangle"))
                expected = E(space, "s", dot) + E(space, "s", tri)
                ok = series.nsym_product(sa, sb2) == expected
                _require(ok, "gluing rule fails at {},{}", a, b)
                ha, hb = series.convert(sa, "h"), series.convert(sb2, "h")
                via_h = series.convert(series.nsym_product(ha, hb), "s")
                _require(via_h == expected, "h-route product differs at {},{}", a, b)
                ok = _concat(ev_nc(sa, window), ev_nc(sb2, window)) == ev_nc(expected, window)
                _require(ok, "truncated product rule fails at {},{}", a, b)
                rules += 1
    return f"truncation identities pass; {rules} product rules verified (window radius {radius})"


def _concat(f: dict, g: dict) -> dict:
    """The product of two truncated noncommutative series: words concatenate."""
    return series._collect((a + b, ca * cb) for a, ca in f.items() for b, cb in g.items())


def _eval_via_h(parts, window):
    pairs = []
    for hparts, coeff in series.convert(E("NSym", "s", parts), "h").terms.items():
        piece = {(): series._int_coeff(coeff)}
        for k in hparts:
            piece = _concat(piece, series.evaluate_noncommutative(E("NSym", "h", (k,)), window))
        pairs.extend(piece.items())
    return series._collect(pairs)


# --- 13. characteristics ----------------------------------------------------


def cert_characteristics(max_size: int = 5) -> str:
    singles = _single_shapes("A", max_size)
    for alpha in singles:
        graded = series.quasisymmetric_characteristic(modules.build_p(alpha), graded=True)
        direct = series.graded_characteristic_direct(alpha)
        _require(graded == direct, "graded characteristics differ for {}", alpha)
    family = _generalized("A", max_size, 3)
    for shape in family:
        filtr = modules.filtration_by_descent(modules.build_p(shape))
        got = series.noncommutative_characteristic(filtr.labels, "A")
        expected = sum(
            (E("NSym", "s", gamma.parts) for gamma in shapes.bracket_set(shape)),
            series.SeriesElement("NSym", "s", {}),
        )
        _require(got == expected, "projective characteristic differs for {}", shape)
    checked = len(singles) + len(family)
    return f"{checked} characteristic computations agree along independent routes"


# ---------------------------------------------------------------------------


CERTIFICATES = {
    "relations": cert_relations,
    "dimensions": cert_dimensions,
    "induction": cert_induction,
    "restriction": cert_restriction,
    "coproduct": cert_coproduct,
    "duality": cert_duality,
    "antipode": cert_antipode,
    "symmetry": cert_symmetry,
    "skew": cert_skew,
    "qidentities": cert_qidentities,
    "demazure": cert_demazure,
    "truncation": cert_truncation,
    "characteristics": cert_characteristics,
}

KIND_AWARE = {"relations", "dimensions", "induction"}


def run(names, kind: str | None = None, max_size: int | None = None) -> list[CertResult]:
    """Run certificates by name, optionally restricted to one type and a
    size bound; returns one result per (certificate, type) pair."""
    results = []
    for name in names:
        fn = CERTIFICATES[name]
        if name in KIND_AWARE:
            kinds = [kind] if kind else ["A", "B", "D"]
            for k in kinds:
                size = max_size if max_size is not None else KIND_SIZES[k]
                results.append(
                    _run_one(f"{name}[{k}]", lambda f=fn, k=k, s=size: f(k, s))
                )
        else:
            kwargs = {} if max_size is None else {"max_size": max_size}
            results.append(_run_one(name, lambda f=fn, kw=kwargs: f(**kw)))
    return results


def _run_one(name: str, thunk) -> CertResult:
    """ResourceLimitError propagates; any other exception is a FAIL, with
    the bare witness of a failed check (CertificationError is an
    AssertionError) and "Type: message" for anything else."""
    try:
        return CertResult(name, True, thunk())
    except groups.ResourceLimitError:
        raise
    except AssertionError as exc:
        return CertResult(name, False, str(exc))
    except Exception as exc:
        return CertResult(name, False, f"{type(exc).__name__}: {exc}")
