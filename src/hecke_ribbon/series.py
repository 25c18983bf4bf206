"""Quasisymmetric and noncommutative symmetric functions with B/D analogues.

Elements are sparse sums of basis labels (M/F on the quasisymmetric
side, h/s on the noncommutative side) indexed by compositions, or by
pseudo-compositions in types B and D, with coefficients in Z[q].

The products implemented are the shifted-shuffle product of fundamentals
(type A quasisymmetric side), the two-term gluing rule of ribbon
functions on the noncommutative side (including the right action of the
type A space on the B and D spaces), and the concatenation rule in the h
bases.  Coproducts: reading-order cuts for F, deconcatenations for M,
the multiplicative rule for h, and monotone box splittings for s,
counted on the descent masks of the two factors' bands; in types B and
D these are one-sided comodule maps whose right factor is the type A
space.  Everything else (duality pairing, antipode, skew
elements, characteristics, q-ribbon numbers, truncated realizations as
honest power series) is built on top of these.  Skews are read off the
dual basis: M and h are dual under the pairing <h_a, M_b> = delta, and
so are F and s, so the dual element is converted once and each
coproduct term's coefficient is looked up in it.

Coefficients, conversion signs, coproduct multiplicities and pairing
values follow one rule (``_coeff``): an ``int`` when constant, a
``QPoly`` only when of degree at least 1, since q enters only through
graded characteristics.  ``schur_coproduct`` alone returns ``QPoly``
constants, which the benchmark's h-route compares with sums started
from ``QPoly()`` (``QPoly(1) == 1`` is False); ``_schur_counts`` unwraps
them for the s row of ``_coproduct_row`` and ``verify.cert_coproduct``.
``SeriesElement(...)`` validates every label through ``_check_key`` and
every coefficient through ``_coeff``; the private ``_normal_element``
trusts normal terms, and every operation here returns through it.
One-term elements, the common case of the certificates, skip the
summing: a conversion reads the label's memoised row (distinct labels,
signs ±1) into a new dict, and a coproduct returns the label's memoised
row of distinct splittings itself when the coefficient is 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from itertools import accumulate, chain, combinations, product, repeat

from . import groups, linalg, modules, tableaux
from .qpoly import ONE, QPoly, _constant, q_binomial, q_multinomial
from .shapes import (
    Parts,
    Shape,
    ShapeError,
    composition,
    descent_band,
    format_shape,
    glue_parts,
    interval,
    parts_descents,
    parts_from_descents,
    parse_shape,
    positions,
    ribbon_shape,
    split_rows,
    splitting_counts,
    transpose,
)

SPACE_KIND = {
    "QSym": "A",
    "NSym": "A",
    "QSymB": "B",
    "NSymB": "B",
    "QSymD": "D",
    "NSymD": "D",
}
QSYM_SIDE = ("QSym", "QSymB", "QSymD")
NSYM_SIDE = ("NSym", "NSymB", "NSymD")
BASES = {"M": QSYM_SIDE, "F": QSYM_SIDE, "h": NSYM_SIDE, "s": NSYM_SIDE}
_DUAL_BASIS = {"M": "h", "h": "M", "F": "s", "s": "F"}


@lru_cache(maxsize=None)
def _check_key(space: str, parts: Parts) -> Parts:
    """The one label of a basis element: validated by its shape, and the
    type B unit as (0,) whether it is given as () or (0,)."""
    return ribbon_shape(parts, SPACE_KIND[space]).parts


def _coeff(c):
    """The coefficient rule: an ``int`` when c is constant, c itself when it
    is a ``QPoly`` of degree >= 1; anything else (a ``bool`` too) raises ``TypeError``."""
    if type(c) is int:
        return c
    if type(c) is QPoly:
        coeffs = c.coeffs
        return c if len(coeffs) > 1 else coeffs[0] if coeffs else 0
    raise TypeError(f"coefficient {c!r} is not an int or a QPoly")


def _collect(pairs) -> dict:
    """Sum (key, coefficient) pairs into a sparse dict, dropping the keys
    whose coefficients sum to zero; the sums follow ``_coeff``, since two
    ``QPoly``s may add up to a constant."""
    out = {}
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return {key: c if type(c) is int else _coeff(c) for key, c in out.items() if c}


def _check_space(space: str, basis: str) -> None:
    if space not in SPACE_KIND or space not in BASES.get(basis, ()):
        raise ValueError(f"no basis {basis!r} in space {space!r}")


@dataclass
class SeriesElement:
    """A sparse Z[q]-combination of basis labels in one graded space.

    The constructor validates: every label goes through ``_check_key``
    (so a malformed one raises ``ShapeError``, and the type B unit given
    as () becomes (0,)), every coefficient through ``_coeff``, terms whose
    labels agree are summed and zero terms are dropped."""

    space: str
    basis: str
    terms: dict[Parts, int | QPoly] = field(default_factory=dict)

    def __post_init__(self):
        _check_space(self.space, self.basis)
        space = self.space
        self.terms = _collect(
            (_check_key(space, tuple(k)), _coeff(v)) for k, v in self.terms.items()
        )

    def __add__(self, other: "SeriesElement") -> "SeriesElement":
        if (self.space, self.basis) != (other.space, other.basis):
            raise ValueError("cannot add elements in different bases")
        terms = _collect(chain(self.terms.items(), other.terms.items()))
        return _normal_element(self.space, self.basis, terms)

    def __sub__(self, other: "SeriesElement") -> "SeriesElement":
        return self + other.scale(-1)

    def scale(self, c) -> "SeriesElement":
        c = _coeff(c)
        terms = {k: v * c for k, v in self.terms.items()} if c else {}
        return _normal_element(self.space, self.basis, terms)

    def specialize_q(self, value: int) -> "SeriesElement":
        terms = {k: v if type(v) is int else v(value) for k, v in self.terms.items()}
        return SeriesElement(self.space, self.basis, terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            label = f"{self.basis}[{','.join(map(str, k))}]"
            bits.append(label if c == 1 else f"({c})*{label}")
        return " + ".join(bits)


def _normal_element(space: str, basis: str, terms: dict[Parts, int | QPoly]) -> SeriesElement:
    """An element built without the constructor's checks, for terms that
    are already normal: labels that ``_check_key`` returns unchanged, and
    nonzero coefficients that ``_coeff`` returns unchanged.  ``element``,
    ``convert``, sums, ``scale``, the products, ``antipode``, ``skew`` and
    ``series_from_json`` build their results here."""
    elem = object.__new__(SeriesElement)
    elem.space, elem.basis, elem.terms = space, basis, terms
    return elem


def element(space: str, basis: str, parts, coeff=1) -> SeriesElement:
    parts = _check_key(space, tuple(parts))
    _check_space(space, basis)
    coeff = _coeff(coeff)
    return _normal_element(space, basis, {parts: coeff} if coeff else {})


def unit(space: str, basis: str) -> SeriesElement:
    return element(space, basis, ())


# ---------------------------------------------------------------------------
# basis conversions: triangular sums over the refinement order


@lru_cache(maxsize=None)
def _conversion(parts: Parts, kind: str, frm: str, to: str) -> tuple[tuple[Parts, int], ...]:
    """The triangular change of basis of one label, as (label, sign) pairs
    with distinct labels and signs ±1.  F_α is the sum of the M_β with
    D(α) <= D(β), and h_α the sum of the s_β with D(β) <= D(α); the
    inverses M -> F and s -> h run over the same interval of descent
    sets, signed by its Möbius function (-1)^|D(β) △ D(α)|."""
    n = sum(parts)
    dset = parts_descents(parts)
    if {frm, to} == {"F", "M"}:
        lower, upper = dset, positions(kind, n)
    elif {frm, to} == {"h", "s"}:
        lower, upper = (), dset
    else:
        raise ValueError(f"no conversion from {frm} to {to}")
    signs = (1, -1) if frm in ("M", "s") else (1, 1)
    return tuple(
        (parts_from_descents(d, n, kind), signs[len(d ^ dset) % 2])
        for d in interval(lower, upper)
    )


def convert(elem: SeriesElement, target: str) -> SeriesElement:
    """Exact triangular change of basis within one space.  A one-term
    element is read straight off its row of the table: the row's labels
    are distinct and its signs are ±1, so no two terms meet and none
    vanishes.  The result is a new dict on every call."""
    if target == elem.basis:
        return _normal_element(elem.space, elem.basis, dict(elem.terms))
    if BASES[target] is not BASES[elem.basis]:
        raise ValueError(f"no conversion from {elem.basis} to {target}")
    kind = SPACE_KIND[elem.space]
    if len(elem.terms) == 1:
        ((parts, coeff),) = elem.terms.items()
        row = _conversion(parts, kind, elem.basis, target)
        terms = dict(row) if coeff == 1 else {other: coeff * sign for other, sign in row}
    else:
        terms = _collect(
            (other, coeff * sign)
            for parts, coeff in elem.terms.items()
            for other, sign in _conversion(parts, kind, elem.basis, target)
        )
    return _normal_element(elem.space, target, terms)


# ---------------------------------------------------------------------------
# products


@lru_cache(maxsize=None)
def _shuffle_f(a: Parts, b: Parts) -> tuple[tuple[Parts, int], ...]:
    """F_a F_b as a sum of F's, by shuffling descent-class representatives."""
    m, n = sum(a), sum(b)
    u = groups.parabolic_longest("A", m, parts_descents(a)).window
    v = [x + m for x in groups.parabolic_longest("A", n, parts_descents(b)).window]
    keys = []
    for spots in combinations(range(m + n), m):
        word = [0] * (m + n)
        ui = iter(u)
        vi = iter(v)
        spot_set = set(spots)
        for i in range(m + n):
            word[i] = next(ui) if i in spot_set else next(vi)
        w = groups.GroupElement("A", tuple(word))
        keys.append(parts_from_descents(groups.descents(w), m + n, "A"))
    return tuple(sorted(_collect((key, 1) for key in keys).items()))


def qsym_product(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    """The shifted-shuffle product of type A quasisymmetric functions."""
    if f.space != "QSym" or g.space != "QSym":
        raise ValueError("the internal product is available in the type A space only")
    ff, gg = convert(f, "F"), convert(g, "F")
    terms = _collect(
        (key, ca * cb * mult)
        for a, ca in ff.terms.items()
        for b, cb in gg.terms.items()
        for key, mult in _shuffle_f(a, b)
    )
    return _normal_element("QSym", "F", terms)


def nsym_product(f: SeriesElement, g: SeriesElement) -> SeriesElement:
    """Two-term gluing rule in the s bases, concatenation in the h bases.

    Supported spaces: NSym x NSym, and the right NSym-action on NSymB
    and NSymD.
    """
    if g.space != "NSym" or f.space not in NSYM_SIDE:
        raise ValueError("products need an NSym right factor and an NSym-side left factor")
    basis = f.basis
    gg = convert(g, basis)
    pairs = []
    for a, ca in f.terms.items():
        for b, cb in gg.terms.items():
            c = ca * cb
            if not b:
                keys = [a]
            elif not a:
                keys = [b]
            elif basis == "h":
                keys = [a + b]
            else:
                keys = [glue_parts(a, b, "dot"), glue_parts(a, b, "triangle")]
            pairs.extend((key, c) for key in keys)
    return _normal_element(f.space, basis, _collect(pairs))


# ---------------------------------------------------------------------------
# coproducts and comodule maps


def coproduct_spaces(space: str) -> tuple[str, str]:
    return (space, "QSym" if space in QSYM_SIDE else "NSym")


def schur_coproduct(shape: Shape) -> dict[tuple[Parts, Parts], QPoly]:
    """Coproduct of the ribbon function of a generalized shape: the
    monotone splittings of the shape counted by the labels of their two
    factors' bracket sets (``shapes.splitting_counts``), each count made
    a ``QPoly`` constant (the one exception to the coefficient rule)."""
    return {key: _constant(c) for key, c in splitting_counts(shape).items()}


def _schur_counts(shape: Shape) -> dict[tuple[Parts, Parts], int]:
    """``schur_coproduct`` as ints: the s row and ``verify.cert_coproduct`` read it."""
    return {key: _coeff(c) for key, c in schur_coproduct(shape).items()}


def coproduct(elem: SeriesElement) -> tuple[tuple[Parts, Parts, int | QPoly], ...]:
    """Tensor expansion of the coproduct (or one-sided comodule map).

    Terms are (left label, right label, coefficient), sorted by the label
    pair; the left factor lives in the element's own space and the right
    factor in the type A space with the same basis letter.  Each label's
    splittings are one memoised row (``_coproduct_row``): a one-term
    element with coefficient 1 returns that row itself, any other
    one-term element scales it, and a sum of terms collects its rows.
    """
    space, basis = elem.space, elem.basis
    if basis in ("h", "s") and space != "NSym":
        raise ValueError(f"no coproduct on the {space} side in basis {basis}")
    kind = SPACE_KIND[space]
    if len(elem.terms) == 1:
        ((parts, coeff),) = elem.terms.items()
        row = _coproduct_row(parts, kind, basis)
        return row if coeff == 1 else tuple((l, r, coeff * m) for l, r, m in row)
    pairs = (
        ((left, right), coeff * m)
        for parts, coeff in elem.terms.items()
        for left, right, m in _coproduct_row(parts, kind, basis)
    )
    return tuple((l, r, c) for (l, r), c in sorted(_collect(pairs).items()))


@lru_cache(maxsize=None)
def _coproduct_row(parts: Parts, kind: str, basis: str) -> tuple[tuple[Parts, Parts, int], ...]:
    """The coproduct of one basis label as (left, right, multiplicity)
    triples with distinct label pairs, sorted, the multiplicities ints:
    the reading-order cuts of F (in type D, none before position 2), the
    deconcatenations of M (the left factor of a type B or D label keeps
    its leading part), the multiplicative rule of h, and Δ(s) from
    ``_schur_counts``.  ``schur_coproduct`` stays uncached: it is the
    direct route of ``verify.cert_coproduct``, which must not read values
    that another route filled."""
    n, ell = sum(parts), len(parts)
    if basis == "F":
        dset = parts_descents(parts)
        cuts = (
            (
                parts_from_descents([d for d in dset if d < i], i, kind),
                parts_from_descents([d - i for d in dset if d > i], n - i, "A"),
            )
            for i in range(2 if kind == "D" else 0, n + 1)
        )
        splits = dict.fromkeys(cuts, 1)
    elif basis == "M":
        if kind == "A":
            first = 0
        elif kind == "B":
            first = 0 if parts[0] > 0 else 1
        else:
            first = next(j for j in range(1, ell + 1) if sum(parts[:j]) >= 2)
        cuts = ((parts[:i] if kind == "A" or i else (0,), parts[i:]) for i in range(first, ell + 1))
        splits = dict.fromkeys(cuts, 1)
    elif basis == "h":
        splits = {((), ()): 1}
        for p in parts:
            splits = _collect(
                ((left + ((c,) if c else ()), right + ((p - c,) if p - c else ())), mult)
                for (left, right), mult in splits.items()
                for c in range(p + 1)
            )
    else:
        splits = _schur_counts(composition(parts))
    return tuple((l, r, m) for (l, r), m in sorted(splits.items()))


# ---------------------------------------------------------------------------
# duality pairing, antipode, skew elements


def _check_dual(space: str, other: str) -> None:
    """Raise ValueError unless the two spaces are paired by the duality."""
    if (space in NSYM_SIDE) == (other in NSYM_SIDE):
        raise ValueError("pairing needs one element on each side of the duality")
    if SPACE_KIND[space] != SPACE_KIND[other]:
        raise ValueError("pairing needs matching types")


def pairing(f: SeriesElement, g: SeriesElement) -> int | QPoly:
    """The bilinear pairing with <h_a, M_b> = delta, in matching types."""
    _check_dual(f.space, g.space)
    nsym, qsym = (f, g) if f.space in NSYM_SIDE else (g, f)
    hh, mm = convert(nsym, "h").terms, convert(qsym, "M").terms
    return _coeff(sum((c * mm[parts] for parts, c in hh.items() if parts in mm), 0))


def antipode(elem: SeriesElement) -> SeriesElement:
    """S(F_a) = (-1)^{|a|} F_{a^t} and S(s_a) = (-1)^{|a|} s_{a^t},
    extended to the M and h bases by conversion."""
    if SPACE_KIND[elem.space] != "A":
        raise ValueError("the antipode is available in the type A spaces only")
    basis = elem.basis
    work = convert(elem, "F" if elem.space == "QSym" else "s")
    terms = _collect(
        (transpose(composition(parts)).parts, c * (-1) ** sum(parts))
        for parts, c in work.terms.items()
    )
    return convert(_normal_element(work.space, work.basis, terms), basis)


def skew(a: SeriesElement, f: SeriesElement, side: str = "right") -> SeriesElement:
    """Skew a by the dual element f: a/f pairs f with the right tensor
    factor of the coproduct, f\\a with the left factor.

    The pairing of f with a basis element of the paired factor is the
    coefficient of the dual label in f written in the dual basis."""
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    lspace, rspace = coproduct_spaces(a.space)
    kept_space, paired_space = (lspace, rspace) if side == "right" else (rspace, lspace)
    _check_dual(f.space, paired_space)
    dual = convert(f, _DUAL_BASIS[a.basis]).terms
    terms = ((l, r, c) if side == "right" else (r, l, c) for l, r, c in coproduct(a))
    out = _collect((kept, c * dual[paired]) for kept, paired, c in terms if paired in dual)
    return _normal_element(kept_space, a.basis, out)


# ---------------------------------------------------------------------------
# characteristics


_QSYM_OF_KIND = {"A": "QSym", "B": "QSymB", "D": "QSymD"}
_NSYM_OF_KIND = {"A": "NSym", "B": "NSymB", "D": "NSymD"}


@lru_cache(maxsize=None)
def _fundamental_label(dset: frozenset[int], n: int, kind: str) -> Parts:
    """The label of the fundamental F_D for a descent set D of a group,
    made once per distinct D."""
    return parts_from_descents(dset, n, kind)


def _fundamental_sum(descents, lengths, n: int, kind: str) -> dict[Parts, QPoly]:
    """Σ q^ℓ F_D over parallel descent sets D and lengths ℓ: the (D, ℓ)
    pairs are counted at once, and the counts of each D make one
    coefficient vector."""
    rows: dict[frozenset[int], list[int]] = {}
    for (d, ell), count in Counter(zip(descents, lengths)).items():
        row = rows.setdefault(d, [])
        row.extend([0] * (ell + 1 - len(row)))
        row[ell] = count
    return {_fundamental_label(d, n, kind): QPoly(tuple(row)) for d, row in rows.items()}


def quasisymmetric_characteristic(module, graded: bool = False) -> SeriesElement:
    """Sum of fundamentals over the one-dimensional composition factors of
    a tableau module, labeled by D(w^-1) for the reading word w of each
    basis tableau, read off the group's table (``groups.left_actions``)
    by the index of w.  With ``graded``, the factors are the labels of
    the length filtration over a generator of minimal length, each
    weighted by q to its layer."""
    kind, n = module.kind, module.n
    table = groups.left_actions(kind, n)
    words = [table.index[w] for w in module.basis]
    if not graded:
        descents = [table.inverse_descents[g] for g in words]
        return SeriesElement(_QSYM_OF_KIND[kind], "F", _fundamental_sum(descents, repeat(0), n, kind))
    lengths = [table.lengths[g] for g in words]
    labels = modules.length_filtration(module, lengths.index(min(lengths))).labels
    descents = [d for layer in labels for d in layer]
    grades = [t for t, layer in enumerate(labels) for _ in layer]
    return SeriesElement(_QSYM_OF_KIND[kind], "F", _fundamental_sum(descents, grades, n, kind))


def graded_characteristic_direct(shape: Shape) -> SeriesElement:
    """The graded characteristic computed straight from the descent band,
    element by element on the formula route: lengths by ``groups.length``
    (inv, neg, nsp) and D(w^-1) by ``inverse`` and ``descents``, never the
    group's table, so that ``cert_characteristics`` compares the table's
    breadth-first lengths with the formula."""
    lower, upper = descent_band(shape)
    words = groups.band_elements(shape.kind, shape.size, lower, upper)
    base = min(groups.length(w) for w in words)
    terms = _collect((_inverse_descents(w), QPoly.q(groups.length(w) - base)) for w in words)
    return SeriesElement(_QSYM_OF_KIND[shape.kind], "F", terms)


def _inverse_descents(w: groups.GroupElement) -> Parts:
    """The label of the fundamental that w contributes: D(w^-1)."""
    return parts_from_descents(groups.descents(groups.inverse(w)), w.n, w.kind)


def noncommutative_characteristic(labels, kind: str) -> SeriesElement:
    """Sum of ribbon functions over a multiset of projective labels."""
    terms = _collect(
        (label.parts if isinstance(label, Shape) else tuple(label), 1) for label in labels
    )
    return SeriesElement(_NSYM_OF_KIND[kind], "s", terms)


# ---------------------------------------------------------------------------
# q-ribbon numbers and the exact identities


def _memo_by_label(fn):
    """Memoise fn by its arguments, with the label (its first argument)
    made a tuple so that a list works as well; as with any ``lru_cache``,
    a call that raises is not cached and raises again."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def by_label(parts, *args, **kwargs):
        return cached(tuple(parts), *args, **kwargs)

    by_label.cache_info, by_label.cache_clear = cached.cache_info, cached.cache_clear
    return by_label


@_memo_by_label
def q_ribbon(parts: Parts, method: str = "det") -> QPoly:
    """β_q(α), the inversion generating function of the type A descent
    class of a composition α of n.  ``brute`` counts the lengths of the
    class's elements, read off the group's table by index (lengths found
    by breadth-first search, not by counting inversions).
    ``ie`` reads r_α = Σ ±h_β off the s -> h table of ``_conversion`` (an
    inclusion-exclusion over the subsets of D(α)) and specialises each h_β
    to the q-multinomial [n; β]_q.  ``det`` is the q-analogue of Stanley,
    *EC1*, Example 2.2.5: with σ_i = α_1 + ... + α_i,
    β_q(α) = det[[n − σ_i choose σ_{j+1} − σ_i]_q] for i, j = 0..ℓ−1.
    That matrix is upper Hessenberg with subdiagonal [· choose 0]_q = 1,
    so its determinant is the division-free recurrence D_0 = 1,
    D_k = Σ_{i<k} (−1)^(k−1−i) [n − σ_i choose σ_k − σ_i]_q D_i, and
    β_q(α) = D_ℓ.  ``det`` and ``ie`` share ``q_binomial``, which
    ``test_qpoly`` certifies against a brute count; ``brute`` is independent.
    Every route raises ``ShapeError`` unless α is a composition.
    """
    composition(parts)
    n = sum(parts)
    if method == "brute":
        dset = parts_descents(parts)
        lengths = groups.left_actions("A", n).lengths
        counts = Counter(map(lengths.__getitem__, groups.band_indices("A", n, dset, dset)))
        return QPoly(tuple([counts[k] for k in range(max(counts) + 1)]))
    if method == "ie":
        table = _conversion(parts, "A", "s", "h")
        return sum((sign * q_multinomial(n, beta) for beta, sign in table), QPoly())
    if method == "det":
        sigma = (0, *accumulate(parts))
        dets = [ONE]
        for k in range(1, len(parts) + 1):
            d = QPoly()  # each step negates the sum so far: sign (-1)^(k-1-i)
            for i in range(k):
                d = q_binomial(n - sigma[i], sigma[k] - sigma[i]) * dets[i] - d
            dets.append(d)
        return dets[-1]
    raise ValueError(f"unknown method {method!r}")


def band_product_identity(shape: Shape):
    """Two exact routes to the q-weighted sum of fundamentals over the
    descent band of a generalized type A ribbon: directly, and through
    minimal coset representatives z times block descent classes u, with
    w = z u of length ℓ(z) + ℓ(u).  Lengths are read off the groups'
    tables by index, each z and each block element once; each product's
    D(w^-1) is read off the table at the index of its window."""
    if shape.kind != "A":
        raise ShapeError("the band identity is stated for type A shapes")
    n = shape.size
    table = groups.left_actions("A", n)
    band = groups.band_indices("A", n, *descent_band(shape))
    lhs = _fundamental_sum(
        map(table.inverse_descents.__getitem__, band), map(table.lengths.__getitem__, band), n, "A"
    )
    sizes = tuple(sum(c) for c in shape.components)
    elements = groups.enumerate_group("A", n)
    reps = [
        (elements[z].window, table.lengths[z])
        for z in groups.band_indices("A", n, frozenset(), parts_descents(sizes))
    ]
    # each block element u as its window shifted into the block's place
    # (0-based, to index z's window) and its length
    classes = []
    offset = -1
    for comp in shape.components:
        m, dset = sum(comp), parts_descents(comp)
        block_lengths = groups.left_actions("A", m).lengths
        block_elements = groups.enumerate_group("A", m)
        classes.append([
            (tuple([x + offset for x in block_elements[u].window]), block_lengths[u])
            for u in groups.band_indices("A", m, dset, dset)
        ])
        offset += m
    descents, lengths = [], []
    for combo in product(*classes):
        block = tuple(chain.from_iterable(window for window, _ in combo))
        weight = sum(ell for _, ell in combo)
        for z, ell in reps:
            descents.append(table.inverse_descents[table.index[tuple(map(z.__getitem__, block))]])
            lengths.append(weight + ell)
    return (
        SeriesElement("QSym", "F", lhs),
        SeriesElement("QSym", "F", _fundamental_sum(descents, lengths, n, "A")),
    )


def ribbon_sum_identity(beta: Parts, gamma: Parts) -> tuple[QPoly, QPoly]:
    """Interval sum of q-ribbon numbers against the product form.

    Requires D(beta) <= D(gamma).  The left side sums r_alpha(q) over the
    interval; the right side is the q-multinomial of the junction sizes
    times the q-ribbon numbers of the blocks of gamma between junctions.
    """
    n = sum(beta)
    db, dg = parts_descents(beta), parts_descents(gamma)
    if sum(gamma) != n or not db <= dg:
        raise ValueError("need compositions of one size with D(beta) <= D(gamma)")
    free = sorted(dg - db)
    lhs = QPoly()
    for d in interval(db, dg):
        lhs = lhs + q_ribbon(parts_from_descents(d, n, "A"), "ie")
    sizes = parts_from_descents(frozenset(free), n, "A")
    rhs = q_multinomial(n, sizes)
    cuts = [0] + free + [n]
    for a, b in zip(cuts, cuts[1:]):
        block = parts_from_descents(frozenset(d - a for d in dg if a < d < b), b - a, "A")
        rhs = rhs * q_ribbon(block, "ie")
    return lhs, rhs


# ---------------------------------------------------------------------------
# truncated realizations


def evaluate_noncommutative(elem: SeriesElement, window) -> dict[tuple[int, ...], int]:
    """Evaluate an NSym-side element on the noncommuting variables of the
    window: s_a is the sum of the reading words of the semistandard
    fillings of its ribbon, h_a the same on the row-separated shape.
    Returns a dict from words to nonzero int coefficients."""
    if elem.space not in NSYM_SIDE:
        raise ValueError("noncommutative evaluation applies to the NSym side")
    window = tuple(sorted(set(window)))
    kind = SPACE_KIND[elem.space]
    pairs = []
    for parts, c in elem.terms.items():
        if type(c) is not int:
            raise ValueError("truncated evaluation needs constant coefficients")
        shape = ribbon_shape(parts, kind)
        if elem.basis == "h":
            shape = split_rows(shape)
        pairs.extend((w, c) for w in tableaux.semistandard_tableaux(shape, window))
    return _collect(pairs)


def evaluate_commutative(elem: SeriesElement, window) -> dict[tuple[int, ...], int]:
    """Evaluate a QSym-side element on the commuting variables of the
    window, from the index-sequence definitions: F_a sums the weakly
    increasing index words that rise strictly at the descents of a, M_a
    those that rise strictly there and stay equal elsewhere; in types B
    and D position 0 compares with the 0-box value in the same way.
    Returns a dict from exponent vectors over the sorted window to
    nonzero int coefficients.  Raises ``ResourceLimitError`` when one
    term has more index words than the tableau guard allows."""
    if elem.space not in QSYM_SIDE:
        raise ValueError("commutative evaluation applies to the QSym side")
    window = tuple(sorted(set(window)))
    kind = SPACE_KIND[elem.space]
    if kind == "B" and any(v < 0 for v in window):
        raise ValueError("the type B variable window starts at 0")
    flat = "=" if elem.basis == "M" else "<="
    pairs = []
    for parts, c in elem.terms.items():
        if type(c) is not int:
            raise ValueError("truncated evaluation needs constant coefficients")
        dset = parts_descents(parts)
        pattern = ["<" if j in dset else flat for j in range(sum(parts))]
        words = tableaux.pattern_words(
            kind, pattern, window, "index words of {}{}", elem.basis, list(parts)
        )
        pairs.extend((tuple(w.count(v) for v in window), c) for w in words)
    return _collect(pairs)


def truncation_independent(series_list) -> bool:
    """Exact independence test: are the truncated series (sparse rows, dicts
    from words or exponent vectors to ints, as the evaluations return)
    linearly independent?  Each is added to one ``linalg.Echelon``, and
    the test stops at the first that lies in the span of those before it.

    Independent truncations imply independent series, but not the
    converse: a window that is too small can make independent series
    dependent, or zero. In type A, NSym_n is injective only over k >= n
    letters, since r_(1^n) vanishes in fewer. For types B and D, the
    tests and ``verify.cert_truncation`` use a window of radius size + 1.
    """
    ech = linalg.Echelon()
    return all(ech.add(s) for s in series_list)


# ---------------------------------------------------------------------------
# JSON


def series_to_json(elem: SeriesElement) -> dict:
    kind = SPACE_KIND[elem.space]
    return {
        "space": elem.space,
        "basis": elem.basis,
        "terms": [
            {"shape": format_shape(ribbon_shape(k, kind)), "coeff": list(QPoly.of(v).coeffs)}
            for k, v in sorted(elem.terms.items())
        ],
    }


def series_from_json(data: dict) -> SeriesElement:
    """Read an element back.  Each label is read by ``parse_shape`` and
    checked as ``element`` checks it: a malformed one raises
    ``ShapeError``, and the type B unit reads back as (0,) whether it was
    written as [] or [0].  A coefficient that is not a list of ints
    raises ``ValueError`` naming its label."""
    empty = SeriesElement(data["space"], data["basis"])
    pairs = []
    for item in data["terms"]:
        parts = parse_shape(item["shape"], SPACE_KIND[empty.space]).parts
        coeff = tuple(item["coeff"])
        if any(type(c) is not int for c in coeff):
            raise ValueError(f"coefficient of {item['shape']} is not a list of ints: {coeff}")
        pairs.append((_check_key(empty.space, parts), QPoly(coeff)))
    return _normal_element(empty.space, empty.basis, _collect(pairs))
