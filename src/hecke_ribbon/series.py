"""Quasisymmetric and noncommutative symmetric functions with B/D analogues.

Elements are sparse sums of basis labels (M/F on the quasisymmetric
side, h/s on the noncommutative side) indexed by compositions, or by
pseudo-compositions in types B and D, with coefficients in Z[q].

The products implemented are the shifted-shuffle product of fundamentals
(type A quasisymmetric side), the two-term gluing rule of ribbon
functions on the noncommutative side (including the right action of the
type A space on the B and D spaces), and the concatenation rule in the h
bases.  Coproducts: reading-order cuts for F, deconcatenations for M,
the multiplicative rule for h, and monotone box splittings for s; in
types B and D these are one-sided comodule maps whose right factor is
the type A space.  Everything else (duality pairing, antipode, skew
elements, characteristics, q-ribbon numbers, truncated realizations as
honest power series) is built on top of these.  Skews are read off the
dual basis: M and h are dual under the pairing <h_a, M_b> = delta, and
so are F and s, so the dual element is converted once and each
coproduct term's coefficient is looked up in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, combinations, combinations_with_replacement, product

from . import groups, linalg, modules, tableaux
from .qpoly import ONE, QPoly, q_binomial, q_multinomial
from .shapes import (
    Parts,
    Shape,
    ShapeError,
    bracket_set,
    composition,
    decompositions,
    descent_band,
    glue_parts,
    parts_descents,
    parts_from_descents,
    positions,
    ribbon_shape,
    split_rows,
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


def _check_key(space: str, parts: Parts) -> Parts:
    kind = SPACE_KIND[space]
    ribbon_shape(parts, kind)  # validates
    if space in ("QSymD", "NSymD") and sum(parts) < 2:
        raise ShapeError(f"type D series live in degrees >= 2, got {parts}")
    return tuple(parts)


def _collect(pairs) -> dict:
    """Sum (key, coefficient) pairs into a sparse dict, dropping the keys
    whose coefficients sum to zero; coefficients are QPoly or int."""
    out = {}
    for key, c in pairs:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


@dataclass
class SeriesElement:
    """A sparse Z[q]-combination of basis labels in one graded space."""

    space: str
    basis: str
    terms: dict[Parts, QPoly] = field(default_factory=dict)

    def __post_init__(self):
        if self.space not in SPACE_KIND or self.space not in BASES.get(self.basis, ()):
            raise ValueError(f"no basis {self.basis!r} in space {self.space!r}")
        self.terms = {
            tuple(k): QPoly.of(v) for k, v in self.terms.items() if QPoly.of(v)
        }

    def __add__(self, other: "SeriesElement") -> "SeriesElement":
        if (self.space, self.basis) != (other.space, other.basis):
            raise ValueError("cannot add elements in different bases")
        terms = _collect(chain(self.terms.items(), other.terms.items()))
        return SeriesElement(self.space, self.basis, terms)

    def __sub__(self, other: "SeriesElement") -> "SeriesElement":
        return self + other.scale(-1)

    def scale(self, c) -> "SeriesElement":
        c = QPoly.of(c)
        return SeriesElement(self.space, self.basis, {k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def specialize_q(self, value: int) -> "SeriesElement":
        return SeriesElement(
            self.space, self.basis, {k: QPoly.of(v(value)) for k, v in self.terms.items()}
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            c = self.terms[k]
            label = f"{self.basis}[{','.join(map(str, k))}]"
            text = str(c)
            bits.append(label if text == "1" else f"({text})*{label}")
        return " + ".join(bits)


def element(space: str, basis: str, parts, coeff=1) -> SeriesElement:
    parts = _check_key(space, tuple(parts))
    return SeriesElement(space, basis, {parts: QPoly.of(coeff)})


def unit(space: str, basis: str) -> SeriesElement:
    kind = SPACE_KIND[space]
    return element(space, basis, () if kind == "A" else (0,))


# ---------------------------------------------------------------------------
# basis conversions: triangular sums over the refinement order


@lru_cache(maxsize=None)
def _conversion(parts: Parts, kind: str, frm: str, to: str) -> tuple[tuple[Parts, int], ...]:
    n = sum(parts)
    dset = parts_descents(parts)
    out = []
    if (frm, to) in (("F", "M"), ("M", "F")):
        free = sorted(set(positions(kind, n)) - dset)
        for mask in range(1 << len(free)):
            extra = frozenset(free[i] for i in range(len(free)) if mask >> i & 1)
            sign = 1 if frm == "F" else (-1) ** len(extra)
            out.append((parts_from_descents(dset | extra, n, kind), sign))
    elif (frm, to) in (("h", "s"), ("s", "h")):
        sub = sorted(dset)
        for mask in range(1 << len(sub)):
            kept = frozenset(sub[i] for i in range(len(sub)) if mask >> i & 1)
            sign = 1 if frm == "h" else (-1) ** (len(sub) - len(kept))
            out.append((parts_from_descents(kept, n, kind), sign))
    else:
        raise ValueError(f"no conversion from {frm} to {to}")
    return tuple(out)


def convert(elem: SeriesElement, target: str) -> SeriesElement:
    """Exact triangular change of basis within one space."""
    if target == elem.basis:
        return SeriesElement(elem.space, elem.basis, dict(elem.terms))
    if BASES[target] is not BASES[elem.basis]:
        raise ValueError(f"no conversion from {elem.basis} to {target}")
    kind = SPACE_KIND[elem.space]
    terms = _collect(
        (other, coeff * sign)
        for parts, coeff in elem.terms.items()
        for other, sign in _conversion(parts, kind, elem.basis, target)
    )
    return SeriesElement(elem.space, target, terms)


# ---------------------------------------------------------------------------
# products


@lru_cache(maxsize=None)
def _shuffle_f(a: Parts, b: Parts) -> tuple[tuple[Parts, int], ...]:
    """F_a F_b as a sum of F's, by shuffling descent-class representatives."""
    m, n = sum(a), sum(b)
    u = groups.class_minimum("A", m, parts_descents(a)).window
    v = [x + m for x in groups.class_minimum("A", n, parts_descents(b)).window]
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
    return SeriesElement("QSym", "F", terms)


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
    return SeriesElement(f.space, basis, _collect(pairs))


# ---------------------------------------------------------------------------
# coproducts and comodule maps


def coproduct_spaces(space: str) -> tuple[str, str]:
    return (space, "QSym" if space in QSYM_SIDE else "NSym")


def schur_coproduct(shape: Shape) -> dict[tuple[Parts, Parts], QPoly]:
    """Coproduct of the ribbon function of a generalized type A shape,
    as a sum over monotone box splittings expanded over bracket sets."""
    return _collect(
        ((left.parts, right.parts), ONE)
        for dec in decompositions(shape)
        for left in bracket_set(dec.beta)
        for right in bracket_set(dec.gamma)
    )


def _cut_parts(parts: Parts, kind: str, i: int) -> tuple[Parts, Parts]:
    n = sum(parts)
    dset = parts_descents(parts)
    left = parts_from_descents({d for d in dset if d < i}, i, kind)
    right = parts_from_descents({d - i for d in dset if d > i}, n - i, "A")
    return left, right


def coproduct(elem: SeriesElement) -> tuple[tuple[Parts, Parts, QPoly], ...]:
    """Tensor expansion of the coproduct (or one-sided comodule map).

    Terms are (left label, right label, coefficient); the left factor
    lives in the element's own space and the right factor in the type A
    space with the same basis letter.
    """
    space, basis = elem.space, elem.basis
    kind = SPACE_KIND[space]
    pairs = []
    for parts, coeff in elem.terms.items():
        n = sum(parts)
        if basis == "F":
            start = 2 if kind == "D" else 0
            pairs.extend((_cut_parts(parts, kind, i), coeff) for i in range(start, n + 1))
        elif basis == "M":
            ell = len(parts)
            if kind == "A":
                valid = range(ell + 1)
            elif kind == "B":
                valid = range(0 if parts[0] > 0 else 1, ell + 1)
            else:
                k = next(j for j in range(1, ell + 1) if sum(parts[:j]) >= 2)
                valid = range(k, ell + 1)
            for i in valid:
                left = parts[:i] if (kind == "A" or i > 0) else (0,)
                pairs.append(((left, parts[i:]), coeff))
        elif basis == "h":
            if space != "NSym":
                raise ValueError(f"no coproduct on the {space} side in basis h")
            pairs.extend(((left, right), coeff * mult) for left, right, mult in _h_splits(parts))
        elif basis == "s":
            if space != "NSym":
                raise ValueError(f"no coproduct on the {space} side in basis s")
            for key, mult in schur_coproduct(composition(parts)).items():
                pairs.append((key, coeff * mult))
    return tuple((l, r, c) for (l, r), c in sorted(_collect(pairs).items()))


@lru_cache(maxsize=None)
def _h_splits(parts: Parts) -> tuple[tuple[Parts, Parts, int], ...]:
    splits: dict[tuple[Parts, Parts], int] = {((), ()): 1}
    for p in parts:
        splits = _collect(
            ((left + ((c,) if c else ()), right + ((p - c,) if p - c else ())), mult)
            for (left, right), mult in splits.items()
            for c in range(p + 1)
        )
    return tuple((l, r, m) for (l, r), m in sorted(splits.items()))


# ---------------------------------------------------------------------------
# duality pairing, antipode, skew elements


def _check_dual(space: str, other: str) -> None:
    """Raise ValueError unless the two spaces are paired by the duality."""
    if (space in NSYM_SIDE) == (other in NSYM_SIDE):
        raise ValueError("pairing needs one element on each side of the duality")
    if SPACE_KIND[space] != SPACE_KIND[other]:
        raise ValueError("pairing needs matching types")


def pairing(f: SeriesElement, g: SeriesElement) -> QPoly:
    """The bilinear pairing with <h_a, M_b> = delta, in matching types."""
    _check_dual(f.space, g.space)
    nsym, qsym = (f, g) if f.space in NSYM_SIDE else (g, f)
    hh = convert(nsym, "h")
    mm = convert(qsym, "M")
    out = QPoly()
    for parts, c in hh.terms.items():
        other = mm.terms.get(parts)
        if other:
            out = out + c * other
    return out


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
    return convert(SeriesElement(work.space, work.basis, terms), basis)


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
    return SeriesElement(kept_space, a.basis, out)


# ---------------------------------------------------------------------------
# characteristics


_QSYM_OF_KIND = {"A": "QSym", "B": "QSymB", "D": "QSymD"}
_NSYM_OF_KIND = {"A": "NSym", "B": "NSymB", "D": "NSymD"}


def quasisymmetric_characteristic(module, graded: bool = False) -> SeriesElement:
    """Sum of fundamentals over the one-dimensional composition factors of
    a tableau module; with ``graded``, weight each factor by q to the
    length above a cyclic generator."""
    space = _QSYM_OF_KIND[module.kind]
    keys = [
        parts_from_descents(tableaux.tableau_descents(t), module.n, module.kind)
        for t in module.basis
    ]
    if not graded:
        return SeriesElement(space, "F", _collect((key, 1) for key in keys))
    lengths = [groups.length(tableaux.reading_word(t)) for t in module.basis]
    base = min(lengths)
    generator = lengths.index(base)
    modules.length_filtration(module, generator)  # certifies cyclicity and layers
    terms = _collect((key, QPoly.q(ell - base)) for key, ell in zip(keys, lengths))
    return SeriesElement(space, "F", terms)


def graded_characteristic_direct(shape: Shape) -> SeriesElement:
    """The graded characteristic computed straight from the descent band."""
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


def q_ribbon(parts: Parts, method: str = "det") -> QPoly:
    """β_q(α), the inversion generating function of the type A descent
    class of a composition α of n.  ``brute`` sums q^inv(w) over the class,
    ``ie`` is inclusion-exclusion over the descent set with q-multinomials,
    and ``det`` is the q-analogue of Stanley, *EC1*, Example 2.2.5: with
    σ_i = α_1 + ... + α_i, β_q(α) = det[[n − σ_i choose σ_{j+1} − σ_i]_q]
    for i, j = 0..ℓ−1.  That matrix is upper Hessenberg with subdiagonal
    [· choose 0]_q = 1, so its determinant is the division-free recurrence
    D_0 = 1, D_k = Σ_{i<k} (−1)^(k−1−i) [n − σ_i choose σ_k − σ_i]_q D_i,
    and β_q(α) = D_ℓ.  ``det`` and ``ie`` share ``q_binomial``, which
    ``test_qpoly`` certifies against a brute count; ``brute`` is independent.
    Every route raises ``ShapeError`` unless α is a composition.
    """
    composition(parts)
    n = sum(parts)
    if method == "brute":
        dset = parts_descents(parts)
        out = QPoly()
        for w in groups.descent_buckets("A", n).get(dset, ()):
            out = out + QPoly.q(groups.inv_count(w))
        return out
    if method == "ie":
        dset = parts_descents(parts)
        out = QPoly()
        sub = sorted(dset)
        for mask in range(1 << len(sub)):
            kept = frozenset(sub[i] for i in range(len(sub)) if mask >> i & 1)
            beta = parts_from_descents(kept, n, "A")
            sign = (-1) ** (len(sub) - len(kept))
            out = out + sign * q_multinomial(n, beta)
        return out
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
    minimal coset representatives times block descent classes."""
    if shape.kind != "A":
        raise ShapeError("the band identity is stated for type A shapes")
    n = shape.size
    lower, upper = descent_band(shape)
    lhs = _collect(
        (_inverse_descents(w), QPoly.q(groups.inv_count(w)))
        for w in groups.band_elements("A", n, lower, upper)
    )
    sizes = tuple(sum(c) for c in shape.components)
    reps = groups.min_coset_reps("A", composition(sizes))
    classes = [
        groups.descent_class("A", composition(comp)).elements for comp in shape.components
    ]
    rhs = []
    for combo in product(*classes):
        block = []
        offset = 0
        weight = 0
        for u in combo:
            block.extend(x + offset for x in u.window)
            offset += u.n
            weight += groups.inv_count(u)
        embedded = groups.GroupElement("A", tuple(block))
        for z in reps:
            w = groups.multiply(z, embedded)
            rhs.append((_inverse_descents(w), QPoly.q(weight + groups.inv_count(z))))
    return (
        SeriesElement("QSym", "F", lhs),
        SeriesElement("QSym", "F", _collect(rhs)),
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
    for mask in range(1 << len(free)):
        extra = frozenset(free[i] for i in range(len(free)) if mask >> i & 1)
        lhs = lhs + q_ribbon(parts_from_descents(db | extra, n, "A"), "ie")
    sizes = parts_from_descents(frozenset(free), n, "A")
    rhs = q_multinomial(n, sizes)
    cuts = [0] + free + [n]
    for a, b in zip(cuts, cuts[1:]):
        block = parts_from_descents(frozenset(d - a for d in dg if a < d < b), b - a, "A")
        rhs = rhs * q_ribbon(block, "ie")
    return lhs, rhs


# ---------------------------------------------------------------------------
# truncated realizations


@dataclass
class TruncatedNCSeries:
    """A finite noncommutative series: words over a window of variable
    indices with integer coefficients."""

    window: tuple[int, ...]
    terms: dict[tuple[int, ...], int]

    def __post_init__(self):
        self.terms = {k: v for k, v in self.terms.items() if v}

    def __add__(self, other: "TruncatedNCSeries") -> "TruncatedNCSeries":
        terms = _collect(chain(self.terms.items(), other.terms.items()))
        return TruncatedNCSeries(self.window, terms)

    def __mul__(self, other: "TruncatedNCSeries") -> "TruncatedNCSeries":
        terms = _collect(
            (a + b, ca * cb) for a, ca in self.terms.items() for b, cb in other.terms.items()
        )
        return TruncatedNCSeries(self.window, terms)


def _int_coeff(c: QPoly) -> int:
    if c.degree > 0:
        raise ValueError("truncated evaluation needs constant coefficients")
    return c.coeffs[0] if c.coeffs else 0


def evaluate_noncommutative(elem: SeriesElement, window) -> TruncatedNCSeries:
    """Evaluate an NSym-side element as a sum over semistandard tableaux
    with entries in the window."""
    if elem.space not in NSYM_SIDE:
        raise ValueError("noncommutative evaluation applies to the NSym side")
    window = tuple(sorted(set(window)))
    kind = SPACE_KIND[elem.space]
    pairs = []
    for parts, coeff in elem.terms.items():
        c = _int_coeff(coeff)
        shape = ribbon_shape(parts, kind)
        if elem.basis == "h":
            shape = split_rows(shape)
        pairs.extend((t.entries, c) for t in tableaux.semistandard_tableaux(shape, window))
    return TruncatedNCSeries(window, _collect(pairs))


def evaluate_commutative(elem: SeriesElement, window) -> dict[tuple[int, ...], int]:
    """Evaluate a QSym-side element from the index-sequence definitions;
    keys are exponent vectors over the sorted window."""
    if elem.space not in QSYM_SIDE:
        raise ValueError("commutative evaluation applies to the QSym side")
    window = tuple(sorted(set(window)))
    kind = SPACE_KIND[elem.space]
    if kind == "B" and any(v < 0 for v in window):
        raise ValueError("the type B variable window starts at 0")
    exact = elem.basis == "M"
    pairs = []
    for parts, coeff in elem.terms.items():
        c = _int_coeff(coeff)
        dset = parts_descents(parts)
        for word in combinations_with_replacement(window, sum(parts)):
            if _word_matches(word, dset, kind, exact):
                pairs.append((tuple(word.count(v) for v in window), c))
    return _collect(pairs)


def _word_matches(word, dset, kind: str, exact: bool) -> bool:
    n = len(word)
    if kind == "A":
        boundary = None
    elif kind == "B":
        boundary = 0
    else:
        if n < 2:
            return False
        boundary = -word[1]
    if boundary is not None:
        if boundary > word[0]:
            return False
        strict0 = boundary < word[0]
        if exact and strict0 != (0 in dset):
            return False
        if not exact and 0 in dset and not strict0:
            return False
    for j in range(1, n):
        strict = word[j - 1] < word[j]
        if exact and strict != (j in dset):
            return False
        if not exact and j in dset and not strict:
            return False
    return True


def truncation_independent(series_list) -> bool:
    """Exact rank test: are the truncated series linearly independent?

    Independent truncations imply independent series, but not the
    converse: a window that is too small can make independent series
    dependent, or zero. In type A, NSym_n is injective only over k >= n
    letters, since r_(1^n) vanishes in fewer. For types B and D, the
    tests and ``verify.cert_truncation`` use a window of radius size + 1.
    """
    words = sorted({w for s in series_list for w in s.terms})
    index = {w: i for i, w in enumerate(words)}
    rows = []
    for s in series_list:
        row = [Fraction(0)] * len(words)
        for w, c in s.terms.items():
            row[index[w]] = Fraction(c)
        rows.append(row)
    return linalg.rank(rows) == len(series_list)


# ---------------------------------------------------------------------------
# JSON


def series_to_json(elem: SeriesElement) -> dict:
    return {
        "space": elem.space,
        "basis": elem.basis,
        "terms": [
            {"shape": "[" + ",".join(map(str, k)) + "]", "coeff": list(v.coeffs)}
            for k, v in sorted(elem.terms.items())
        ],
    }


def series_from_json(data: dict) -> SeriesElement:
    terms = {}
    for item in data["terms"]:
        inner = item["shape"].strip()[1:-1]
        parts = tuple(int(x) for x in inner.split(",")) if inner else ()
        terms[parts] = QPoly.of(tuple(item["coeff"]))
    return SeriesElement(data["space"], data["basis"], terms)
