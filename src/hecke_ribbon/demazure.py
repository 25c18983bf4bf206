"""The type A polynomial model: Demazure operators on exact polynomials.

The isobaric divided difference pi_i sends f to
(x_i f - x_{i+1} s_i(f)) / (x_i - x_{i+1}).  No division is performed:
pi_i is computed term by term from its closed form on monomials, and
``verify.cert_demazure`` checks it against the defining identity by
multiplication.  The bar operator pi-bar_i = pi_i - 1 has its own closed
form, which ``verify.cert_demazure`` certifies equal to pi_i - 1 on every
monomial it sweeps.  One rule builds both
polynomial models: the bar images of the staircase-like monomial
x_gamma, one per reading word, span the ribbon module of any shape whose
components concatenate to gamma, and the row-separated module of a
ribbon is that of its single rows.  Each basis polynomial is certified
triangular where it is built, and the tableau module's action is
certified in place, on each basis polynomial under each bar operator.

``Poly`` is an immutable value with slots; its public constructor checks
and normalises, and polynomials in different numbers of variables do
not combine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from types import MappingProxyType

from . import groups, modules
from .shapes import (
    Parts,
    Shape,
    composition,
    parts_descents,
    split_rows,
)

Monomial = tuple[int, ...]


@dataclass(frozen=True, init=False)
class Poly:
    """A sparse multivariate polynomial with integer coefficients: its
    nonzero terms on exponent vectors of length n, sorted.  The
    constructor checks every term (n non-negative int exponents, an int
    coefficient; ``ValueError`` otherwise), sums equal monomials and
    drops zeros; results come from ``_make`` unchecked."""

    __slots__ = ("n", "terms")
    n: int
    terms: tuple[tuple[Monomial, int], ...]

    def __init__(self, n: int, terms: tuple[tuple[Monomial, int], ...] = ()):
        out: dict[Monomial, int] = {}
        for m, c in terms:
            m = tuple(m)
            if len(m) != n or type(c) is not int or any(type(e) is not int or e < 0 for e in m):
                raise ValueError(f"term {m}: {c!r} is not {n} non-negative int exponents and an int")
            out[m] = out.get(m, 0) + c
        _set_n(self, n)
        _set_terms(self, Poly.from_dict(n, out).terms)

    @staticmethod
    def from_dict(n: int, d: dict[Monomial, int]) -> "Poly":
        """The polynomial of a dict whose monomials already have length n."""
        return _make(n, tuple(sorted([(m, c) for m, c in d.items() if c])))

    @staticmethod
    def monomial(n: int, expo: Monomial, coeff: int = 1) -> "Poly":
        return Poly(n, ((expo, coeff),))

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly.monomial(n, (0,) * n)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        return _combine(self, other, 1) if isinstance(other, Poly) else NotImplemented

    def __sub__(self, other: "Poly") -> "Poly":
        return _combine(self, other, -1) if isinstance(other, Poly) else NotImplemented

    def __neg__(self) -> "Poly":
        return _make(self.n, tuple([(m, -c) for m, c in self.terms]))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return _make(self.n, tuple([(m, c * other) for m, c in self.terms]) if other else ())
        if not isinstance(other, Poly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"cannot combine polynomials in {self.n} and {other.n} variables")
        if len(other.terms) == 1:
            return _shift(self, *other.terms[0])
        if len(self.terms) == 1:
            return _shift(other, *self.terms[0])
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                key = tuple(map(add, m1, m2))
                out[key] = out.get(key, 0) + c1 * c2
        return Poly.from_dict(self.n, out)

    __rmul__ = __mul__

    def permute(self, w: groups.GroupElement) -> "Poly":
        """The variable substitution x_i -> x_{w(i)}."""
        out = []
        for m, c in self.terms:
            mm = [0] * self.n
            for i, e in enumerate(m):
                mm[w.window[i] - 1] = e
            out.append((tuple(mm), c))
        return _make(self.n, tuple(sorted(out)))

    def __str__(self) -> str:
        return format_poly(self)

    def __reduce__(self):
        return _make, (self.n, self.terms)


_set_n, _set_terms = Poly.n.__set__, Poly.terms.__set__


def _make(n: int, terms: tuple[tuple[Monomial, int], ...]) -> Poly:
    """A Poly around terms that are already normal: sorted, nonzero, and
    on exponent vectors of length n."""
    p = object.__new__(Poly)
    _set_n(p, n)
    _set_terms(p, terms)
    return p


def _combine(f: Poly, g: Poly, sign: int) -> Poly:
    """f + sign * g, in one pass over the terms of g."""
    if f.n != g.n:
        raise ValueError(f"cannot combine polynomials in {f.n} and {g.n} variables")
    out = dict(f.terms)
    for m, c in g.terms:
        out[m] = out.get(m, 0) + sign * c
    return Poly.from_dict(f.n, out)


def _shift(f: Poly, m: Monomial, c: int) -> Poly:
    """f times the term c x^m: adding m to every monomial keeps their
    order, and c is nonzero, so the terms stay normal without a sort."""
    return _make(f.n, tuple([(tuple(map(add, mf, m)), cf * c) for mf, cf in f.terms]))


def format_poly(f: Poly) -> str:
    if not f.terms:
        return "0"
    bits = []
    for m, c in sorted(f.terms, reverse=True):
        factors = [
            f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e
        ]
        body = "*".join(factors) if factors else "1"
        if c == 1 and factors:
            bits.append(body)
        elif c == -1 and factors:
            bits.append(f"-{body}")
        else:
            bits.append(f"{c}*{body}" if factors else str(c))
    text = " + ".join(bits)
    return text.replace("+ -", "- ")


def parse_poly(text: str, n: int) -> Poly:
    """Parse "x1^2*x2 - 2*x3" style polynomial text."""
    text = text.replace("-", "+-").replace(" ", "")
    out: dict[Monomial, int] = {}
    for chunk in text.split("+"):
        if not chunk:
            continue
        coeff = 1
        if chunk.startswith("-"):
            coeff = -1
            chunk = chunk[1:]
        expo = [0] * n
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {chunk!r}")
            if factor.startswith("x"):
                var, caret, power = factor[1:].partition("^")
                if not (var.isdigit() and 1 <= int(var) <= n):
                    raise ValueError(f"unknown variable {factor!r}: use x1..x{n}")
                if caret and not power.isdigit():
                    raise ValueError(f"exponent in {factor!r} is not a non-negative integer")
                expo[int(var) - 1] += int(power) if caret else 1
            else:
                coeff *= int(factor)
        key = tuple(expo)
        out[key] = out.get(key, 0) + coeff
    return Poly.from_dict(n, out)


# ---------------------------------------------------------------------------
# operators


def demazure(i: int, f: Poly) -> Poly:
    """pi_i(f) = (x_i f - x_{i+1} s_i(f)) / (x_i - x_{i+1}), term by term:
    pi_i(x_i^a x_{i+1}^b) is the sum of x_i^(a+b-j) x_{i+1}^j over
    b <= j <= a when a >= b, and minus that sum over a < j < b otherwise."""
    return _closed_form(i, f, 0)


def demazure_bar(i: int, f: Poly) -> Poly:
    """pi-bar_i(f) = pi_i(f) - f in one pass, from its own closed form:
    pi-bar_i(x_i^a x_{i+1}^b) is the sum of x_i^(a+b-j) x_{i+1}^j over
    b < j <= a when a >= b, and minus that sum over a < j <= b otherwise."""
    return _closed_form(i, f, 1)


def _closed_form(i: int, f: Poly, bar: int) -> Poly:
    """pi_i(f) for bar = 0 and pi-bar_i(f) for bar = 1: the two closed
    forms differ only in the term j = b, which pi-bar_i moves from the
    first sum to the second."""
    if not 1 <= i <= f.n - 1:
        raise ValueError(f"operator index {i} out of range for {f.n} variables")
    out: dict[Monomial, int] = {}
    for m, c in f.terms:
        a, b = m[i - 1], m[i]
        head, total, tail = m[: i - 1], a + b, m[i + 1 :]
        span, sign = (range(b + bar, a + 1), c) if a >= b else (range(a + 1, b + bar), -c)
        for j in span:
            key = head + (total - j, j) + tail
            out[key] = out.get(key, 0) + sign
    return Poly.from_dict(f.n, out)


def x_alpha(alpha: Shape | Parts) -> Poly:
    """The product over descents d of x_1 ... x_d, in |alpha| variables."""
    parts = alpha.parts if isinstance(alpha, Shape) else tuple(alpha)
    n = sum(parts)
    expo = [0] * n
    for d in parts_descents(parts):
        for i in range(d):
            expo[i] += 1
    return Poly.monomial(n, tuple(expo))


# ---------------------------------------------------------------------------
# triangularity


def sorted_exponents(m: Monomial) -> tuple[int, ...]:
    """The key of the partial order: the nonzero exponents, decreasing;
    keys compare lexicographically."""
    return tuple(sorted((e for e in m if e), reverse=True))


@lru_cache(maxsize=None)
def _bar_images(alpha: Parts) -> MappingProxyType[tuple[int, ...], Poly]:
    """pi-bar_w applied to x_alpha for every w with D(w) <= D(alpha), keyed
    by window in order of length, then window; a read-only cached mapping.
    Computed along the weak order on the group table: the image at w is
    pi-bar_i of the image at s_i w, for i the least left descent of w."""
    n = sum(alpha)
    table, elements = groups.left_actions("A", n), groups.enumerate_group("A", n)
    band = groups.band_indices("A", n, frozenset(), parts_descents(composition(alpha).parts))
    by_index: dict[int, Poly] = {}
    for g in sorted(band, key=table.lengths.__getitem__):
        left = table.inverse_descents[g]
        if not left:  # the identity
            by_index[g] = x_alpha(alpha)
            continue
        i = min(left)
        parent = by_index.get(table.step[i][g])
        if parent is None:
            raise modules.CertificationError(
                f"bar images of x_{composition(alpha)}: s_{i} w leaves the band at w={_word(elements[g].window)}"
            )
        by_index[g] = demazure_bar(i, parent)
    return MappingProxyType({elements[g].window: f for g, f in by_index.items()})


def _word(window: tuple[int, ...]) -> str:
    return ",".join(map(str, window))


# ---------------------------------------------------------------------------
# certified polynomial modules


def build_polynomial_module(shape: Shape, model: str | None = None):
    """Realise a tableau module inside the polynomial ring.

    One rule serves both models: model "P" (the default for a generalized
    ribbon) is the module ``modules.build_p`` of the shape, and model "M"
    (the default for a single ribbon alpha) is model "P" on
    ``split_rows(alpha)``, the row-separated module.  With gamma the
    concatenated parts, the basis polynomial f_j of a tableau with reading
    word w is the bar image of x_gamma at w (``_bar_images``), certified
    where it is built: it must be its lead, x_gamma with exponent i moved
    to position w(i), with coefficient 1, plus terms strictly smaller in
    the sorted-exponent order, and no two leads may collide, so the f_j
    are independent.  The tableau module's action is then certified in
    place: for every generator i and basis index j, pi-bar_i f_j must
    equal v f_r for the one entry (r, v) of column j of generator i, or
    zero for an empty column.  Returns (module, certified shape), the
    module on the reading words of the tableau basis, with no shape and
    the certified shape as its ``basis_shape``, so that it reads back from
    JSON; raises ``CertificationError`` on failure.
    """
    if shape.kind != "A":
        raise ValueError("the polynomial model is type A only")
    if model is None:
        model = "M" if shape.is_single else "P"
    given = shape
    if model == "M":
        if not shape.is_single:
            raise ValueError("the row-separated model needs a single ribbon")
        shape = split_rows(shape)
    elif model != "P":
        raise ValueError(f"unknown model {model!r}")
    target = modules.build_p(shape)
    gamma = sum(shape.components, ())  # the dot gluing of all components
    n, images = sum(gamma), _bar_images(gamma)
    base = x_alpha(gamma).terms[0][0]
    reference = sorted_exponents(base)
    basis, leads = [], set()
    for w in target.basis:
        if w not in images:
            raise modules.CertificationError(f"polynomial model of {shape}: word {w} has no bar image")
        f = images[w]
        lead = [0] * n
        for wi, e in zip(w, base):  # exponent i of x_gamma moves to position w(i)
            lead[wi - 1] = e
        lead = tuple(lead)
        stray = [m for m, _ in f.terms if m != lead and not sorted_exponents(m) < reference]
        if stray or (lead, 1) not in f.terms:
            reason = f"stray monomial {stray[0]}" if stray else "missing unit leading term"
            raise modules.CertificationError(f"triangularity fails for {given}: w={_word(w)}: {reason}")
        basis.append(f)
        leads.add(lead)
    if len(leads) != len(basis):
        raise modules.CertificationError(f"polynomial model of {shape}: leading monomials collide")
    for i in target.generator_indices():
        for j, col in enumerate(target.gens[i]):
            if len(col) > 1:
                raise modules.CertificationError(
                    f"polynomial model of {shape}: generator {i} has {len(col)} entries at basis {j}"
                )
            r, v = col[0] if col else (j, 0)  # an empty column asks for zero
            if demazure_bar(i, basis[j]) != (basis[r] if v == 1 else basis[r] * v):
                raise modules.CertificationError(
                    f"polynomial model of {shape}: generator {i} fails at basis {j}"
                )
    return modules.HeckeModule("A", n, target.basis, target.gens, None, shape), shape
