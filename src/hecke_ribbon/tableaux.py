"""Standard and semistandard tableaux on (generalized) ribbon shapes.

A tableau stores its entries in reading order (bottom row to top row,
left to right), so the entry tuple of a standard tableau IS its reading
word.  Validity is checked against the diagram: rows increase left to
right, columns increase top to bottom, with the extra 0-box of types B
and D participating in the comparisons (value 0 in type B; value -w(2)
in type D, where w(2) is the second letter of the reading word).

Standard tableaux of a shape are in bijection, via reading words, with
the group elements whose descent set lies in the band between the
triangle-gluing and dot-gluing descent sets of the shape.  So s_i T, the
filling whose reading word is s_i w(T), is standard exactly when the
descent set of s_i w(T) lies in that band; ``modules.build_p`` reads the
tableau action off this band rule.  A ``Tableau`` is a frozen
dataclass with slots; the enumerated bases skip its constructor.
Semistandard fillings are
enumerated as words whose consecutive letters follow the weak/strict
pattern the diagram prescribes (``pattern_words``).
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

from . import groups
from .shapes import (
    Shape,
    ShapeError,
    complement,
    descent_band,
    descent_set,
    diagram,
    positions,
    subshape_of_boxes,
    transpose,
)


@dataclass(frozen=True)
class Tableau:
    """A shape together with one entry per box, in reading order: an
    immutable value with slots (declared here: the class that
    ``dataclass(slots=True)`` makes breaks the frozen ``__setattr__`` on
    Python 3.11).  Enumerated bases come from ``_make``, unchecked."""

    __slots__ = ("shape", "entries")
    shape: Shape
    entries: tuple[int, ...]

    def __reduce__(self):
        return Tableau, (self.shape, self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return format_tableau(self)


_set_shape, _set_entries = Tableau.shape.__set__, Tableau.entries.__set__


def _make(shape: Shape, entries: tuple[int, ...]) -> Tableau:
    """A Tableau of a shape and a reading word, built unchecked."""
    t = object.__new__(Tableau)
    _set_shape(t, shape)
    _set_entries(t, entries)
    return t


def reading_word(t: Tableau) -> groups.GroupElement:
    return groups.GroupElement(t.shape.kind, t.entries)


def is_semistandard(shape: Shape, entries: tuple[int, ...]) -> bool:
    return _filling_ok(shape, entries, strict_rows=False)


def is_standard(shape: Shape, entries: tuple[int, ...]) -> bool:
    n = shape.size
    if len(entries) != n:
        return False
    if sorted(abs(e) for e in entries) != list(range(1, n + 1)):
        return False
    if shape.kind == "A" and any(e < 0 for e in entries):
        return False
    if shape.kind == "D" and sum(1 for e in entries if e < 0) % 2:
        return False
    return _filling_ok(shape, entries, strict_rows=True)


def _filling_ok(shape: Shape, entries: tuple[int, ...], strict_rows: bool) -> bool:
    diag = diagram(shape)
    if len(entries) != diag.n:
        return False
    if shape.kind == "D":
        zval = -entries[1]
    elif shape.kind == "B":
        zval = 0
    else:
        zval = None
    for i, v in enumerate(entries):
        left = diag.left_of[i]
        if left == "zero":
            if v < zval or (strict_rows and v == zval):
                return False
        elif left is not None:
            lv = entries[left]
            if lv > v or (strict_rows and lv == v):
                return False
        b = diag.below[i]
        if b is not None and entries[b] <= v:  # columns are strict downward
            return False
    if diag.above_zero is not None and entries[diag.above_zero] >= zval:
        return False
    return True


def standard_tableaux(shape: Shape) -> tuple[Tableau, ...]:
    """All standard tableaux, in reading-word lexicographic order."""
    lower, upper = descent_band(shape)
    words = groups.band_elements(shape.kind, shape.size, lower, upper)
    groups.guard(len(words), f"standard tableaux of {shape}", groups.tableau_limit())
    return tuple([_make(shape, w.window) for w in words])


def tableau_descents(t: Tableau) -> frozenset[int]:
    """Descents of the tableau: the descents of w(t)^{-1}, in every type."""
    return groups.descents(groups.inverse(reading_word(t)))


# ---------------------------------------------------------------------------
# canonical fillings


def tau0(shape: Shape) -> Tableau:
    """The standard tableau whose reading word is the minimum of the
    descent class of J = D(shape): the longest element w0(J) of the
    parabolic subgroup generated by J."""
    if not shape.is_single:
        raise ShapeError("canonical fillings are defined on single ribbons")
    word = groups.parabolic_longest(shape.kind, shape.size, descent_set(shape))
    return Tableau(shape, word.window)


def tau1(shape: Shape) -> Tableau:
    """The standard tableau whose reading word is the maximum of the
    descent class of J = D(shape): w0 w0(S - J), for S the generator
    indices."""
    if not shape.is_single:
        raise ShapeError("canonical fillings are defined on single ribbons")
    kind, n = shape.kind, shape.size
    rest = set(positions(kind, n)) - descent_set(shape)
    word = groups.multiply(groups.longest_element(kind, n), groups.parabolic_longest(kind, n, rest))
    return Tableau(shape, word.window)


def _fix_sign_parity(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Negate the entry of absolute value 1 if the sign count is odd."""
    if sum(1 for e in entries if e < 0) % 2 == 0:
        return entries
    out = list(entries)
    p = [abs(e) for e in entries].index(1)
    out[p] = -out[p]
    return tuple(out)


# ---------------------------------------------------------------------------
# symmetry maps


def theta_map(t: Tableau) -> Tableau:
    """Transpose in type A; diagonal reflection plus negation in type B;
    the same with a sign-parity fix in type D."""
    if not t.shape.is_single:
        raise ShapeError("symmetry maps are defined on single ribbons")
    kind = t.shape.kind
    if kind == "A":
        return _transpose_a(t)
    new_shape = complement(t.shape)
    diag = diagram(t.shape)
    image = {(c, r): -t.entries[i] for i, (r, c) in enumerate(diag.boxes)}
    new_diag = diagram(new_shape)
    if set(image) != set(new_diag.boxes):
        raise AssertionError("diagonal reflection does not match the complement diagram")
    entries = tuple(image[coord] for coord in new_diag.boxes)
    if kind == "D":
        entries = _fix_sign_parity(entries)
    return Tableau(new_shape, entries)


def _transpose_a(t: Tableau) -> Tableau:
    new_shape = transpose(t.shape)
    diag = diagram(t.shape)
    if not diag.boxes:
        return Tableau(new_shape, ())
    rmax = max(r for r, _ in diag.boxes)
    cmax = max(c for _, c in diag.boxes)
    image = {(cmax + 1 - c, rmax + 1 - r): t.entries[i] for i, (r, c) in enumerate(diag.boxes)}
    new_diag = diagram(new_shape)
    if set(image) != set(new_diag.boxes):
        raise AssertionError("antidiagonal reflection does not match the transpose diagram")
    return Tableau(new_shape, tuple(image[coord] for coord in new_diag.boxes))


# ---------------------------------------------------------------------------
# splitting


def split_tableau(t: Tableau, m: int) -> tuple[Tableau, Tableau]:
    """Split a type A standard tableau into the entries <= m and the rest
    (shifted down by m), each on its own generalized shape."""
    if t.shape.kind != "A":
        raise ShapeError("splitting is defined for type A tableaux")
    if not 0 <= m <= t.n:
        raise ValueError(f"split point {m} out of range")
    low = [i for i, v in enumerate(t.entries) if v <= m]
    high = [i for i, v in enumerate(t.entries) if v > m]
    lshape, lorder = subshape_of_boxes(t.shape, low)
    hshape, horder = subshape_of_boxes(t.shape, high)
    left = Tableau(lshape, tuple(t.entries[i] for i in lorder))
    right = Tableau(hshape, tuple(t.entries[i] - m for i in horder))
    return left, right


# ---------------------------------------------------------------------------
# semistandard enumeration: words with a prescribed weak/strict pattern


_HOLDS = {"<=": operator.le, "<": operator.lt, "=": operator.eq, ">": operator.gt}


def pattern_words(kind: str, pattern, alphabet, what: str) -> list[tuple[int, ...]]:
    """The words over the alphabet whose consecutive letters follow the
    pattern, in lexicographic order.

    A word has ``len(pattern)`` letters.  For j >= 1, ``pattern[j]`` is
    the relation "<=", "<", "=" or ">" of w[j-1] to w[j], or None for no
    condition.  ``pattern[0]`` relates the 0-box value to w[0]: that
    value is 0 in type B and -w[1] in type D, and type A has no 0-box.
    Semistandard ribbon fillings and the index sequences of fundamental
    and monomial quasisymmetric functions are all such words (Gessel,
    *Multipartite P-partitions and inner products of skew Schur
    functions*, 1984).  Words grow one position at a time by the letters
    allowed after their last letter, taken in increasing order, so every
    level stays sorted.  They are counted by last letter before any is
    built, and ``ResourceLimitError`` (naming them by ``what``) is raised
    exactly when there are more than the tableau guard allows, so an
    enumeration too large to hold is never started.
    """
    if not pattern:
        return [()]
    letters = tuple(sorted(set(alphabet)))
    after = {None: {}, "<=": {}, "<": {}, "=": {}, ">": {}}  # relation -> letter -> next letters
    for i, v in enumerate(letters):
        after[None][v], after["<="][v], after["<"][v] = letters, letters[i:], letters[i + 1 :]
        after["="][v], after[">"][v] = (v,), letters[:i]
    zero = None if kind == "A" else pattern[0]
    words = [(v,) for v in letters if zero is None or kind == "D" or _HOLDS[zero](0, v)]
    rest = pattern[1:]
    if kind == "D" and zero is not None and rest:  # the 0-box value is -w[1]
        holds = _HOLDS[zero]
        words = [(v, u) for (v,) in words for u in after[rest[0]][v] if holds(-u, v)]
        rest = rest[1:]
    ends = Counter(w[-1] for w in words)
    for rel in rest:
        nxt, counts = after[rel], Counter()
        for v, c in ends.items():
            for u in nxt[v]:
                counts[u] += c
        ends = counts
    groups.guard(sum(ends.values()), what, groups.tableau_limit())
    for rel in rest:
        nxt = after[rel]
        words = [w + (v,) for w in words for v in nxt[w[-1]]]
    return words


def semistandard_tableaux(shape: Shape, alphabet) -> list[tuple[int, ...]]:
    """The entry tuples (reading words) of all fillings over the alphabet
    with weak rows and strict columns, the 0-box included, sorted.

    Two boxes touch only when they are consecutive in reading order, so
    the conditions are a pattern for ``pattern_words``: w[j-1] <= w[j]
    when box j is right of box j-1, w[j-1] > w[j] when it is on top of
    it, and none between components.  Box 0 relates to the 0-box in the
    same way.  Raises ``ResourceLimitError`` when there are more words
    than the tableau guard allows, before building them.
    """
    diag = diagram(shape)
    pattern = []
    for j in range(diag.n):  # the box before box 0 is the 0-box
        right_of_prev = diag.left_of[j] == (j - 1 if j else "zero")
        on_top_of_prev = diag.below[j] == j - 1 if j else diag.above_zero == 0
        pattern.append("<=" if right_of_prev else ">" if on_top_of_prev else None)
    return pattern_words(shape.kind, pattern, alphabet, f"semistandard tableaux of {shape}")


# ---------------------------------------------------------------------------
# text format: rows top to bottom, "/" separated, 0-box shown as "0*"


def format_tableau(t: Tableau) -> str:
    diag = diagram(t.shape)
    cells: dict[int, list[tuple[int, str]]] = {}
    for i, (r, c) in enumerate(diag.boxes):
        cells.setdefault(r, []).append((c, str(t.entries[i])))
    if diag.zero_box is not None:
        zr, zc = diag.zero_box
        cells.setdefault(zr, []).append((zc, "0*"))
    rows = []
    for r in sorted(cells, reverse=True):
        rows.append(",".join(text for _, text in sorted(cells[r])))
    return "/".join(rows)


def parse_tableau(text: str, shape: Shape) -> Tableau:
    diag = diagram(shape)
    rows = [chunk.split(",") if chunk else [] for chunk in text.split("/")]
    cells: dict[int, list[tuple[int, str]]] = {}
    for i, (r, c) in enumerate(diag.boxes):
        cells.setdefault(r, []).append((c, i))
    if diag.zero_box is not None:
        zr, zc = diag.zero_box
        cells.setdefault(zr, []).append((zc, -1))
    ordered_rows = [sorted(cells[r]) for r in sorted(cells, reverse=True)]
    if len(rows) != len(ordered_rows):
        raise ShapeError(f"tableau text has {len(rows)} rows, shape needs {len(ordered_rows)}")
    values: dict[int, int] = {}
    for texts, boxes in zip(rows, ordered_rows):
        if len(texts) != len(boxes):
            raise ShapeError("tableau text row length does not match the shape")
        for text_cell, (_, idx) in zip(texts, boxes):
            if idx == -1:
                if text_cell.strip() != "0*":
                    raise ShapeError("the 0-box must be written as 0*")
            else:
                values[idx] = int(text_cell)
    return Tableau(shape, tuple(values[i] for i in range(diag.n)))
