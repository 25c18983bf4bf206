"""Compositions, pseudo-compositions, and generalized ribbon shapes.

A composition (a sequence of positive integers) indexes type A objects
through its descent set of proper partial sums, which identifies the
compositions of n with the subsets of {1, ..., n-1}.  A
pseudo-composition, whose first part may be zero, plays the same role in
types B and D with descent sets inside {0, ..., n-1}; its diagram
carries an extra 0-box.  A generalized shape is a disjoint union of such
ribbons, each strictly northeast of the previous one; its descent band
is read off the concatenated parts and the component junctions.

Diagram conventions: each part is a row, and the reading order of the
boxes runs bottom row to top row, left to right within each row.  The
0-box sits to the left of the bottom row when the first part is
positive, and below the leftmost column when the first part is zero; it
is never part of the reading order.  Two boxes touch only when they are
consecutive in reading order, so the descent band (D0, D1) holds every
box relation: box j sits on top of box j-1 when j is in D0, starts a new
component when j is in D1 but not D0, and is right of box j-1 otherwise.
Box 0 relates to the 0-box the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as cartesian

Parts = tuple[int, ...]

KINDS = ("A", "B", "D")


class ShapeError(ValueError):
    """Raised for malformed shapes or invalid shape arguments."""


def _check_ribbon(parts: Parts) -> None:
    if not parts or any(p < 1 for p in parts):
        raise ShapeError(f"not a composition: {parts}")


def _check_pseudo(parts: Parts) -> None:
    if not parts or parts[0] < 0 or any(p < 1 for p in parts[1:]):
        raise ShapeError(f"not a pseudo-composition: {parts}")


@dataclass(frozen=True)
class Shape:
    """A (pseudo-)composition, or a disjoint union of them, with a type tag.

    ``components`` lists the connected ribbons from southwest to
    northeast.  In kinds B and D the first component is a
    pseudo-composition; the others are compositions.  The empty type A
    shape is ``Shape("A", ())`` and the empty type B shape is the bare
    0-box ``Shape("B", ((0,),))``.
    """

    kind: str
    components: tuple[Parts, ...]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ShapeError(f"unknown kind {self.kind!r}")
        comps = self.components
        if self.kind == "A":
            for c in comps:
                _check_ribbon(c)
        else:
            if not comps:
                raise ShapeError("kinds B and D need a leading pseudo-composition")
            _check_pseudo(comps[0])
            for c in comps[1:]:
                _check_ribbon(c)
            if self.kind == "D" and self.size < 2:
                raise ShapeError("kind D shapes have size at least 2")

    @property
    def size(self) -> int:
        return sum(sum(c) for c in self.components)

    @property
    def is_single(self) -> bool:
        return len(self.components) <= 1

    @property
    def parts(self) -> Parts:
        if len(self.components) == 1:
            return self.components[0]
        if self.kind == "A" and not self.components:
            return ()
        raise ShapeError(f"{self} is not a single ribbon")

    def __str__(self) -> str:
        return format_shape(self)


def composition(parts) -> Shape:
    parts = tuple(parts)
    return Shape("A", (parts,) if parts else ())


def pseudo_composition(parts, kind: str = "B") -> Shape:
    return Shape(kind, (tuple(parts) or (0,),))


def ribbon_shape(parts, kind: str = "A") -> Shape:
    return composition(parts) if kind == "A" else pseudo_composition(parts, kind)


def generalized(components, kind: str = "A") -> Shape:
    return Shape(kind, tuple(tuple(c) for c in components))


def positions(kind: str, n: int) -> range:
    """Generator index range: [1, n-1] in type A, [0, n-1] in types B, D."""
    return range(1, n) if kind == "A" else range(0, n)


# ---------------------------------------------------------------------------
# descent sets and the bijection with shapes


def parts_descents(parts: Parts) -> frozenset[int]:
    total, out = 0, []
    for p in parts[:-1]:
        total += p
        out.append(total)
    return frozenset(out)


def descent_set(shape: Shape) -> frozenset[int]:
    """Proper partial sums of a single (pseudo-)composition."""
    return parts_descents(shape.parts)


def parts_from_descents(dset, n: int, kind: str) -> Parts:
    dset = sorted(dset)
    lo = 1 if kind == "A" else 0
    for d in dset:
        if d < lo or d >= n:
            raise ShapeError(f"descent {d} out of range for size {n}, kind {kind}")
    if kind == "A":
        if not n:
            return ()
    elif n == 0:
        return (0,)
    # a type B/D descent at 0 shows up as a leading zero part
    cuts = [0] + dset + [n]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def from_descents(dset, n: int, kind: str) -> Shape:
    """Inverse of descent_set for a fixed size; exact round-trip."""
    return ribbon_shape(parts_from_descents(dset, n, kind), kind)


def descent_key(shape: Shape):
    """Sort key: the descent indicator vector, coarsest shapes first."""
    n = shape.size
    d = descent_set(shape)
    return tuple(1 if i in d else 0 for i in positions(shape.kind, n))


def complement(shape: Shape) -> Shape:
    n = shape.size
    full = set(positions(shape.kind, n))
    return from_descents(full - descent_set(shape), n, shape.kind)


def reverse(shape: Shape) -> Shape:
    if shape.kind != "A":
        raise ShapeError("reverse is defined for type A compositions")
    return composition(shape.parts[::-1])


def transpose(shape: Shape) -> Shape:
    """reverse(complement), the diagonal reflection of the ribbon diagram."""
    return reverse(complement(shape))


def interval(lower, upper) -> tuple[frozenset[int], ...]:
    """Every set S with lower <= S <= upper, in bit-mask order: bit i of
    the index of S says whether S holds the i-th smallest element of
    upper - lower.  Empty unless lower <= upper."""
    lower, upper = frozenset(lower), frozenset(upper)
    if not lower <= upper:
        return ()
    out = [lower]
    for x in sorted(upper - lower):
        out += [s | {x} for s in out]
    return tuple(out)


def coarsenings(shape: Shape) -> tuple[Shape, ...]:
    """All shapes whose descent set is contained in D(shape)."""
    n, kind = shape.size, shape.kind
    out = (from_descents(d, n, kind) for d in interval((), descent_set(shape)))
    return tuple(sorted(out, key=descent_key))


def enumerate_shapes(n: int, kind: str) -> tuple[Shape, ...]:
    """All single-ribbon shapes of size n, smallest descent sets first."""
    out = (from_descents(d, n, kind) for d in interval((), positions(kind, n)))
    return tuple(sorted(out, key=descent_key))


# ---------------------------------------------------------------------------
# gluing and bracket sets


def glue_parts(a: Parts, b: Parts, mode: str) -> Parts:
    if mode == "dot":
        return a + b
    if mode == "triangle":
        if not a:
            return b
        if not b:
            return a
        return a[:-1] + (a[-1] + b[0],) + b[1:]
    raise ShapeError(f"unknown glue mode {mode!r}")


@lru_cache(maxsize=None)
def bracket_set(shape: Shape) -> tuple[Shape, ...]:
    """The 2^(k-1) single ribbons obtained by gluing the k components."""
    comps = shape.components
    if not comps:
        return (shape,)
    ribbons = [comps[0]]
    for comp in comps[1:]:
        ribbons = [glue_parts(r, comp, mode) for r in ribbons for mode in ("dot", "triangle")]
    out = tuple(sorted((ribbon_shape(r, shape.kind) for r in ribbons), key=descent_key))
    if len(set(out)) != len(out):
        raise ShapeError(f"bracket set of {shape} has a collision")
    return out


@lru_cache(maxsize=None)
def descent_band(shape: Shape) -> tuple[frozenset[int], frozenset[int]]:
    """Descent sets (D0, D1) of the triangle and dot gluings of all
    components: D1 holds the proper partial sums of the concatenated
    parts, and D0 is D1 without the sums at the component junctions,
    where the triangle gluing merges two parts.

    Reading words of standard tableaux of the shape are exactly the group
    elements w with D0 <= D(w) <= D1, and the band holds every box
    relation of the shape (see the module docstring).
    """
    upper = parts_descents(sum(shape.components, ()))
    junctions, total = [], 0
    for comp in shape.components[:-1]:
        total += sum(comp)
        junctions.append(total)
    return upper.difference(junctions), upper


def split_rows(shape: Shape) -> Shape:
    """The generalized shape whose components are the single rows of a ribbon."""
    return Shape(shape.kind, tuple((p,) for p in shape.parts))


# ---------------------------------------------------------------------------
# monotone two-colorings (disjoint-union decompositions)


@dataclass(frozen=True)
class Decomposition:
    """A monotone splitting of a shape into an upper-left part beta and
    a lower-right part gamma, recorded box by box in reading order."""

    beta: Shape
    gamma: Shape
    assignment: tuple[str, ...]


def subshape_of_boxes(shape: Shape, picked: list[int], with_zero: bool = False):
    """The generalized shape formed by a subset of boxes, and the order in
    which those boxes are visited by the subshape's own reading order.

    One pass over the picked boxes in reading order reads off the shape
    from the descent band (D0, D1): a box right after the previous picked
    box extends its row when not in D1, starts the next row of its
    component when in D0, and any other box starts a new component.  The
    order is therefore ``sorted(picked)``.  With ``with_zero`` (kinds B
    and D) the 0-box joins the subshape: under a picked box 0 (0 in D0)
    it makes a leading zero part, left of one (0 not in D1) it leaves the
    parts as they are, and otherwise it is a bare leading component.
    """
    lower, upper = descent_band(shape)
    order = sorted(picked)
    comps: list[list[int]] = []
    for k, i in enumerate(order):
        touches = k and order[k - 1] == i - 1
        if touches and i not in upper:
            comps[-1][-1] += 1
        elif touches and i in lower:
            comps[-1].append(1)
        else:
            comps.append([1])
    parts_list = [tuple(c) for c in comps]
    if not with_zero or shape.kind == "A":
        return Shape("A", tuple(parts_list)), order
    has_first = order[:1] == [0]
    if has_first and 0 in lower:
        parts_list[0] = (0,) + parts_list[0]
    elif not (has_first and 0 not in upper):
        parts_list.insert(0, (0,))
    kind = "B" if shape.kind == "D" and len(order) < 2 else shape.kind
    return Shape(kind, tuple(parts_list)), order


def decompositions(shape: Shape) -> tuple[Decomposition, ...]:
    """All monotone beta/gamma fillings of the boxes of the shape, in
    lexicographic order of their assignments.

    Along every row (left to right) and every column (top to bottom) the
    labels weakly increase, with beta < gamma.  By the descent band, box
    j touches at most box j-1, the 0-box for j = 0: so labelling the
    boxes in reading order checks each new label against the previous
    one alone, and trying beta before gamma keeps the fillings sorted.
    In kinds B and D the 0-box is not assignable: it counts as a beta
    cell in the monotonicity check (so the box on top of it is beta) and
    is attached to the beta factor, which is therefore a pseudo-shape
    while gamma is a type A shape.
    """
    lower, upper = descent_band(shape)
    # the 0-box leads every assignment; type A has none, but there box 0
    # is right of it, which a beta cell does not constrain
    assignments: list[tuple[str, ...]] = [("b",)]
    for i in range(shape.size):
        on_top, right = i in lower, i not in upper
        assignments = [
            a + (label,)
            for a in assignments
            for label in "bg"
            if not (right and label < a[-1] or on_top and label > a[-1])
        ]
    with_zero = shape.kind != "A"
    out = []
    for a in assignments:
        a = a[1:]
        beta, _ = subshape_of_boxes(shape, [i for i, x in enumerate(a) if x == "b"], with_zero)
        gamma, _ = subshape_of_boxes(shape, [i for i, x in enumerate(a) if x == "g"])
        out.append(Decomposition(beta, gamma, a))
    return tuple(out)


def enumerate_generalized(n: int, kind: str, max_components: int) -> list[Shape]:
    """All generalized shapes of size n with at most the given number of
    components; in kinds B and D the leading component may have size 0.
    Distinct component counts, sizes and parts give distinct shapes, so
    the list has no repeats."""
    if kind == "D" and n < 2:
        return []
    first_kind = "A" if kind == "A" else "B"
    out = []
    for k in range(1, max_components + 1):
        for first in range(1 if kind == "A" else 0, n + 1):
            for sizes in _compositions_of(n - first, k - 1):
                pools = [[c.parts for c in enumerate_shapes(first, first_kind)]]
                pools += [[c.parts for c in enumerate_shapes(s, "A")] for s in sizes]
                out.extend(Shape(kind, combo) for combo in cartesian(*pools))
    return out


def _compositions_of(n: int, k: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()] if n == 0 else []
    if n < k:
        return []
    out = []
    for first in range(1, n - k + 2):
        out.extend((first,) + rest for rest in _compositions_of(n - first, k - 1))
    return out


# ---------------------------------------------------------------------------
# text syntax: "[2,3,1]" and "[2]+[2,2]+[3,2]"


def format_shape(shape: Shape) -> str:
    if shape.kind == "A" and not shape.components:
        return "[]"
    return "+".join("[" + ",".join(map(str, c)) + "]" for c in shape.components)


def parse_shape(text: str, kind: str = "A") -> Shape:
    text = text.strip()
    comps = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise ShapeError(f"malformed shape literal {chunk!r}")
        inner = chunk[1:-1].strip()
        comps.append(tuple(int(p) for p in inner.split(",")) if inner else ())
    if comps == [()]:
        return Shape("A", ()) if kind == "A" else pseudo_composition((), kind)
    return Shape(kind, tuple(comps))
