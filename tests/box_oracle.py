"""Box coordinates of ribbon shapes, as an oracle for the tests.

The package reads every box relation off the descent band of a shape.
These helpers place the boxes on explicit (row, column) coordinates
instead, rows bottom to top and columns left to right, and derive the
filling rules, the text form, the subshapes and the decompositions from
which coordinates are adjacent.
"""

from collections import Counter
from functools import lru_cache
from itertools import product as cartesian

from hecke_ribbon import shapes
from hecke_ribbon.shapes import Shape


def small_generalized_shapes():
    """Every generalized shape with at most 3 components, of size at most
    4 in type A and 3 in types B and D, the empty shapes included."""
    family = [Shape("A", ())]
    for kind, top in (("A", 4), ("B", 3), ("D", 3)):
        for n in range(top + 1):
            family.extend(shapes.enumerate_generalized(n, kind, 3))
    return family


@lru_cache(maxsize=None)
def box_coordinates(shape: Shape):
    """The (row, col) of every box in reading order, and the coordinate
    of the 0-box (None in type A).  A ribbon fills each part as a row from
    the column where the row below ends, from row 1, column 1; the 0-box
    sits left of box 0 when the first part is positive and below it when
    it is zero.  Each later component starts one row above and one column
    right of everything before it, the 0-box included."""
    boxes, zero_box = [], None
    row_off = col_off = 0
    for ci, parts in enumerate(shape.components):
        placed = []
        if ci == 0 and shape.kind != "A":
            zero_box = (0, 1) if parts[0] == 0 else (1, 0)
            parts = parts[1:] if parts[0] == 0 else parts
        col = 1
        for row, p in enumerate(parts, start=1):
            placed.extend((row + row_off, col + col_off + j) for j in range(p))
            col += p - 1
        boxes.extend(placed)
        if ci == 0 and zero_box is not None:
            placed.append(zero_box)
        if placed:
            row_off = max(r for r, _ in placed) + 1
            col_off = max(c for _, c in placed) + 1
    return tuple(boxes), zero_box


def fits_boxes(shape: Shape, entries, strict_rows: bool) -> bool:
    """Rows increase left to right (weakly unless ``strict_rows``) and
    columns strictly top to bottom, on the coordinates, the 0-box holding
    0 in type B and minus the second entry in type D."""
    boxes, zero_box = box_coordinates(shape)
    if len(entries) != len(boxes):
        return False
    value = dict(zip(boxes, entries))
    if zero_box is not None:
        value[zero_box] = 0 if shape.kind == "B" else -entries[1]
    for (r, c), v in value.items():
        left, below = value.get((r, c - 1)), value.get((r - 1, c))
        if left is not None and (left > v or strict_rows and left == v):
            return False
        if below is not None and below <= v:
            return False
    return True


def standard_by_boxes(shape: Shape, entries) -> bool:
    """A signed permutation of 1..n (unsigned in type A, with an even
    number of signs in type D) that fits the boxes with strict rows."""
    n = shape.size
    if sorted(abs(e) for e in entries) != list(range(1, n + 1)):
        return False
    negatives = sum(e < 0 for e in entries)
    if shape.kind == "A" and negatives or shape.kind == "D" and negatives % 2:
        return False
    return fits_boxes(shape, entries, strict_rows=True)


def format_by_boxes(shape: Shape, entries) -> str:
    """Rows top to bottom joined by "/", cells left to right joined by
    ",", the 0-box written "0*"."""
    boxes, zero_box = box_coordinates(shape)
    cells = list(zip(boxes, map(str, entries)))
    if zero_box is not None:
        cells.append((zero_box, "0*"))
    rows = {}
    for (r, _), text in sorted(cells):
        rows.setdefault(r, []).append(text)
    return "/".join(",".join(rows[r]) for r in sorted(rows, reverse=True))


def subshape_by_boxes(shape: Shape, picked, with_zero: bool = False):
    """The edge-connected components of the picked boxes, in reading
    order, each read as its row lengths from the bottom; with
    ``with_zero`` the 0-box joins, under or left of a picked box 0 or as a
    bare leading component.  Also the picked boxes in reading order."""
    boxes, zero_box = box_coordinates(shape)
    chosen = {boxes[i]: i for i in picked}
    seen, comps = set(), []
    for start in sorted(chosen):
        if start in seen:
            continue
        seen.add(start)
        stack, rows = [start], Counter()
        while stack:
            r, c = stack.pop()
            rows[r] += 1
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in chosen and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(tuple(rows[r] for r in sorted(rows)))
    order = [chosen[b] for b in sorted(chosen)]
    if not with_zero or shape.kind == "A":
        return Shape("A", tuple(comps)), order
    zr, zc = zero_box
    if (zr + 1, zc) in chosen:
        comps[0] = (0,) + comps[0]
    elif (zr, zc + 1) not in chosen:
        comps.insert(0, (0,))
    kind = "B" if shape.kind == "D" and len(order) < 2 else shape.kind
    return Shape(kind, tuple(comps)), order


def decompositions_by_boxes(shape: Shape):
    """Every b/g labelling of the boxes, in lexicographic order, whose
    labels weakly increase along rows and down columns with the 0-box
    labelled b, as (beta, gamma, assignment)."""
    boxes, zero_box = box_coordinates(shape)
    out = []
    for a in cartesian("bg", repeat=len(boxes)):
        label = dict(zip(boxes, a))
        if zero_box is not None:
            label[zero_box] = "b"
        if any(
            label.get((r, c - 1), x) > x or label.get((r + 1, c), x) > x
            for (r, c), x in label.items()
        ):
            continue
        beta, _ = subshape_by_boxes(shape, [i for i, x in enumerate(a) if x == "b"], shape.kind != "A")
        gamma, _ = subshape_by_boxes(shape, [i for i, x in enumerate(a) if x == "g"])
        out.append((beta, gamma, a))
    return out
