"""Explicit 0-Hecke modules on tableau bases, as integer matrices.

A module stores one square matrix per generator index, acting on the
basis from the left; columns index source basis vectors.  The defining
generator matrices of the tableau modules send each basis vector to
minus itself, to zero, or to another basis vector, so matrices are kept
column-sparse; products and relation checks stay sparse as well.

The main constructions: build_p (standard tableaux of a generalized
shape), build_m (the same with the ribbon's rows pulled apart), build_c
(one-dimensional), descent filtrations certifying the direct-sum
decomposition over the bracket set, restriction certificates, twists by
the two algebra automorphisms, and one-dimensional quotients computed by
an exact linear solve.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import groups, linalg, tableaux
from .shapes import (
    Shape,
    ShapeError,
    descent_set,
    from_descents,
    positions,
    reverse,
    split_rows,
)

Column = tuple[tuple[int, int], ...]
Mat = tuple[Column, ...]


class CertificationError(AssertionError):
    """A structural certificate failed; the message names the witness."""


# ---------------------------------------------------------------------------
# column-sparse integer matrices


def mat_identity(dim: int) -> Mat:
    return tuple(((j, 1),) for j in range(dim))


def mat_from_colmap(colmap) -> Mat:
    """Build a matrix from per-column entries (None, or (sign, row))."""
    cols = []
    for entry in colmap:
        cols.append(() if entry is None else ((entry[1], entry[0]),))
    return tuple(cols)


def mat_add(a: Mat, b: Mat) -> Mat:
    cols = []
    for ca, cb in zip(a, b):
        acc: dict[int, int] = {}
        for r, v in ca + cb:
            acc[r] = acc.get(r, 0) + v
        cols.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
    return tuple(cols)


def mat_neg(a: Mat) -> Mat:
    return tuple(tuple((r, -v) for r, v in col) for col in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = []
    for col in b:
        acc: dict[int, int] = {}
        for k, v in col:
            for r, w in a[k]:
                acc[r] = acc.get(r, 0) + v * w
        cols.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
    return tuple(cols)


def mat_to_dense(a: Mat, dim: int) -> list[list[int]]:
    out = [[0] * dim for _ in range(dim)]
    for j, col in enumerate(a):
        for r, v in col:
            out[r][j] = v
    return out


def mat_from_dense(rows: list[list[int]]) -> Mat:
    dim = len(rows)
    return tuple(
        tuple((r, rows[r][j]) for r in range(dim) if rows[r][j]) for j in range(dim)
    )


@dataclass(frozen=True, eq=False)
class HeckeModule:
    """A finite 0-Hecke module: a basis plus one matrix per generator.
    Read-only, as ``build_p`` shares cached ones: ``gens`` is a read-only
    copy of the mapping passed in."""

    kind: str
    n: int
    basis: tuple
    gens: Mapping[int, Mat]
    shape: Shape | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "gens", MappingProxyType(dict(self.gens)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def generator_indices(self) -> list[int]:
        return sorted(self.gens)


# ---------------------------------------------------------------------------
# the defining actions


def _column_action(t: tableaux.Tableau, i: int, index_of) -> tuple[int, int] | None:
    """Action of the i-th bar generator on one basis tableau."""
    kind = t.shape.kind
    if kind == "A":
        diag_boxes = tableaux.diagram(t.shape).boxes
        p, q = t.entries.index(i), t.entries.index(i + 1)
        row_p, row_q = diag_boxes[p][0], diag_boxes[q][0]
        if row_p > row_q:
            return (-1, index_of[t.entries])
        if row_p == row_q:
            return None
        swapped = tableaux.apply_generator(t, i)
        return (1, index_of[swapped.entries])
    if kind == "B":
        desc = tableaux.tableau_descents(t)
    else:
        desc = groups.descents(groups.inverse(tableaux.reading_word(t)))
    if i in desc:
        return (-1, index_of[t.entries])
    swapped = tableaux.apply_generator(t, i)
    if tableaux.is_standard(t.shape, swapped.entries):
        return (1, index_of[swapped.entries])
    return None


@lru_cache(maxsize=None)
def build_p(shape: Shape) -> HeckeModule:
    """The module on standard tableaux of a generalized shape."""
    basis = tableaux.standard_tableaux(shape)
    index_of = {t.entries: j for j, t in enumerate(basis)}
    n = shape.size
    gens = {}
    for i in positions(shape.kind, n):
        gens[i] = mat_from_colmap(_column_action(t, i, index_of) for t in basis)
    return HeckeModule(shape.kind, n, basis, gens, shape)


def build_m(alpha: Shape) -> HeckeModule:
    """The row-separated module of a single ribbon shape."""
    return build_p(split_rows(alpha))


def build_c(alpha: Shape) -> HeckeModule:
    """The one-dimensional module with bar generators acting by -1 on the
    descent set of the shape and by 0 elsewhere."""
    label = tableaux.tau1(reverse(alpha)) if alpha.kind == "A" else tableaux.tau1(alpha)
    dset = descent_set(alpha)
    gens = {
        i: ((((0, -1),) if i in dset else ()),)
        for i in positions(alpha.kind, alpha.size)
    }
    return HeckeModule(alpha.kind, alpha.size, (label,), gens, alpha)


# ---------------------------------------------------------------------------
# relations


def coxeter_order(kind: str, i: int, j: int) -> int:
    """Braid length m(i, j) for two distinct generator indices."""
    a, b = min(i, j), max(i, j)
    if kind == "A":
        return 3 if b - a == 1 else 2
    if kind == "B":
        if (a, b) == (0, 1):
            return 4
        return 3 if b - a == 1 else 2
    if (a, b) == (0, 1):
        return 2
    if a == 0:
        return 3 if b == 2 else 2
    return 3 if b - a == 1 else 2


def _alternating(a: Mat, b: Mat, m: int) -> Mat:
    out = None
    current = (a, b)
    for k in range(m):
        term = current[k % 2]
        out = term if out is None else mat_mul(out, term)
    return out


def check_relations(module: HeckeModule) -> list[str]:
    """Quadratic and braid relations as exact matrix identities."""
    violations = []
    idx = module.generator_indices()
    for i in idx:
        m = module.gens[i]
        if mat_mul(m, m) != mat_neg(m):
            violations.append(f"quadratic relation fails at generator {i}")
    for a_pos, i in enumerate(idx):
        for j in idx[a_pos + 1 :]:
            m = coxeter_order(module.kind, i, j)
            left = _alternating(module.gens[i], module.gens[j], m)
            right = _alternating(module.gens[j], module.gens[i], m)
            if left != right:
                violations.append(f"braid relation of order {m} fails at ({i}, {j})")
    return violations


# ---------------------------------------------------------------------------
# filtrations


@dataclass(frozen=True)
class Filtration:
    """A descending chain of spanning index sets; layers[0] is everything
    and each layer spans a submodule.  labels[t] describes the quotient
    of layers[t] by layers[t+1]."""

    layers: tuple[tuple[int, ...], ...]
    labels: tuple

    def layer_sets(self) -> list[set[int]]:
        return [set(layer) for layer in self.layers]


def _check_layer_invariant(module: HeckeModule, layer: set[int], name: str) -> None:
    for i in module.generator_indices():
        for j in layer:
            for r, _ in module.gens[i][j]:
                if r not in layer:
                    raise CertificationError(
                        f"{name}: generator {i} maps basis {j} outside the layer"
                    )


def filtration_by_descent(module: HeckeModule) -> Filtration:
    """Group the basis by reading-word descent sets, certify that the
    up-closed groups span submodules, and certify each quotient against
    the module built directly from the matching bracket-set ribbon."""
    if module.shape is None:
        raise ShapeError("descent filtration needs a module built from a shape")
    by_descents: dict[frozenset[int], list[int]] = {}
    for j, t in enumerate(module.basis):
        by_descents.setdefault(groups.descents(tableaux.reading_word(t)), []).append(j)
    ordered = sorted(
        by_descents,
        key=lambda d: (len(d), tuple(sorted(d))),
    )
    labels = tuple(from_descents(d, module.n, module.kind) for d in ordered)
    layers = []
    for t in range(len(ordered)):
        layer = sorted(j for d in ordered[t:] for j in by_descents[d])
        layers.append(tuple(layer))
    filtr = Filtration(tuple(layers), labels)
    sets = filtr.layer_sets() + [set()]
    for t, layer in enumerate(sets[:-1]):
        _check_layer_invariant(module, layer, f"descent layer {t}")
        _certify_quotient(module, sorted(set(by_descents[ordered[t]])), sets[t + 1], labels[t])
    return filtr


def _certify_quotient(module: HeckeModule, quotient: list[int], deeper: set[int], label: Shape):
    """The induced action on a quotient layer must equal the module of the
    label shape under the reading-word relabeling."""
    target = build_p(label)
    word_to_target = {t.entries: j for j, t in enumerate(target.basis)}
    relabel = {}
    for j in quotient:
        entries = module.basis[j].entries
        if entries not in word_to_target:
            raise CertificationError(f"quotient word {entries} missing from {label}")
        relabel[j] = word_to_target[entries]
    if len(relabel) != target.dim:
        raise CertificationError(
            f"quotient of size {len(relabel)} does not match dim {target.dim} of {label}"
        )
    for i in module.generator_indices():
        for j in quotient:
            induced = [
                (relabel[r], v) for r, v in module.gens[i][j] if r not in deeper
            ]
            if tuple(sorted(induced)) != target.gens[i][relabel[j]]:
                raise CertificationError(
                    f"quotient action mismatch for {label} at generator {i}, basis {j}"
                )


def length_filtration(module: HeckeModule, generator_index: int) -> Filtration:
    """Layers spanned by tableaux of length at least a threshold, relative
    to a cyclic generator; quotients split into one-dimensional pieces
    labeled by tableau descent sets."""
    if module.shape is None:
        raise ShapeError("length filtration needs a tableau module")
    words = [tableaux.reading_word(t) for t in module.basis]
    lengths = [groups.length(w) for w in words]
    base = lengths[generator_index]
    if any(ell < base for ell in lengths):
        raise ShapeError("the chosen generator does not have minimal length")
    reached = {generator_index}
    frontier = [generator_index]
    while frontier:
        j = frontier.pop()
        for i in module.generator_indices():
            for r, _ in module.gens[i][j]:
                if r not in reached:
                    reached.add(r)
                    frontier.append(r)
    if len(reached) != module.dim:
        raise ShapeError("module is not cyclic over the chosen generator")
    top = max(lengths)
    layers = []
    labels = []
    for level in range(base, top + 1):
        layer = tuple(j for j in range(module.dim) if lengths[j] >= level)
        layers.append(layer)
        quotient = [j for j in range(module.dim) if lengths[j] == level]
        labels.append(tuple(sorted(tableaux.tableau_descents(module.basis[j])) for j in quotient))
    filtr = Filtration(tuple(layers), tuple(labels))
    sets = filtr.layer_sets() + [set()]
    for t, layer in enumerate(sets[:-1]):
        _check_layer_invariant(module, layer, f"length layer {t}")
    for j in range(module.dim):
        desc = tableaux.tableau_descents(module.basis[j])
        for i in module.generator_indices():
            col = module.gens[i][j]
            if i in desc and col != ((j, -1),):
                raise CertificationError(f"length quotient not diagonal at ({i}, {j})")
            if i not in desc and any(r == j for r, _ in col):
                raise CertificationError(f"length quotient not diagonal at ({i}, {j})")
    return filtr


# ---------------------------------------------------------------------------
# restriction


def restrict_p(shape: Shape, m: int) -> list[tuple[Shape, Shape]]:
    """Certify that forgetting the generator at position m splits the
    module into blocks indexed by the two-part decompositions with left
    size m, each acting as the pair of smaller modules; returns the
    decomposition pairs, sorted."""
    if shape.kind != "A":
        raise ShapeError("restriction certificates are for type A shapes")
    module = build_p(shape)
    n = shape.size
    if not 0 <= m <= n:
        raise ValueError(f"split point {m} out of range")
    split_of = {}
    blocks: dict[tuple[Shape, Shape], dict] = {}
    for j, t in enumerate(module.basis):
        left, right = tableaux.split_tableau(t, m)
        key = (left.shape, right.shape)
        split_of[j] = (key, left.entries, right.entries)
        blocks.setdefault(key, {})[(left.entries, right.entries)] = j
    for (bshape, gshape), members in blocks.items():
        left_mod = build_p(bshape)
        right_mod = build_p(gshape)
        if len(members) != left_mod.dim * right_mod.dim:
            raise CertificationError(
                f"block ({bshape}, {gshape}) has {len(members)} tableaux, "
                f"expected {left_mod.dim * right_mod.dim}"
            )
        left_index = {t.entries: j for j, t in enumerate(left_mod.basis)}
        right_index = {t.entries: j for j, t in enumerate(right_mod.basis)}
        for (le, re), j in members.items():
            for i in module.generator_indices():
                if i == m:
                    continue
                actual = module.gens[i][j]
                if i < m:
                    sub = left_mod.gens[i][left_index[le]]
                    expected = _lift(sub, left_mod, lambda e: members.get((e, re)))
                else:
                    sub = right_mod.gens[i - m][right_index[re]]
                    expected = _lift(sub, right_mod, lambda e: members.get((le, e)))
                if actual != expected:
                    raise CertificationError(
                        f"restriction mismatch at block ({bshape}, {gshape}), "
                        f"generator {i}, basis {j}"
                    )
    return sorted(blocks, key=lambda pair: (str(pair[0]), str(pair[1])))


def _lift(sub: Column, sub_mod: HeckeModule, locate) -> Column:
    out = []
    for r, v in sub:
        j = locate(sub_mod.basis[r].entries)
        if j is None:
            raise CertificationError("restriction block is not closed under the action")
        out.append((j, v))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# one-dimensional quotients


def one_dim_quotients(module: HeckeModule) -> frozenset[frozenset[int]]:
    """All characters of one-dimensional quotients: covectors phi with
    phi M_i = lambda_i phi and lambda_i in {0, -1}, solved exactly over
    the rationals; labeled by {i : lambda_i = -1}."""
    dim = module.dim
    states: list[tuple[frozenset[int], list[list[Fraction]]]] = [
        (frozenset(), [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)])
    ]
    for i in module.generator_indices():
        dense = mat_to_dense(module.gens[i], dim)
        nxt = []
        for label, rows in states:
            image = [_row_times_dense(r, dense) for r in rows]
            for with_i, target in ((False, image), (True, [
                [a + b for a, b in zip(img, row)] for img, row in zip(image, rows)
            ])):
                coeffs = linalg.left_kernel(target)
                if coeffs:
                    new_rows = linalg.mat_mul_rows(coeffs, rows)
                    nxt.append((label | {i} if with_i else label, new_rows))
        states = nxt
    return frozenset(label for label, rows in states if rows)


def _row_times_dense(row: list[Fraction], dense: list[list[int]]) -> list[Fraction]:
    dim = len(row)
    out = [Fraction(0)] * dim
    for r, x in enumerate(row):
        if x:
            drow = dense[r]
            for j in range(dim):
                if drow[j]:
                    out[j] += x * drow[j]
    return out


# ---------------------------------------------------------------------------
# twists and intertwiners


def twist(module: HeckeModule, which: str) -> HeckeModule:
    """Twist by an algebra automorphism: 'theta' replaces each bar matrix
    M by -(M + 1); 'phi' permutes the generator matrices by the diagram
    automorphism induced by conjugation with the longest element."""
    dim = module.dim
    if which == "theta":
        eye = mat_identity(dim)
        gens = {i: mat_neg(mat_add(m, eye)) for i, m in module.gens.items()}
    elif which == "phi":
        sigma = groups.diagram_automorphism(module.kind, module.n)
        gens = {i: module.gens[sigma[i]] for i in module.gens}
    else:
        raise ValueError(f"unknown twist {which!r}")
    return HeckeModule(module.kind, module.n, module.basis, gens, None)


def intertwiner_check(
    module1: HeckeModule,
    module2: HeckeModule,
    candidate,
    index_map=None,
    mode: str = "direct",
) -> list[str]:
    """Certify a basis bijection as an intertwiner.

    mode 'direct' checks T M_i = M'_{sigma(i)} T for the (possibly
    injective) basis map T.  mode 'antidirect' checks the arrow-reversal
    law: an arrow tau -> s_i(tau) in module1 corresponds to the reversed
    arrow in module2, a loop with eigenvalue -1 corresponds to a kill,
    and a kill corresponds to a loop.
    """
    sigma = index_map or {i: i for i in module1.gens}
    if mode not in ("direct", "antidirect"):
        raise ValueError(f"unknown mode {mode!r}")
    report = []
    for i in module1.generator_indices():
        m1 = module1.gens[i]
        m2 = module2.gens[sigma[i]]
        if mode == "direct":
            for j in range(module1.dim):
                mapped = tuple(sorted((candidate[r], v) for r, v in m1[j]))
                if mapped != m2[candidate[j]]:
                    report.append(f"direct intertwiner fails at generator {i}, basis {j}")
            continue
        # arrow reversal: each arrow j -> k turns into candidate[k] ->
        # candidate[j]; a loop or kill not touched by an arrow swaps to a
        # kill or loop, while arrow endpoints have their loops forced by
        # the quadratic relation.
        incoming = {}
        for j in range(module1.dim):
            col = m1[j]
            if len(col) == 1 and col[0][1] == 1:
                incoming[col[0][0]] = j
        for j in range(module1.dim):
            col = m1[j]
            tcol = m2[candidate[j]]
            if len(col) == 1 and col[0][1] == 1:
                ok = tcol == ((candidate[j], -1),)
            elif j in incoming:
                ok = col == ((j, -1),) and tcol == ((candidate[incoming[j]], 1),)
            elif col == ((j, -1),):
                ok = tcol == ()
            elif col == ():
                ok = tcol == ((candidate[j], -1),)
            else:
                ok = False
            if not ok:
                report.append(
                    f"antidirect arrow reversal fails at generator {i}, basis {j}"
                )
    return report


def submodule_embedding_check(alpha: Shape) -> list[str]:
    """Certify that the ribbon module embeds into its row-separated module
    by the identity on reading words."""
    small = build_p(alpha)
    big = build_m(alpha)
    big_index = {t.entries: j for j, t in enumerate(big.basis)}
    candidate = {j: big_index[t.entries] for j, t in enumerate(small.basis)}
    return intertwiner_check(small, big, candidate, mode="direct")


# ---------------------------------------------------------------------------
# JSON export


def module_to_json(module: HeckeModule) -> dict:
    from .shapes import format_shape

    return {
        "kind": module.kind,
        "n": module.n,
        "shape": format_shape(module.shape) if module.shape is not None else None,
        "basis": [str(t) for t in module.basis],
        "generators": {
            str(i): mat_to_dense(m, module.dim) for i, m in sorted(module.gens.items())
        },
    }


def module_from_json(data: dict) -> HeckeModule:
    from .shapes import parse_shape

    shape = parse_shape(data["shape"], data["kind"]) if data.get("shape") else None
    if shape is not None:
        basis = tuple(tableaux.parse_tableau(text, shape) for text in data["basis"])
    else:
        basis = tuple(data["basis"])
    gens = {int(i): mat_from_dense(rows) for i, rows in data["generators"].items()}
    return HeckeModule(data["kind"], data["n"], basis, gens, shape)
