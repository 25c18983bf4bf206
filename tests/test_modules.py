import pytest

from hecke_ribbon import groups, modules, shapes, tableaux
from hecke_ribbon.modules import (
    CertificationError,
    build_c,
    build_m,
    build_p,
    check_relations,
    filtration_by_descent,
    intertwiner_check,
    length_filtration,
    mat_identity,
    module_from_json,
    module_to_json,
    one_dim_quotients,
    restrict_p,
    submodule_embedding_check,
    twist,
)
from hecke_ribbon.shapes import Shape, composition, pseudo_composition


def all_single(kind, max_size):
    lo = 2 if kind == "D" else 1
    for n in range(lo, max_size + 1):
        for s in shapes.enumerate_shapes(n, "A" if kind == "A" else "B"):
            yield s if kind == "A" else Shape(kind, s.components)


def test_displayed_small_modules():
    p211 = build_p(composition((2, 1, 1)))
    assert p211.dim == 3
    # the source tableau maps under the first generator to the middle one
    words = [t.entries for t in p211.basis]
    src = words.index((1, 4, 3, 2))
    mid = words.index((2, 4, 3, 1))
    snk = words.index((3, 4, 2, 1))
    assert p211.gens[1][src] == ((mid, 1),)
    assert p211.gens[3][snk] == ()  # the sink is killed by the last generator
    assert p211.gens[2][src] == ((src, -1),)

    pb = build_p(pseudo_composition((0, 2, 1)))
    assert pb.dim == len(groups.descent_class("B", pseudo_composition((0, 2, 1))).elements)
    wordsb = [t.entries for t in pb.basis]
    srcb = wordsb.index((-1, 3, 2))
    tgtb = wordsb.index((-2, 3, 1))
    assert pb.gens[1][srcb] == ((tgtb, 1),)

    trivial = build_p(composition((4,)))
    assert trivial.dim == 1
    assert all(col == ((),) for col in (trivial.gens[i] for i in (1, 2, 3)))


def test_relations_and_negative_control():
    module = build_p(composition((1, 2, 1)))
    assert check_relations(module) == []
    corrupted = modules.HeckeModule(
        module.kind,
        module.n,
        module.basis,
        {**module.gens, 1: mat_identity(module.dim)},
        module.shape,
    )
    assert check_relations(corrupted)


def test_build_p_is_read_only():
    module = build_p(composition((2, 1, 1)))
    gens = dict(module.gens)
    with pytest.raises(TypeError):
        module.gens[1] = mat_identity(module.dim)
    with pytest.raises(AttributeError):
        module.gens = {}
    with pytest.raises(AttributeError):
        module.basis = ()
    # a module keeps its own copy of the generator mapping it was given
    source = dict(gens)
    copied = modules.HeckeModule(module.kind, module.n, module.basis, source, module.shape)
    source[1] = mat_identity(module.dim)
    assert copied.gens == gens
    assert build_p(composition((2, 1, 1))).gens == gens


def test_action_sparsity_and_cyclicity():
    for shape in all_single("B", 3):
        module = build_p(shape)
        for i, mat in module.gens.items():
            targets = []
            for j, col in enumerate(mat):
                assert col == () or len(col) == 1
                if col and col[0][1] == 1:
                    assert col[0][0] != j
                    targets.append(col[0][0])
                elif col:
                    assert col[0] == (j, -1)
            assert len(targets) == len(set(targets))
        # repeated application of all generators from the minimal tableau
        # reaches the whole basis
        lengths = [groups.length(tableaux.reading_word(t)) for t in module.basis]
        start = lengths.index(min(lengths))
        seen, frontier = {start}, [start]
        while frontier:
            j = frontier.pop()
            for i in module.gens:
                for r, _ in module.gens[i][j]:
                    if r not in seen:
                        seen.add(r)
                        frontier.append(r)
        assert len(seen) == module.dim


def test_m_dimensions():
    assert build_m(composition((1, 1, 1, 1))).dim == 24
    assert build_m(pseudo_composition((0, 1, 1, 1))).dim == 48
    assert build_m(pseudo_composition((0, 1, 1), "D")).dim == 4
    assert build_m(pseudo_composition((0, 1, 1, 1), "D")).dim == 24


def test_c_modules():
    c = build_c(composition((1, 1, 1)))
    assert all(c.gens[i] == (((0, -1),),) for i in (1, 2))
    c2 = build_c(pseudo_composition((0, 2, 1)))
    assert c2.gens[0] == (((0, -1),),)
    assert c2.gens[1] == ((),)
    assert c2.gens[2] == (((0, -1),),)


def test_filtration_by_descent():
    module = build_p(Shape("A", ((2,), (2,))))
    filtr = filtration_by_descent(module)
    assert [len(layer) for layer in filtr.layers] == [6, 5]
    assert [l.parts for l in filtr.labels] == [(4,), (2, 2)]
    for kind, size in (("A", 5), ("B", 4), ("D", 4)):
        for shape in shapes.enumerate_generalized(size, kind, 3):
            filtr = filtration_by_descent(build_p(shape))
            assert set(filtr.labels) == set(shapes.bracket_set(shape)), shape


def test_restriction():
    assert restrict_p(composition((2,)), 1) == [(composition((1,)), composition((1,)))]
    blocks = restrict_p(composition((1, 3)), 2)
    assert len(blocks) == 2
    for alpha in all_single("A", 5):
        n = alpha.size
        dim = build_p(alpha).dim
        for m in range(n + 1):
            blocks = restrict_p(alpha, m)
            assert dim == sum(build_p(b).dim * build_p(g).dim for b, g in blocks)


def test_one_dim_quotients():
    for alpha in all_single("A", 4):
        assert one_dim_quotients(build_p(alpha)) == frozenset({shapes.descent_set(alpha)})
        assert one_dim_quotients(build_c(alpha)) == frozenset({shapes.descent_set(alpha)})
    alpha = composition((2, 1))
    tops = one_dim_quotients(build_m(alpha))
    assert tops == frozenset(
        {shapes.descent_set(beta) for beta in shapes.coarsenings(alpha)}
    )


def test_twists():
    for alpha in all_single("B", 3):
        module = build_p(alpha)
        t = twist(module, "theta")
        assert check_relations(t) == []
        assert twist(t, "theta").gens == module.gens
        # the twist of the one-dimensional module swaps eigenvalues
        tc = twist(build_c(alpha), "theta")
        assert one_dim_quotients(tc) == frozenset(
            {shapes.descent_set(shapes.complement(alpha))}
        )
    module = build_p(composition((2, 1)))
    assert twist(twist(module, "phi"), "phi").gens == module.gens


def test_intertwiner_direct_identity():
    module = build_p(composition((2, 1)))
    ident = {j: j for j in range(module.dim)}
    assert intertwiner_check(module, module, ident, mode="direct") == []
    other = build_p(composition((1, 2)))
    report = intertwiner_check(module, other, ident, mode="direct")
    assert report


def test_submodule_embedding():
    for alpha in all_single("A", 5):
        assert submodule_embedding_check(alpha) == []
    for alpha in all_single("B", 3):
        small, big = build_p(alpha), build_m(alpha)
        index = {t.entries: j for j, t in enumerate(big.basis)}
        cand = {j: index[t.entries] for j, t in enumerate(small.basis)}
        assert intertwiner_check(small, big, cand, mode="direct") == []


def test_length_filtration():
    module = build_p(composition((2, 1, 1)))
    filtr = length_filtration(module, 0)
    assert [len(layer) for layer in filtr.layers] == [3, 2, 1]
    c = build_c(composition((2, 1)))
    assert len(length_filtration(c, 0).layers) == 1
    for alpha in all_single("A", 5):
        module = build_p(alpha)
        lengths = [groups.length(tableaux.reading_word(t)) for t in module.basis]
        filtr = length_filtration(module, lengths.index(min(lengths)))
        sizes = [len(layer) for layer in filtr.layers]
        quotients = [a - b for a, b in zip(sizes, sizes[1:] + [0])]
        assert sum(quotients) == module.dim


def test_row_separated_modules_are_cyclic():
    # the row-separated module is generated by its identity-word tableau
    for alpha in all_single("A", 4):
        module = build_m(alpha)
        lengths = [groups.length(tableaux.reading_word(t)) for t in module.basis]
        filtr = length_filtration(module, lengths.index(min(lengths)))
        assert len(filtr.layers[0]) == module.dim


def test_length_filtration_needs_cyclic():
    # a direct sum of two one-dimensional pieces is not cyclic
    t12 = tableaux.standard_tableaux(composition((2,)))[0]
    t21 = tableaux.standard_tableaux(composition((1, 1)))[0]
    fake = modules.HeckeModule(
        "A", 2, (t12, t21), {1: ((), ((1, -1),))}, composition((2,))
    )
    with pytest.raises(shapes.ShapeError):
        length_filtration(fake, 0)


def test_module_json_round_trip():
    for shape in (composition((2, 1)), pseudo_composition((0, 2)), Shape("A", ((1,), (2,)))):
        module = build_p(shape)
        data = module_to_json(module)
        back = module_from_json(data)
        assert back.kind == module.kind and back.n == module.n
        assert back.basis == module.basis
        assert back.gens == module.gens
