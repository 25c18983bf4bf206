"""Acceptance suite: one test per acceptance criterion, each checking its
summary line against the expected counts and printing it as a pass
line.  Every check is exact (integer or Z[q] equality); the sizes
are the contractually fixed desk-scale bounds.

Criterion map:
  01 relations        exact quadratic+braid identities, A<=6 / B<=4 / D 2..4
  02 dimensions       projective dims = descent classes; row-separated sums
  03 induction        descent filtrations = bracket-set direct sums
  04 restriction      split certificates for type A ribbons, size <= 6
  05 coproduct        ribbon coproduct two-path equality, size <= 7
  06 duality          dual bases and product/coproduct adjunction
  07 antipode         transpose formulas, Hopf axiom, twisted tops
  08 symmetry         arrow-reversal intertwiners and canonical fillings
  09 skew             closed skew forms and left/right agreement
  10 q-identities     q-ribbon methods, interval sums, band products
  11 demazure         operator relations, triangularity, certified modules
  12 truncation       power-series realizations and independence ranks
  13 characteristics  graded and projective characteristic routes
"""

from hecke_ribbon import verify


# The detail line each certificate prints at its contractual sizes.  A
# change that sweeps fewer objects changes a count here and fails.
EXPECTED = {
    "01 relations": (
        "189 modules of type A pass the quadratic and braid relations; "
        "90 modules of type B pass the quadratic and braid relations; "
        "84 modules of type D pass the quadratic and braid relations"
    ),
    "02 dimensions": (
        "63 dimension identities verified in type A; "
        "30 dimension identities verified in type B; "
        "28 dimension identities verified in type D"
    ),
    "03 induction": (
        "303 descent filtrations certified in type A; "
        "110 descent filtrations certified in type B; "
        "107 descent filtrations certified in type D"
    ),
    "04 restriction": "384 restriction certificates pass in type A",
    "05 coproduct": (
        "799 ribbon coproducts agree along both routes; "
        "121 ribbon coproducts agree along both routes"
    ),
    "06 duality": "dual bases exact; 1200 product/coproduct pairings agree",
    "07 antipode": "antipode formulas, axiom, and 63 twisted-top checks pass",
    "08 symmetry": "121 symmetry intertwiners certified",
    "09 skew": "skew regression and 2730 left/right agreements pass",
    "10 q-identities": (
        "q-ribbon numbers by 3 methods, 364 interval identities, 303 band identities"
    ),
    "11 demazure": "operator relations on 462 monomials; 31 certified polynomial modules",
    "12 truncation": "truncation identities pass; 69 product rules verified (window radius 5)",
    "13 characteristics": "142 characteristic computations agree along independent routes",
}


def _report(number: str, detail: str) -> None:
    assert detail == EXPECTED[number]
    print(f"PASS acceptance[{number}]: {detail}")


def test_01_relations():
    details = []
    for kind in ("A", "B", "D"):
        details.append(verify.cert_relations(kind, verify.KIND_SIZES[kind]))
    _report("01 relations", "; ".join(details))


def test_02_dimensions():
    details = []
    for kind in ("A", "B", "D"):
        details.append(verify.cert_dimensions(kind, verify.KIND_SIZES[kind]))
    _report("02 dimensions", "; ".join(details))


def test_03_induction():
    details = []
    for kind in ("A", "B", "D"):
        details.append(verify.cert_induction(kind, verify.KIND_SIZES[kind]))
    _report("03 induction", "; ".join(details))


def test_04_restriction():
    _report("04 restriction", verify.cert_restriction(max_size=6))


def test_05_coproduct():
    detail = verify.cert_coproduct(max_size=7, max_components=3)
    # extra coverage: every component count at smaller sizes
    detail2 = verify.cert_coproduct(max_size=5, max_components=5)
    _report("05 coproduct", f"{detail}; {detail2}")


def test_06_duality():
    _report("06 duality", verify.cert_duality(max_size=6, max_size_bd=4, samples=200))


def test_07_antipode():
    _report("07 antipode", verify.cert_antipode(max_size=6))


def test_08_symmetry():
    _report("08 symmetry", verify.cert_symmetry(max_size=6, max_size_bd=4))


def test_09_skew():
    _report("09 skew", verify.cert_skew(max_size=6))


def test_10_qidentities():
    _report(
        "10 q-identities",
        verify.cert_qidentities(max_size=6, ribbon_size=7, band_size=6),
    )


def test_11_demazure():
    _report("11 demazure", verify.cert_demazure(max_size=5, op_degree=6, op_vars=5))


def test_12_truncation():
    _report("12 truncation", verify.cert_truncation(max_size=5, max_size_bd=4))


def test_13_characteristics():
    _report("13 characteristics", verify.cert_characteristics(max_size=5))
