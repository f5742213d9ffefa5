"""Verification oracles: structural checks, brute force, the Frobenius
certificate, conjugate pairing."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotwist import _enum_py
from cyclotwist.algebra import AlgebraSpec, Poly
from cyclotwist.builder import IdempotentItem, ambient_family, build
from cyclotwist.grammar import parse_element, parse_field
from cyclotwist.oracle import (
    EnumerationBudgetError,
    brute_enumerate_minimal,
    conjugate_pairing_check,
    cross_check,
    verify_family,
)
from test_builder import min_poly_reference


def spec_of(field_spec, n, a_literal):
    K = parse_field(field_spec)
    return AlgebraSpec(K, n, parse_element(K, a_literal))


def verified(family):
    return verify_family(family, ambient_family(family))


# -- brute-force enumeration -----------------------------------------------------


def test_enumeration_golden_f5():
    # The two atoms of F_5[g]/(g^2 - 1) are 3 + 3g and 3 + 2g (i.e. the
    # halves (1 +- g)/2 with 1/2 = 3 mod 5).
    spec = spec_of("F:5", 1, "1")
    atoms = brute_enumerate_minimal(spec)
    got = {tuple(c.coeffs[0] for c in e.coeffs) for e in atoms}
    assert got == {(3, 3), (3, 2)}


@pytest.mark.parametrize("a", ["1", "2"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_enumerated_atoms_resolve_identity(n, a):
    spec = spec_of("F:3", n, a)
    atoms = brute_enumerate_minimal(spec)
    total = spec.zero()
    for e in atoms:
        assert e * e == e and not e.is_zero()
        total = total + e
    assert total == spec.one()
    for i, e in enumerate(atoms):
        for f in atoms[i + 1 :]:
            assert (e * f).is_zero()


def test_enumeration_budget():
    spec = spec_of("F:7", 3, "1")  # 7^8 = 5,764,801 candidate vectors
    with pytest.raises(EnumerationBudgetError, match="budget"):
        brute_enumerate_minimal(spec)
    # the certificate's work is 2^3 coefficients x 5 items = 40
    family = build(spec, checked=False)
    assert len(family.items) == 5
    with pytest.raises(EnumerationBudgetError, match="8 coefficients x 5 items = 40"):
        cross_check(family, max_count=39)
    assert cross_check(family, max_count=40)


def test_enumeration_rejects_infinite_fields():
    with pytest.raises(ValueError):
        brute_enumerate_minimal(spec_of("Q", 1, "2"))


# -- the Frobenius certificate -------------------------------------------------------


def residues(family):
    """The items' residues, sorted like ``_enum_py.atoms``; a repeated
    item stays repeated, so a duplicated family is not the atoms."""
    d = family.spec.field.ambient_dim
    return sorted(e.ints[::d] for e in family.elements())


def with_elements(family, elements):
    """``family`` with one item, labelled (0,), (1,), ..., per element;
    ``cross_check`` reads only the elements."""
    item = family.items[0]
    return replace(
        family,
        items=tuple(replace(item, label=(j,), element=e) for j, e in enumerate(elements)),
    )


def mutants(family):
    """(kind, elements) for wrong families: an item dropped, two merged
    into their sum, one duplicated, or one replaced by -e, g*e or 1 - e;
    and three wrong families of the right size that sum to 1, each
    caught by one check alone."""
    es = family.elements()
    one = family.spec.one()
    q = family.spec.field.q
    for i, e in enumerate(es):
        rest = es[:i] + es[i + 1 :]
        yield "dropped", rest
        yield "duplicated", es + [e]
        yield "negated", rest + [-e]
        yield "complemented", rest + [one - e]
        if e.shift(1) != e:  # g*e = e on the component where g is 1
            yield "shifted", rest + [e.shift(1)]
        if i + 1 < len(es):
            merged = es[:i] + [e + es[i + 1]] + es[i + 2 :]
            yield "merged", merged
            # only the nonzero check rejects this one
            yield "merged", merged + [family.spec.zero()]
    if len(es) >= 3:
        # running sums e0, e1, 1: idempotent, but e1 - e0 is not
        yield "telescoped", [es[0], es[1] - es[0], es[0] + es[2]] + es[3:]
    if len(es) > q:
        # idempotents e0 + ej (j = 1..q) and e0 sum to 1, as (q + 1)*e0 = e0;
        # only the running sums see that they overlap
        yield "overlapping", [es[0] + f for f in es[1 : q + 1]] + [es[0]] + es[q + 1 :]


SMALL_UNITS = [
    (q, n, a)
    for q in (3, 5, 7, 11, 13)
    for n in range(4)
    if q ** (1 << n) <= 10**5
    for a in range(1, q)
]


@pytest.mark.parametrize("q, n, a", SMALL_UNITS)
def test_certificate_agrees_with_enumeration(q, n, a):
    family = build(spec_of(f"F:{q}", n, str(a)), checked=False)
    atoms = _enum_py.atoms(q, n, a)
    assert residues(family) == atoms
    assert cross_check(family)
    for kind, elements in mutants(family):
        wrong = with_elements(family, elements)
        assert cross_check(wrong) == (residues(wrong) == atoms), kind


@pytest.mark.parametrize(
    "field_spec, n, a",
    [
        ("F:3", 2, "1"),
        ("F:5", 3, "1"),
        ("F:7", 2, "3"),
        ("F:5", 6, "1"),
        ("F:3", 7, "1"),
        ("F:13", 7, "3"),
        ("F:7", 6, "6"),
        ("F:1000000007", 6, "1"),  # slots wider than 8 bytes
    ],
)
def test_certificate_rejects_mutants(field_spec, n, a):
    family = build(spec_of(field_spec, n, a), checked=False)
    assert cross_check(family)
    kinds = set()
    for kind, elements in mutants(family):
        assert not cross_check(with_elements(family, elements)), kind
        kinds.add(kind)
    assert kinds >= {"dropped", "duplicated", "negated", "complemented", "shifted", "merged"}


def test_certificate_rejects_items_outside_k():
    # e0 + i*e1 has the residues of e0 in its K-coordinates
    family = build(spec_of("F:7", 2, "1"), checked=False)
    i = family.spec.field.element((0, 1))
    es = family.elements()
    assert not cross_check(with_elements(family, [es[0] + es[1].scale(i)] + es[1:]))


@pytest.mark.parametrize(
    "field_spec, n, a, kind",
    [("F:5", 3, "1", "overlapping"), ("F:3", 3, "1", "overlapping"), ("F:3", 2, "1", "telescoped")],
)
def test_certificate_rejects_families_that_sum_to_one(field_spec, n, a, kind):
    family = build(spec_of(field_spec, n, a), checked=False)
    wrong = [es for k, es in mutants(family) if k == kind]
    assert wrong
    for elements in wrong:
        assert len(elements) == len(family.items)
        assert sum(elements[1:], elements[0]) == family.spec.one()
        assert not cross_check(with_elements(family, elements))


def test_certificate_needs_a_finite_field():
    with pytest.raises(ValueError, match="finite field"):
        cross_check(build(spec_of("Q", 1, "2"), checked=False))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_unchecked_builds_certify(data):
    q = data.draw(st.sampled_from([3, 5, 7, 13, 17]))
    n = data.draw(st.integers(min_value=0, max_value=7))
    a = data.draw(st.integers(min_value=1, max_value=q - 1))
    assert cross_check(build(spec_of(f"F:{q}", n, str(a)), checked=False))


# -- structural verification -------------------------------------------------------


def test_verify_accepts_correct_family():
    spec = spec_of("F:3", 2, "1")
    report = verified(build(spec, checked=False))
    assert report.ok
    assert report.orthogonal and report.sum_is_one
    assert report.dim_total == report.expected_dim == 4
    assert report.headline() == "PASS"


def test_verify_flags_duplicate_items():
    spec = spec_of("F:3", 2, "1")
    family = build(spec, checked=False)
    dup = replace(family, items=family.items + (family.items[0],))
    report = verified(dup)
    assert not report.ok
    assert any("duplicate labels" in f for f in report.failures)
    assert not report.orthogonal  # e*e = e != 0 across the duplicate pair
    assert not report.sum_is_one


def test_verify_flags_missing_item():
    spec = spec_of("F:3", 2, "1")
    family = build(spec, checked=False)
    short = replace(family, items=family.items[1:])
    report = verified(short)
    assert not report.ok
    assert not report.sum_is_one
    assert report.dim_total < report.expected_dim


def test_verify_flags_corrupted_coefficient():
    spec = spec_of("F:3", 2, "1")
    family = build(spec, checked=False)
    item = family.items[0]
    bad_el = spec.element([c + spec.field.one() for c in item.element.coeffs])
    bad = replace(family, items=(replace(item, element=bad_el),) + family.items[1:])
    report = verified(bad)
    checks = {c.label: c for c in report.item_checks}
    assert not checks[item.label].idempotent
    assert not report.ok


def test_verify_flags_wrong_dim():
    spec = spec_of("F:3", 2, "1")
    family = build(spec, checked=False)
    item = family.items[0]
    bad = replace(family, items=(replace(item, dim=item.dim + 1),) + family.items[1:])
    report = verified(bad)
    checks = {c.label: c for c in report.item_checks}
    assert not checks[item.label].dim_consistent
    assert not report.ok


def with_stated_poly(family, label, poly):
    items = tuple(
        replace(it, min_poly=poly, dim=poly.degree) if it.label == label else it
        for it in family.items
    )
    return replace(family, items=items)


@pytest.mark.parametrize("field_spec, n, a", [("Q", 3, "16"), ("F:5", 2, "1")])
def test_verify_flags_stated_poly_with_wrong_constant(field_spec, n, a):
    family = build(spec_of(field_spec, n, a), checked=False)
    item = family.items[0]
    coeffs = item.min_poly.coeffs
    wrong = Poly((coeffs[0] + coeffs[-1],) + coeffs[1:])
    report = verified(with_stated_poly(family, item.label, wrong))
    checks = {c.label: c for c in report.item_checks}
    assert not checks[item.label].min_poly_annihilates
    assert not report.orthogonal and not report.ok


@pytest.mark.parametrize("field_spec, n, a", [("Q", 3, "16"), ("F:5", 2, "1")])
def test_verify_flags_stated_poly_squared(field_spec, n, a):
    # p^2 annihilates g*e too, but the degrees no longer sum to 2^n
    family = build(spec_of(field_spec, n, a), checked=False)
    item = family.items[0]
    p = item.min_poly.coeffs
    zero = p[0].owner.zero()
    square = [zero] * (2 * len(p) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(p):
            square[i + j] = square[i + j] + x * y
    report = verified(with_stated_poly(family, item.label, Poly(tuple(square))))
    checks = {c.label: c for c in report.item_checks}
    assert checks[item.label].min_poly_annihilates
    assert checks[item.label].dim_consistent
    assert report.dim_total == family.spec.size + item.dim
    assert any("dimensions sum to" in f for f in report.failures)
    assert not report.orthogonal and not report.ok


@pytest.mark.parametrize(
    "field_spec, n, a, pair",
    [
        # merged min poly x^4 + 2x^3 + 4x^2 + 4x + 4: no orbit sum of
        # the ambient family equals the merged item
        ("Q", 3, "16", ((0,), (1, 0))),
        # type B: the family is its own ambient family
        ("F:5", 2, "1", ((0,), (1,))),
    ],
)
def test_verify_flags_merged_components(field_spec, n, a, pair):
    spec = spec_of(field_spec, n, a)
    family = build(spec, checked=False)
    items = {it.label: it for it in family.items}
    merged = items[pair[0]].element + items[pair[1]].element
    poly = min_poly_reference(merged)
    rest = tuple(it for it in family.items if it.label not in pair)
    item = IdempotentItem(pair[0], merged, poly.degree, poly)
    report = verified(replace(family, items=(item,) + rest))
    assert not report.ok
    assert report.orthogonal and report.sum_is_one
    assert any(str(pair[0]) in f for f in report.failures)
    assert [c.label for c in report.item_checks if not c.primitive] == [pair[0]]


def corrupted_ambient(ambient, corruption):
    """``ambient`` with its first item dropped, or with the constant c of
    one stated x^d - c (c != 0, 1) replaced by c^2."""
    if corruption == "dropped":
        return replace(ambient, items=ambient.items[1:])
    for k, it in enumerate(ambient.items):
        c = -it.min_poly.coeffs[0]
        if not c.is_zero() and c != c.owner.one():
            p = Poly((-(c * c),) + it.min_poly.coeffs[1:])
            items = list(ambient.items)
            items[k] = replace(it, min_poly=p)
            return replace(ambient, items=tuple(items))
    raise AssertionError("no stated constant other than 0 and 1")


@pytest.mark.parametrize("corruption", ["dropped", "squared constant"])
@pytest.mark.parametrize(
    "field_spec, n, a", [("Q", 3, "16"), ("QE:3", 2, "-1"), ("F:3", 2, "1")]
)
def test_verify_flags_corrupted_ambient_family(field_spec, n, a, corruption):
    # a K-side item is certified minimal only by descent from a complete
    # ambient family: a broken one fails in "ambient ..." lines and
    # certifies no item, however sound the K-side family is
    family = build(spec_of(field_spec, n, a), checked=False)
    ambient = ambient_family(family)
    assert ambient is not family and verified(family).ok
    report = verify_family(family, corrupted_ambient(ambient, corruption))
    assert any(f.startswith("ambient ") for f in report.failures)
    assert not any(c.primitive for c in report.item_checks)
    assert report.sum_is_one and report.orthogonal


# -- conjugate pairing ----------------------------------------------------------------


@pytest.mark.parametrize(
    "field_spec, n, a",
    [
        ("Q", 2, "-4"),
        ("Q", 3, "16"),
        ("QE:3", 2, "-1"),
        ("QE:3", 3, "16"),
        ("QR:3", 3, "16"),
        ("F:3", 2, "1"),
        ("F:3", 3, "1"),
        ("F:7", 2, "3"),
    ],
)
def test_pairing_across_types(field_spec, n, a):
    family = build(spec_of(field_spec, n, a), checked=False)
    assert conjugate_pairing_check(family, ambient_family(family))


def test_pairing_needs_nontrivial_involution():
    family = build(spec_of("F:5", 1, "1"), checked=False)
    with pytest.raises(ValueError, match="involution"):
        conjugate_pairing_check(family, family)
