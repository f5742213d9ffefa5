"""Verification oracles: structural checks, brute force, the Frobenius
certificate, conjugate pairing."""

import dataclasses
import importlib
import json
import random
from collections import Counter
from dataclasses import replace
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotwist import _enum_py, cli, fields
from cyclotwist import algebra as algebra_module
from cyclotwist import oracle as oracle_module
from cyclotwist.algebra import (
    AlgebraElement,
    AlgebraSpec,
    lattice_step,
    off_lattice,
    on_lattice,
)
from cyclotwist import builder
from cyclotwist.classify import EPS_COSET, PLAIN
from cyclotwist.builder import ambient_constants, build, core_family
from cyclotwist.fields import (
    IDENTITY,
    FieldDescriptor,
    eps,
    sigma,
    sigma_coords,
    sqrt_ambient,
)
from cyclotwist.grammar import (
    format_element,
    format_field,
    format_label,
    parse_element,
    parse_field,
)
from cyclotwist.oracle import (
    EnumerationBudgetError,
    VerificationError,
    _add_on_lattice,
    _annihilates,
    _square,
    brute_enumerate_minimal,
    certify_irreducible,
    conjugate_pairing_check,
    cross_check,
    image_failures,
    verified,
    verify_core,
    verify_family,
)
from test_algebra import ambient_elements, kernel_specs
from test_builder import (
    ambient_spec,
    golden_instances,
    item_blocks,
    min_poly_reference,
    poly_of,
    stand_in,
    unit_matrix,
)

# the module, which the package's ``classify`` function shadows
classify_module = importlib.import_module("cyclotwist.classify")


def spec_of(field_spec, n, a_literal):
    K = parse_field(field_spec)
    return AlgebraSpec(n, parse_element(K, a_literal))


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
    family = build(spec)
    assert len(family.items) == 5
    with pytest.raises(EnumerationBudgetError, match="8 coefficients x 5 items = 40"):
        cross_check(family, family.elements, max_count=39)
    assert cross_check(family, family.elements, max_count=40)


def test_enumeration_rejects_infinite_fields():
    with pytest.raises(ValueError):
        brute_enumerate_minimal(spec_of("Q", 1, "2"))


# -- the Frobenius certificate -------------------------------------------------------


def residues(elements):
    """The residues of ``elements``, sorted like ``_enum_py.atoms``; a
    repeated item stays repeated, so a duplicated family is not the
    atoms."""
    return sorted(e.ints[:: e.field.ambient_dim] for e in elements)


def with_elements(family, elements):
    """(family, stream) for ``cross_check``: ``family`` with one item,
    labelled (0,), (1,), ..., per element of ``elements``, and the
    stream of those elements, which is all that ``cross_check`` reads
    beyond the item count."""
    item = family.items[0]
    items = tuple(replace(item, label=(j,)) for j in range(len(elements)))
    return replace(family, items=items), elements.__iter__


def report_dict(report):
    """The report as the object whose ``json.dumps(obj, indent=2)``
    ``cli._report_json`` writes: the reference of the report's JSON
    schema.  Each item check is its label as a list, then its flags in
    ``ItemCheck``'s field order."""
    return {
        "pass": report.ok,
        "sound": report.ok,
        "orthogonal": report.orthogonal,
        "sum_is_one": report.sum_is_one,
        "dim_total": report.dim_total,
        "expected_dim": report.expected_dim,
        "failures": list(report.failures),
        "uncertified": [],
        "items": [
            {**dataclasses.asdict(c), "label": list(c.label)} for c in report.item_checks
        ],
    }


def mutants(family):
    """(kind, elements) for wrong families: an item dropped, two merged
    into their sum, one duplicated, or one replaced by -e, g*e or 1 - e;
    and three wrong families of the right size that sum to 1, each
    caught by one check alone."""
    es = list(family.elements())
    one, g = family.spec.one(), family.spec.gbar()
    q = family.spec.field.q
    for i, e in enumerate(es):
        rest = es[:i] + es[i + 1 :]
        yield "dropped", rest
        yield "duplicated", es + [e]
        yield "negated", rest + [-e]
        yield "complemented", rest + [one - e]
        if g * e != e:  # g*e = e on the component where g is 1
            yield "shifted", rest + [g * e]
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
    family = build(spec_of(f"F:{q}", n, str(a)))
    atoms = _enum_py.atoms(q, n, a)
    assert residues(family.elements()) == atoms
    assert cross_check(family, family.elements)
    for kind, elements in mutants(family):
        wrong = with_elements(family, elements)
        assert cross_check(*wrong) == (residues(elements) == atoms), kind


def test_enumeration_atoms_of_f5_at_n1():
    # the ground truth on its own: the minimal idempotents (1 -+ g)/2
    # of F_5[g]/(g^2 - 1), as residue vectors of length 2^n
    atoms = _enum_py.atoms(5, 1, 1)
    assert atoms == [(3, 2), (3, 3)]
    assert all(len(v) == 2 for v in atoms)


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
    family = build(spec_of(field_spec, n, a))
    assert cross_check(family, family.elements)
    kinds = set()
    for kind, elements in mutants(family):
        assert not cross_check(*with_elements(family, elements)), kind
        kinds.add(kind)
    assert kinds >= {"dropped", "duplicated", "negated", "complemented", "shifted", "merged"}


@pytest.mark.parametrize("N", [1, 2, 8, 64])
def test_square_with_slots_wider_than_eight_bytes(N):
    # residues mod 2^61 - 1 square to 122 bits, past any struct lane
    q = 2**61 - 1
    rng = random.Random(N)
    for x in [tuple(rng.randrange(q) for _ in range(N)), (q - 1,) * N]:
        a = rng.randrange(1, q)
        assert _square(x, q, a) == _enum_py._mul(x, x, q, N, a)


def test_certificate_rejects_items_outside_k():
    # e0 + i*e1 has the residues of e0 in its K-coordinates
    family = build(spec_of("F:7", 2, "1"))
    i = family.spec.field.element((0, 1))
    es = list(family.elements())
    assert not cross_check(*with_elements(family, [es[0] + es[1] * i] + es[1:]))


@pytest.mark.parametrize(
    "field_spec, n, a, kind",
    [("F:5", 3, "1", "overlapping"), ("F:3", 3, "1", "overlapping"), ("F:3", 2, "1", "telescoped")],
)
def test_certificate_rejects_families_that_sum_to_one(field_spec, n, a, kind):
    family = build(spec_of(field_spec, n, a))
    wrong = [es for k, es in mutants(family) if k == kind]
    assert wrong
    for elements in wrong:
        assert len(elements) == len(family.items)
        assert sum(elements[1:], elements[0]) == family.spec.one()
        assert not cross_check(*with_elements(family, elements))


def test_certificate_needs_a_finite_field():
    family = build(spec_of("Q", 1, "2"))
    with pytest.raises(ValueError, match="finite field"):
        cross_check(family, family.elements)


def test_oracles_refuse_a_field_larger_than_its_prime():
    # F_49 as K: the level-2 presentation mod 7 with no involution
    K = FieldDescriptor(IDENTITY, 2, 7)
    spec = AlgebraSpec(1, K.one())
    with pytest.raises(ValueError, match=r"^enumeration is over K; need \|K\| = q$"):
        brute_enumerate_minimal(spec)
    family = build(spec)
    with pytest.raises(
        ValueError, match=r"^the certificate is over K; need \|K\| = q$"
    ):
        cross_check(family, family.elements)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_unchecked_builds_certify(data):
    q = data.draw(st.sampled_from([3, 5, 7, 13, 17]))
    n = data.draw(st.integers(min_value=0, max_value=7))
    a = data.draw(st.integers(min_value=1, max_value=q - 1))
    family = build(spec_of(f"F:{q}", n, str(a)))
    assert cross_check(family, family.elements)


# -- structural verification -------------------------------------------------------


def test_verify_accepts_correct_family():
    family = build(spec_of("F:3", 2, "1"))
    report = verify_family(family, family.elements)
    assert report.ok
    assert report.orthogonal and report.sum_is_one
    assert report.dim_total == report.expected_dim == 4
    assert report.headline() == "PASS"


def test_verify_flags_duplicate_items():
    spec = spec_of("F:3", 2, "1")
    family = build(spec)
    dup = replace(family, items=family.items + (family.items[0],))
    report = verify_family(dup, dup.elements)
    assert not report.ok
    assert any("duplicate labels" in f for f in report.failures)
    assert not report.orthogonal  # e*e = e != 0 across the duplicate pair
    assert not report.sum_is_one


def test_verify_flags_missing_item():
    spec = spec_of("F:3", 2, "1")
    family = build(spec)
    short = replace(family, items=family.items[1:])
    report = verify_family(short, short.elements)
    assert not report.ok
    assert not report.sum_is_one
    assert report.dim_total < report.expected_dim


@pytest.mark.parametrize("field_spec, n, a", [("F:3", 10, "1"), ("QR:6", 8, "-1")])
def test_missing_item_at_real_sizes_multiplies_each_item_out(field_spec, n, a):
    # a short family fails the sum, so e*e == e is computed for every
    # item: packed products of 1024 and 256 coefficients
    family = build(spec_of(field_spec, n, a))
    short = replace(family, items=family.items[1:])
    report = verify_family(short, short.elements)
    assert "family does not sum to 1" in report.failures
    assert not report.orthogonal
    assert len(report.item_checks) == len(family.items) - 1
    assert all(c.idempotent for c in report.item_checks)


def test_verify_flags_corrupted_coefficient():
    spec = spec_of("F:3", 2, "1")
    family = build(spec)
    item = family.items[0]
    es = list(family.elements())
    es[0] = spec.element([c + spec.field.one() for c in es[0].coeffs])
    report = verify_family(family, es.__iter__)
    checks = {c.label: c for c in report.item_checks}
    assert not checks[item.label].idempotent
    assert not report.ok


def test_failure_lines_name_items_as_the_listing_does():
    # g added to e[0]: the headline names the item e[0], as the family
    # listing prints it, not as the label tuple's repr
    spec = spec_of("QC:3", 2, "4")
    family = build(spec)
    assert family.items[0].label == (0,)
    es = list(family.elements())
    es[0] = es[0] + spec.gbar()
    report = verify_family(family, es.__iter__)
    assert report.headline() == (
        "FAIL: e[0] is not idempotent; e[0] is not annihilated by its min poly; "
        "family does not sum to 1"
    )


def test_verify_flags_wrong_dim():
    spec = spec_of("F:3", 2, "1")
    family = build(spec)
    item = family.items[0]
    bad = replace(family, items=(stand_in(item, dim=item.dim + 1),) + family.items[1:])
    report = verify_family(bad, family.elements)
    checks = {c.label: c for c in report.item_checks}
    assert not checks[item.label].dim_consistent
    assert not report.ok


def poly_product(p, r):
    """p * r, term by term."""
    out = {}
    for i, x in p.terms:
        for j, y in r.terms:
            out[i + j] = out.get(i + j, 0) + x * y
    return poly_of(out)


def with_stated_poly(family, label, poly):
    """``family`` with the item ``label`` stating ``poly`` (a stand-in
    item); its elements are ``family.elements``."""
    items = tuple(
        stand_in(it, min_poly=poly, dim=poly.degree) if it.label == label else it
        for it in family.items
    )
    return replace(family, items=items)


@pytest.mark.parametrize("field_spec, n, a", [("Q", 3, "16"), ("F:5", 2, "1")])
def test_verify_flags_stated_poly_with_wrong_constant(field_spec, n, a):
    family = build(spec_of(field_spec, n, a))
    item = family.items[0]
    coeffs = dict(item.min_poly.terms)
    coeffs[0] = coeffs[0] + 1
    wrong = poly_of(coeffs)
    report = verify_family(with_stated_poly(family, item.label, wrong), family.elements)
    checks = {c.label: c for c in report.item_checks}
    assert not checks[item.label].min_poly_annihilates
    assert not report.orthogonal and not report.ok


@pytest.mark.parametrize("field_spec, n, a", [("Q", 3, "16"), ("F:5", 2, "1")])
def test_verify_flags_stated_poly_squared(field_spec, n, a):
    # p^2 annihilates g*e too, but the degrees no longer sum to 2^n
    family = build(spec_of(field_spec, n, a))
    item = family.items[0]
    square = poly_product(item.min_poly, item.min_poly)
    report = verify_family(with_stated_poly(family, item.label, square), family.elements)
    checks = {c.label: c for c in report.item_checks}
    assert checks[item.label].min_poly_annihilates
    assert checks[item.label].dim_consistent
    assert report.dim_total == family.spec.size + item.dim
    assert any("dimensions sum to" in f for f in report.failures)
    assert not report.orthogonal and not report.ok


@pytest.mark.parametrize(
    "field_spec, n, a, pair",
    [
        # merged min poly x^4 + 2x^3 + 4x^2 + 4x + 4: no shape the
        # certificate proves irreducible
        ("Q", 3, "16", ((0,), (1, 0))),
        # type B: x^2 + 2x + 2, no binomial
        ("F:5", 2, "1", ((0,), (1,))),
        # x^D - d^2 with d in K: x^2 - 1 and x^4 - 4
        ("F:3", 2, "1", ((0,), (2,))),
        ("Q", 3, "16", ((1, 0), (1, 1))),
        # x^4 + 1: d = i is no element of K = Q(sqrt(-2)), but a square in A
        ("QE:3", 2, "-1", ((0,), (1,))),
    ],
)
def test_verify_flags_merged_components(field_spec, n, a, pair):
    # two components merged into one item, stated with its true minimal
    # polynomial: every check but the certificate passes
    spec = spec_of(field_spec, n, a)
    family = build(spec)
    items = {it.label: it for it in family.items}
    es = dict(zip(items, family.elements()))
    merged = es[pair[0]] + es[pair[1]]
    poly = min_poly_reference(merged)
    rest = [label for label in items if label not in pair]
    item = stand_in(items[pair[0]], dim=poly.degree, min_poly=poly)
    bad = replace(family, items=(item, *(items[label] for label in rest)))
    elements = [merged] + [es[label] for label in rest]
    report = verify_family(bad, elements.__iter__)
    assert report.orthogonal and report.sum_is_one
    assert report.failures == (f"{format_label(pair[0])} is not certified minimal",)
    assert [c.label for c in report.item_checks if not c.primitive] == [pair[0]]
    with pytest.raises(VerificationError):
        verified(bad, elements.__iter__)


@pytest.mark.parametrize(
    "field_spec, n, a, other", [("F:7", 1, "1", 2), ("Q", 2, "16", 3)]
)
def test_verify_flags_stated_poly_with_a_root_in_k(field_spec, n, a, other):
    # x - c stated as (x - c)(x - other): it still annihilates g*e, but it
    # splits over K, so the item is not certified, and the degrees no
    # longer sum to 2^n
    family = build(spec_of(field_spec, n, a))
    item = family.items[0]
    K = family.spec.field
    c = -dict(item.min_poly.terms)[0]
    assert item.min_poly.degree == 1 and c != -other
    p = poly_of((c * other, -(c + other), K.one()))
    report = verify_family(with_stated_poly(family, item.label, p), family.elements)
    check = report.item_checks[0]
    assert check.min_poly_annihilates and check.dim_consistent and check.idempotent
    assert not check.primitive and not report.ok
    with pytest.raises(VerificationError):
        verified(with_stated_poly(family, item.label, p), family.elements)


# -- the fused coefficient checks ----------------------------------------------------


@st.composite
def lattice_elements(draw, spec):
    """Elements on the lattice of every 2^j-th power of g, j <= n, or
    a coarser one where some coefficients drawn are zero."""
    K = spec.field
    stride = 1 << draw(st.integers(0, spec.n))
    on = st.one_of(st.just(K.zero()), ambient_elements(K))
    return spec.element(
        [draw(on) if k % stride == 0 else K.zero() for k in range(spec.size)]
    )


@st.composite
def stated_polys(draw, spec, e):
    """(e, p) for a monic p with degrees up to 2^n, some on a coarser
    lattice; x^j * (x^k - 1), which a check that misplaces a degree
    reads as (x^k - 1) or 0; x^j * (x^(2^n) - a), which annihilates
    every element; or an item of e's algebra and its stated
    polynomial."""
    K, N = spec.field, spec.size
    kind = draw(st.sampled_from(["random", "binomial", "wrap", "item"]))
    if kind == "item":
        family = build(spec)
        item, e = draw(st.sampled_from(list(zip(family.items, family.elements()))))
        return e, item.min_poly
    j = draw(st.integers(0, N))
    if kind == "binomial":
        return e, poly_of({j: -K.one(), j + draw(st.integers(1, N)): K.one()})
    if kind == "wrap":
        return e, poly_of({j: -spec.a, N + j: K.one()})
    stride = 1 << draw(st.integers(0, spec.n))
    degrees = draw(st.sets(st.integers(0, N // stride), min_size=1, max_size=4))
    top, *rest = sorted((stride * k for k in degrees), reverse=True)
    coeffs = {k: draw(ambient_elements(K)) for k in rest}
    return e, poly_of({**coeffs, top: K.one()})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fused_checks_match_the_dense_sums(data):
    spec = data.draw(kernel_specs())
    d, one = spec.field.ambient_dim, spec.one()
    e, poly = data.draw(stated_polys(spec, data.draw(lattice_elements(spec))))
    step = lattice_step(e.ints, d)
    assert step == gcd(spec.size, *(i // d for i, v in enumerate(e.ints) if v))
    for h in (1 << j for j in range(spec.n + 1) if step % (1 << j) == 0):
        xs = on_lattice(e.ints, d, h)
        assert tuple(off_lattice(xs, d, h, spec.size)) == e.ints
    terms = [spec.gbar(k) * e * c for k, c in poly.terms]
    dense = sum(terms[1:], terms[0]).is_zero()
    assert annihilates(spec, e, poly.terms) == dense
    rest = one - e
    assert sums_to_one(spec, [e, rest])
    assert sums_to_one(spec, [e]) == (e == one)
    assert sums_to_one(spec, [e, e]) == (e + e == one)
    # a denominator that grows midway rescales the running sum
    half = e * spec.field.half
    assert sums_to_one(spec, [e, half, -half, rest])
    assert sums_to_one(spec, [e, half, rest]) == e.is_zero()


def test_a_raised_denominator_reaches_every_slot_of_the_sum():
    # g - g^2 (lattice step 1) is in the sum when 1/2 (step 4) raises its
    # denominator to 2: the odd slots are raised too, or -(g - g^2)
    # would leave g - g^2 behind
    spec = spec_of("Q", 2, "-4")
    x = spec.element([0, 1, -1, 0])
    half = spec.one() * spec.field.half
    assert sums_to_one(spec, [x, half, -x, half])
    assert not sums_to_one(spec, [x, half, half])


def annihilates(spec, e, terms):
    """``_annihilates`` on e read as ``verify_family`` reads it: on the
    lattice of gcd(step(e), every stated degree)."""
    d = spec.field.ambient_dim
    h = gcd(lattice_step(e.ints, d), *(k for k, _ in terms))
    return _annihilates(spec, on_lattice(e.ints, d, h), h, terms)


def sums_to_one(spec, elements):
    """Does the running sum of ``_add_on_lattice``, each element on its
    own lattice, end as 1, as ``verify_family`` reads it?"""
    K, d = spec.field, spec.field.ambient_dim
    total, D, fine = [0] * (spec.size * d), 1, spec.size
    for e in elements:
        step = lattice_step(e.ints, d)
        xs = on_lattice(e.ints, d, step)
        D = _add_on_lattice(total, D, fine, xs, e.den, step, K)
        fine = min(fine, step)
    return total[0] == D and not any(total[1:])


@pytest.mark.parametrize("field_spec, n, a", [("QC:4", 6, "16"), ("F:7", 5, "3")])
def test_a_changed_coordinate_fails_annihilation(field_spec, n, a):
    # one more in any coordinate of an item, on its lattice or off it,
    # adds g^k * zeta^j / den to it, and no stated p of degree < 2^n
    # annihilates a unit
    family = build(spec_of(field_spec, n, a))
    spec = family.spec
    d = spec.field.ambient_dim
    es = list(family.elements())
    for i, (it, e) in enumerate(zip(family.items, es)):
        assert it.min_poly.degree < spec.size
        for j in range(len(e.ints)):
            ints = list(e.ints)
            ints[j] += 1
            bad = AlgebraElement(spec, ints, e.den)
            assert not annihilates(spec, bad, it.min_poly.terms)
        # and through verify_family, for the last coordinate of each item
        mutant = es[:i] + [bad] + es[i + 1 :]
        check = verify_family(family, mutant.__iter__).item_checks[i]
        assert not check.min_poly_annihilates


def test_each_element_is_read_on_its_lattice_once(monkeypatch):
    # the nonzero test, K-rationality, annihilation and the running sum
    # read one gathering of each element, on the lattice of
    # gcd(step(e), every stated degree)
    calls = []

    def counted(*args, _fn=oracle_module.on_lattice):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(oracle_module, "on_lattice", counted)
    instances = golden_instances()
    paired = [x for x in instances if parse_field(x[0]).involution != IDENTITY]
    assert paired
    for field_spec, n, a in paired:
        family = build(spec_of(field_spec, int(n), a))
        calls.clear()
        assert verify_family(family, family.elements).ok, (field_spec, n, a)
        assert len(calls) == len(family.items), (field_spec, n, a)


@pytest.mark.parametrize(
    "field_spec, n, a",
    [("F:7", 5, "3"), ("QC:4", 6, "16"), ("QR:3", 4, "9232,6528,0,-6528"), ("Q", 4, "1")],
)
def test_passing_family_is_verified_without_dense_arithmetic(
    field_spec, n, a, monkeypatch
):
    family = build(spec_of(field_spec, n, a))

    def refuse(*args):
        raise AssertionError("verify_family built an intermediate element")

    for name in "__add__ __radd__ __sub__ __rsub__ __mul__ __rmul__ _times".split():
        monkeypatch.setattr(AlgebraElement, name, refuse)
    assert verify_family(family, family.elements).ok


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
    family = build(spec_of(field_spec, n, a))
    assert conjugate_pairing_check(family, ambient_constants(family))


def conj(K, k):
    """The involution of K on the coordinates of k, over k's own field."""
    return type(k)._make(k.owner, tuple(sigma_coords(K, k.ints)), k.den)


def pairing_reference(family, ambient):
    """The pairing verdict as a set equality over constants: the
    ambient (S, k) are closed under the involution, and their orbits,
    each written as its sorted pair of coordinate keys, are the K
    items' (S, {k, sigma k})."""
    K = family.spec.field

    def keys(S, k):
        pair = sorted([(k.ints, k.den), (conj(K, k).ints, k.den)])
        return S, pair[0], pair[1]

    stated = {(S, k.ints, k.den) for S, k in ambient}
    if any((S, conj(K, k).ints, k.den) not in stated for S, k in ambient):
        return False
    want = {keys(it.S, it.k) for it in family.items}
    return {keys(S, k) for S, k in ambient} == want


def first_orbit(family, ambient):
    """The first ambient orbit {(S, k), (S, sigma k)} with sigma k != k,
    and the ambient constants without it."""
    K = family.spec.field
    S, k = next((S, k) for S, k in ambient if conj(K, k) != k)
    orbit = [(S, k), (S, conj(K, k))]
    return orbit, [x for x in ambient if x not in orbit]


def wrong_ambients(family, ambient):
    """Ambient constants that pairing must reject, by corruption: the
    first paired orbit {(S, k), (S, sigma k)} dropped, or replaced by the
    orbit of k^2, or added again at another S, or replaced by the orbit
    of zeta^j * k, one mutant for each root of unity zeta^j of the
    ambient field other than 1 and sigma(k) / k."""
    K = family.spec.field
    orbit, rest = first_orbit(family, ambient)
    S, k = orbit[0]
    other = S * 2 if S < family.spec.size else S // 2
    A = k.owner
    zetas = [A.zeta_pow(j) * k for j in range(1, 1 << A.level)]
    return {
        "dropped": [rest],
        "squared constant": [rest + [(S, k * k), (S, conj(K, k * k))]],
        "at another S": [ambient + [(other, x) for _, x in orbit]],
        "times a root of unity": [
            rest + [(S, z), (S, conj(K, z))] for z in zetas if z != conj(K, k)
        ],
    }


PAIRING_CASES = [("Q", 2, "-4"), ("QE:3", 3, "16"), ("QR:3", 3, "16"), ("F:3", 3, "1")]


@pytest.mark.parametrize("field_spec, n, a", PAIRING_CASES)
def test_pairing_verdict_is_the_set_equality(field_spec, n, a):
    # set semantics: a constant or an orbit stated twice, or every
    # constant stated as its partner, is still the same set of orbits
    family = build(spec_of(field_spec, n, a))
    ambient = ambient_constants(family)
    K = family.spec.field
    orbit, rest = first_orbit(family, ambient)
    mutants = [
        (family, ambient),  # as built: True
        (family, ambient + orbit[:1]),  # a constant twice: True
        (family, ambient + orbit),  # an orbit twice: True
        (family, [(S, conj(K, c)) for S, c in ambient]),  # partners: True
        (replace(family, items=family.items[1:]), ambient),  # one item short
        (replace(family, items=family.items + family.items[:1]), ambient),  # True
        (family, rest),  # one orbit short
    ]
    verdicts = [conjugate_pairing_check(k, amb) for k, amb in mutants]
    assert verdicts == [pairing_reference(k, amb) for k, amb in mutants]
    assert verdicts == [True, True, True, True, False, True, False]
    # every wrong constant is rejected, and so is a missing partner
    wrong = [amb for ambs in wrong_ambients(family, ambient).values() for amb in ambs]
    assert len(wrong) >= 4
    for amb in wrong + [rest + orbit[:1]]:
        assert not conjugate_pairing_check(family, amb)
        assert not pairing_reference(family, amb)


@pytest.mark.parametrize(
    "corruption",
    ["dropped", "squared constant", "at another S", "times a root of unity"],
)
@pytest.mark.parametrize(
    "field_spec, n, a",
    [("Q", 3, "16"), ("QE:3", 2, "-1"), ("F:3", 2, "1")] + PAIRING_CASES,
)
def test_verify_flags_corrupted_ambient_family(
    field_spec, n, a, corruption, monkeypatch, capsys
):
    # the certificate reads only the K-side items, so wrong ambient
    # constants leave the structural report as it is, and pairing alone
    # rejects them
    family = build(spec_of(field_spec, n, a))
    mutants = wrong_ambients(family, ambient_constants(family))[corruption]
    assert mutants
    for bad in mutants:
        monkeypatch.setattr(cli, "ambient_constants", lambda family: bad)
        code = cli.main(["verify", field_spec, str(n), a])
        out = capsys.readouterr().out
        assert "structural: PASS" in out
        assert "pairing: mismatch" in out and "overall: FAIL" in out and code == 1


# mutants of the item stream, here of one block per item (``item_blocks``)
def first_dropped(items):
    return items[1:]


def last_dropped_item(items):
    return items[:-1]


def last_negated(items):
    *rest, (r, label, k, step, count) = items
    return rest + [(r, label, -k, step, count)]


# instances that dispatch to the plain and to the negated paired case
CASE3 = [("F:3", 3, "1"), ("QR:3", 3, "16"), ("QE:3", 3, "16")]
CASE4 = [("Q", 2, "-1"), ("QE:3", 2, "-1")]


@pytest.mark.parametrize(
    "case, mutate, touched, untouched",
    [
        ("thm3_case3", first_dropped, CASE3, CASE4),
        ("thm3_case3", last_negated, CASE3, CASE4),
        ("thm3_case4", last_dropped_item, CASE4, CASE3),
    ],
    ids=["case3 first dropped", "case3 last negated", "case4 last dropped"],
)
def test_pairing_flags_a_mutated_case_function(
    case, mutate, touched, untouched, monkeypatch
):
    # a K-side case function that states a wrong family no longer meets
    # the ambient constants, which the trivial-involution case states:
    # pairing rejects every instance of that case, and no other
    original = getattr(builder, case)
    monkeypatch.setattr(builder, case, lambda K, s: mutate(item_blocks(original(K, s), K)))
    for instance in touched + untouched:
        family = build(spec_of(*instance))
        paired = conjugate_pairing_check(family, ambient_constants(family))
        assert paired == (instance in untouched)


@pytest.mark.parametrize(
    "field_spec, n, a", [("QR:3", 3, "16"), ("F:7", 5, "1"), ("QE:6", 8, "-1")]
)
def test_verify_builds_no_ambient_coefficient(field_spec, n, a, monkeypatch, capsys):
    # one character sum per K item and reader: the first call sums the
    # items of the core it certifies, one per K item, whatever the core's
    # size (QR:3 3 16 and F:7 5 1 are their cores' size), and each call
    # sums the items at n only for F_7's Frobenius certificate.  The
    # ambient side is read as constants alone
    family = build(spec_of(field_spec, n, a))
    items = len(family.items)
    frobenius = items if family.spec.field.q else 0
    calls = []

    def counted(*args, _fn=builder._char_sum):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(builder, "_char_sum", counted)
    for want in (items + frobenius, frobenius):
        calls.clear()
        assert cli.main(["verify", field_spec, str(n), a]) == 0
        assert "pairing: pass" in capsys.readouterr().out
        assert len(calls) == want


def ambient_constants_reference(spec):
    """(S, k) of the ambient items from a second ``ks_decompose``, over
    ``ambient_spec``, as ``ambient_constants`` computed them before it
    read the family's own root chain: the items ``build`` states there."""
    return [(it.S, it.k) for it in build(ambient_spec(spec)).items]


CONSTANT_MATRIX_FIELDS = ["F:3", "F:7", "F:11", "F:19", "Q", "QR:3", "QR:4", "QE:3", "QE:4"]


@pytest.mark.parametrize(
    "instances",
    [[x for x in golden_instances() if parse_field(x[0]).involution != IDENTITY]]
    + [unit_matrix(f) for f in CONSTANT_MATRIX_FIELDS],
    ids=["golden"] + CONSTANT_MATRIX_FIELDS,
)
def test_ambient_constants_need_no_second_chain(instances):
    for field_spec, n, a in instances:
        family = build(spec_of(field_spec, int(n), a))
        got = [(S, c.owner, c.ints, c.den) for S, c in ambient_constants(family)]
        want = ambient_constants_reference(family.spec)
        assert got == [(S, c.owner, c.ints, c.den) for S, c in want], (field_spec, n, a)


@pytest.mark.parametrize(
    "field_spec, n, a, chains",
    [("F:7", 5, "4", 2), ("QE:6", 8, "-1", 1), ("QR:3", 3, "16", 1)],
)
def test_verify_runs_one_root_chain(field_spec, n, a, chains, monkeypatch, capsys):
    # the chains of the one ks_decompose over K: one, or two when the
    # depth s runs past the root level (F:7 5 4, s = 5 over F_49, L = 4);
    # the ambient constants take no chain of their own, validate no
    # second algebra and dispatch no second time.  The first call also
    # states the core (one more algebra, one more dispatch, no chain); a
    # second call finds it stated
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(classify_module, "root_chain")
    counted(AlgebraSpec, "__post_init__")
    counted(builder, "_dispatch")
    for core in (1, 0):
        calls.clear()
        assert cli.main(["verify", field_spec, str(n), a]) == 0
        assert "pairing: pass" in capsys.readouterr().out
        assert calls == {
            "root_chain": chains,
            "__post_init__": 1 + core,
            "_dispatch": 1 + core,
        }


def test_verify_memoises_no_answer(monkeypatch, capsys):
    # the benchmark reruns identical inputs: once the per-field values
    # and the core's report are in place, identical calls do identical
    # work, and still multiply.  F:13 3 2 alone takes no product warm: it
    # is the family {1}, whose core is {1} over K[z]/(z - 1), so its
    # warm call only decomposes a and checks a = 2 * 1^1 (b = 1)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for module in (fields, algebra_module, builder, oracle_module):
        monkeypatch.setattr(module, "times_coords", counted("times", module.times_coords))
    for module in (fields, classify_module):
        monkeypatch.setattr(module, "sqrt_ambient", counted("sqrt", module.sqrt_ambient))
    for argv in (["F:7", "3", "4"], ["QR:3", "3", "16"], ["F:13", "3", "2"], ["Q", "3", "16"]):
        seen = []
        for _ in range(3):
            counts.clear()
            assert cli.main(["verify", "--json", *argv]) == 0
            seen.append(dict(counts))
        capsys.readouterr()
        assert seen[1] == seen[2] and seen[0]["times"] and seen[1]["sqrt"], argv
        if argv[0] == "F:13":
            assert seen[1] == {"sqrt": 2}
        else:
            assert seen[1]["times"], argv


@pytest.mark.parametrize("field_spec", sorted({x[0] for x in golden_instances()}))
def test_one_descriptor_per_field(field_spec):
    K = parse_field(field_spec)
    assert parse_field(field_spec) is K
    assert parse_field(f" {field_spec} ") is K
    A = ambient_spec(spec_of(field_spec, 1, "1")).field
    assert A is ambient_spec(spec_of(field_spec, 2, "1")).field
    assert A == FieldDescriptor(IDENTITY, K.level, K.q)
    assert A is K or K.involution != IDENTITY
    # a descriptor built directly is equal, hashes alike and combines
    # with the interned one's elements
    H = FieldDescriptor(K.involution, K.level, K.q)
    assert H is not K and H == K and hash(H) == hash(K)
    x, y = K.one() + K.zeta_pow(1), H.one() + H.zeta_pow(1)
    assert x == y and hash(x) == hash(y)
    assert x * y == y * x == K.element((x * x).coeffs)
    assert (y - x).is_zero() and (x * sigma(x)).is_k_rational()
    assert sqrt_ambient(x * x) in (x, -x)
    family = build(AlgebraSpec(2, H.one()))
    assert verify_family(family, family.elements).ok and family.spec.field is H


def test_pairing_needs_nontrivial_involution():
    family = build(spec_of("F:5", 1, "1"))
    with pytest.raises(ValueError, match="involution"):
        conjugate_pairing_check(family, ambient_constants(family))


# -- the certificate against the descent it replaced -------------------------------


def descent_reference(family, elements):
    """Labels of the items of ``family`` that the Galois-descent
    certificate proves minimal, the certificate ``verify_family`` used
    before quadratic descent, kept as a reference the way
    ``min_poly_reference`` is.  When K = A an item is certified when its
    stated polynomial is x^(2^k) - c with c no square in A (Capelli).
    Otherwise the ambient family must pass ``verify_family``, and an item
    is certified when it is the sum of an orbit of K's involution on
    that family: the primitive idempotents over K are the orbit sums of
    those over A (Curtis & Reiner, Methods of Representation Theory I,
    section 7)."""
    K = family.spec.field
    if K.involution == IDENTITY:
        certified = set()
        for it in family.items:
            c = dict(it.min_poly.terms)
            D = it.min_poly.degree
            binomial = not D & (D - 1) and c.keys() <= {0, D}
            if D == 1 or (binomial and sqrt_ambient(-c.get(0, K.zero())) is None):
                certified.add(it.label)
        return certified
    ambient = build(ambient_spec(family.spec))
    assert verify_family(ambient, ambient.elements).ok
    spec0 = ambient.spec
    members = {(e.ints, e.den): e for e in ambient.elements()}
    sums = set()
    for e in members.values():
        f = AlgebraElement(spec0, sigma_coords(K, e.ints), e.den)
        assert (f.ints, f.den) in members  # the involution permutes the family
        s = e if f == e else e + f
        sums.add((s.ints, s.den))
    return {it.label for it, e in zip(family.items, elements) if (e.ints, e.den) in sums}


def with_first_two_merged(family):
    """``family`` with its first two items merged into their sum, stated
    with the product of their polynomials (a stand-in item), and its
    elements: an idempotent that is not primitive."""
    (a, b, *rest), (ea, eb, *es) = family.items, list(family.elements())
    p = poly_product(a.min_poly, b.min_poly)
    merged = stand_in(a, dim=p.degree, min_poly=p)
    return replace(family, items=(merged, *rest)), [ea + eb, *es]


@pytest.mark.parametrize("field_spec, n, a", golden_instances(), ids=" ".join)
def test_stated_polys_are_their_nonzero_terms(field_spec, n, a):
    # prod_chi (x^S - c_chi) over at most two characters: at most three
    # terms, nonzero, by increasing degree, monic
    family = build(spec_of(field_spec, int(n), a))
    for it in family.items + build(ambient_spec(family.spec)).items:
        degrees = [k for k, _ in it.min_poly.terms]
        assert 2 <= len(degrees) <= 3 and degrees == sorted(set(degrees))
        assert all(not c.is_zero() for _, c in it.min_poly.terms)
        top = it.min_poly.terms[-1][1]
        assert top == top.owner.one() and degrees[-1] == it.dim


@pytest.mark.parametrize("field_spec, n, a", golden_instances(), ids=" ".join)
def test_certificate_agrees_with_descent(field_spec, n, a):
    # every item is certified by both, and a merged pair by neither
    family = build(spec_of(field_spec, int(n), a))
    elements = list(family.elements())
    assert len(descent_reference(family, elements)) == len(family.items)
    if len(family.items) > 1:
        family, elements = with_first_two_merged(family)
    certified = {it.label for it in family.items if certify_irreducible(it.min_poly)}
    assert certified == descent_reference(family, elements)


# -- the cyclotomic fields -------------------------------------------------------------


@st.composite
def cyclotomic_specs(draw):
    """K_t<g> over QC:L, QR:L or QE:L with L <= 4 and n <= 4, for
    a = +-c^(2^j) with c one of 1, 2, 3, u + sigma(u) and u*sigma(u)
    for u = 1 + zeta, or one of the units (1 + eps_m)^(2^j) that lie
    in K: every construction case of these fields."""
    fields = ["QC:2", "QC:3", "QC:4", "QR:3", "QR:4", "QE:3", "QE:4"]
    K = parse_field(draw(st.sampled_from(fields)))
    n = draw(st.integers(min_value=0, max_value=4))
    u = K.one() + K.zeta_pow(1)
    j = draw(st.integers(min_value=0, max_value=6))
    cosets = [x for x in ((u ** (1 << j)), (u * u) ** (1 << j)) if x.is_k_rational()]
    bases = [K.scalar(1), K.scalar(2), K.scalar(3), u + sigma(u), u * sigma(u)]
    if cosets and draw(st.booleans()):
        a = draw(st.sampled_from(cosets))
    else:
        a = draw(st.sampled_from(bases)) ** (1 << j)
    return AlgebraSpec(n, a * draw(st.sampled_from([1, -1])))


@settings(max_examples=40, deadline=None)
@given(cyclotomic_specs())
@example(spec_of("QR:3", 4, "9232,6528,0,-6528"))  # the unit coset
@example(spec_of("QE:4", 4, "-16"))  # negated at s = m - 1: sigma(eps_m) = -eps_m^-1
def test_cyclotomic_families_verify_and_pair(spec):
    family = build(spec)
    report = verify_family(family, family.elements)
    assert report.ok
    if spec.field.involution != IDENTITY:
        assert conjugate_pairing_check(family, ambient_constants(family))
    # the idempotent flag is implied on a passing family, and computed
    # on one whose sum is not 1: both agree with a dense square
    es = list(family.elements())
    mutant = [es[0] + es[0]] + es[1:]
    mutant_report = verify_family(family, mutant.__iter__)
    assert not mutant_report.sum_is_one and not mutant_report.ok
    for elements, rep in ((es, report), (mutant, mutant_report)):
        for e, check in zip(elements, rep.item_checks):
            assert check.idempotent == (e * e == e)
    assert not mutant_report.item_checks[0].idempotent


# -- certification through the b-free core ----------------------------------------------


def family_and_core(field_spec, n, a):
    family = build(spec_of(field_spec, int(n), a))
    dec = family.decomposition
    return family, core_family(family.spec.field, dec.form, dec.s)


def core_report(core):
    return verify_family(core, core.elements)


def held_core(key):
    """The core and report ``verify`` holds for (K, form, s) ``key``,
    its one entry: reading it certifies nothing new."""
    misses = cli._certified_core.cache_info().misses
    value = cli._certified_core(*key)
    info = cli._certified_core.cache_info()
    assert (info.misses, info.currsize) == (misses, 1)
    return value


# every golden instance, the selftest matrix among them
@pytest.mark.parametrize(
    "field_spec, n, a", golden_instances(), ids=[" ".join(x) for x in golden_instances()]
)
def test_verify_core_agrees_with_verify_family(field_spec, n, a):
    family, core = family_and_core(field_spec, n, a)
    report = verify_core(family, core, core_report(core))
    assert report.ok
    assert report == verify_family(family, family.elements)


def s_equals_n_cases():
    """Families of depth s = n and coset representative b != 1, drawn as
    a = b^(2^n) over F_q (q = 5, 7, 13; n <= 4) and a = +-b^(2^n) over
    QC:3, QR:3 and QE:3 (n <= 3): each AlgebraSpec with a readable id."""
    draws = [
        (f"F:{q}", str(b), [b], n, 1)
        for q in (5, 7, 13)
        for n in range(1, 5)
        for b in range(2, q)
    ]
    bases = {
        "QC:3": {"3": [3, 0, 0, 0], "(1+z)": [1, 1, 0, 0], "(1+i)": [1, 0, 1, 0]},
        "QR:3": {"3": [3, 0, 0, 0], "(1+sqrt2)": [1, 1, 0, -1]},
        "QE:3": {"3": [3, 0, 0, 0], "(1+sqrt-2)": [1, 1, 0, 1]},
    }
    draws += [
        (field_spec, name, coords, n, sign)
        for field_spec, named in bases.items()
        for name, coords in named.items()
        for n in range(1, 4)
        for sign in (1, -1)
    ]
    cases, seen = [], set()
    for field_spec, name, coords, n, sign in draws:
        K = parse_field(field_spec)
        b = K.element(coords + [0] * (K.ambient_dim - len(coords)))
        spec = AlgebraSpec(n, b ** (1 << n) * sign)
        dec = build(spec).decomposition
        if dec.s == n and dec.b != K.one() and spec not in seen:
            seen.add(spec)
            a_text = ("-" if sign < 0 else "") + f"{name}^{1 << n}"
            cases.append(pytest.param(spec, id=f"{field_spec} n={n} a={a_text}"))
    return cases


S_EQUALS_N = s_equals_n_cases()


@pytest.mark.parametrize("spec", S_EQUALS_N)
def test_verify_carries_the_cores_verdicts_at_s_equals_n(spec, monkeypatch, capsys):
    # at s = n, x -> x/b takes each core polynomial to the family's, and
    # keeps irreducibility: verify certifies the core's polynomials on
    # its cold call, none on its warm one, and never one at n; its
    # structural report is still verify_family's at n
    family = build(spec)
    dec = family.decomposition
    core = core_family(spec.field, dec.form, dec.s)
    polys = [it.min_poly for it in core.items]
    assert polys != [it.min_poly for it in family.items]  # b != 1 tells them apart
    want = report_dict(verify_family(family, family.elements))
    certified = []

    def recorded(p, _fn=certify_irreducible):
        certified.append(p)
        return _fn(p)

    monkeypatch.setattr(oracle_module, "certify_irreducible", recorded)
    argv = ["verify", "--json", format_field(spec.field), str(spec.n)]
    argv += ["--", format_element(spec.a)]
    for cold in (True, False):
        certified.clear()
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["structural"] == want
        assert certified == (polys if cold else [])


def test_s_equals_n_cases_cover_each_field():
    # 20 over F_q and 30 over the three level-3 fields: over QC:3,
    # -b^8 is of depth 2, not 3, and is left out
    met = Counter(format_field(p.values[0].field) for p in S_EQUALS_N)
    assert met == {"F:5": 1, "F:7": 8, "F:13": 11, "QC:3": 15, "QR:3": 10, "QE:3": 10}


def first_stated_twice(items):
    return items[:1] + items


def first_k_negated(items):
    return (replace(items[0], k=-items[0].k),) + items[1:]


def last_k_times_a_root(items):
    k = items[-1].k
    return items[:-1] + (replace(items[-1], k=k * eps(k.owner, k.owner.root_level)),)


# the golden instances of depth s >= 1, and those whose first item is
# paired with -k = sigma(k)
DEEP_GOLDEN = [
    (f, n, a)
    for f, n, a in golden_instances()
    if build(spec_of(f, int(n), a)).decomposition.s
]
SAME_WHEN_NEGATED = [("F:3", "1", "2"), ("Q", "2", "-1")]


@pytest.mark.parametrize(
    "mutate", [last_dropped_item, first_stated_twice, first_k_negated, last_k_times_a_root]
)
@pytest.mark.parametrize(
    "field_spec, n, a", DEEP_GOLDEN, ids=[" ".join(x) for x in DEEP_GOLDEN]
)
def test_verify_core_rejects_core_mutants(field_spec, n, a, mutate):
    # a wrong core, with the family at n its image: the core's own check
    # rejects it, as verify_family at n does.  Negating the k of a paired
    # item where -k = sigma(k) (F:3 1 2, Q 2 -1) states the same family
    family, core = family_and_core(field_spec, n, a)
    family = replace(family, items=mutate(family.items))
    core = replace(core, items=mutate(core.items))
    same = mutate is first_k_negated and (field_spec, n, a) in SAME_WHEN_NEGATED
    if same:
        k = core.items[0].k
        assert -k == sigma(k) != k
    report = verify_core(family, core, core_report(core))
    assert report.ok == same
    assert verify_family(family, family.elements).ok == same


@pytest.mark.parametrize(
    "field_spec, n, a", [("Q", "3", "16"), ("QR:3", "3", "16"), ("F:7", "5", "5")]
)
def test_verify_core_flags_a_family_that_is_not_the_image_of_its_core(
    field_spec, n, a, monkeypatch, capsys
):
    # (b) a = u*b^(2^s) fails for a doubled b; (c) fails for a family
    # whose first k is negated while its core's is not.  Each adds one
    # line, and verify exits 1 on its cold call, which certifies and
    # keeps the real core, and on its warm one, whether the core is of
    # the family's size (Q 3 16, QR:3 3 16) or smaller (F:7 5 5, s = 3)
    family, core = family_and_core(field_spec, n, a)
    dec, base = family.decomposition, core_report(core)
    wrong_b = replace(family, decomposition=replace(dec, b=dec.b + dec.b))
    report = verify_core(wrong_b, core, base)
    assert report.failures == ("a is not u*b^(2^s) with b in K for the core's u and s",)
    assert image_failures(wrong_b, core) == list(report.failures)
    not_image = replace(family, items=first_k_negated(family.items))
    report = verify_core(not_image, core, base)
    assert report.failures[0] == "family is not the image of its core"
    assert image_failures(family, core) == []
    argv = ["verify", field_spec, n, "--", a]
    key = (family.spec.field, dec.form, dec.s)
    for wrong in (wrong_b, not_image):
        monkeypatch.setattr(cli, "build", lambda spec, wrong=wrong: wrong)
        assert cli.main(argv) == 1
        assert held_core(key) == (core, base)
        monkeypatch.setattr(cli, "build", build)
        assert cli.main(argv) == 0
        monkeypatch.setattr(cli, "build", lambda spec, wrong=wrong: wrong)
        assert cli.main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "overall: FAIL"
        cli._certified_core.cache_clear()


def test_a_wrong_power_of_b_where_b_enters_fails_the_family(monkeypatch, capsys):
    # the expander, the one place b enters the construction, taking
    # b^(2^(r+1)) for b^(2^r) at r >= 1, on Q 16 6561: a = 3^8, s = 3,
    # b = 3 and blocks r = 0 and 1.  The core (b = 1) and the ambient
    # constants (expanded alike, so pairing passes) do not show it: verify
    # fails on the image check alone, and the checked build on its check
    argv = ["Q", "16", "6561"]
    dec = build(spec_of("Q", 16, "6561")).decomposition
    K = dec.b.owner
    assert dec.b not in (K.one(), -K.one())
    assert max(r for r, *_ in builder._dispatch(K, dec.form, dec.s)) == 1

    def wrong_power(blocks, b, _fn=builder._expanded):
        # each r >= 1 block's start times b^(2^r) more: b^(2^(r+1)) in all
        return _fn(
            [(r, label, x * b ** (1 << r) if r else x, *rest) for r, label, x, *rest in blocks],
            b,
        )

    monkeypatch.setattr(builder, "_expanded", wrong_power)
    assert cli.main(["verify", *argv]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "structural: FAIL: family is not the image of its core"
    assert out[2:] == ["pairing: pass", "overall: FAIL"]
    assert cli.main(["idempotents", *argv]) == 1
    assert capsys.readouterr().err.startswith("verification failed: FAIL: ")


def test_verify_states_and_certifies_each_core_once(monkeypatch, capsys):
    # calls that differ in a and n but share (K, form, s) share one core:
    # the first states it (one more dispatch) and certifies it (one
    # verify_family, on 2^s coefficients), the later ones do neither; and
    # the one core held, with its report, is that of (K, form, s), which
    # holds no a and no n.  A family that is its own core (F:13 1 1,
    # Q 3 1) is certified as that core, and its report serves the rest
    calls = Counter()

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(builder, "_dispatch")
    counted(cli, "verify_family")
    for calls_in_turn, (field_spec, form, s) in (
        ([("F:13", "3", "4"), ("F:13", "4", "10")], ("F:13", PLAIN, 1)),
        ([("F:13", "1", "1"), ("F:13", "3", "4")], ("F:13", PLAIN, 1)),
        ([("Q", "3", "16"), ("Q", "4", str(16 * 3**8))], ("Q", EPS_COSET, 3)),
        ([("Q", "3", "1"), ("Q", "4", "6561"), ("Q", "3", "1")], ("Q", PLAIN, 3)),
    ):
        cli._certified_core.cache_clear()
        seen = []
        for field, n, a in calls_in_turn:
            calls.clear()
            assert cli.main(["verify", field, n, a]) == 0
            assert "overall: PASS" in capsys.readouterr().out
            seen.append(dict(calls))
        warm = [{"_dispatch": 1}] * (len(seen) - 1)
        assert seen == [{"_dispatch": 2, "verify_family": 1}] + warm
        K = parse_field(field_spec)
        core = core_family(K, form, s)
        assert (core.spec.n, core.decomposition.b) == (s, K.one())
        assert held_core((K, form, s)) == (core, core_report(core))


# -- high heights ------------------------------------------------------------------------


def test_checked_families_at_64_bit_heights(capsys):
    # a = B^(2^s), B = x + sigma(x) in K for x of 64-bit coordinates,
    # n = s + 1: an item's c = k^-1 has coordinates about 2^(L-1) times
    # as long as k's, and the construction forms no such inverse
    rng = random.Random(3)
    cases = [(f"{t}:6", s) for t in ("QC", "QR", "QE") for s in range(3)]
    cases += [(f"{t}:7", 1) for t in ("QC", "QR", "QE")]
    for field_spec, s in cases:
        K = parse_field(field_spec)
        x = K.element([rng.getrandbits(64) - 2**63 for _ in range(K.ambient_dim)])
        B = x + sigma(x)
        family = build(AlgebraSpec(s + 1, B ** (1 << s)))
        assert verify_family(family, family.elements).ok, (field_spec, s)
        if K.involution != IDENTITY:
            assert conjugate_pairing_check(family, ambient_constants(family))
    rng = random.Random(5)
    A = ",".join(str(rng.getrandbits(64) - 2**63) for _ in range(128))
    assert cli.main(["verify", "QC:8", "4", "--", A]) == 0
    assert "overall: PASS" in capsys.readouterr().out
