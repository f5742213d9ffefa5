"""The closed-form construction: dispatch, completeness, and honest limits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotwist.algebra import AlgebraSpec, Poly
from cyclotwist.builder import (
    _char_sum,
    _item,
    ambient_family,
    build,
    thm3_case3,
    thm3_case4,
)
from cyclotwist.classify import (
    EPS_COSET,
    NEGATED,
    PLAIN,
    TYPE_B,
    classify,
    h_n,
    ks_decompose,
)
from cyclotwist.fields import (
    CYCLOTOMIC,
    FINITE,
    IDENTITY,
    FieldDescriptor,
    eps,
    sigma,
)
from cyclotwist.grammar import parse_element, parse_field

DEEP_A = "170459392,120532992,0,-120532992"  # (1 + eps_3)^32 over QR:3


def spec_of(field_spec, n, a_literal):
    K = parse_field(field_spec)
    return AlgebraSpec(K, n, parse_element(K, a_literal))


def decomposed(spec):
    s = h_n(spec.field, spec.a, spec.n)
    return s, ks_decompose(spec.field, spec.a, s)


def items_sum(spec, items):
    total = spec.zero()
    for it in items:
        total = total + it.element
    return total


def min_poly_reference(e):
    """Minimal polynomial of z = g*e over K inside the component
    e*K_t<g>, found by incremental Gaussian elimination on the powers
    e, z, z^2, ... over the ambient field: the first power that becomes
    linearly dependent yields the monic relation.  Since e is
    idempotent, z^k = g^k * e.  Refuses a relation outside K[x]."""
    spec = e.spec
    K = spec.field
    if e.is_zero() or e * e != e:
        raise ValueError("e must be a nonzero idempotent")
    zero, one = K.zero(), K.one()

    rows = []  # (pivot index, echelon vector, expression in powers of z)
    cur = e
    k = 0
    while True:
        vec = list(cur.coeffs)
        combo = [zero] * k + [one]
        for pivot, rvec, rcombo in rows:
            f = vec[pivot]
            if f.is_zero():
                continue
            vec = [v - f * r for v, r in zip(vec, rvec)]
            small = [f * c for c in rcombo] + [zero] * (len(combo) - len(rcombo))
            combo = [c - s for c, s in zip(combo, small)]
        if all(v.is_zero() for v in vec):
            poly = Poly(tuple(combo))
            if not poly.is_k_rational(K):
                raise ValueError("g*e does not generate a K-rational component")
            return poly
        pivot = next(i for i, v in enumerate(vec) if not v.is_zero())
        inv = vec[pivot].inverse()
        vec = [inv * v for v in vec]
        combo = [inv * c for c in combo]
        rows.append((pivot, vec, combo))
        cur = cur.shift(1)
        k += 1
        assert k <= spec.size, "no linear relation within the algebra dimension"


# -- structure of built families ----------------------------------------------


def test_checked_build_attaches_report():
    family = build(spec_of("Q", 2, "-4"))
    assert family.report is not None and family.report.ok
    assert family.labels() == [(0,), (1,)]
    assert sum(it.dim for it in family.items) == 4


def test_unchecked_build_has_no_report():
    family = build(spec_of("Q", 2, "-4"), checked=False)
    assert family.report is None


def test_labels_single_and_double_indexed():
    family = build(spec_of("Q", 3, "16"))
    assert family.labels() == [(0,), (1,), (1, 0), (1, 1)]
    family = build(spec_of("F:5", 3, "1"))
    assert [l for l in family.labels() if len(l) == 2] == [(1, 0), (1, 1)]


def test_every_dispatch_branch_is_reachable():
    fired = set()
    for field_spec, n, a in [
        ("F:5", 2, "1"),
        ("F:5", 3, "1"),
        ("Q", 2, "2"),
        ("F:3", 2, "1"),
        ("F:3", 3, "1"),
        ("Q", 2, "-1"),
        ("Q", 2, "-4"),
    ]:
        spec = spec_of(field_spec, n, a)
        cls = classify(spec.field, n)
        s, dec = decomposed(spec)
        if cls.field_type == TYPE_B:
            fired.add("split-shallow" if s <= cls.m else "split-deep")
        elif s == 0:
            fired.add("depth-0")
        elif dec.form == NEGATED:
            fired.add("negated")
        elif dec.form == EPS_COSET:
            fired.add("unit-coset")
        elif s <= cls.m - 1:
            fired.add("paired-shallow")
        else:
            fired.add("paired-deep")
    assert fired == {
        "split-shallow",
        "split-deep",
        "depth-0",
        "negated",
        "unit-coset",
        "paired-shallow",
        "paired-deep",
    }


@pytest.mark.parametrize(
    "field_spec, n, a", [("F:5", 3, "1"), ("QR:3", 4, "9232,6528,0,-6528")]
)
def test_char_sum_matches_dense_powers(field_spec, n, a):
    # reference: average sum_chi chi^j * u^j over the dense powers of u
    spec = spec_of(field_spec, n, a)
    K = spec.field
    s, dec = decomposed(spec)
    chis = (eps(K, 2), K.scalar(3))
    for r in range(s + 1):
        T = 1 << (s - r)
        u = spec.gbar(1 << (n - s + r)).scale(dec.b ** -(1 << r))
        want, power = spec.zero(), spec.one()
        for j in range(T):
            for chi in chis:
                want = want + power.scale(chi**j)
            power = power * u
        want = want.scale(K.scalar(T).inverse())
        assert _char_sum(spec, s, r, dec.b, *chis) == want


# -- index-convention regressions ----------------------------------------------


def test_negated_family_must_start_at_zero():
    # the family that starts at i = 1 is the one without e(0,)
    spec = spec_of("Q", 2, "-1")
    s, dec = decomposed(spec)
    full = thm3_case4(spec, s, dec.b)
    assert items_sum(spec, full) == spec.one()
    assert [it.label for it in full] == [(0,)]  # i = 1 leaves nothing

    spec = spec_of("QE:3", 2, "-1")
    s, dec = decomposed(spec)
    narrowed = [it for it in thm3_case4(spec, s, dec.b) if it.label != (0,)]
    assert len(narrowed) == 1
    assert items_sum(spec, narrowed) != spec.one()


def test_deep_paired_family_needs_r0_block():
    # the block that starts at r = 1 is the family without e(0, i)
    spec = spec_of("F:3", 3, "1")
    s, dec = decomposed(spec)
    full = thm3_case3(spec, s, dec.b)
    assert items_sum(spec, full) == spec.one()
    narrowed = [it for it in full if len(it.label) == 1 or it.label[0] >= 1]
    assert len(narrowed) == len(full) - 2
    assert items_sum(spec, narrowed) != spec.one()


def test_flipped_lambda_loses_k_rationality():
    # With the sign of lam flipped the double-indexed items recombine
    # into idempotents of the ambient algebra: still idempotent, still
    # summing to 1, but no longer K-rational - verification rejects.
    spec = spec_of("F:3", 3, "1")
    K = spec.field
    s, dec = decomposed(spec)
    m = classify(K).m
    lam = -K.one()  # type E
    em, em2 = eps(K, m), eps(K, m - 2)
    singles = [it for it in thm3_case3(spec, s, dec.b) if len(it.label) == 1]
    doubles = [
        _item((r, i), spec, s, r, dec.b, em**-1 * em2**-i, -lam * em * em2**i)
        for r in range(s - m + 1)
        for i in range(1 << (m - 2))
    ]
    assert items_sum(spec, singles + doubles) == spec.one()
    assert doubles and all(not it.element.is_k_rational() for it in doubles)
    assert all(it.element * it.element == it.element for it in doubles)


# -- certification of non-binomial components -----------------------------------


def test_deep_unit_coset_family_is_sound_but_uncertified():
    # the octic components (below) are certified by descent: over the
    # ambient field they split into binomial components
    family = build(spec_of("QR:3", 5, DEEP_A))
    assert tuple(sorted(it.dim for it in family.items)) == (
        2, 2, 2, 2, 2, 2, 4, 8, 8,
    )
    assert family.report.ok
    assert all(c.primitive for c in family.report.item_checks)


def test_deep_unit_coset_octics():
    # The two depth-2 components have the conjugate non-binomial minimal
    # polynomials x^8 +- (8 + 6*sqrt2) x^4 + (68 + 48*sqrt2).
    spec = spec_of("QR:3", 5, DEEP_A)
    family = build(spec, checked=False)
    K = spec.field
    octics = {
        it.label: [c.coeffs for c in it.min_poly.coeffs]
        for it in family.items
        if it.dim == 8
    }
    zeros = [K.zero().coeffs] * 3
    assert octics[(2, 0)] == (
        [(68, 48, 0, -48)] + zeros + [(8, 6, 0, -6)] + zeros + [(1, 0, 0, 0)]
    )
    assert octics[(2, 1)] == (
        [(68, 48, 0, -48)] + zeros + [(-8, -6, 0, 6)] + zeros + [(1, 0, 0, 0)]
    )


# -- emulation edges -------------------------------------------------------------


def test_emulated_full_split():
    # m >= n+1 with identity involution: all components have dim 1
    family = build(spec_of("QC:4", 2, "16"))
    assert [it.dim for it in family.items] == [1, 1, 1, 1]


def test_emulated_paired_split():
    family = build(spec_of("QR:5", 2, "16"))
    assert tuple(sorted(it.dim for it in family.items)) == (1, 1, 2)


def test_level_one_ambient():
    # A = Q (level 1, identity) and F_q with q = 3 mod 4 (identity) have
    # no i, which every construction case assumes: the spec is refused
    # before anything is built.  The last three once built non-minimal
    # families.
    Q1 = FieldDescriptor(CYCLOTOMIC, IDENTITY, level=1)
    F3 = FieldDescriptor(FINITE, IDENTITY, q=3, d=1)
    F7 = FieldDescriptor(FINITE, IDENTITY, q=7, d=1)
    for K, n, a in [(Q1, 3, 256), (F3, 2, 2), (F7, 3, 1), (Q1, 2, -4)]:
        with pytest.raises(ValueError, match="square root of -1"):
            AlgebraSpec(K, n, K.scalar(a))


# -- invariance properties ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["F:3", "F:5", "F:7", "Q", "QC:3", "QR:3", "QE:3"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=100),
    st.sampled_from([1, 2, 4, 16, -1, -2, -4, -16]),
    st.sampled_from([2, 3, 5]),
)
def test_scaling_by_full_powers_preserves_dims(
    field_spec, n, a_seed, c_seed, a_rational, c_rational
):
    # a and a*c^(2^n) give isomorphic algebras: g -> c^-1 * g maps
    # K[g]/(g^(2^n) - a) onto K[g]/(g^(2^n) - a*c^(2^n)), so it maps the
    # primitive idempotents of the one onto those of the other
    K = parse_field(field_spec)
    if K.kind == FINITE:
        a = K.scalar(1 + a_seed % (K.q - 1))
        c = K.scalar(1 + c_seed % (K.q - 1))
    else:
        a, c = K.scalar(a_rational), K.scalar(c_rational)
    base = build(AlgebraSpec(K, n, a), checked=False)
    spec = AlgebraSpec(K, n, a * c ** (1 << n))
    scaled = build(spec, checked=False)
    image = {
        spec.element(e_k * c**-k for k, e_k in enumerate(it.element.coeffs)): it.dim
        for it in base.items
    }
    assert image == {it.element: it.dim for it in scaled.items}


def galois(K, x, k):
    """tau(x) for the automorphism tau: zeta -> zeta^k (k odd) of the
    ambient field Q(zeta), zeta^d = -1."""
    d = K.ambient_dim
    out = [0] * d
    for j, c in enumerate(x.coeffs):
        e = j * k % (2 * d)
        out[e % d] += c if e < d else -c
    return K.element(out)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["QC:3", "QC:4", "QR:3", "QR:4", "QE:3", "QE:4"]),
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=7),
)
def test_galois_conjugate_constant_conjugates_the_family(
    field_spec, n, coords, depth, sign, j
):
    # tau commutes with the involution (the Galois group is abelian), so
    # it maps K to K and K[g]/(g^(2^n) - a) onto K[g]/(g^(2^n) - tau(a))
    # coefficient by coefficient; primitive idempotents are unique, so
    # the family of tau(a) is the image of the family of a as a set.
    # a = +-c^(2^depth) with c in K reaches every depth and coset form.
    K = parse_field(field_spec)
    d = K.ambient_dim
    k = 2 * (j % d) + 1
    x = K.element(coords[:d])
    c = x if K.involution == IDENTITY else x + sigma(K, x)
    if c.is_zero():
        c = K.one()
    a = c ** (1 << min(depth, n)) * sign
    spec = AlgebraSpec(K, n, galois(K, a, k))
    family = build(AlgebraSpec(K, n, a), checked=False)
    image = {
        spec.element(galois(K, e_k, k) for e_k in it.element.coeffs)
        for it in family.items
    }
    assert image == set(build(spec, checked=False).elements())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        ["F:3", "F:5", "F:7", "F:11", "F:13"]
        + ["Q", "QC:3", "QR:3", "QE:3", "QR:4", "QE:4"]
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([1, 2, 4, 16, 64, -1, -2, -4, -16, -64]),
)
def test_random_finite_builds_verify(field_spec, n, a_seed, a_rational):
    K = parse_field(field_spec)
    if K.kind == FINITE:
        a = K.scalar(1 + a_seed % (K.q - 1))
    else:
        a = K.scalar(a_rational)
    family = build(AlgebraSpec(K, n, a))  # checked: raises on any failure
    assert sum(it.dim for it in family.items) == 1 << n


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["QC:3", "QC:4", "QR:3", "QE:3", "QR:4", "QE:4"]),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([1, 2, 4, 16, 64, -1, -2, -4, -16, -64]),
)
def test_random_cyclotomic_builds_verify_to_depth_five(field_spec, n, a_rational):
    K = parse_field(field_spec)
    family = build(AlgebraSpec(K, n, K.scalar(a_rational)))  # checked
    assert sum(it.dim for it in family.items) == 1 << n


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(
        ["Q", "QC:3", "QC:4", "QR:3", "QR:4", "QE:3", "QE:4"]
        + ["F:3", "F:5", "F:7", "F:11", "F:13"]
    ),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([1, 2, 4, 16, 64, -1, -2, -4, -16, -64]),
)
def test_stated_min_poly_matches_gaussian_reference(field_spec, n, a_seed, a_rational):
    K = parse_field(field_spec)
    if K.kind == FINITE:
        a = K.scalar(1 + a_seed % (K.q - 1))
    else:
        a = K.scalar(a_rational)
    family = build(AlgebraSpec(K, n, a))  # checked
    for it in family.items + ambient_family(family).items:
        assert it.min_poly == min_poly_reference(it.element)
        assert it.dim == it.min_poly.degree


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["QR:3", "QE:3", "QC:3", "QC:4"]),
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        min_size=8,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1, -1]),
)
def test_non_rational_constants_build_and_verify(field_spec, n, coords, depth, sign):
    # a = +-c^(2^j) for c in K with fractional coordinates: every depth
    # and coset form, with denominators in every coordinate
    K = parse_field(field_spec)
    x = K.element(coords[: K.ambient_dim])
    c = x if K.involution == IDENTITY else x + sigma(K, x)
    if c.is_zero():
        c = K.one()
    a = c ** (1 << min(depth, n)) * sign
    family = build(AlgebraSpec(K, n, a))  # checked: raises on any failure
    assert sum(it.dim for it in family.items) == 1 << n


def sympy_degrees(n, a, **domain):
    """Sorted degrees of the irreducible factors of x^(2^n) - a."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    _, factors = sympy.factor_list(x ** (1 << n) - a, **domain)
    return sorted(f.as_poly(x).degree() for f, mult in factors for _ in range(mult))


def family_degrees(K, n, a):
    return sorted(it.dim for it in build(AlgebraSpec(K, n, a), checked=False).items)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_component_degrees_match_sympy_over_finite_fields(q):
    # an outside oracle: K_t<g> = K[x]/(x^(2^n) - a) splits as the
    # factorisation of x^(2^n) - a, one component per irreducible factor
    pytest.importorskip("sympy")
    K = parse_field(f"F:{q}")
    for n in range(5):
        for a in range(1, q):
            assert family_degrees(K, n, K.scalar(a)) == sympy_degrees(n, a, modulus=q)


@pytest.mark.parametrize("field_spec", ["Q", "QC:2", "QR:3"])
def test_component_degrees_match_sympy_over_number_fields(field_spec):
    sympy = pytest.importorskip("sympy")
    domain = {
        "Q": {},
        "QC:2": {"extension": sympy.I},
        "QR:3": {"extension": sympy.sqrt(2)},
    }[field_spec]
    K = parse_field(field_spec)
    for n in range(5):
        for a in (1, 2, -1, -4, 16, -64, 9, -3):
            assert family_degrees(K, n, K.scalar(a)) == sympy_degrees(n, a, **domain)
