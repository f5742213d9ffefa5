"""The twisted algebra K_t<g>, minimal polynomials, and irreducibility."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotwist.algebra import (
    AlgebraElement,
    AlgebraSpec,
    Poly,
    _pack,
    _unpack,
    alg_mul,
)
from cyclotwist.builder import build
from cyclotwist.fields import IDENTITY, INVERSE_CONJ, sigma, sqrt_ambient
from cyclotwist.grammar import parse_element, parse_field
from cyclotwist.oracle import certify_irreducible, verified, verify_family
from mutants import StatedItem, wrong_terms
from test_builder import (
    ambient_spec,
    galois,
    golden_instances,
    min_poly_reference,
    poly_of,
)

Q = parse_field("Q")
QR3 = parse_field("QR:3")
F5 = parse_field("F:5")


def spec_of(field_spec, n, a_literal):
    K = parse_field(field_spec)
    return AlgebraSpec(n, parse_element(K, a_literal))


# -- algebra structure --------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="nonzero"):
        AlgebraSpec(2, Q.zero())
    with pytest.raises(ValueError, match="fixed field"):
        AlgebraSpec(2, Q.element((0, 1)))
    with pytest.raises(ValueError, match="n must be"):
        AlgebraSpec(-1, Q.one())


def test_gbar_wraps_to_a():
    spec = spec_of("Q", 2, "-4")
    g = spec.gbar()
    assert g**4 == spec.scalar(Q.scalar(-4))
    assert g**5 == g * Q.scalar(-4)


def test_degenerate_rank_zero():
    # n = 0: the algebra is K itself and gbar is the scalar a
    spec = spec_of("Q", 0, "2")
    assert spec.size == 1
    assert spec.gbar() == spec.one() * Q.scalar(2)


# The fields the kernel must serve: F_5 (ambient dimension 1), F_7
# (ambient F_49, dimension 2) and the cyclotomic ambients of dimension
# 1 to 8.  Products and shifts are taken with ambient coefficients.
KERNEL_FIELDS = ["F:5", "F:7", "Q", "QC:3", "QC:4", "QR:3", "QE:3"]


def schoolbook_mul(x, y):
    """The twisted cyclic convolution term by term: the reference the
    packed product is checked against."""
    spec = x.spec
    size = spec.size
    out = [spec.field.zero()] * size
    for i, xi in enumerate(x.coeffs):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y.coeffs):
            if yj.is_zero():
                continue
            k = i + j
            if k < size:
                out[k] = out[k] + xi * yj
            else:
                out[k - size] = out[k - size] + spec.a * (xi * yj)
    return spec.element(out)


@st.composite
def ambient_elements(draw, K):
    """Ambient elements with negative coordinates, mixed denominators
    and numerators up to about 5^64 (k*5^e + j for small k and j)."""
    if K.q:
        coord = st.integers(-K.q, 2 * K.q)
    else:
        small = st.integers(-9, 9)
        coord = st.builds(
            lambda k, e, j, den: Fraction(k * 5**e + j, den),
            small,
            st.sampled_from([0, 1, 16, 64]),
            small,
            st.sampled_from([1, 2, 3, 7, 5**30, 2**40 * 3]),
        )
    dim = K.ambient_dim
    return K.element(draw(st.lists(coord, min_size=dim, max_size=dim)))


@st.composite
def kernel_specs(draw, max_n=4):
    K = parse_field(draw(st.sampled_from(KERNEL_FIELDS)))
    n = draw(st.integers(min_value=0, max_value=max_n))
    # c + sigma(c) lies in K; its coordinates carry denominators too
    c = draw(ambient_elements(K))
    a = c + sigma(c)
    return AlgebraSpec(n, a if a else K.one())


@st.composite
def coefficient_lists(draw, spec):
    """2^n ambient coefficients: dense, on every 2^j-th power of g, a
    single monomial, or zero."""
    K = spec.field
    support = draw(st.sampled_from(["dense", "lattice", "monomial", "zero"]))
    if support == "zero":
        on = set()
    elif support == "monomial":
        on = {draw(st.integers(0, spec.size - 1))}
    else:
        step = 1 if support == "dense" else 1 << draw(st.integers(0, spec.n))
        on = set(range(0, spec.size, step))
    return [
        draw(ambient_elements(K)) if k in on else K.zero() for k in range(spec.size)
    ]


def algebra_elements(spec):
    return coefficient_lists(spec).map(spec.element)


def operand_pairs(spec):
    return st.tuples(algebra_elements(spec), algebra_elements(spec))


# n = 0, where M = 1 and nothing wraps; and an a with a denominator, on
# dense operands over QR:3 whose product wraps at every power of g
_N0 = spec_of("Q", 0, "-2/3")
_QR3 = spec_of("QR:3", 2, "1/6,5/7,0,-5/7")


@settings(max_examples=60, deadline=None)
@given(kernel_specs().flatmap(operand_pairs))
@example((_N0.scalar(Fraction(5, 7)), _N0.scalar(-3)))
@example(
    (
        _QR3.element([QR3.element((k, Fraction(1, k + 2), 0, -k)) for k in range(4)]),
        _QR3.element([QR3.element((Fraction(3, 5), k, -1, 2)) for k in range(4)]),
    )
)
def test_packed_product_matches_schoolbook(operands):
    x, y = operands
    assert x * y == schoolbook_mul(x, y)
    assert x * x == schoolbook_mul(x, x)


@pytest.mark.parametrize("width", range(1, 11))
def test_slot_packing_round_trips_at_every_width(width):
    # every slot is its own width-byte int, from one byte to past eight
    half = 1 << (8 * width - 1)
    vals = [0, 1, -1, half - 1, -(half - 1), half // 3, -(half // 5)] * 3
    for d in (1, 3):
        stride = 2 * d - 1
        digits = _unpack(_pack(vals, d, width), len(vals) // d * stride, width)
        rows = [digits[b : b + stride] for b in range(0, len(digits), stride)]
        assert [v for row in rows for v in row[:d]] == vals
        assert not any(v for row in rows for v in row[d:])  # the padding


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_shift_is_the_product_by_a_monomial(data):
    spec = data.draw(kernel_specs())
    x = data.draw(algebra_elements(spec))
    for k in range(3 * spec.size):
        g_k = spec.gbar(k)
        assert g_k * x == schoolbook_mul(g_k, x) == x * g_k


# The storage the flat tuples replaced: one ambient element per power
# of g, every operation taken coefficient by coefficient.


def reference_in_k(K, x):
    """Is x fixed by the involution, computed from its definition."""
    if K.involution == IDENTITY:
        return True
    if K.q:  # Frobenius on F_q[i]: i -> -i
        return x.coeffs[1] == 0
    d = K.ambient_dim  # zeta -> zeta^-1, or zeta -> -zeta^-1 = zeta^(d-1)
    return galois(K, x, 2 * d - 1 if K.involution == INVERSE_CONJ else d - 1) == x


def reference_shift(spec, coeffs, k):
    wraps, r = divmod(k, spec.size)
    low = spec.a**wraps
    high = low * spec.a
    cut = spec.size - r
    return [c * high for c in coeffs[cut:]] + [c * low for c in coeffs[:cut]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flat_storage_matches_the_coefficient_reference(data):
    spec = data.draw(kernel_specs())
    K = spec.field
    xs = data.draw(coefficient_lists(spec))
    ys = data.draw(coefficient_lists(spec))
    c = data.draw(ambient_elements(K))
    k = data.draw(st.integers(0, 3 * spec.size))
    x, y = spec.element(xs), spec.element(ys)
    assert x.coeffs == tuple(xs) and spec.element(x.coeffs) == x
    assert (x + y).coeffs == tuple(u + v for u, v in zip(xs, ys))
    assert (x - y).coeffs == tuple(u - v for u, v in zip(xs, ys))
    assert (-x).coeffs == tuple(-u for u in xs)
    for f in (c, K.one(), K.element([1] * K.ambient_dim)):
        assert (x * f).coeffs == tuple(f * u for u in xs)
    assert (spec.gbar(k) * x).coeffs == tuple(reference_shift(spec, xs, k))
    unit = [K.one()] + [K.zero()] * (spec.size - 1)
    assert spec.gbar(k).coeffs == tuple(reference_shift(spec, unit, k))
    assert x.is_zero() == all(u.is_zero() for u in xs)
    assert x.is_k_rational() == all(reference_in_k(K, u) for u in xs)
    # an element of K_t<g> whose coefficients lie in K
    z = x + spec.element(sigma(u) for u in xs)
    assert z.is_k_rational()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equal_elements_over_other_denominators_are_equal(data):
    # numerators and denominator multiplied by the same unit k (mod q
    # over F_q) store the same element
    spec = data.draw(kernel_specs())
    x = data.draw(algebra_elements(spec))
    k = data.draw(st.sampled_from([-1, 2, -3, 7, 5**20, -(2**70)]))
    if spec.field.q and k % spec.field.q == 0:
        k += 1
    y = AlgebraElement(spec, [v * k for v in x.ints], x.den * k)
    assert y == x and hash(y) == hash(x)
    assert (y.ints, y.den) == (x.ints, x.den)
    assert y.den > 0 and (not spec.field.q or y.den == 1)


def test_flat_constructor_refuses_non_integers():
    spec = spec_of("Q", 1, "2")
    with pytest.raises(TypeError):
        AlgebraElement(spec, [Fraction(1, 2), 0, 0, 0])
    with pytest.raises(ValueError, match="coordinates"):
        AlgebraElement(spec, [1, 0, 0])


def test_gbar_refuses_negative_exponents():
    spec = spec_of("Q", 2, "2")
    with pytest.raises(ValueError, match="exponent"):
        spec.gbar(-1)


TWO_ALGEBRAS = (spec_of("Q", 1, "2"), spec_of("Q", 1, "3"))

# refusals of malformed operands and inputs, each as its own message
REFUSALS = {
    "coerce across algebras": (
        lambda: TWO_ALGEBRAS[0].coerce(TWO_ALGEBRAS[1].one()),
        ValueError,
        "operands live in different algebras",
    ),
    "alg_mul across algebras": (
        lambda: alg_mul(TWO_ALGEBRAS[0].one(), TWO_ALGEBRAS[1].one()),
        ValueError,
        "operands live in different algebras",
    ),
    "str coefficient": (
        lambda: TWO_ALGEBRAS[0].element(["x", 1]),
        TypeError,
        "cannot use str as a field element",
    ),
    "zero denominator": (
        lambda: AlgebraElement(TWO_ALGEBRAS[0], [0] * 4, 0),
        ZeroDivisionError,
        "zero denominator",
    ),
    "constant polynomial": (
        lambda: certify_irreducible(Poly(((0, Q.one()),))),
        ValueError,
        "constants have no irreducibility",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_malformed_input_is_refused_with_its_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{message}$"):
        call()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_powers_are_repeated_products(data):
    spec = data.draw(kernel_specs(max_n=3))
    c = data.draw(ambient_elements(spec.field))
    x = data.draw(algebra_elements(spec))
    for y in (c, x):
        product = y.owner.one()
        for e in range(7):
            assert y**e == product
            product = product * y
    if c:
        product = c.inverse()
        for e in range(1, 7):
            assert c**-e == product
            product = product * c.inverse()
    with pytest.raises(TypeError):
        x**-1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_multiplication_laws(data):
    spec = data.draw(kernel_specs(max_n=3))
    x, y, z = (data.draw(algebra_elements(spec)) for _ in range(3))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * spec.one() == x


# -- the element protocol, shared by field and algebra elements ----------------

PROTOCOL_ELEMENTS = {
    "Q": Q.scalar(Fraction(3, 2)),
    "QR:3": QR3.element((Fraction(1, 3), 1, 0, -1)),
    "F:5": F5.scalar(3),
    "F:7": parse_field("F:7").element((2, 5)),
    "Q 2 -4": spec_of("Q", 2, "-4").element(
        [Fraction(1, 2), Fraction(-1, 4), 0, Fraction(1, 8)]
    ),
    "F:5 2 2": spec_of("F:5", 2, "2").gbar(1) + 3,
    "QR:3 1 2": spec_of("QR:3", 1, "2").element([QR3.zeta_pow(3), Fraction(2, 7)]),
}


@pytest.mark.parametrize("x", PROTOCOL_ELEMENTS.values(), ids=PROTOCOL_ELEMENTS.keys())
def test_element_protocol(x):
    for name in ("owner", "ints", "den", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    one = x.owner.one()
    assert x + 1 == 1 + x == x + one
    assert (x + 1) - x == 1 and x != x + 1
    assert 1 - x == one - x == -(x - 1)
    assert -(-x) == x and not (x + -x) and (x - x).is_zero()
    rebuilt = (x + x) - x
    assert rebuilt is not x and rebuilt == x and hash(rebuilt) == hash(x)
    for op in (lambda: x + "a", lambda: x**1.5):  # no number: declined
        with pytest.raises(TypeError):
            op()
    # x == y implies hash(x) == hash(y), across kinds and with numbers
    # (over F_q only a residue in 0..q-1 shares its element's hash)
    K = x.field
    algebra = AlgebraSpec(1, K.one())
    pool = [x, rebuilt, -x, x + 1, one, 0, 1, 3, K.zero(), K.one(), K.scalar(3)]
    pool += [K.zeta_pow(1), algebra.one(), algebra.scalar(K.zeta_pow(1))]
    if x.owner is K:
        pool.append(algebra.scalar(x))
    if not K.q:
        pool += [Fraction(3, 2), -1, algebra.scalar(Fraction(3, 2))]
    for u, v in itertools.product(pool, repeat=2):
        if u == v:
            assert hash(u) == hash(v), (u, v)


@pytest.mark.parametrize(
    "field_spec, n, a, other_a",
    [("Q", 2, "-4", "2"), ("F:7", 1, "1", "6"), ("QR:3", 2, "-1", "2")],
)
def test_mixed_comparisons(field_spec, n, a, other_a):
    spec = spec_of(field_spec, n, a)
    K = spec.field
    assert spec.one() == K.one() and K.one() == spec.one()
    assert spec.one() == 1 and K.one() == 1
    assert len({spec.one(), K.one(), 1}) == 1
    i = K.zeta_pow(1)
    assert spec.scalar(i) == i and hash(spec.scalar(i)) == hash(i)
    assert spec.gbar(1) != K.one() and K.one() != spec.gbar(1)
    # elements of two different algebras are unequal, even with equal
    # coordinates, and comparing them raises nothing
    bigger, twisted = spec_of(field_spec, n + 1, a), spec_of(field_spec, n, other_a)
    for other in (bigger, twisted):
        assert (spec.one() == other.one()) is False
        assert spec.one() != other.one()
    assert twisted.zero().ints == spec.zero().ints and spec.zero() != twisted.zero()
    # so are a field and an algebra element over two different fields
    x, y = spec.scalar(3), F5.scalar(3)
    assert x != y and y != x and len({x, y}) == 2


# -- minimal polynomials -------------------------------------------------------


def test_min_poly_of_identity_component():
    # x^4 - 2 is irreducible over Q: one component, cut out by 1
    family = build(spec_of("Q", 2, "2"))
    verified(family, family.elements)
    [item] = family.items
    assert list(family.elements()) == [family.spec.one()]
    assert item.dim == 4
    assert str(item.min_poly) == "x^4 - 2"


def test_min_poly_golden_quartic_split():
    # x^4 + 4 splits as (x^2 + 2x + 2)(x^2 - 2x + 2); the two components
    # are cut out by e = 1/2 -+ (g/4 - g^3/8)
    spec = spec_of("Q", 2, "-4")
    family = build(spec)
    verified(family, family.elements)
    half, quarter, eighth = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    assert list(family.elements()) == [
        spec.element([half, -quarter, 0, eighth]),
        spec.element([half, quarter, 0, -eighth]),
    ]
    assert [str(it.min_poly) for it in family.items] == [
        "x^2 + 2*x + 2",
        "x^2 - 2*x + 2",
    ]


def test_min_poly_refuses_non_rational_component():
    # e = (1 - i*g^2)/2 is idempotent in Q_t<g> with a = -1, but its
    # component is cut out over Q(i) only: (g*e)^2 = i*e there.
    spec = spec_of("Q", 2, "-1")
    i = Q.element((0, 1))
    half = Q.scalar(Fraction(1, 2))
    e = spec.element([half, Q.zero(), -i * half, Q.zero()])
    assert e * e == e
    with pytest.raises(ValueError, match="K-rational component"):
        min_poly_reference(e)
    # stated as a family item with x^2 - i (e is the character sum of
    # c = -i on the powers of g^2), verification rejects it: a stand-in,
    # as the constants (2, -i) state x^4 + 1
    family = build(spec)
    item = StatedItem((0,), 2, -i, 2, poly_of((-i, Q.zero(), Q.one())))
    report = verify_family(family._replace(items=(item,)), [e].__iter__)
    [check] = report.item_checks
    assert check.idempotent and check.min_poly_annihilates
    assert not check.k_rational and not check.min_poly_k_rational
    assert not check.primitive and not report.ok


def test_poly_is_monic_only():
    with pytest.raises(ValueError):
        poly_of((Q.one(), Q.scalar(2)))  # 2x + 1 is not monic


@pytest.mark.parametrize(
    "terms, message",
    [
        ((), "empty"),
        (((2, Q.one()), (0, Q.scalar(3))), "increasing"),  # unsorted
        (((0, Q.scalar(3)), (0, Q.one())), "increasing"),  # repeated
        (((0, Q.scalar(3)), (1, Q.zero()), (2, Q.one())), "zero coefficient"),
        (((0, Q.scalar(3)), (2, Q.scalar(2))), "monic"),
    ],
)
def test_poly_refuses_malformed_terms(terms, message):
    with pytest.raises(ValueError, match=message):
        Poly(terms)


def test_poly_rendering_with_vector_coefficients():
    z = QR3.zeta_pow(1)
    root2 = z + z**-1
    p = poly_of((root2, QR3.one()))
    assert str(p) == "x + (0,1,0,-1)"


# -- irreducibility certificates ----------------------------------------------


def binomial(K, degree, c):
    """x^degree - c over K."""
    return poly_of((K.scalar(-c),) + (K.zero(),) * (degree - 1) + (K.one(),))


def over_a(K):
    """The ambient field A of K, as a field with the trivial involution."""
    return replace(K, involution=IDENTITY)


# Over K = A the certificate is Capelli's square test: Q(i) for Q, F_9
# and F_49 for F:3 and F:7, F_5 itself for F:5.
@pytest.mark.parametrize(
    "c, degree, irreducible",
    [
        (-16, 4, False),  # x^4 + 16 = (x^2 - 4i)(x^2 + 4i)
        (-4, 4, False),  # x^4 + 4 = (x^2 - 2i)(x^2 + 2i)
        (16, 4, False),  # x^4 - 16 = (x^2-4)(x^2+4)
        (2, 4, True),  # x^4 - 2
        (2, 8, True),  # x^8 - 2
        (-1, 2, False),  # x^2 + 1 = (x - i)(x + i)
        (4, 2, False),
    ],
)
def test_binomial_criterion_over_q(c, degree, irreducible):
    A = over_a(Q)
    assert certify_irreducible(binomial(A, degree, c)) == irreducible


# Over K = Q the certificate descends from A = Q(i): x^D - c is
# irreducible when c is no square in Q(i), and otherwise iff c = d^2
# with d not in Q and either D = 2 or d no square in Q(i).
@pytest.mark.parametrize(
    "c, degree, irreducible",
    [
        (-16, 4, True),  # d = 4i, no square in Q(i)
        (-4, 4, False),  # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2): 2i = (1+i)^2
        (-64, 4, False),  # x^4 + 64 = (x^2 - 4x + 8)(x^2 + 4x + 8)
        (16, 4, False),  # d = 4 lies in Q
        (2, 4, True),  # 2 is no square in Q(i)
        (-1, 2, True),  # x^2 + 1: d = i, and D = 2
        (-1, 4, True),  # x^4 + 1: i is no square in Q(i)
        (4, 2, False),
    ],
)
def test_quadratic_descent_over_q(c, degree, irreducible):
    assert certify_irreducible(binomial(Q, degree, c)) == irreducible


def test_binomial_criterion_depends_on_field():
    # x^2 + 1 splits over Q(i) but not over Q; x^2 - 2 stays
    # irreducible over Q and Q(i), but splits over K = Q(sqrt(2)) of QR:3
    QI = over_a(Q)
    assert not certify_irreducible(binomial(QI, 2, -1))
    assert certify_irreducible(binomial(Q, 2, -1))
    assert certify_irreducible(binomial(Q, 2, 2))
    assert certify_irreducible(binomial(QI, 2, 2))
    assert not certify_irreducible(binomial(QR3, 2, 2))


@pytest.mark.parametrize(
    "qspec, c, irreducible",
    [("F:3", -1, False), ("F:5", -1, False), ("F:5", 2, True), ("F:7", -1, False)],
)
def test_binomial_criterion_finite(qspec, c, irreducible):
    A = over_a(parse_field(qspec))
    assert certify_irreducible(binomial(A, 2, c)) == irreducible


def test_certify_binomials_over_the_ambient_field():
    QC2 = parse_field("QC:2")  # A = Q(i)
    linear = poly_of((QC2.scalar(7), QC2.one()))
    assert certify_irreducible(linear) is True
    x2_minus_3 = poly_of((QC2.scalar(-3), QC2.zero(), QC2.one()))
    assert certify_irreducible(x2_minus_3) is True
    x4_plus_4 = poly_of((QC2.scalar(4),) + (QC2.zero(),) * 3 + (QC2.one(),))
    assert certify_irreducible(x4_plus_4) is False  # -4 = (2i)^2
    # over Q the certificate speaks about K: x^2 + 1 splits over A = Q(i)
    # but not over Q
    x2_plus_1 = poly_of((Q.scalar(1), Q.zero(), Q.one()))
    assert certify_irreducible(x2_plus_1) is True


def stated(K, S, beta, gamma):
    """x^(2S) + beta*x^S + gamma over K, from integers."""
    gap = (K.zero(),) * (S - 1)
    return poly_of((K.scalar(gamma), *gap, K.scalar(beta), *gap, K.one()))


def irreducible_mod(coeffs, q):
    """Is the monic polynomial with these integer coefficients (low
    degree first) irreducible over F_q?  By trial division by every
    monic polynomial of at most half its degree."""
    D = len(coeffs) - 1
    for k in range(1, D // 2 + 1):
        for tail in itertools.product(range(q), repeat=k):
            rem = [c % q for c in coeffs]
            for top in range(D, k - 1, -1):  # divide by x^k + tail
                f = rem[top]
                for j, t in enumerate(tail):
                    rem[top - k + j] = (rem[top - k + j] - f * t) % q
                rem[top] = 0
            if not any(rem):
                return False
    return True


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.sampled_from([1, 2]),
    st.integers(0, 12),
    st.integers(0, 12),
)
def test_certificate_is_exact_over_finite_fields(q, S, beta, gamma):
    # Over F_q with q = 3 mod 4 every discriminant is a square in
    # A = F_q^2, so the certificate decides every binomial and every
    # x^(2S) + beta*x^S + gamma; over F_q with q = 1 mod 4 (K = A) it
    # decides the binomials and has no certificate for the rest.
    K = parse_field(f"F:{q}")
    p = stated(K, S, beta % q, gamma % q)
    got = certify_irreducible(p)
    if K.involution == IDENTITY and beta % q:
        assert got is False
    else:
        coeffs = [0] * (p.degree + 1)
        for k, c in p.terms:
            coeffs[k] = c.ints[0]
        assert got == irreducible_mod(coeffs, q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.integers(-12, 12), st.integers(-40, 40))
def test_certificate_over_q_matches_sympy(S, beta, gamma):
    # exact on binomials and wherever the discriminant is a square in
    # Q(i), i.e. +-r^2; a definite False everywhere else
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    got = certify_irreducible(stated(Q, S, beta, gamma))
    disc = abs(beta * beta - 4 * gamma)
    if beta and sympy.sqrt(disc).is_rational is False:
        assert got is False
    else:
        p = x ** (2 * S) + beta * x**S + gamma
        assert got == sympy.Poly(p, x).is_irreducible


def test_certify_non_binomial_is_a_definite_false():
    # x^2 + x + 1 is irreducible over Q(i), but it is no binomial, and
    # over A no component's minimal polynomial may be anything else
    QC2 = parse_field("QC:2")
    p = poly_of((QC2.one(), QC2.one(), QC2.one()))
    assert certify_irreducible(p) is False
    p = poly_of((F5.scalar(2), F5.one(), F5.one()))
    assert certify_irreducible(p) is False


def certify_reference(K, poly):
    """The certificate as it was stated with two square roots: a root of
    the discriminant beta^2 - 4*gamma (an integer 4), halved by the
    integer 2, and a second root for the last test."""
    D = poly.degree
    if D == 1:
        return True
    S = D // 2
    c = dict(poly.terms)
    if D & (D - 1) or c.keys() - {0, S, D}:
        return False
    beta, gamma = c.get(S, K.zero()), c.get(0, K.zero())
    if not all(c.is_k_rational() for _, c in poly.terms):
        return False
    delta = sqrt_ambient(beta * beta - 4 * gamma)
    if delta is None:
        return not beta
    root = (delta - beta) / 2
    return not root.is_k_rational() and (S == 1 or sqrt_ambient(root) is None)


@pytest.mark.parametrize("field_spec, n, a", golden_instances(), ids=" ".join)
def test_certificate_agrees_with_two_square_roots(field_spec, n, a):
    # on every stated polynomial, over K and over A, and on its mutants
    family = build(spec_of(field_spec, int(n), a))
    for fam in (family, build(ambient_spec(family.spec))):
        K = fam.spec.field
        for it in fam.items:
            for p in [it.min_poly, *wrong_terms(it.min_poly)]:
                assert certify_irreducible(p) == certify_reference(K, p), str(p)
