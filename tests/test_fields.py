"""Ambient field arithmetic: cyclotomic towers and F_q / F_q[i]."""

import itertools
import random
import time
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotwist.algebra import AlgebraElement, AlgebraSpec
from cyclotwist.classify import h_n, ks_decompose, ks_membership
from cyclotwist.fields import (
    IDENTITY,
    INVERSE_CONJ,
    LEVEL_BOUND,
    NEGATED_INVERSE_CONJ,
    POWER_TEST_CAP,
    PRIME_TEST_BOUND,
    AmbientError,
    FieldDescriptor,
    _fin_nonresidue,
    _v2,
    _down_norm,
    _interleave,
    _inverse_coords,
    _is_prime,
    combine_coords,
    eps,
    interned,
    is_square,
    negate_coords,
    norm,
    reduce_coords,
    require_i,
    root_chain,
    times_coords,
    sigma,
    sqrt_ambient,
    squarings,
)
from cyclotwist.grammar import parse_field

Q = parse_field("Q")
QC2 = FieldDescriptor(IDENTITY, 2)
QC3 = parse_field("QC:3")
QR3 = parse_field("QR:3")
QE3 = parse_field("QE:3")
F5 = parse_field("F:5")
F7 = parse_field("F:7")


def small_fractions():
    return st.fractions(
        min_value=-9, max_value=9, max_denominator=6
    )


def elements_of(K):
    if not K.q:
        coord = small_fractions()
    else:
        coord = st.integers(min_value=0, max_value=K.q - 1)
    return st.tuples(*[coord] * K.ambient_dim).map(K.element)


# -- descriptor validation -------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(involution=IDENTITY, level=0), "level must be >= 1"),
        (dict(involution=INVERSE_CONJ, level=1), "level >= 2"),
        (dict(involution=NEGATED_INVERSE_CONJ, level=2), "level >= 3"),
        (dict(involution=IDENTITY, level=3, q=7), "finite level must be 1 or 2"),
        (dict(involution=IDENTITY, level=1, q=9), "odd prime"),
        (dict(involution=IDENTITY, level=1, q=2), "odd prime"),
        (dict(involution=IDENTITY, level=2, q=5), "q = 3 mod 4"),
        (dict(involution=NEGATED_INVERSE_CONJ, level=3, q=7), "finite level"),
        (dict(involution=NEGATED_INVERSE_CONJ, level=2, q=7), "level >= 3"),
        (dict(involution=IDENTITY, level=17), "at most 16"),
        (dict(involution=INVERSE_CONJ, level=30), "at most 16"),
        (dict(involution=IDENTITY, level=17, q=7), "at most 16"),
        (dict(involution="frobenius", level=2, q=7), "involution must be"),
    ],
)
def test_descriptor_validation(kwargs, message):
    with pytest.raises(AmbientError, match=message):
        FieldDescriptor(**kwargs)


def test_level_bound_is_the_power_test_cap():
    assert LEVEL_BOUND == 16
    assert FieldDescriptor(IDENTITY, 16).ambient_dim == 1 << 15


def test_ambient_dimensions():
    assert Q.ambient_dim == 2
    assert QC3.ambient_dim == 4
    assert F5.ambient_dim == 1
    assert F7.ambient_dim == 2


# -- cyclotomic arithmetic --------------------------------------------------


def test_zeta_relation():
    # zeta^(2^(L-1)) = -1 in every level, mod q too
    for K in (QC2, Q, QC3, QR3, QE3, F5, F7):
        z = K.zeta_pow(1)
        half = K.ambient_dim
        assert z**half == -K.one()
        assert z ** (2 * half) == K.one()


def test_sqrt2_lives_in_level3():
    # (zeta + zeta^-1)^2 = 2 for zeta of order 8
    z = QR3.zeta_pow(1)
    root2 = z + z**-1
    assert root2 * root2 == QR3.scalar(2)
    assert root2.is_k_rational()


def test_inverse_and_division():
    x = QC3.element((Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3)))
    assert x * x.inverse() == QC3.one()
    assert (x / x) == QC3.one()
    with pytest.raises(ZeroDivisionError):
        QC3.zero().inverse()


def inverse_descent_reference(x, q):
    """(nums, nrm) with x * nums = nrm by descent through the quadratic
    tower alone, as ``_inverse_coords`` does for all but monomials."""
    if len(x) == 1:
        return [1], x[0]
    u, v = x[0::2], x[1::2]
    nums, nrm = inverse_descent_reference(_down_norm(u, v, q), q)
    minus_v = [-t for t in v]
    return _interleave(times_coords(u, nums, q), times_coords(minus_v, nums, q)), nrm


MONOMIAL_FIELDS = [FieldDescriptor(IDENTITY, L) for L in range(1, 7)]
MONOMIAL_FIELDS += [parse_field(f"F:{q}") for q in (3, 7, 11, 19)]  # F_q[i]


def _monomial_id(K):
    # F_q[i] is F_{q^2}, where inverse_conj (i -> -i = i^q) is the Frobenius
    return f"finite(q={K.q}, d=2, frobenius)" if K.q else str(K)


@pytest.mark.parametrize("K", MONOMIAL_FIELDS, ids=_monomial_id)
def test_monomial_inverse_matches_the_descent(K):
    # c * zeta^k is inverted in closed form
    d, q = K.ambient_dim, K.q
    for c in (1, 2, -3, 7):
        if q and c % q == 0:
            continue
        for k in range(d):
            x = [0] * d
            x[k] = c % q if q else c
            got = reduce_coords(K, *_inverse_coords(x, q))
            assert got == reduce_coords(K, *inverse_descent_reference(x, q))
            assert K.element(x) * K.element(got[0]) / got[1] == K.one()


def test_sqrt_canonical_sign():
    # sqrt(2i) over Q(i) is -1-i: of +-(1+i) the lex-smaller vector wins
    two_i = Q.element((0, 2))
    r = sqrt_ambient(two_i)
    assert r is not None
    assert r.coeffs == (-1, -1)
    assert r * r == two_i


def test_sqrt_none_when_absent():
    assert sqrt_ambient(Q.scalar(2)) is None  # sqrt(2) is not in Q(i)
    assert sqrt_ambient(QC3.scalar(2)) is not None


@settings(max_examples=40, deadline=None)
@given(elements_of(QC3))
def test_cyclotomic_sqrt_of_squares(x):
    r = sqrt_ambient(x * x)
    assert r is not None and r * r == x * x
    assert min(r.coeffs, (-r).coeffs) == r.coeffs


# -- the square test -----------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 19, 23])
def test_is_square_is_sqrt_found_on_every_finite_element(q):
    # F_q itself, and F_q[i] where q = 3 mod 4
    fields = [FieldDescriptor(IDENTITY, 1, q)]
    if q % 4 == 3:
        fields.append(parse_field(f"F:{q}"))
    for K in fields:
        for x in K.iter_ambient():
            assert is_square(x) == (sqrt_ambient(x) is not None), x


# Q itself and Q(zeta) up to level 4, where zeta is no square: A holds no
# primitive 2^(L+1)-th root of unity
CYCLOTOMIC_LEVELS = [FieldDescriptor(IDENTITY, L) for L in (1, 2, 3, 4)]


def _square_test_agrees(K, x):
    zeta = K.zeta_pow(1)
    for y in (x, x * x, x * x * zeta):
        assert is_square(y) == (sqrt_ambient(y) is not None), y
    assert is_square(x * x)
    assert x.is_zero() or not is_square(x * x * zeta)


@pytest.mark.parametrize("K", CYCLOTOMIC_LEVELS[:3], ids=lambda K: f"level {K.level}")
def test_is_square_is_sqrt_found_on_small_cyclotomic_elements(K):
    for coords in itertools.product(range(-2, 3), repeat=K.ambient_dim):
        _square_test_agrees(K, K.element(coords))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_square_is_sqrt_found_over_cyclotomic_fields(data):
    K = data.draw(st.sampled_from(CYCLOTOMIC_LEVELS))
    _square_test_agrees(K, data.draw(elements_of(K)))


NEEDS_AN_ELEMENT = {
    "AlgebraSpec": lambda x: AlgebraSpec(2, x),
    "h_n": lambda x: h_n(x, 2),
    "ks_decompose": lambda x: ks_decompose(x, 2),
    "ks_membership": lambda x: ks_membership(x, 2),
    "root_chain": lambda x: root_chain(x, 2),
    "sigma": sigma,
    "norm": norm,
    "sqrt_ambient": sqrt_ambient,
    "is_square": is_square,
}


@pytest.mark.parametrize("entry", sorted(NEEDS_AN_ELEMENT))
@pytest.mark.parametrize("x", [-4, Fraction(1, 2)], ids=["int", "Fraction"])
def test_a_number_is_refused_where_an_element_is_required(entry, x):
    # a number names no field: one refusal, not an AttributeError
    name = type(x).__name__
    with pytest.raises(AmbientError, match=f"^expected a field element, not {name}$"):
        NEEDS_AN_ELEMENT[entry](x)


NEEDS_A_DEPTH = {
    "AlgebraSpec": lambda n: AlgebraSpec(n, Q.scalar(4)),
    "h_n": lambda n: h_n(Q.scalar(4), n),
    "ks_decompose": lambda n: ks_decompose(Q.scalar(4), n),
    "ks_membership": lambda n: ks_membership(Q.scalar(4), n),
}


@pytest.mark.parametrize("entry", sorted(NEEDS_A_DEPTH))
def test_a_depth_that_is_no_int_is_refused_up_front(entry):
    for n, name in [(2.0, "float"), (Fraction(2), "Fraction"), ("2", "str")]:
        with pytest.raises(TypeError, match=f"must be an int, not {name}"):
            NEEDS_A_DEPTH[entry](n)
    for n in (-1, POWER_TEST_CAP + 1):
        with pytest.raises(ValueError, match=rf"must be in \[0, {POWER_TEST_CAP}\]"):
            NEEDS_A_DEPTH[entry](n)


def test_a_field_without_i_is_refused_in_one_message():
    Q1 = FieldDescriptor(IDENTITY, 1)
    assert Q1.root_level < 2 <= Q.root_level
    require_i(Q, "anything")  # i is in Q(i)
    for needs in ("the construction", "the square test"):
        want = f"the ambient field has no square root of -1; {needs} needs i in A"
        with pytest.raises(ValueError) as refused:
            require_i(Q1, needs)
        assert str(refused.value) == want


# -- the integer form against a Fraction schoolbook reference ------------------


def schoolbook_times(x, y, q):
    """x*y on coordinate tuples (Fractions, or residues mod q), zeta^d = -1."""
    d = len(x)
    out = [0] * d
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if i + j < d:
                out[i + j] += xi * yj
            else:
                out[i + j - d] -= xi * yj
    return tuple(v % q for v in out) if q else tuple(Fraction(v) for v in out)


def schoolbook_inverse(x, q):
    """1/x by Gauss-Jordan elimination on the matrix of multiplication
    by x, solved for the unit vector 1."""
    d = len(x)
    units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    cols = [schoolbook_times(x, unit, q) for unit in units]
    rows = [[cols[j][i] for j in range(d)] + [int(i == 0)] for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        inv = pow(rows[c][c], -1, q) if q else 1 / Fraction(rows[c][c])
        rows[c] = [v * inv % q if q else v * inv for v in rows[c]]
        for r in range(d):
            f = rows[r][c]
            if r != c and f:
                pairs = zip(rows[r], rows[c])
                rows[r] = [(u - f * v) % q if q else u - f * v for u, v in pairs]
    return tuple(row[d] for row in rows)


REFERENCE_FIELDS = [FieldDescriptor(IDENTITY, L) for L in range(1, 7)]
REFERENCE_FIELDS += [parse_field(f"F:{q}") for q in (3, 5, 7, 11, 13, 19)]


def sparse_elements_of(K):
    """Elements with about half their coordinates zero, so that level-6
    references stay cheap."""
    if not K.q:
        coord = st.one_of(st.just(0), small_fractions())
    else:
        coord = st.integers(min_value=0, max_value=K.q - 1)
    return st.tuples(*[coord] * K.ambient_dim)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_integer_form_agrees_with_fraction_schoolbook(data):
    K = data.draw(st.sampled_from(REFERENCE_FIELDS))
    xs = data.draw(sparse_elements_of(K))
    ys = data.draw(sparse_elements_of(K))
    x, y = K.element(xs), K.element(ys)
    q = K.q
    ref_x = tuple(Fraction(c) for c in xs) if not q else tuple(c % q for c in xs)
    ref_y = tuple(Fraction(c) for c in ys) if not q else tuple(c % q for c in ys)
    assert (x * y).coeffs == schoolbook_times(ref_x, ref_y, q)
    if x.is_zero():
        return
    inv = x.inverse()
    one = K.one().coeffs
    assert schoolbook_times(ref_x, inv.coeffs, q) == one
    if K.ambient_dim <= 16:  # Gauss-Jordan on Fractions takes 0.3 s at d = 32
        assert inv.coeffs == schoolbook_inverse(ref_x, q)
    square = x * x
    r = sqrt_ambient(square)
    assert r is not None and r in (x, -x)
    # the top 2-power root of unity is no square, so neither is x^2 times it
    assert sqrt_ambient(square * eps(K, K.root_level)) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equal_elements_from_other_denominators_are_equal(data):
    K = data.draw(st.sampled_from(REFERENCE_FIELDS))
    xs = data.draw(sparse_elements_of(K))
    w = K.element(data.draw(sparse_elements_of(K)))
    m = data.draw(st.sampled_from([2, 3, 5**7, -6, 2**70 + 1]))
    if K.q and m % K.q == 0:
        m += 1
    x = K.element(xs)
    rebuilt = K.element(c * m for c in xs) / m
    for y in (rebuilt, (x + w) - w, x * m * K.scalar(m).inverse()):
        assert y == x and hash(y) == hash(x)
        assert (y.ints, y.den) == (x.ints, x.den)
    assert x.den > 0 and (not K.q or x.den == 1)
    # .coeffs is the boundary view, and it round-trips
    if not K.q:
        assert x.coeffs == tuple(Fraction(c) for c in xs)
    else:
        assert x.coeffs == tuple(c % K.q for c in xs)
    assert K.element(x.coeffs) == x


# refusals of malformed operands, each as its own message
FIELD_REFUSALS = {
    "coordinate count": (lambda: Q.element((1, 2, 3)), "expected 2 coordinates, got 3"),
    "fields differ": (lambda: Q.one() + QC3.one(), "operands live in different fields"),
    "infinite field": (
        lambda: next(Q.iter_ambient()),
        "cannot enumerate an infinite field",
    ),
}


@pytest.mark.parametrize("case", FIELD_REFUSALS)
def test_malformed_field_input_is_refused_with_its_message(case):
    call, message = FIELD_REFUSALS[case]
    with pytest.raises(AmbientError, match=f"^{message}$"):
        call()


def test_inexact_numbers_are_refused():
    with pytest.raises(AmbientError, match="float"):
        Q.scalar(0.1)
    with pytest.raises(AmbientError, match="float"):
        Q.element((1.5, 0))
    with pytest.raises(AmbientError, match="float"):
        Q.element((Fraction(3, 2), 1.5))
    with pytest.raises(AmbientError, match="Decimal"):
        QC3.scalar(Decimal(1))
    with pytest.raises(AmbientError, match="Fraction"):
        F7.element((Fraction(1, 2), 0))
    with pytest.raises(AmbientError, match="float"):
        Q.one() * 0.5
    with pytest.raises(AmbientError, match="float"):
        Q.one() == 1.0
    with pytest.raises(AmbientError, match="float"):
        AlgebraSpec(1, Q.scalar(2)).one() * 0.5
    with pytest.raises(TypeError):
        Q.one() * "2"  # not a number: the operator declines
    assert Q.scalar(Fraction(1, 10)) == Fraction(1, 10)


QC16 = FieldDescriptor(IDENTITY, 16)
F31I = FieldDescriptor(INVERSE_CONJ, 2, 31)


@pytest.mark.parametrize("K", [Q, QC3, QE3, QC16, F5, F7, F31I])
def test_scalar_equals_the_padded_element(K):
    values = [0, 1, -1, 7, -40, 2**70 + 3, True]
    if not K.q:
        values += [Fraction(-3, 4), Fraction(12, 8), Fraction(0, 5)]
    pad = (0,) * (K.ambient_dim - 1)
    for c in values:
        x, y = K.scalar(c), K.element((c,) + pad)
        assert (x.ints, x.den) == (y.ints, y.den) and x == y
        assert all(type(v) is int for v in x.ints)
    assert K.one() == K.scalar(1) and K.zero() == K.scalar(0)
    assert K.one() is K.one() and K.zero() is K.zero()
    for bad in (0.5, Decimal(1)):
        with pytest.raises(AmbientError) as from_scalar:
            K.scalar(bad)
        with pytest.raises(AmbientError) as from_element:
            K.element((bad,) + pad)
        assert str(from_scalar.value) == str(from_element.value)


# -- closed forms over F_q and F_q[i] ------------------------------------------

M61 = 2**61 - 1
CLOSED_FORM_FIELDS = [interned(IDENTITY, 1, q) for q in (3, 5, 7, 13, M61)]
CLOSED_FORM_FIELDS += [interned(INVERSE_CONJ, 2, q) for q in (3, 7, M61)]


def closed_form_operands(K):
    """0, 1, -1 and seeded random elements of K."""
    rng = random.Random(K.q + K.level)
    drawn = [K.element([rng.randrange(K.q) for _ in range(K.ambient_dim)]) for _ in range(10)]
    return [K.zero(), K.one(), -K.one()] + drawn


def stored(x):
    return x.ints, x.den


@pytest.mark.parametrize("K", CLOSED_FORM_FIELDS, ids=str)
def test_closed_forms_agree_with_the_general_kernel(K):
    # a single element's product, sum, negation, inverse and equality
    # are closed forms on its residues; the list kernel is the reference
    q = K.q
    xs = closed_form_operands(K)
    for x in xs:
        assert stored(-x) == reduce_coords(K, negate_coords(x.ints, q), 1)
        if x.is_zero():
            with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
                x.inverse()
        else:
            assert stored(x.inverse()) == reduce_coords(K, *_inverse_coords(x.ints, q))
        for y in xs:
            product = reduce_coords(K, times_coords(x.ints, y.ints, q), 1)
            assert stored(x * y) == product
            for sign, total in ((1, x + y), (-1, x - y)):
                assert stored(total) == combine_coords(K, x.ints, 1, y.ints, 1, sign)
            assert (x == y) == (x.ints == y.ints)
            assert all(z.owner is K for z in (x * y, x + y, x - y))


@pytest.mark.parametrize("field", ["F:5", "F:7", "F:2305843009213693951"])
def test_flat_sums_agree_with_the_general_kernel(field):
    K = parse_field(field)
    spec = AlgebraSpec(2, K.one())
    rng = random.Random(K.q)
    width = spec.size * K.ambient_dim
    xs = [spec.zero(), spec.one(), -spec.one()]
    xs += [AlgebraElement(spec, [rng.randrange(K.q) for _ in range(width)]) for _ in range(6)]
    for x in xs:
        assert stored(-x) == reduce_coords(K, negate_coords(x.ints, K.q), 1)
        for y in xs:
            for sign, total in ((1, x + y), (-1, x - y)):
                assert stored(total) == combine_coords(K, x.ints, 1, y.ints, 1, sign)


@pytest.mark.parametrize("K", CLOSED_FORM_FIELDS, ids=str)
def test_closed_forms_lift_mixed_operands(K):
    two = K.scalar(2)
    for x in closed_form_operands(K):
        assert stored(x * 2) == stored(2 * x) == stored(x * two)
        assert stored(x + 1) == stored(1 + x) == stored(x + K.one())
        assert stored(1 - x) == stored(K.one() - x)
        assert stored(x - 1) == stored(x - K.one())
        assert (x == 1) == (1 == x) == (x.ints == K.one().ints)


def test_closed_forms_refuse_another_field():
    for x, y in [(F5.one(), F7.one()), (F7.one(), F5.one()), (F7.one(), Q.one())]:
        for op in (lambda: x * y, lambda: x + y, lambda: x - y):
            with pytest.raises(AmbientError, match="^operands live in different fields$"):
                op()
        assert x != y


def test_a_directly_built_descriptor_meets_the_interned_one():
    # the owners are equal but not the same object: no identity shortcut
    direct = FieldDescriptor(INVERSE_CONJ, 2, 7)
    assert direct is not F7 and direct == F7
    x, y, z = direct.element((3, 5)), F7.element((3, 5)), F7.element((2, 6))
    assert x == y and y == x and hash(x) == hash(y)
    assert stored(x * z) == stored(y * z) == stored(z * x)
    assert stored(x + z) == stored(y + z) and stored(z - x) == stored(z - y)
    assert stored(x.inverse()) == stored(y.inverse())
    assert (x * z).owner is direct and (z * x).owner is F7


# -- involutions -------------------------------------------------------------


@pytest.mark.parametrize("K", [Q, QC3, QR3, QE3, F5, F7])
def test_sigma_is_an_involution(K):
    xs = [K.one(), -K.one(), K.zeta_pow(1) if not K.q else eps(K, 1)]
    for x in xs:
        assert sigma(sigma(x)) == x


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23])
def test_sigma_on_f_q_i_is_frobenius(q):
    # F:q for q = 3 (mod 4) is inverse_conj at level 2, i -> i^-1 = -i,
    # which is x -> x^q on all of F_q[i]
    K = parse_field(f"F:{q}")
    assert (K.involution, K.level, K.q) == (INVERSE_CONJ, 2, q)
    for x in K.iter_ambient():
        assert sigma(x) == x**q


def test_sigma_images_of_zeta():
    z = QR3.zeta_pow(1)
    assert sigma(z) == z**-1
    z = QE3.zeta_pow(1)
    assert sigma(z) == -(z**-1)
    z = QC3.zeta_pow(1)
    assert sigma(z) == z
    i = F7.element((0, 1))
    assert sigma(i) == -i


@settings(max_examples=40, deadline=None)
@given(elements_of(QE3), elements_of(QE3))
def test_sigma_is_multiplicative(x, y):
    assert sigma(x * y) == sigma(x) * sigma(y)
    assert sigma(x + y) == sigma(x) + sigma(y)


@settings(max_examples=40, deadline=None)
@given(elements_of(QR3))
def test_fixed_field_is_sigma_fixed(x):
    assert x.is_k_rational() == (sigma(x) == x)


@settings(max_examples=40, deadline=None)
@given(elements_of(F7), elements_of(F7))
def test_norm_is_multiplicative(x, y):
    assert norm(x * y) == norm(x) * norm(y)
    assert norm(x).is_k_rational()


# -- roots of unity ----------------------------------------------------------


@pytest.mark.parametrize(
    "K, max_t",
    [(Q, 2), (QC3, 3), (QR3, 3), (QE3, 3), (F5, 2), (F7, 4)],
)
def test_eps_has_exact_order(K, max_t):
    for t in range(max_t + 1):
        e = eps(K, t)
        assert e ** (1 << t) == K.one()
        if t:
            assert e ** (1 << (t - 1)) == -K.one()
        assert e * eps(K, t, -1) == K.one()
        if not K.q:  # the power zeta^(2^(L-t)) of the defining root
            assert e == K.zeta_pow(1 << (K.level - t))


@pytest.mark.parametrize("level", range(1, 11))
def test_cyclotomic_eps_is_the_squaring_ladder(level):
    # over Q(zeta), eps_t^(+-1) is written as zeta^(+-2^(L-t)); the
    # reference is the ladder of squares down from zeta, and from zeta^-1
    involutions = [IDENTITY, INVERSE_CONJ, NEGATED_INVERSE_CONJ][:level]
    for involution in involutions:
        K = interned(involution, level, 0)
        zeta = K.zeta_pow(1)
        for power, top in ((1, zeta), (-1, zeta.inverse())):
            ladder = squarings(top, level)[::-1]  # eps_t at index t
            assert [eps(K, t, power) for t in range(level + 1)] == ladder, (level, power)


def test_eps_beyond_supply_raises():
    with pytest.raises(AmbientError):
        eps(Q, 3)
    with pytest.raises(AmbientError):
        eps(F5, 3)


def test_finite_eps_is_the_sylow_generator_power():
    # eps_t = g^(2^(w-t)) for g the 2-Sylow generator of F_{q^d}^*,
    # 2^w || q^d - 1, and its order is exactly 2^t
    for q in range(3, 300):
        if not _prime_by_trial_division(q):
            continue
        for d in (1, 2) if q % 4 == 3 else (1,):
            K = FieldDescriptor(IDENTITY, d, q)
            w = K.root_level
            g = _sylow_generator(q, d)
            one = [1] + [0] * (d - 1)
            for t in range(w + 1):
                e = eps(K, t)
                assert list(e.ints) == _vector_pow(g, 1 << (w - t), q), (q, d, t)
                assert _vector_pow(e.ints, 1 << t, q) == one
                if t:
                    assert _vector_pow(e.ints, 1 << (t - 1), q) != one


# -- branching power tests ---------------------------------------------------


def test_branching_explores_both_signs():
    # 3^8 = 6561 over Q(i): the canonical roots 6561 -> -81 -> -9i end
    # at a non-square, and the witness is reached through +81 -> -9 -> -3i.
    dec = ks_decompose(QC2.scalar(6561), 3)
    assert dec.s == 3 and dec.b == QC2.element((0, -3))
    assert ks_decompose(QC2.scalar(6561), 4).s == 3
    dec = ks_decompose(QC2.scalar(16), 3)
    assert dec.s == 3 and dec.b**8 == QC2.scalar(16)
    assert ks_decompose(QC2.scalar(16), 4).s == 3


def test_branching_witness_domain():
    # -4 = (1+i)^4 has a 4th root in the ambient Q(i), none inside Q
    # itself, while 4 has no 4th root even in Q(i): its square roots +-2
    # are both non-squares there.
    minus_four = Q.scalar(-4)
    depth, w = root_chain(minus_four, 2)
    assert depth == 2 and w**4 == minus_four and not w.is_k_rational()
    assert root_chain(Q.scalar(4), 2)[0] == 1


@pytest.mark.parametrize("K", [F5, F7])
def test_branching_agrees_with_exhaustion_finite(K):
    units = [x for x in K.iter_ambient() if x != K.zero()]
    for t in (1, 2, 3):
        powers = {x ** (1 << t) for x in units}
        for x in units:
            assert (root_chain(x, t)[0] == t) == (x in powers)


def sign_tree_reference(K, x, k):
    """The depth-first search over both signs of every square root,
    canonical sign first: up to k leaves.  Over K = A its first witness
    is the representative ``ks_decompose`` must return."""

    def search(y, lvl):
        if lvl == 0:
            return y
        r = sqrt_ambient(y)
        if r is None:
            return None
        for cand in (r, -r):
            hit = search(cand, lvl - 1)
            if hit is not None:
                return hit
        return None

    return search(x, k.bit_length() - 1)


CHAIN_FIELDS = [FieldDescriptor(IDENTITY, L) for L in range(1, 6)]
CHAIN_FIELDS += [
    FieldDescriptor(IDENTITY, d, q)
    for q in (3, 5, 7, 13, 17, 31, 41, 97, 257)
    for d in (1, 2)
    if d == 1 or q % 4 == 3
]


def sparse_units_of(K):
    """Nonzero elements with few nonzero coordinates, fractional over
    Q(zeta), so that their 2^8-th powers stay small."""
    if not K.q:
        coord = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    else:
        coord = st.integers(min_value=1, max_value=K.q - 1)
    n = K.ambient_dim
    terms = st.lists(
        st.tuples(st.integers(0, n - 1), coord), min_size=1, max_size=2
    )

    def build(pairs):
        vals = [0] * n
        for i, c in pairs:
            vals[i] = c
        return K.element(vals)

    return terms.map(build).filter(lambda x: not x.is_zero())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chain_witness_is_the_sign_tree_witness(data):
    K = data.draw(st.sampled_from(CHAIN_FIELDS))
    c = data.draw(sparse_units_of(K))
    j = data.draw(st.integers(0, 8))
    e = data.draw(st.integers(0, (1 << K.root_level) - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    x = c ** (1 << j) * eps(K, K.root_level) ** e * sign
    t = data.draw(st.integers(0, min(j + 1, 8)))
    want = sign_tree_reference(K, x, 1 << t)
    dec = ks_decompose(x, t)
    assert (dec.s == t) == (want is not None)
    if want is not None:
        assert dec.b == want
    depth, y = root_chain(x, t)
    assert y ** (1 << depth) == x
    assert depth == dec.s


# -- primality and the first non-square ------------------------------------


def _prime_by_trial_division(p):
    return p > 1 and all(p % f for f in range(2, isqrt(p) + 1))


def _first_non_square_by_scan(q):
    """The first non-square of F_q[i] in coordinate order, by scanning
    every (c0, c1) with Euler's criterion x^((q^2 - 1)/2) != 1, taken as
    (x^(q+1))^((q-1)/2); x^(q+1) is computed in F_q[i] and lands in F_q."""
    bits = bin(q + 1)[3:]
    for c0 in range(q):
        for c1 in range(q):
            if not (c0 or c1):
                continue
            x, y = c0, c1
            for bit in bits:
                x, y = (x * x - y * y) % q, 2 * x * y % q
                if bit == "1":
                    x, y = (x * c0 - y * c1) % q, (x * c1 + y * c0) % q
            assert y == 0
            if pow(x, (q - 1) // 2, q) != 1:
                return (c0, c1)


def test_primality_matches_trial_division():
    assert [p for p in range(5000) if _is_prime(p)] == [
        p for p in range(5000) if _prime_by_trial_division(p)
    ]


def test_large_prime_modulus_is_accepted_fast():
    start = time.perf_counter()
    K = FieldDescriptor(INVERSE_CONJ, 2, 2**61 - 1)
    assert time.perf_counter() - start < 1
    assert K.q == 2**61 - 1


def test_strong_pseudoprime_is_refused():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5, 7
    with pytest.raises(AmbientError, match="odd prime"):
        FieldDescriptor(INVERSE_CONJ, 2, 3215031751)


def test_modulus_beyond_the_primality_bound_is_refused():
    assert PRIME_TEST_BOUND == 3317044064679887385961981
    with pytest.raises(AmbientError, match=f"below {PRIME_TEST_BOUND}"):
        FieldDescriptor(IDENTITY, 1, PRIME_TEST_BOUND + 2)


def test_first_non_square_matches_the_full_scan():
    primes = [q for q in range(3, 3000) if _prime_by_trial_division(q)]
    inert = [q for q in primes if q % 4 == 3]
    assert len(inert) == 218
    for q in inert:
        assert _fin_nonresidue(q, 2) == _first_non_square_by_scan(q)
    for q in primes:
        least = next(c for c in range(1, q) if pow(c, (q - 1) // 2, q) != 1)
        assert _fin_nonresidue(q, 1) == (least,)


# -- finite-field square roots -------------------------------------------------


def _vector_pow(a, e, q):
    """a^e on coordinate vectors by square-and-multiply through
    ``times_coords``."""
    acc, base = [1] + [0] * (len(a) - 1), list(a)
    while e:
        if e & 1:
            acc = times_coords(acc, base, q)
        base = times_coords(base, base, q)
        e >>= 1
    return acc


def _sylow_generator(q, d):
    """The first non-square of F_{q^d} to the odd part of q^d - 1: a
    generator of the 2-Sylow subgroup of the unit group."""
    big = q**d - 1
    return _vector_pow(_fin_nonresidue(q, d), big >> _v2(big), q)


def _tonelli_shanks_on_vectors(a, q, d):
    """Tonelli-Shanks on coordinate vectors through ``times_coords``, for
    d = 1 and d = 2 alike: the reference for ``sqrt_ambient`` over F_q
    and F_q[i]."""
    if not any(a):
        return list(a)
    big = q**d
    one = [1] + [0] * (d - 1)
    if _vector_pow(a, (big - 1) // 2, q) != one:
        return None
    m = _v2(big - 1)
    odd = (big - 1) >> m
    c = _sylow_generator(q, d)
    x = _vector_pow(a, (odd + 1) // 2, q)
    t = _vector_pow(a, odd, q)
    while t != one:
        i, tt = 0, t
        while tt != one:
            tt = times_coords(tt, tt, q)
            i += 1
        b = _vector_pow(c, 1 << (m - i - 1), q)
        x = times_coords(x, b, q)
        c = times_coords(b, b, q)
        t = times_coords(t, c, q)
        m = i
    return x


def _assert_sqrt_agrees(a, q, d):
    K = FieldDescriptor(IDENTITY, d, q)
    want = _tonelli_shanks_on_vectors(list(a), q, d)
    got = sqrt_ambient(K.element(a))
    assert (got is None) == (want is None), (a, q, d)
    if got is not None:
        assert len(got.ints) == d and all(0 <= v < q for v in got.ints)
        assert times_coords(got.ints, got.ints, q) == list(a)
        # the canonical sign: the smaller of the two coordinate vectors
        assert got.ints <= (-got).ints


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_fin_sqrt_matches_vector_tonelli_shanks_everywhere(q):
    # every element of F_q, and of F_q[i] where -1 is a non-square
    for d in (1, 2) if q % 4 == 3 else (1,):
        for x in FieldDescriptor(IDENTITY, d, q).iter_ambient():
            _assert_sqrt_agrees(x.ints, q, d)


@pytest.mark.parametrize("q, d", [(65537, 1), (2**61 - 1, 1), (2**61 - 1, 2)])
def test_fin_sqrt_matches_vector_tonelli_shanks_on_a_sample(q, d):
    rng = random.Random(q + d)
    samples = [[0] * d, [1] + [0] * (d - 1), [q - 1] + [0] * (d - 1)]
    samples += [[rng.randrange(q) for _ in range(d)] for _ in range(60)]
    # squares, so that the root-finding branch runs, not just the test
    samples += [times_coords(x, x, q) for x in samples[3:33]]
    if d == 2:
        samples += [[rng.randrange(q), 0] for _ in range(10)]
    for a in samples:
        _assert_sqrt_agrees(a, q, d)
