"""Ambient field arithmetic: cyclotomic towers and F_q / F_q[i]."""

import time
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotwist.algebra import AlgebraSpec
from cyclotwist.fields import (
    CYCLOTOMIC,
    FINITE,
    FROBENIUS,
    IDENTITY,
    INVERSE_CONJ,
    LEVEL_BOUND,
    NEGATED_INVERSE_CONJ,
    PRIME_TEST_BOUND,
    AmbientError,
    FieldDescriptor,
    _fin_nonresidue,
    _is_prime,
    eps,
    is_in_k,
    kth_power_test_branching,
    norm,
    sigma,
    sqrt_ambient,
)
from cyclotwist.grammar import parse_field

Q = parse_field("Q")
QC2 = FieldDescriptor(CYCLOTOMIC, IDENTITY, level=2)
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
    if K.kind == CYCLOTOMIC:
        coord = small_fractions()
    else:
        coord = st.integers(min_value=0, max_value=K.q - 1)
    return st.tuples(*[coord] * K.ambient_dim).map(K.element)


# -- descriptor validation -------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(kind=CYCLOTOMIC, involution=IDENTITY, level=0), "level must be >= 1"),
        (dict(kind=CYCLOTOMIC, involution=INVERSE_CONJ, level=1), "level >= 2"),
        (
            dict(kind=CYCLOTOMIC, involution=NEGATED_INVERSE_CONJ, level=2),
            "level >= 3",
        ),
        (dict(kind=CYCLOTOMIC, involution=IDENTITY, level=2, q=5), "not set q"),
        (dict(kind=FINITE, involution=IDENTITY, q=9, d=1), "odd prime"),
        (dict(kind=FINITE, involution=IDENTITY, q=2, d=1), "odd prime"),
        (dict(kind=FINITE, involution=IDENTITY, q=5, d=2), "q = 3 mod 4"),
        (dict(kind=FINITE, involution=FROBENIUS, q=5, d=1), "degree 2"),
        (dict(kind="padic", involution=IDENTITY), "unknown ambient kind"),
        (dict(kind=CYCLOTOMIC, involution=IDENTITY, level=17), "at most 16"),
        (dict(kind=CYCLOTOMIC, involution=INVERSE_CONJ, level=30), "at most 16"),
    ],
)
def test_descriptor_validation(kwargs, message):
    with pytest.raises(AmbientError, match=message):
        FieldDescriptor(**kwargs)


def test_level_bound_is_the_power_test_cap():
    assert LEVEL_BOUND == 16
    assert FieldDescriptor(CYCLOTOMIC, IDENTITY, level=16).ambient_dim == 1 << 15


def test_ambient_dimensions():
    assert Q.ambient_dim == 2
    assert QC3.ambient_dim == 4
    assert F5.ambient_dim == 1
    assert F7.ambient_dim == 2


# -- cyclotomic arithmetic --------------------------------------------------


def test_zeta_relation():
    # zeta^(2^(L-1)) = -1 in every level
    for K in (QC2, Q, QC3, QR3, QE3):
        z = K.zeta_pow(1)
        half = K.ambient_dim
        assert z**half == -K.one()
        assert z ** (2 * half) == K.one()


def test_sqrt2_lives_in_level3():
    # (zeta + zeta^-1)^2 = 2 for zeta of order 8
    z = QR3.zeta_pow(1)
    root2 = z + z**-1
    assert root2 * root2 == QR3.scalar(2)
    assert is_in_k(QR3, root2)


def test_inverse_and_division():
    x = QC3.element((Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3)))
    assert x * x.inverse() == QC3.one()
    assert (x / x) == QC3.one()
    with pytest.raises(ZeroDivisionError):
        QC3.zero().inverse()


def test_sqrt_canonical_sign():
    # sqrt(2i) over Q(i) is -1-i: of +-(1+i) the lex-smaller vector wins
    two_i = Q.element((0, 2))
    r = sqrt_ambient(Q, two_i)
    assert r is not None
    assert r.coeffs == (-1, -1)
    assert r * r == two_i


def test_sqrt_none_when_absent():
    assert sqrt_ambient(Q, Q.scalar(2)) is None  # sqrt(2) is not in Q(i)
    assert sqrt_ambient(QC3, QC3.scalar(2)) is not None


@settings(max_examples=40, deadline=None)
@given(elements_of(QC3))
def test_cyclotomic_sqrt_of_squares(x):
    r = sqrt_ambient(QC3, x * x)
    assert r is not None and r * r == x * x
    assert min(r.coeffs, (-r).coeffs) == r.coeffs


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


REFERENCE_FIELDS = [FieldDescriptor(CYCLOTOMIC, IDENTITY, level=L) for L in range(1, 7)]
REFERENCE_FIELDS += [parse_field(f"F:{q}") for q in (3, 5, 7, 11, 13, 19)]


def sparse_elements_of(K):
    """Elements with about half their coordinates zero, so that level-6
    references stay cheap."""
    if K.kind == CYCLOTOMIC:
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
    r = sqrt_ambient(K, square)
    assert r is not None and r in (x, -x)
    # the top 2-power root of unity is no square, so neither is x^2 times it
    assert sqrt_ambient(K, square * eps(K, K.root_level)) is None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equal_elements_from_other_denominators_are_equal(data):
    K = data.draw(st.sampled_from(REFERENCE_FIELDS))
    xs = data.draw(sparse_elements_of(K))
    w = K.element(data.draw(sparse_elements_of(K)))
    m = data.draw(st.sampled_from([2, 3, 5**7, -6, 2**70 + 1]))
    if K.kind == FINITE and m % K.q == 0:
        m += 1
    x = K.element(xs)
    rebuilt = K.element(c * m for c in xs) / m
    for y in (rebuilt, (x + w) - w, x * m * K.scalar(m).inverse()):
        assert y == x and hash(y) == hash(x)
        assert (y.ints, y.den) == (x.ints, x.den)
    assert x.den > 0 and (K.kind == CYCLOTOMIC or x.den == 1)
    # .coeffs is the boundary view, and it round-trips
    if K.kind == CYCLOTOMIC:
        assert x.coeffs == tuple(Fraction(c) for c in xs)
    else:
        assert x.coeffs == tuple(c % K.q for c in xs)
    assert K.element(x.coeffs) == x


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
        AlgebraSpec(Q, 1, Q.scalar(2)).one().scale(0.5)
    with pytest.raises(TypeError):
        Q.one() * "2"  # not a number: the operator declines
    assert Q.scalar(Fraction(1, 10)) == Fraction(1, 10)


# -- involutions -------------------------------------------------------------


@pytest.mark.parametrize("K", [Q, QC3, QR3, QE3, F5, F7])
def test_sigma_is_an_involution(K):
    xs = [K.one(), -K.one(), K.zeta_pow(1) if K.kind == CYCLOTOMIC else eps(K, 1)]
    for x in xs:
        assert sigma(K, sigma(K, x)) == x


def test_sigma_images_of_zeta():
    z = QR3.zeta_pow(1)
    assert sigma(QR3, z) == z**-1
    z = QE3.zeta_pow(1)
    assert sigma(QE3, z) == -(z**-1)
    z = QC3.zeta_pow(1)
    assert sigma(QC3, z) == z
    i = F7.element((0, 1))
    assert sigma(F7, i) == -i


@settings(max_examples=40, deadline=None)
@given(elements_of(QE3), elements_of(QE3))
def test_sigma_is_multiplicative(x, y):
    assert sigma(QE3, x * y) == sigma(QE3, x) * sigma(QE3, y)
    assert sigma(QE3, x + y) == sigma(QE3, x) + sigma(QE3, y)


@settings(max_examples=40, deadline=None)
@given(elements_of(QR3))
def test_fixed_field_is_sigma_fixed(x):
    assert is_in_k(QR3, x) == (sigma(QR3, x) == x)


@settings(max_examples=40, deadline=None)
@given(elements_of(F7), elements_of(F7))
def test_norm_is_multiplicative(x, y):
    assert norm(F7, x * y) == norm(F7, x) * norm(F7, y)
    assert is_in_k(F7, norm(F7, x))


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


def test_eps_beyond_supply_raises():
    with pytest.raises(AmbientError):
        eps(Q, 3)
    with pytest.raises(AmbientError):
        eps(F5, 3)


# -- branching power tests ---------------------------------------------------


def test_branching_explores_both_signs():
    # 16 = (-1+i)^8 although the canonical-sqrt chain from 16 dies:
    # 16 -> -4 -> 2i -> 1+i is reached only on the negative branch.
    w = kth_power_test_branching(Q, Q.scalar(16), 8)
    assert w is not None and w**8 == Q.scalar(16)
    assert kth_power_test_branching(Q, Q.scalar(16), 16) is None


def test_branching_witness_domain():
    # -4 = (1+i)^4 has a 4th root in the ambient Q(i), none inside Q
    # itself, while 4 has no 4th root even in Q(i): its square roots +-2
    # are both non-squares there.
    minus_four = Q.scalar(-4)
    w = kth_power_test_branching(Q, minus_four, 4)
    assert w is not None and w**4 == minus_four and not is_in_k(Q, w)
    assert kth_power_test_branching(Q, Q.scalar(4), 4) is None
    with pytest.raises(AmbientError):
        kth_power_test_branching(Q, Q.scalar(4), 3)


@pytest.mark.parametrize("K", [F5, F7])
def test_branching_agrees_with_exhaustion_finite(K):
    units = [x for x in K.iter_ambient() if x != K.zero()]
    for k in (2, 4, 8):
        powers = {x**k for x in units}
        for x in units:
            assert (kth_power_test_branching(K, x, k) is not None) == (x in powers)


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
    K = FieldDescriptor(FINITE, FROBENIUS, q=2**61 - 1, d=2)
    assert time.perf_counter() - start < 1
    assert K.q == 2**61 - 1


def test_strong_pseudoprime_is_refused():
    # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5, 7
    with pytest.raises(AmbientError, match="odd prime"):
        FieldDescriptor(FINITE, FROBENIUS, q=3215031751, d=2)


def test_modulus_beyond_the_primality_bound_is_refused():
    assert PRIME_TEST_BOUND == 3317044064679887385961981
    with pytest.raises(AmbientError, match=f"below {PRIME_TEST_BOUND}"):
        FieldDescriptor(FINITE, IDENTITY, q=PRIME_TEST_BOUND + 2, d=1)


def test_first_non_square_matches_the_full_scan():
    primes = [q for q in range(3, 3000) if _prime_by_trial_division(q)]
    inert = [q for q in primes if q % 4 == 3]
    assert len(inert) == 218
    for q in inert:
        assert _fin_nonresidue(q, 2) == _first_non_square_by_scan(q)
    for q in primes:
        least = next(c for c in range(1, q) if pow(c, (q - 1) // 2, q) != 1)
        assert _fin_nonresidue(q, 1) == (least,)
