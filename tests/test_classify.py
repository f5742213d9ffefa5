"""Field classification, the depth function h_n, and coset decomposition."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotwist.classify import (
    EPS_COSET,
    NEGATED,
    PLAIN,
    TYPE_B,
    TYPE_D,
    TYPE_E,
    classify,
    emulates,
    h_n,
    ks_decompose,
    ks_membership,
)
from cyclotwist.fields import AmbientElement, eps, sigma
from cyclotwist.grammar import parse_field

Q = parse_field("Q")
QR3 = parse_field("QR:3")
QE3 = parse_field("QE:3")


def recompose(K, dec):
    """The inverse of ks_decompose: a rebuilt from (s, form, b)."""
    base = dec.b ** (1 << dec.s)
    if dec.form == PLAIN:
        return base
    if dec.form == NEGATED:
        return -base
    assert dec.form == EPS_COSET, dec.form
    return (K.one() + eps(K, classify(K).m)) ** (1 << dec.s) * base


@pytest.mark.parametrize(
    "spec, field_type, m",
    [
        ("Q", TYPE_D, 2),
        ("QR:3", TYPE_D, 3),
        ("QR:5", TYPE_D, 5),
        ("QE:3", TYPE_E, 3),
        ("QE:4", TYPE_E, 4),
        ("QC:2", TYPE_B, 2),
        ("QC:4", TYPE_B, 4),
        ("F:5", TYPE_B, 2),
        ("F:13", TYPE_B, 2),
        ("F:17", TYPE_B, 4),
        ("F:3", TYPE_E, 3),
        ("F:7", TYPE_E, 4),
        ("F:11", TYPE_E, 3),
    ],
)
def test_classification_table(spec, field_type, m):
    K = parse_field(spec)
    cls = classify(K)
    assert (cls.field_type, cls.m) == (field_type, m)
    assert classify(K) is cls  # one classification per field


@pytest.mark.parametrize(
    "spec, n, expected",
    [
        ("QC:3", 1, "A"),
        ("QC:3", 2, "A"),
        ("QC:3", 3, "none"),
        ("Q", 1, "C"),
        ("Q", 2, "none"),
        ("QR:4", 3, "C"),
        ("QE:3", 1, "none"),  # E never emulates C: sigma(eps_m) = -eps_m^-1
        ("QE:3", 2, "none"),
        ("F:5", 1, "A"),
        ("F:3", 2, "none"),
    ],
)
def test_emulation_annotation(spec, n, expected):
    assert emulates(classify(parse_field(spec)), n) == expected


def test_classify_refuses_a_depth_the_algebra_refuses():
    # the same bound as AlgebraSpec and h_n; the classification itself
    # takes no n
    cls = classify(Q)
    with pytest.raises(TypeError):
        emulates(cls, 2.5)
    for n in (-1, 10**6):
        with pytest.raises(ValueError, match=r"n must be in \[0, "):
            emulates(cls, n)


# -- depth -------------------------------------------------------------------


def test_depth_needs_the_sign_tree():
    # 16 = ((-1+i)^2)^4.  For 3^8 = 6561 the canonical roots
    # 6561 -> -81 -> -9i end at a non-square: the chain goes on from
    # -9i * i = 9, the other class of 4th roots modulo squares.
    assert h_n(Q.scalar(16), 3) == 3
    assert h_n(Q.scalar(16), 4) == 3
    assert h_n(Q.scalar(6561), 4) == 3
    assert h_n(Q.one(), 5) == 5


@pytest.mark.parametrize("spec, n, s", [("F:65537", 16, 15), ("QC:10", 10, 9)])
def test_depth_at_the_frontier(spec, n, s):
    # -1 is a 2^(L-1)-th power and no more (L = 16 and 10): the top
    # levels of the power test, decided by one chain of square roots
    K = parse_field(spec)
    a = -K.one()
    assert h_n(a, n) == s
    assert recompose(K, ks_decompose(a, s)) == a


@pytest.mark.parametrize(
    "K, a, n, s",
    [
        (Q, 4, 2, 1),
        (Q, 4, 1, 1),
        (Q, 2, 2, 0),
        (Q, -4, 2, 2),
        (Q, -1, 2, 1),
        (QE3, -1, 2, 2),
        (QR3, 16, 3, 3),
    ],
)
def test_depth_values(K, a, n, s):
    assert h_n(K.scalar(a), n) == s


def test_depth_is_capped_by_n():
    for spec in ("Q", "QC:3", "QE:3", "F:5", "F:3"):
        K = parse_field(spec)
        for n in range(4):
            assert h_n(K.one(), n) == n


def test_depth_rejects_non_units():
    with pytest.raises(ValueError):
        h_n(Q.zero(), 2)
    with pytest.raises(ValueError):
        h_n(Q.element((0, 1)), 2)  # i is not in the fixed field


# -- K_s membership against exhaustive power tables --------------------------


@pytest.mark.parametrize("qspec", ["F:3", "F:5", "F:7", "F:11", "F:13"])
def test_membership_matches_power_tables(qspec):
    K = parse_field(qspec)
    units = [x for x in K.iter_ambient() if x != K.zero()]
    for s in range(4):
        table = {x ** (1 << s) for x in units}
        for a0 in range(1, K.q):
            a = K.scalar(a0)
            assert ks_membership(a, s) == (a in table)


def test_membership_downward_closed():
    for a0 in (2, 3, 4, 16, -4, -1):
        a = Q.scalar(a0)
        top = h_n(a, 4)
        for s in range(5):
            assert ks_membership(a, s) == (s <= top)


# -- coset decomposition ------------------------------------------------------


@pytest.mark.parametrize(
    "K, a, n, form",
    [
        (Q, 2, 2, PLAIN),
        (Q, 4, 2, PLAIN),
        (Q, -1, 2, NEGATED),
        (Q, -4, 2, EPS_COSET),
        (Q, 16, 3, EPS_COSET),
        (QE3, -1, 2, NEGATED),
        (QE3, 16, 3, PLAIN),
        (QR3, 16, 3, PLAIN),
    ],
)
def test_decomposition_forms(K, a, n, form):
    s = h_n(K.scalar(a), n)
    dec = ks_decompose(K.scalar(a), s)
    assert dec.form == form
    assert recompose(K, dec) == K.scalar(a)
    assert dec.b != K.zero() and dec.b.is_k_rational()


def test_unit_coset_instance():
    # a = (1 + eps_3)^16 over the level-3 real subfield: depth 4, unit coset
    z = QR3.zeta_pow(1)
    a = (QR3.one() + z) ** 16
    s = h_n(a, 4)
    assert s == 4
    dec = ks_decompose(a, s)
    assert dec.form == EPS_COSET
    assert recompose(QR3, dec) == a


@pytest.mark.parametrize("qspec", ["F:3", "F:5", "F:7", "F:13"])
def test_decomposition_exhaustive_finite(qspec):
    # ks_decompose takes the cap n and reports the depth h_n(a) itself
    K = parse_field(qspec)
    cls = classify(K)
    for a0 in range(1, K.q):
        a = K.scalar(a0)
        for n in range(5):
            dec = ks_decompose(a, n)
            s = dec.s
            assert s == h_n(a, n)
            assert recompose(K, dec) == a
            if cls.field_type == TYPE_B:
                assert dec.form == PLAIN
            elif cls.field_type == TYPE_E:
                assert dec.form in (PLAIN, NEGATED)
            if dec.form == EPS_COSET:
                assert s >= cls.m


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["F:3", "F:5", "F:7", "F:11"]),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=0, max_value=3),
)
def test_decomposition_roundtrip_property(qspec, seed, n):
    K = parse_field(qspec)
    a = K.scalar(1 + seed % (K.q - 1))
    s = h_n(a, n)
    dec = ks_decompose(a, s)
    assert recompose(K, dec) == a
    # the reported depth really is maximal
    assert ks_membership(a, s)
    if s < n:
        assert not ks_membership(a, s + 1)


# -- coset forms at height ----------------------------------------------------

# (field, form, s) of a = +-u^(2^s) b^(2^s), b of 300-bit coordinates
HEIGHT_CASES = [
    (spec, form, s)
    for spec in ("QR:7", "QE:7", "QR:5")
    for form, s in ((PLAIN, 1), (PLAIN, 3), (NEGATED, 1))
] + [("QR:3", EPS_COSET, 4)]


def height(x):
    """Bits of x's largest coordinate plus those of its denominator."""
    return max(abs(v).bit_length() for v in x.ints) + x.den.bit_length()


@functools.lru_cache(maxsize=None)
def coset_at_height(spec, form, s):
    """a in the coset ``form`` at depth s, b = x + sigma(x) in K for an x
    of random 300-bit coordinates."""
    K = parse_field(spec)
    rng = random.Random(f"{spec} {form} {s}")
    x = K.element([rng.getrandbits(300) - (1 << 299) for _ in range(K.ambient_dim)])
    a = (x + sigma(x)) ** (1 << s)
    if form == NEGATED:
        return -a
    if form == EPS_COSET:
        return (K.one() + eps(K, classify(K).m)) ** (1 << s) * a
    return a


@pytest.mark.parametrize("spec, form, s", HEIGHT_CASES)
def test_decomposition_at_height_inverts_nothing_taller_than_the_root(
    spec, form, s, monkeypatch
):
    # the unit part is alpha/sigma(alpha) and the form is read by
    # comparison, so neither N(alpha) nor anything as tall as a is inverted
    a = coset_at_height(spec, form, s)
    inverted = []
    inverse = AmbientElement.inverse

    def recorded(x):
        inverted.append(x)
        return inverse(x)

    monkeypatch.setattr(AmbientElement, "inverse", recorded)
    dec = ks_decompose(a, 4)
    assert inverted and max(map(height, inverted)) <= height(dec.root)


@pytest.mark.parametrize("spec, form, s", HEIGHT_CASES)
def test_decomposition_forms_at_height(spec, form, s):
    K = parse_field(spec)
    a = coset_at_height(spec, form, s)
    dec = ks_decompose(a, 4)
    assert (dec.s, dec.form) == (s, form)
    assert dec.b.is_k_rational()
    assert recompose(K, dec) == a
