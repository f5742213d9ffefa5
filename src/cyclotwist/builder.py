"""Closed-form construction of all minimal idempotents of K_t<g>.

Every minimal idempotent is an averaged character sum

    (1/T) * sum_{j<T} w_j * u^j

over powers of a unit u = b^(-2^r) g^(2^(n-s+r)), where the weights w_j
are (sums of two) powers of roots of unity chosen so that the result is
K-rational.  Which family of weights applies is decided entirely by the
field type (B/D/E), the depth s of a in the 2-power filtration, and the
coset form of a in K_s.  The case functions below each produce one
complete family, every item stated with its component dimension and
the minimal polynomial the character sum already determines (see
``_item``); ``build`` only dispatches.

Index conventions that completeness depends on (checked by the test
suite, which drops the labels of the rejected narrower variants):

* in the plain high-depth family (``thm3_case3``) the double-indexed
  block starts at r = 0, not r = 1;
* in the negated family (``thm3_case4``) the single index starts at
  i = 0, not i = 1.

Dropping either row leaves the family summing to something other
than 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm
from typing import List, Optional, Tuple

from .algebra import AlgebraElement, AlgebraSpec, Poly
from .classify import (
    EPS_COSET,
    NEGATED,
    PLAIN,
    TYPE_B,
    TYPE_D,
    TYPE_E,
    Classification,
    CosetDecomposition,
    classify,
    h_n,
    ks_decompose,
)
from .fields import IDENTITY, AmbientElement, FieldDescriptor, eps, times_coords

@dataclass(frozen=True)
class IdempotentItem:
    """One minimal idempotent with its component data, as the
    construction states them: ``dim`` is the K-dimension of the
    component e*K_t<g> and ``min_poly`` the minimal polynomial of g*e,
    of degree ``dim``.  ``verify_family`` proves both."""

    label: tuple
    element: AlgebraElement
    dim: int
    min_poly: Poly


@dataclass(frozen=True)
class IdempotentFamily:
    spec: AlgebraSpec
    classification: Classification
    decomposition: CosetDecomposition
    items: Tuple[IdempotentItem, ...]
    report: Optional[object] = None

    def labels(self) -> list:
        return [it.label for it in self.items]

    def elements(self) -> list:
        return [it.element for it in self.items]


# ---------------------------------------------------------------------------
# character-sum machinery
# ---------------------------------------------------------------------------


def _char_sum(
    spec: AlgebraSpec, s: int, r: int, b: AmbientElement, *chis: AmbientElement
) -> AlgebraElement:
    """(1/T) * sum over chi of sum_{j<T} chi^j * u^j, T = 2^(s-r), for
    the monomial u = b^(-2^r) g^(2^(n-s+r)).  Since j * 2^(n-s+r) < 2^n
    the powers of u never wrap, so the sum is written coefficient by
    coefficient: (chi * b^(-2^r))^j / T lands on g^(j * 2^(n-s+r)).
    With c = chi * b^(-2^r) = nums/D, the power c^j is kept as
    integer coordinates over D^j and raised to the common denominator
    T * lcm_chi D^(T-1) at the end."""
    K = spec.field
    d = K.ambient_dim
    T = 1 << (s - r)
    step = d << (spec.n - s + r)
    bi = b ** -(1 << r)
    one = K.one().ints
    sums = []
    for chi in chis:
        c = chi * bi
        powers = [one]
        for _ in range(T - 1):
            powers.append(times_coords(powers[-1], c.ints, K.q))
        sums.append((powers, c.den))
    top = lcm(*(den ** (T - 1) for _, den in sums))
    vals = [0] * (spec.size * d)
    for powers, den in sums:
        f = top  # c^j = w_j / D^j = w_j * (top / D^j) / top
        for j, w in enumerate(powers):
            base = j * step
            for i, v in enumerate(w):
                vals[base + i] += v * f
            f //= den
    return AlgebraElement(spec, vals, T * top)


def _item(
    label: tuple,
    spec: AlgebraSpec,
    s: int,
    r: int,
    b: AmbientElement,
    *chis: AmbientElement,
) -> IdempotentItem:
    """The item e = ``_char_sum(spec, s, r, b, *chis)`` with its
    component, in closed form.  The part of e for one chi satisfies
    g^S * e_chi = (b^(2^r) / chi) * e_chi, S = 2^(n-s+r) (idempotency
    makes (chi * b^(-2^r))^T * a = 1), so g*e is cut out by
    prod_chi (x^S - b^(2^r) / chi) of degree S * len(chis).
    ``verify_family`` proves that this is the minimal polynomial."""
    K = spec.field
    S = 1 << (spec.n - s + r)
    br = b ** (1 << r)
    coeffs = [K.one()]
    for chi in chis:
        c = br / chi
        # times x^S - c
        shifted = [K.zero()] * S + coeffs
        for k, x in enumerate(coeffs):
            shifted[k] = shifted[k] - c * x
        coeffs = shifted
    element = _char_sum(spec, s, r, b, *chis)
    return IdempotentItem(label, element, S * len(chis), Poly(tuple(coeffs)))


# ---------------------------------------------------------------------------
# the five construction cases
# ---------------------------------------------------------------------------


def thm2_case1(spec: AlgebraSpec, s: int, b: AmbientElement) -> List[IdempotentItem]:
    """All 2-power roots of unity needed are in K (s <= m): the 2^s
    characters of <h> each give one idempotent of dimension 2^(n-s)."""
    es = eps(spec.field, s)
    return [_item((i,), spec, s, 0, b, es**-i) for i in range(1 << s)]


def thm2_case2(spec: AlgebraSpec, s: int, b: AmbientElement) -> List[IdempotentItem]:
    """K = A but s exceeds m: the first 2^m characters are averaged at
    full length, the rest collapse into one family per extra power of
    two, built on the squared generators."""
    K = spec.field
    m = K.root_level
    assert s > m
    em = eps(K, m)
    items: List[IdempotentItem] = [
        _item((i,), spec, s, 0, b, em**-i) for i in range(1 << m)
    ]
    em1 = eps(K, m - 1)
    for r in range(1, s - m + 1):
        for i in range(1 << (m - 1)):
            chi = em**-1 * em1**-i
            items.append(_item((r, i), spec, s, r, b, chi))
    return items


def thm3_case2(spec: AlgebraSpec, s: int, b: AmbientElement) -> List[IdempotentItem]:
    """a = b^(2^s) with 1 <= s <= m-1 and K != A: the characters of <h>
    pair off under the involution; endpoints i = 0 and i = 2^(s-1) are
    self-paired."""
    K = spec.field
    assert 1 <= s <= K.root_level - 1
    es = eps(K, s)
    one = K.one()
    half = 1 << (s - 1)
    items: List[IdempotentItem] = []
    for i in range(half + 1):
        if i == 0:
            chis = (one,)
        elif i == half:
            chis = (-one,)
        else:
            chis = (es**i, es**-i)
        items.append(_item((i,), spec, s, 0, b, *chis))
    return items


def thm3_case4(spec: AlgebraSpec, s: int, b: AmbientElement) -> List[IdempotentItem]:
    """a = -b^(2^s) with 1 <= s <= m-1: weights mix eps_{s+1} with the
    characters of <h>.  The sign lam flips exactly for type E at
    s = m-1, where the involution negates odd powers of eps_{s+1}."""
    K = spec.field
    cls = classify(K)
    assert 1 <= s <= cls.m - 1 and cls.field_type in (TYPE_D, TYPE_E)
    lam = -K.one() if (cls.field_type == TYPE_E and s == cls.m - 1) else K.one()
    es1 = eps(K, s + 1)
    esm = eps(K, s - 1)
    items: List[IdempotentItem] = []
    for i in range(1 << (s - 1)):
        chi1 = es1**-1 * esm**-i
        chi2 = lam * es1 * esm**i
        items.append(_item((i,), spec, s, 0, b, chi1, chi2))
    return items


def thm3_case3(spec: AlgebraSpec, s: int, b: AmbientElement) -> List[IdempotentItem]:
    """a = b^(2^s) with s >= m and K != A: the low characters pair off
    as in the shallow case (over eps_{m-1}); past the root-of-unity
    supply a double-indexed block over the squared generators takes
    over, starting at r = 0.  The sign lam in the double block is +1
    for type D and -1 for type E."""
    K = spec.field
    cls = classify(K)
    m = cls.m
    assert s >= m and cls.field_type in (TYPE_D, TYPE_E)
    lam = K.one() if cls.field_type == TYPE_D else -K.one()
    one = K.one()
    em = eps(K, m)
    em1 = eps(K, m - 1)
    em2 = eps(K, m - 2)
    quarter = 1 << (m - 2)
    items: List[IdempotentItem] = []
    for i in range(quarter + 1):
        if i == 0:
            chis = (one,)
        elif i == quarter:
            chis = (-one,)
        else:
            chis = (em1**i, em1**-i)
        items.append(_item((i,), spec, s, 0, b, *chis))
    for r in range(s - m + 1):
        for i in range(quarter):
            chi1 = em**-1 * em2**-i
            chi2 = lam * em * em2**i
            items.append(_item((r, i), spec, s, r, b, chi1, chi2))
    return items


def thm3_case5(spec: AlgebraSpec, s: int, b: AmbientElement) -> List[IdempotentItem]:
    """a = (1+eps_m)^(2^s) b^(2^s), type D, s >= m.  The unit 1+eps_m
    threads through every weight.  At s = m the first family is already
    complete; deeper s add two self-paired idempotents, a paired block
    on the squared generator, and (from s >= m+2 on) double-indexed
    blocks whose second character picks up the shift 2^(r-2)."""
    K = spec.field
    cls = classify(K)
    m = cls.m
    assert s >= m and cls.field_type == TYPE_D
    one = K.one()
    u = eps(K, m)
    opu = one + u
    em1 = eps(K, m - 1)
    items: List[IdempotentItem] = []
    for i in range(1 << (m - 1)):
        chi1 = opu**-1 * em1**-i
        chi2 = opu**-1 * u * em1**i
        items.append(_item((i,), spec, s, 0, b, chi1, chi2))
    if s == m:
        return items
    c0inv = (2 + u + u**-1) ** -1
    quarter = 1 << (m - 2)
    for i in range(quarter - 1):
        chi1 = c0inv * em1 ** -(1 + i)
        chi2 = c0inv * em1 ** (1 + i)
        items.append(_item((1, i), spec, s, 1, b, chi1, chi2))
    items.append(_item((1, quarter - 1), spec, s, 1, b, -c0inv))
    items.append(_item((1, (1 << (m - 1)) - 1), spec, s, 1, b, c0inv))
    em2 = eps(K, m - 2)
    for r in range(2, s - m + 1):
        opur_inv = opu ** -(1 << r)
        for i in range(quarter):
            chi1 = opur_inv * u**-1 * em2**-i
            chi2 = opur_inv * u * em2 ** (i + (1 << (r - 2)))
            items.append(_item((r, i), spec, s, r, b, chi1, chi2))
    return items


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(
    spec: AlgebraSpec, cls: Classification, dec: CosetDecomposition
) -> List[IdempotentItem]:
    s = dec.s
    if cls.field_type == TYPE_B:
        assert dec.form == PLAIN
        if s <= cls.m:
            return thm2_case1(spec, s, dec.b)
        return thm2_case2(spec, s, dec.b)
    if s == 0:
        return thm2_case1(spec, 0, dec.b)
    if dec.form == NEGATED:
        return thm3_case4(spec, s, dec.b)
    if dec.form == EPS_COSET:
        return thm3_case5(spec, s, dec.b)
    assert dec.form == PLAIN
    if s <= cls.m - 1:
        return thm3_case2(spec, s, dec.b)
    return thm3_case3(spec, s, dec.b)


def build(spec: AlgebraSpec, checked: bool = True) -> IdempotentFamily:
    """Construct the complete family of minimal idempotents of K_t<g>.

    With ``checked`` (the default) the family is handed to the oracle
    together with its ambient family, and a VerificationError is raised
    unless every check passes and every component is certified minimal;
    use checked=False to obtain the raw construction.
    """
    K = spec.field
    cls = classify(K, spec.n)
    s = h_n(K, spec.a, spec.n)
    dec = ks_decompose(K, spec.a, s)
    items = tuple(_dispatch(spec, cls, dec))
    family = IdempotentFamily(spec, cls, dec, items)
    if checked:
        return verified(family, ambient_family(family))
    return family


def verified(family: IdempotentFamily, ambient: IdempotentFamily) -> IdempotentFamily:
    """``family`` with the report of ``verify_family(family, ambient)``
    attached; raises VerificationError unless the report passes."""
    from .oracle import VerificationError, verify_family

    report = verify_family(family, ambient)
    if not report.ok:
        raise VerificationError(report)
    return replace(family, report=report)


def ambient_spec(spec: AlgebraSpec) -> AlgebraSpec:
    """The same algebra over the ambient field A, with the trivial
    involution; equal to ``spec`` when K = A."""
    K = spec.field
    A = FieldDescriptor(K.kind, IDENTITY, level=K.level, q=K.q, d=K.d)
    return AlgebraSpec(A, spec.n, A.element(spec.a.coeffs))


def ambient_family(family: IdempotentFamily) -> IdempotentFamily:
    """The family of ``ambient_spec(family.spec)``: ``family`` itself
    when K = A, else one unchecked build."""
    if family.spec.field.involution == IDENTITY:
        return family
    return build(ambient_spec(family.spec), checked=False)
