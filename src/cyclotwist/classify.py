"""Field classification and 2-power coset analysis of the scalar a.

Everything downstream hinges on two integers and one coset form:

* the field constant m: the ambient field contains primitive 2^t-th
  roots of unity exactly for t <= m; with the type B, D or E it is the
  field's ``classify(K)``, computed once per field and free of n;
* the depth s = h_n(a): the largest s <= n such that a has a 2^s-th
  root somewhere in the ambient field;
* the shape of a inside K_s = K* intersect (A*)^(2^s), which is always
  b^(2^s), -b^(2^s) or (1+eps_m)^(2^s) b^(2^s) for some b in K*.

``h_n`` and ``ks_decompose`` read K off a (``a.owner``).  The
decomposition is fully constructive: one chain of square roots
(``root_chain``) gives both the depth s and an ambient witness
alpha^(2^s) = a, and from alpha it manufactures the K-rational coset
representative b by dividing out a square root of its unit part
alpha/sigma(alpha), an explicit root of unity.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .fields import (
    IDENTITY,
    AmbientElement,
    FieldDescriptor,
    eps,
    norm,
    require_depth,
    require_unit_in_k,
    root_chain,
    sigma,
    sqrt_ambient,
)

PLAIN = "plain"
NEGATED = "negated"
EPS_COSET = "eps_coset"

TYPE_B = "B"
TYPE_D = "D"
TYPE_E = "E"


class Classification(NamedTuple):
    """Symmetry type of K inside A, plus the root-of-unity bound m; both
    belong to the field alone, never to n."""

    field_type: str
    m: int


class CosetDecomposition(NamedTuple):
    """a = b^(2^s) (plain), -b^(2^s) (negated) or (1+eps_m)^(2^s) b^(2^s)
    (eps_coset), with b in K*.  ``root``, alpha^(2^s) = a, ends the root
    chain, which never reads the involution: it is the b of a over A."""

    s: int
    form: str
    b: AmbientElement
    root: AmbientElement


@functools.lru_cache(maxsize=None)
def classify(K: FieldDescriptor) -> Classification:
    """Determine the symmetry type of K and the constant m, once per field.

    Type B: the involution is trivial (K = A).  Otherwise the type is
    read off the involution's action on the top root of unity eps_m:
    eps_m -> eps_m^-1 is type D, eps_m -> -eps_m^-1 is type E.
    """
    m = K.root_level
    if K.involution == IDENTITY:
        return Classification(TYPE_B, m)
    img = sigma(eps(K, m))
    if img == eps(K, m, -1):
        assert m >= 2
        return Classification(TYPE_D, m)
    assert img == -eps(K, m, -1) and m >= 3
    return Classification(TYPE_E, m)


def emulates(cls: Classification, n: int) -> str:
    """The emulation annotation of a field of classification ``cls`` for
    the group size n.  When m >= n+1 the finite supply of 2-power roots
    can never run out within the group, so the field behaves exactly
    like one with unbounded supply: "A" for identity symmetry, "C" for
    inverse-conjugation symmetry, and "none" otherwise.  No construction
    dispatches on it."""
    require_depth(n, "n")
    if cls.m < n + 1:
        return "none"
    return {TYPE_B: "A", TYPE_D: "C"}.get(cls.field_type, "none")


def h_n(a: AmbientElement, n: int) -> int:
    """The largest s in [0, n] with a in (A*)^(2^s).

    One chain of square roots decides it (``root_chain``): the 2^j-th
    roots of a form one coset y * mu_{2^min(j,m)}, y any one of them, and
    eps_m is no square in A, so modulo squares that coset is the class of
    y and, from j = m on, that of y * eps_m (Lang, *Algebra*, VI 9).
    """
    require_unit_in_k(a)
    require_depth(n, "n")
    return root_chain(a, n)[0]


def ks_membership(a: AmbientElement, s: int) -> bool:
    """Is a in K_s = K* intersect (A*)^(2^s)?  The witness may be ambient."""
    require_depth(s, "s")
    return h_n(a, s) == s


def _root_order_log2(x: AmbientElement) -> int:
    """t such that x has multiplicative order 2^t; x must be such a root."""
    t, y, one = 0, x, x.owner.one()
    while y != one:
        y = y * y
        t += 1
        assert t <= x.owner.root_level, "not a 2-power root of unity"
    return t


def _strip_root(alpha: AmbientElement, omega: AmbientElement) -> AmbientElement:
    """Divide alpha by a square root of its unit part omega =
    alpha/sigma(alpha), a 2^t-th root of unity.

    The quotient is fixed by the involution whenever the root eta has
    norm +1; when the norm is -1 (which forces t = m-1 and type E) an
    extra factor eps_2 repairs it.
    """
    K = alpha.owner
    if omega == K.one():
        return alpha
    eta = sqrt_ambient(omega)
    assert eta is not None, "2-power roots of unity are squares up to the top"
    if norm(eta) == K.one():
        return alpha / eta
    assert norm(eta) == -K.one()
    return alpha * eps(K, 2) / eta


def ks_decompose(a: AmbientElement, n: int) -> CosetDecomposition:
    """Write a in one of the three coset forms of K_s, s = h_n(a), for
    the cap n, constructively; ``dec.s`` is that depth.

    One ``root_chain`` finds s and a 2^s-th root y of a.  Up to the
    root level m of ``classify(K)``, y is the witness alpha; for s > m
    the witness is the canonical m-chain of y^(2^m), the same for every
    2^s-th root of a.  When K = A or s = 0, b = alpha.  Otherwise one
    ``_strip_root`` divides out the unit part alpha/sigma(alpha) of the
    witness alpha/u, u = 1+eps_m in type D at full order 2^m and 1 else,
    and the form is read by comparing a with +-(u*b)^(2^s): nothing
    taller than alpha is inverted, and assertions check the bookkeeping.
    """
    require_unit_in_k(a)
    require_depth(n, "n")
    K = a.owner
    cls = classify(K)
    m = cls.m
    s, alpha = root_chain(a, n)
    if s > m:
        alpha = root_chain(alpha ** (1 << m), m)[1]
    if cls.field_type == TYPE_B or s == 0:
        return CosetDecomposition(s, PLAIN, alpha, alpha)

    form, u, witness = PLAIN, K.one(), alpha
    omega = alpha / sigma(alpha)
    t = _root_order_log2(omega)
    assert t <= min(s, m)
    if cls.field_type == TYPE_D and t == m:
        # the unit part has full order; only the coset of (1+eps_m) absorbs it
        form, u = EPS_COSET, u + eps(K, m)
        witness, omega = alpha / u, omega * sigma(u) / u
        assert _root_order_log2(omega) < m
    b = _strip_root(witness, omega)
    assert b.is_k_rational()
    power = (u * b) ** (1 << s)
    if a != power:
        assert form == PLAIN and a == -power and 1 <= s <= m - 1
        form = NEGATED
    return CosetDecomposition(s, form, b, alpha)
