"""Text syntax for naming fields and field elements.

Field specs
-----------

A *field spec* is a short string naming one of the representable fixed
fields together with its ambient presentation:

``Q``
    the rationals, presented inside Q(i) with the conjugation
    involution (the canonical presentation; ``QR:2`` is accepted as a
    synonym and prints back as ``Q``).
``QC:L`` (L >= 2)
    the full cyclotomic field Q(zeta) with zeta of order 2**L, fixed by
    the identity involution.
``QR:L`` (L >= 2)
    the real subfield Q(zeta + zeta**-1) inside Q(zeta) of level L,
    fixed by zeta -> zeta**-1.
``QE:L`` (L >= 3)
    the imaginary subfield Q(zeta - zeta**-1) inside Q(zeta) of level
    L, fixed by zeta -> -zeta**-1.
``F:q`` (q an odd prime)
    the prime field F_q.  When q = 1 (mod 4) the ambient field is F_q
    itself; when q = 3 (mod 4) the ambient field is F_q[i] with the
    Frobenius involution, so that a square root of -1 is always
    available upstairs.

``parse_field`` and ``format_field`` are mutually inverse on valid
descriptors: ``parse_field(format_field(K)) == K`` always, and
``format_field(parse_field(s))`` is the canonical spelling of ``s``.

Element literals
----------------

An *element literal* is a comma-separated list of coordinates over the
ambient power basis: ``Fraction`` syntax (``-3/2``) for cyclotomic
fields, integers for finite fields.  A single token denotes a scalar
(rational or residue); otherwise exactly ``ambient_dim`` tokens are
required.  ``format_element`` emits the shortest faithful literal
(scalars as one token) and round-trips through ``parse_element``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import (
    CYCLOTOMIC,
    FINITE,
    FROBENIUS,
    IDENTITY,
    INVERSE_CONJ,
    NEGATED_INVERSE_CONJ,
    AmbientElement,
    FieldDescriptor,
)

__all__ = [
    "parse_field",
    "format_field",
    "parse_element",
    "format_element",
]


def _parse_level(tail: str, spec: str, minimum: int) -> int:
    try:
        level = int(tail)
    except ValueError:
        raise ValueError(
            f"bad field spec {spec!r}: level {tail!r} is not an integer"
        ) from None
    if level < minimum:
        raise ValueError(
            f"bad field spec {spec!r}: level must be >= {minimum}, got {level}"
        )
    return level


def parse_field(spec: str) -> FieldDescriptor:
    """Parse a field spec string into a :class:`FieldDescriptor`."""
    text = spec.strip()
    if text == "Q":
        return FieldDescriptor(CYCLOTOMIC, INVERSE_CONJ, level=2)
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(
            f"unknown field spec {spec!r}: expected Q, QC:L, QR:L, QE:L, or F:q"
        )
    if head == "QC":
        level = _parse_level(tail, spec, 2)
        return FieldDescriptor(CYCLOTOMIC, IDENTITY, level=level)
    if head == "QR":
        level = _parse_level(tail, spec, 2)
        return FieldDescriptor(CYCLOTOMIC, INVERSE_CONJ, level=level)
    if head == "QE":
        level = _parse_level(tail, spec, 3)
        return FieldDescriptor(CYCLOTOMIC, NEGATED_INVERSE_CONJ, level=level)
    if head == "F":
        try:
            q = int(tail)
        except ValueError:
            raise ValueError(
                f"bad field spec {spec!r}: modulus {tail!r} is not an integer"
            ) from None
        # FieldDescriptor validates primality/oddness and raises with a
        # diagnostic naming the violated constraint.
        if q % 4 == 1:
            return FieldDescriptor(FINITE, IDENTITY, q=q, d=1)
        return FieldDescriptor(FINITE, FROBENIUS, q=q, d=2)
    raise ValueError(
        f"unknown field spec {spec!r}: expected Q, QC:L, QR:L, QE:L, or F:q"
    )


def format_field(field: FieldDescriptor) -> str:
    """Canonical field spec for ``field`` (inverse of :func:`parse_field`)."""
    if field.kind == CYCLOTOMIC:
        if field.involution == IDENTITY:
            if field.level < 2:
                raise ValueError("field has no spec string: QC levels start at 2")
            return f"QC:{field.level}"
        if field.involution == INVERSE_CONJ:
            return "Q" if field.level == 2 else f"QR:{field.level}"
        return f"QE:{field.level}"
    if field.d == 2 and field.involution != FROBENIUS:
        raise ValueError(
            "field has no spec string: quadratic ambient without Frobenius"
        )
    if field.d == 1 and field.q % 4 != 1:
        raise ValueError(
            "field has no spec string: F:q with q = 3 (mod 4) is presented in F_q[i]"
        )
    return f"F:{field.q}"


def _coordinate(field: FieldDescriptor, token: str):
    token = token.strip()
    try:
        if field.kind == CYCLOTOMIC:
            return Fraction(token)
        return int(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"bad coordinate {token!r}: expected "
            + ("a rational like -3/2" if field.kind == CYCLOTOMIC else "an integer")
        ) from None


def parse_element(field: FieldDescriptor, literal: str) -> AmbientElement:
    """Parse a comma-separated coordinate literal over ``field``'s ambient basis."""
    tokens = literal.split(",")
    if not literal.strip():
        raise ValueError("empty element literal")
    coords = [_coordinate(field, tok) for tok in tokens]
    if len(coords) == 1:
        return field.scalar(coords[0])
    if len(coords) != field.ambient_dim:
        raise ValueError(
            f"bad element literal {literal!r}: expected 1 or "
            f"{field.ambient_dim} coordinates, got {len(coords)}"
        )
    return field.element(coords)


def format_element(x: AmbientElement) -> str:
    """Shortest literal that parses back to ``x`` (scalars as one token).
    Each coordinate prints as its ``Fraction`` (or residue) would, from
    the stored numerator and denominator."""
    den = x.den
    out = []
    for v in x.ints[:1] if x.is_scalar() else x.ints:
        g = gcd(v, den)
        out.append(str(v // g) if g == den else f"{v // g}/{den // g}")
    return ",".join(out)
