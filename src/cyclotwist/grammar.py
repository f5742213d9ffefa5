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
    Frobenius involution i -> -i (``inverse_conj`` at level 2), so
    that a square root of -1 is always available upstairs.

``parse_field`` and ``format_field`` are mutually inverse on valid
descriptors: ``parse_field(format_field(K)) == K`` always, and
``format_field(parse_field(s))`` is the canonical spelling of ``s``.

Element literals
----------------

An *element literal* is a comma-separated list of coordinates over the
ambient power basis, each in ASCII: an optional sign and decimal digits
(``-4``) for every field, and for cyclotomic fields also a fraction
(``-3/2``) or a decimal (``1.5``, ``.5``, ``5.``).  Spaces may surround
a coordinate but not split it.  No coordinate may hold an exponent
(``e`` or ``E``): ``1e1000000`` would name a million-digit integer in
nine characters, whereas a literal without one is no larger than its
text.  No ``_`` separator or non-ASCII digit is read, so a literal
parses alike on every Python.  A single token denotes a scalar
(rational or residue); otherwise exactly ``ambient_dim`` tokens are
required.  ``format_element`` emits the shortest faithful literal
(scalars as one token) and round-trips through ``parse_element``.
``format_coeffs`` prints the coefficients of a flat algebra element
the same way, straight from its integers.  ``parse_int`` reads every
other integer of the command line, and a field spec's level and
modulus, in the coordinate grammar over F_q: a sign and ASCII digits.  ``format_label`` writes an
item's name, ``e[0]`` or ``e[1,3]``, for the family listing and the
oracle's failure lines alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd

from .fields import (
    IDENTITY,
    INVERSE_CONJ,
    NEGATED_INVERSE_CONJ,
    AmbientElement,
    FieldDescriptor,
    interned,
)

__all__ = [
    "parse_field",
    "format_field",
    "parse_int",
    "parse_element",
    "format_element",
    "format_coeffs",
]


# the coordinate grammar (module docstring): ``int`` and ``Fraction``
# read more than it, and what more differs between Python versions
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


# the cyclotomic spec heads: the involution each names, and its least level
_CYCLOTOMIC = {
    "QC": (IDENTITY, 2),
    "QR": (INVERSE_CONJ, 2),
    "QE": (NEGATED_INVERSE_CONJ, 3),
}


def parse_int(text: str) -> int:
    """``text`` as an int: an optional sign and ASCII decimal digits, which
    spaces may surround, the grammar of a coordinate over F_q.  A ``_``
    separator or a non-ASCII digit, which ``int`` reads, is a ValueError."""
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _spec_int(spec: str, what: str, tail: str) -> int:
    try:
        return parse_int(tail)
    except ValueError:
        raise ValueError(
            f"bad field spec {spec!r}: {what} {tail!r} is not an integer"
        ) from None


def _parse_level(tail: str, spec: str, minimum: int) -> int:
    level = _spec_int(spec, "level", tail)
    if level < minimum:
        raise ValueError(
            f"bad field spec {spec!r}: level must be >= {minimum}, got {level}"
        )
    return level


def parse_field(spec: str) -> FieldDescriptor:
    """Parse a field spec string into its interned :class:`FieldDescriptor`."""
    text = spec.strip()
    if text == "Q":
        return interned(INVERSE_CONJ, 2, 0)
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(
            f"unknown field spec {spec!r}: expected Q, QC:L, QR:L, QE:L, or F:q"
        )
    if head in _CYCLOTOMIC:
        involution, least = _CYCLOTOMIC[head]
        return interned(involution, _parse_level(tail, spec, least), 0)
    if head == "F":
        q = _spec_int(spec, "modulus", tail)
        # FieldDescriptor validates primality/oddness and raises with a
        # diagnostic naming the violated constraint; q = 0 would be
        # characteristic 0.
        if not q:
            raise ValueError("finite modulus must be an odd prime")
        if q % 4 == 1:
            return interned(IDENTITY, 1, q)
        return interned(INVERSE_CONJ, 2, q)
    raise ValueError(
        f"unknown field spec {spec!r}: expected Q, QC:L, QR:L, QE:L, or F:q"
    )


def format_field(field: FieldDescriptor) -> str:
    """Canonical field spec for ``field`` (inverse of :func:`parse_field`)."""
    if field.q:
        if field != parse_field(f"F:{field.q}"):
            raise ValueError(
                "field has no spec string: F:q is F_q when q = 1 (mod 4), "
                "else the fixed field of Frobenius on F_q[i]"
            )
        return f"F:{field.q}"
    for head, (involution, least) in _CYCLOTOMIC.items():
        if field.involution == involution:
            if field.level < least:
                raise ValueError(
                    f"field has no spec string: {head} levels start at {least}"
                )
            return "Q" if (head, field.level) == ("QR", 2) else f"{head}:{field.level}"


def _coordinate(field: FieldDescriptor, token: str):
    token = token.strip()
    pattern, convert = (_INTEGER, int) if field.q else (_RATIONAL, Fraction)
    try:
        if pattern.fullmatch(token):
            return convert(token)
    except ZeroDivisionError:  # a zero denominator
        pass
    raise ValueError(
        f"bad coordinate {token!r}: expected "
        + ("an integer" if field.q else "a rational like -3/2")
    )


def parse_element(field: FieldDescriptor, literal: str) -> AmbientElement:
    """Parse a comma-separated coordinate literal over ``field``'s ambient basis."""
    tokens = literal.split(",")
    if not literal.strip():
        raise ValueError("empty element literal")
    coords = [_coordinate(field, tok) for tok in tokens]
    if len(coords) == 1:
        return field.scalar(coords[0])
    d = field.ambient_dim
    if len(coords) != d:
        want = "1 coordinate" if d == 1 else f"1 or {d} coordinates"
        raise ValueError(
            f"bad element literal {literal!r}: expected {want}, got {len(coords)}"
        )
    return field.element(coords)


def format_element(x: AmbientElement) -> str:
    """Shortest literal that parses back to ``x`` (scalars as one token):
    ``x`` as the one coefficient of a flat element (``format_coeffs``)."""
    return format_coeffs(x.ints, x.den, len(x.ints))[0]


def format_label(label: tuple) -> str:
    """The name of the item with this label: ``e[0]``, ``e[1,3]``."""
    return "e[" + ",".join(map(str, label)) + "]"


def format_coeffs(ints, den: int, d: int) -> list:
    """The literal of each run of ``d`` coordinates in ``ints`` (a flat
    algebra element, numerators over ``den``): the string
    ``format_element`` prints for that coefficient, each coordinate as
    its ``Fraction`` (or residue) would, a scalar as one token.  The
    work is on whole lists: a zero prints "0" and each nonzero
    numerator takes one gcd with ``den``.  A run whose tail is zero
    prints its head alone; only runs with a nonzero tail are joined.
    No run needs reducing first, since every coordinate prints as its
    own reduced fraction."""
    nonzero = list(compress(range(len(ints)), ints))
    toks = ["0"] * len(ints)
    for k in nonzero:
        v = ints[k]
        g = gcd(v, den)
        toks[k] = str(v // g) if g == den else f"{v // g}/{den // g}"
    if d == 1:
        return toks
    out = toks[::d]
    for run in {k // d for k in nonzero if k % d}:
        out[run] = ",".join(toks[run * d : run * d + d])
    return out
