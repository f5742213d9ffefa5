"""The twisted group algebra K_t<g> and its exact linear algebra.

K_t<g> is K[g]/(g^(2^n) - a): a commutative algebra with basis
1, g, ..., g^(2^n - 1) whose multiplication wraps around with a factor
of a.  An element is stored flat, as one tuple of prime-field integers:
the d ambient coordinates of the coefficient of g^0, then those of g^1,
and so on (d = ``ambient_dim``).  Over F_q they are residues mod q.
Over Q(zeta) they are numerators over one positive common denominator,
reduced so that equality and hashing compare plain tuples.  This is
the form of an ``AmbientElement`` (``ints`` over ``den``) laid end to
end, so a field element enters or leaves the flat tuple by slicing and
one change of denominator, with no conversion.  The coordinates are
*ambient* ones, so the same code serves K-rational elements and
ambient-side constructions; K-rationality is a property tested after
the fact.  ``AlgebraSpec(n, a)`` reads K off a; its ``element`` and
``scalar`` take field elements (or ints and Fractions), ``gbar`` an
exponent, and the read-only ``AlgebraElement.coeffs`` returns them.

``AlgebraElement`` keeps the one element protocol of ``fields.Element``
(immutability, zero tests, sums, negation, equality, hashing, powers,
the product by a field element and the fixed-field test, on the
integer tuples); only products of two elements are its own.  Each is
one big-integer multiplication (Kronecker substitution, see
``alg_mul``), taken on the sublattice of exponents the operands occupy,
so an idempotent supported on every 2^j-th power of g costs a product
of length 2^(n-j), and g^k * x is ``spec.gbar(k) * x``.

Also here: the monic polynomials over K that the construction states
as minimal polynomials (it writes them in closed form, no factoring or
linear algebra), held as their nonzero (degree, coefficient) terms,
at most three for a stated one.  The module holds no certificate:
``oracle.certify_irreducible`` decides whether such a polynomial is
irreducible over K.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import index, sub
from typing import List, Optional, Sequence, Tuple, Union

from .fields import (
    AmbientElement,
    AmbientError,
    Element,
    FieldDescriptor,
    _new as _new_field_element,
    field_of,
    reduce_coords,
    require_depth,
    require_i,
    require_unit_in_k,
    times_coords,
)
from .grammar import format_element

Coeffish = Union["AmbientElement", int, Fraction]


@dataclass(frozen=True)
class AlgebraSpec:
    """K_t<g> = K[g]/(g^(2^n) - a) for a unit a of K; ``field`` is a's."""

    n: int
    a: AmbientElement

    def __post_init__(self):
        require_depth(self.n, "n")
        require_i(field_of(self.a), "the construction")
        require_unit_in_k(self.a)

    field = property(lambda self: self.a.owner)

    @property
    def size(self) -> int:
        return 1 << self.n

    # -- element construction -------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        """The element sum_k coeffs[k] * g^k, from 2^n field elements."""
        parts = [_field_element(self.field, c) for c in coeffs]
        den = lcm(*(x.den for x in parts))
        return AlgebraElement(
            self, [v * (den // x.den) for x in parts for v in x.ints], den
        )

    def zero(self) -> "AlgebraElement":
        return self.scalar(0)

    def one(self) -> "AlgebraElement":
        return self.scalar(1)

    def scalar(self, c: Coeffish) -> "AlgebraElement":
        x = _field_element(self.field, c)
        pad = (self.size - 1) * self.field.ambient_dim
        return _new(self, x.ints + (0,) * pad, x.den)

    def gbar(self, e: int = 1) -> "AlgebraElement":
        """The basis monomial g^e for e >= 0, reduced by g^(2^n) = a:
        a^(e div 2^n) as the coefficient of g^(e mod 2^n).  Library API
        (README, Library): no command forms a monomial."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        wraps, r = divmod(e, self.size)
        c = self.a**wraps
        d = self.field.ambient_dim
        pad = (0,) * d
        return _new(self, pad * r + c.ints + pad * (self.size - r - 1), c.den)

    def coerce(self, c) -> Optional["AlgebraElement"]:
        """``c`` as an element of this algebra: an element of it as is, a
        field element or any other number as a scalar
        (``FieldDescriptor.coerce``), None for anything else.  Library
        API (README, Library): the lift of the other operand of a sum,
        difference or comparison (``Element._lift``); no command mixes
        an algebra element with a number."""
        if isinstance(c, AlgebraElement):
            if c.owner is not self and c.owner != self:
                raise AmbientError("operands live in different algebras")
            return c
        x = self.field.coerce(c)
        return None if x is None else self.scalar(x)


def _field_element(K: FieldDescriptor, c: Coeffish) -> AmbientElement:
    """``c`` as an element of K (``FieldDescriptor.coerce``), refusing
    anything that is not a number."""
    x = K.coerce(c)
    if x is None:
        raise TypeError(f"cannot use {type(c).__name__} as a field element")
    return x


class AlgebraElement(Element):
    """An element of K_t<g> over ``spec``, its owner, stored flat:
    ``ints`` holds the ambient coordinates of the coefficient of g^k at
    [k*d, (k+1)*d), as numerators over ``den`` (see the module
    docstring).  The constructor reduces what it is given."""

    __slots__ = ()

    spec = Element.owner  # an algebra owns its elements
    field = property(lambda self: self.owner.a.owner)  # the field of spec.a

    def __new__(cls, spec: AlgebraSpec, ints: Sequence[int], den: int = 1):
        K = spec.field
        if len(ints) != spec.size * K.ambient_dim:
            raise ValueError(
                f"expected {spec.size} coefficients of {K.ambient_dim} "
                f"coordinates, got {len(ints)} coordinates"
            )
        if not den:
            raise ZeroDivisionError("zero denominator")
        # index() refuses anything but integers
        return _new(spec, *reduce_coords(K, list(map(index, ints)), index(den)))

    @property
    def coeffs(self) -> Tuple[AmbientElement, ...]:
        """The 2^n coefficients as ambient field elements (read-only)."""
        K = self.field
        d = K.ambient_dim
        ints, den = self.ints, self.den
        return tuple(
            _new_field_element(K, *reduce_coords(K, ints[base : base + d], den))
            for base in range(0, len(ints), d)
        )

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return alg_mul(self, other)
        c = self.field.coerce(other)
        return NotImplemented if c is None else self._times(c)

    __rmul__ = __mul__

    def __repr__(self):
        body = " + ".join(
            f"({c!r})*g^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()
        )
        return f"<{body or '0'}>"


_new = AlgebraElement._make


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Twisted cyclic convolution: exponents wrap with a factor of a.

    One big-integer product does the work (Kronecker substitution).
    Both operands live on the lattice of exponents divisible by
    ``step``, the gcd of 2^n and every exponent where x or y is
    nonzero: the smaller of the two ``lattice_step``s, both powers of
    two.  They are polynomials in u = g^step with u^M = a,
    M = 2^n/step.  Their stored integer coordinates (residues mod q,
    or numerators over each operand's denominator) go into slots of
    one int each, 2d-1 slots per power of u for an ambient field of
    dimension d, so the product's coordinates land in separate slots.
    Each slot is wide enough for the largest coordinate a product can
    have, with a sign bit, rounded up to whole bytes.  The product is
    read back as 2M powers of u, the top one zero, and folded a lane
    (one slot of every power) at a time: zeta^d = -1 (i^2 = -1)
    subtracts lane j + d from lane j, and u^M = a adds the upper M
    powers times a to the lower ones in one ``times_coords`` call.

    The product of two elements is library API (README, Library), and
    no command forms one unless a family fails a check, where
    ``oracle.verify_family`` computes e*e.  It is kept as the package's
    big-integer product of algebra elements, the kernel a faster
    annihilation check would share.
    """
    if x.spec is not y.spec and x.spec != y.spec:
        raise AmbientError("operands live in different algebras")
    spec = x.spec
    K = spec.field
    if x.is_zero() or y.is_zero():
        return spec.zero()
    d = K.ambient_dim
    step = lattice_step(x.ints, d)
    if y is not x:
        step = min(step, lattice_step(y.ints, d))
    M = spec.size // step
    xs = on_lattice(x.ints, d, step)
    ys = xs if y is x else on_lattice(y.ints, d, step)
    stride = 2 * d - 1
    bound = max(map(abs, xs)) * max(map(abs, ys)) * M * d
    width = ((bound.bit_length() + 2) + 7) // 8
    px = _pack(xs, d, width)
    prod = px * px if y is x else px * _pack(ys, d, width)
    digits = _unpack(prod, 2 * M * stride, width)
    folded = [0] * (2 * M * d)
    for j in range(d - 1):
        folded[j::d] = map(sub, digits[j::stride], digits[j + d :: stride])
    folded[d - 1 :: d] = digits[d - 1 :: stride]
    a = spec.a
    wrapped = times_coords(folded[M * d :], a.ints, 0)
    vals = [v * a.den + w for v, w in zip(folded[: M * d], wrapped)]
    den = x.den * y.den * a.den
    return _new(spec, *reduce_coords(K, off_lattice(vals, d, step, spec.size), den))


def lattice_step(ints: Sequence[int], d: int) -> int:
    """The coarsest power of two that divides 2^n and every exponent
    where the flat element ``ints`` (d coordinates per power of g) is
    nonzero; 2^n for zero.  Read off the coordinates level by level:
    once every nonzero exponent is a multiple of h, they are all
    multiples of 2h exactly when the odd multiples of h hold only
    zeros, which d strided slices test."""
    size = len(ints) // d
    h = 1
    while h < size:
        stride = 2 * h * d
        if any(any(ints[h * d + j :: stride]) for j in range(d)):
            return h
        h *= 2
    return size


def on_lattice(ints: Sequence[int], d: int, step: int) -> Sequence[int]:
    """The coordinates of g^0, g^step, g^(2*step), ..., d per power."""
    if step == 1:
        return ints
    out = [0] * (len(ints) // step)
    for j in range(d):
        out[j::d] = ints[j :: step * d]
    return out


def off_lattice(xs: Sequence[int], d: int, step: int, size: int) -> list:
    """The inverse of ``on_lattice``: ``xs`` laid on g^0, g^step, ...
    in 2^n = ``size`` flat coefficients, zero off the lattice."""
    out = [0] * (size * d)
    for j in range(d):
        out[j :: step * d] = xs[j::d]
    return out


def _pack(vals: Sequence[int], d: int, width: int) -> int:
    """Digits ``vals`` (d per power of u) at slots m*(2d-1) + j, each
    ``width`` bytes, as one signed int: every slot holds digit + half
    (half = 2^(8*width-1), so no slot is negative), and the bias, half
    in every slot, is subtracted once."""
    stride = 2 * d - 1
    half = 1 << (8 * width - 1)
    slots = [half] * (len(vals) // d * stride)
    for j in range(d):
        slots[j::stride] = [v + half for v in vals[j::d]]
    raw = b"".join(v.to_bytes(width, "little") for v in slots)
    return int.from_bytes(raw, "little") - _bias(len(slots), width)


def _unpack(prod: int, slots: int, width: int) -> List[int]:
    """The signed digits of ``prod`` in ``slots`` slots of ``width``
    bytes, each smaller than 2^(8*width-1) in absolute value: adding the
    bias makes every slot digit + half with no carries."""
    half = 1 << (8 * width - 1)
    raw = (prod + _bias(slots, width)).to_bytes(slots * width, "little")
    return [
        int.from_bytes(raw[t : t + width], "little") - half
        for t in range(0, slots * width, width)
    ]


def _bias(slots: int, width: int) -> int:
    """half = 2^(8*width-1) in every slot."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


# ---------------------------------------------------------------------------
# polynomials over K (stored as their nonzero terms, ambient coefficients)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """A monic polynomial with coefficients in the ambient field, stated
    as its nonzero terms: (degree, coefficient) pairs, degrees strictly
    increasing, the last coefficient 1 (Johnson, "Sparse polynomial
    arithmetic", SIGSAM Bull. 8(3), 1974)."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("empty polynomial")
        degrees = [k for k, _ in self.terms]
        if degrees[0] < 0 or any(j >= k for j, k in zip(degrees, degrees[1:])):
            raise ValueError("term degrees must be >= 0 and strictly increasing")
        if not all(c for _, c in self.terms):
            raise ValueError("a stated term has a zero coefficient")
        top = self.terms[-1][1]
        if top != top.owner.one():
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return self.terms[-1][0]

    def __str__(self):
        parts = []
        for k, c in reversed(self.terms):
            mono = "1" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if k == self.degree:
                parts.append(mono)
                continue
            if c.is_scalar():
                lead = format_element(c)
                sign = "-" if lead.startswith("-") else "+"
                mag = lead.lstrip("-")
                body = mag if k == 0 else (f"{mono}" if mag == "1" else f"{mag}*{mono}")
            else:
                sign = "+"
                vec = format_element(c)
                body = f"({vec})" if k == 0 else f"({vec})*{mono}"
            parts.append(f"{sign} {body}")
        return " ".join(parts)
