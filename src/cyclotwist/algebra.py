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
the fact.  ``AlgebraSpec.element``/``scalar``/``gbar`` take field
elements (or ints and Fractions), the read-only
``AlgebraElement.coeffs`` returns them, and ``Poly`` holds them.

Addition, scaling and equality run on the integer tuples.  Products
are one big-integer multiplication each (Kronecker substitution, see
``alg_mul``), taken on the sublattice of exponents the operands occupy,
so an idempotent supported on every 2^j-th power of g costs a product
of length 2^(n-j).  Multiplying by a power of g is
``AlgebraElement.shift``, a rotation of the coefficients.

Also here: the monic polynomials over K that the construction states
as minimal polynomials (it writes them in closed form, no factoring or
linear algebra), and the irreducibility certificate for 2-power
binomials over the ambient field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index
from typing import List, Optional, Sequence, Tuple, Union

from .fields import (
    POWER_TEST_CAP,
    AmbientElement,
    AmbientError,
    FieldDescriptor,
    _new as _new_field_element,
    combine_coords,
    is_in_k,
    kth_power_test_branching,
    negate_coords,
    reduce_coords,
    sigma_coords,
    times_coords,
)
from .grammar import format_element

Coeffish = Union["AmbientElement", int, Fraction]


@dataclass(frozen=True)
class AlgebraSpec:
    """K_t<g> = K[g]/(g^(2^n) - a) for a unit a of K."""

    field: FieldDescriptor
    n: int
    a: AmbientElement

    def __post_init__(self):
        if not 0 <= self.n <= POWER_TEST_CAP:
            raise ValueError(f"n must be in [0, {POWER_TEST_CAP}]")
        if self.field.root_level < 2:
            raise ValueError(
                "the ambient field has no square root of -1; the construction "
                "needs i in A"
            )
        if self.a.owner != self.field:
            raise AmbientError("a does not belong to the given field")
        if self.a.is_zero():
            raise ValueError("a must be nonzero")
        if not is_in_k(self.field, self.a):
            raise ValueError("a must lie in the fixed field K")

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
        return self._zero

    @cached_property
    def _zero(self) -> "AlgebraElement":
        return _new(self, (0,) * (self.size * self.field.ambient_dim), 1)

    def one(self) -> "AlgebraElement":
        return self.gbar(0)

    def scalar(self, c: Coeffish) -> "AlgebraElement":
        x = _field_element(self.field, c)
        return _new(self, x.ints + self._zero.ints[len(x.ints) :], x.den)

    def gbar(self, e: int = 1) -> "AlgebraElement":
        """The basis monomial g^e, reduced by g^(2^n) = a.  e >= 0."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        wraps, r = divmod(e, self.size)
        w = self.a**wraps
        d = len(w.ints)
        zeros = self._zero.ints
        return _new(self, zeros[: r * d] + w.ints + zeros[(r + 1) * d :], w.den)


def _field_element(K: FieldDescriptor, c: Coeffish) -> AmbientElement:
    """``c`` as an element of K (``FieldDescriptor.coerce``), refusing
    anything that is not a number."""
    x = K.coerce(c)
    if x is None:
        raise TypeError(f"cannot use {type(c).__name__} as a field element")
    return x


class AlgebraElement:
    """An element of K_t<g> over ``spec``, stored flat: ``ints`` holds
    the ambient coordinates of the coefficient of g^k at
    [k*d, (k+1)*d), as numerators over ``den`` (see the module
    docstring).  The constructor reduces what it is given; the
    arithmetic keeps every result reduced."""

    __slots__ = ("spec", "ints", "den")

    def __init__(self, spec: AlgebraSpec, ints: Sequence[int], den: int = 1):
        K = spec.field
        if len(ints) != spec.size * K.ambient_dim:
            raise ValueError(
                f"expected {spec.size} coefficients of {K.ambient_dim} "
                f"coordinates, got {len(ints)} coordinates"
            )
        if not den:
            raise ZeroDivisionError("zero denominator")
        # index() refuses anything but integers
        _set(self, spec, *reduce_coords(K, list(map(index, ints)), index(den)))

    def __setattr__(self, name, value):
        raise AttributeError("algebra elements are immutable")

    @property
    def coeffs(self) -> Tuple[AmbientElement, ...]:
        """The 2^n coefficients as ambient field elements (read-only)."""
        K = self.spec.field
        d = K.ambient_dim
        zero = K.zero()
        ints, den = self.ints, self.den
        out = []
        for base in range(0, len(ints), d):
            chunk = ints[base : base + d]
            if not any(chunk):
                out.append(zero)
            elif den == 1:  # residues, or integers: already reduced
                out.append(_new_field_element(K, chunk, 1))
            else:
                out.append(_new_field_element(K, *reduce_coords(K, chunk, den)))
        return tuple(out)

    def _lift(self, other) -> Optional["AlgebraElement"]:
        if isinstance(other, AlgebraElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise AmbientError("operands live in different algebras")
            return other
        c = self.spec.field.coerce(other)
        return None if c is None else self.spec.scalar(c)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_k_rational(self) -> bool:
        return sigma_coords(self.spec.field, self.ints) == list(self.ints)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.spec, negate_coords(self.ints, self.spec.field.q), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _combine(self, o, -1)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def scale(self, c: Coeffish) -> "AlgebraElement":
        K = self.spec.field
        x = _field_element(K, c)
        if x.den == 1 and x.ints[0] == 1 and x.is_scalar():
            return self
        vals = times_coords(self.ints, x.ints, K.q)
        return _new(self.spec, *reduce_coords(K, vals, self.den * x.den))

    def shift(self, k: int) -> "AlgebraElement":
        """g^k * self for k >= 0: the coefficients rotate by k, and each
        one that wraps past g^(2^n) picks up a factor of a per wrap."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        spec = self.spec
        K = spec.field
        wraps, r = divmod(k, spec.size)
        cut = (spec.size - r) * K.ambient_dim
        head, tail = self.ints[cut:], self.ints[:cut]
        low = spec.a**wraps
        high = low * spec.a
        den = lcm(low.den, high.den)
        vals = times_coords(head, [v * (den // high.den) for v in high.ints], K.q)
        vals += times_coords(tail, [v * (den // low.den) for v in low.ints], K.q)
        return _new(spec, *reduce_coords(K, vals, self.den * den))

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return alg_mul(self, other)
        c = self.spec.field.coerce(other)
        return NotImplemented if c is None else self.scale(c)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        acc, base = self.spec.one(), self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            c = self.spec.field.coerce(other)
            if c is None:
                return NotImplemented
            other = self.spec.scalar(c)
        return (
            self.ints == other.ints
            and self.den == other.den
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self):
        return hash((self.spec, self.ints, self.den))

    def __repr__(self):
        body = " + ".join(
            f"({c!r})*g^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()
        )
        return f"<{body or '0'}>"


def _set(x: AlgebraElement, spec: AlgebraSpec, ints: tuple, den: int) -> None:
    object.__setattr__(x, "spec", spec)
    object.__setattr__(x, "ints", ints)
    object.__setattr__(x, "den", den)


def _new(spec: AlgebraSpec, ints: tuple, den: int) -> AlgebraElement:
    """An element from coordinates that are already reduced."""
    x = object.__new__(AlgebraElement)
    _set(x, spec, ints, den)
    return x


def _combine(x: AlgebraElement, y: AlgebraElement, sign: int) -> AlgebraElement:
    """x + y (sign 1) or x - y (sign -1)."""
    K = x.spec.field
    return _new(x.spec, *combine_coords(K, x.ints, x.den, y.ints, y.den, sign))


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Twisted cyclic convolution: exponents wrap with a factor of a.

    One big-integer product does the work (Kronecker substitution).
    Both operands live on the lattice of exponents divisible by
    ``step``, the gcd of 2^n and every exponent where x or y is
    nonzero: they are polynomials in u = g^step with u^M = a,
    M = 2^n/step.  Their stored integer coordinates (residues mod q,
    or numerators over each operand's denominator) go into slots of
    one int each, 2d-1 slots per power of u for an ambient field of
    dimension d, so the product's coordinates land in separate slots.
    Each slot is wide enough for the largest coordinate a product can
    have, with a sign bit, rounded up to whole bytes; up to 8 bytes one
    struct call packs or unpacks every slot.  The product is then
    folded back: zeta^d = -1 (i^2 = -1) in the ambient index, and
    u^M = a in the exponent.
    """
    if x.spec is not y.spec and x.spec != y.spec:
        raise AmbientError("operands live in different algebras")
    spec = x.spec
    K = spec.field
    if x.is_zero() or y.is_zero():
        return spec.zero()
    size = spec.size
    d = K.ambient_dim
    step = size
    for z in (x, y):
        for i, v in enumerate(z.ints):
            if v:
                step = gcd(step, i // d)
                if step == 1:
                    break
    M = size // step
    xs = _on_lattice(x.ints, d, step)
    ys = xs if y is x else _on_lattice(y.ints, d, step)
    stride = 2 * d - 1
    bound = max(map(abs, xs)) * max(map(abs, ys)) * M * d
    width = ((bound.bit_length() + 2) + 7) // 8
    px = _pack(xs, d, width)
    prod = px * px if y is x else px * _pack(ys, d, width)
    digits = _unpack(prod, (2 * M - 1) * stride, width)
    rows = [
        [u - v for u, v in zip(digits[b : b + d - 1], digits[b + d : b + stride])]
        + [digits[b + d - 1]]
        for b in range(0, len(digits), stride)
    ]
    den = x.den * y.den
    if M > 1:
        a_num, da = spec.a.ints, spec.a.den
        if da != 1:
            den *= da
            rows[:M] = [[v * da for v in row] for row in rows[:M]]
        for m in range(M - 1):
            wrapped = times_coords(rows[M + m], a_num, 0)
            rows[m] = [u + v for u, v in zip(rows[m], wrapped)]

    vals = [0] * (size * d)
    for m in range(M):
        vals[m * step * d : m * step * d + d] = rows[m]
    return _new(spec, *reduce_coords(K, vals, den))


def _on_lattice(ints: tuple, d: int, step: int) -> Sequence[int]:
    """The coordinates of the coefficients of g^0, g^step, g^(2*step), ..."""
    if step == 1:
        return ints
    return [v for base in range(0, len(ints), step * d) for v in ints[base : base + d]]


# struct codes of unsigned lanes of 1, 2, 4 and 8 bytes
_LANES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pack(vals: Sequence[int], d: int, width: int) -> int:
    """Digits ``vals`` (d per power of u) at slots m*(2d-1) + j, each
    ``width`` bytes, as one signed int: every slot holds digit + half
    (half = 2^(8*width-1), so no slot is negative), and the bias, half
    in every slot, is subtracted once."""
    stride = 2 * d - 1
    half = 1 << (8 * width - 1)
    slots = [half] * (len(vals) // d * stride)
    for m, base in enumerate(range(0, len(vals), d)):
        slots[m * stride : m * stride + d] = [v + half for v in vals[base : base + d]]
    raw = _slot_bytes(slots, width)
    return int.from_bytes(raw, "little") - _bias(len(slots), width)


def _unpack(prod: int, slots: int, width: int) -> List[int]:
    """The signed digits of ``prod`` in ``slots`` slots of ``width``
    bytes, each smaller than 2^(8*width-1) in absolute value: adding the
    bias makes every slot digit + half with no carries."""
    half = 1 << (8 * width - 1)
    raw = (prod + _bias(slots, width)).to_bytes(slots * width, "little")
    if width > 8:
        return [
            int.from_bytes(raw[t : t + width], "little") - half
            for t in range(0, slots * width, width)
        ]
    lane = next(w for w in _LANES if w >= width)
    if lane != width:  # spread each slot over a lane, high bytes zero
        wide = bytearray(lane * slots)
        for j in range(width):
            wide[j::lane] = raw[j::width]
        raw = wide
    return [u - half for u in struct.unpack(f"<{slots}{_LANES[lane]}", raw)]


def _slot_bytes(slots: List[int], width: int) -> bytes:
    """Nonnegative ints below 2^(8*width), ``width`` bytes each, little
    endian.  Up to 8 bytes one struct call writes them into lanes, and
    the low ``width`` bytes of each lane are kept."""
    if width > 8:
        return b"".join(v.to_bytes(width, "little") for v in slots)
    lane = next(w for w in _LANES if w >= width)
    wide = struct.pack(f"<{len(slots)}{_LANES[lane]}", *slots)
    if lane == width:
        return wide
    raw = bytearray(width * len(slots))
    for j in range(width):
        raw[j::width] = wide[j::lane]
    return raw


def _bias(slots: int, width: int) -> int:
    """half = 2^(8*width-1) in every slot."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


# ---------------------------------------------------------------------------
# polynomials over K (stored with ambient coefficients, low degree first)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Binomial:
    """x^degree - constant."""

    degree: int
    constant: AmbientElement


@dataclass(frozen=True)
class Poly:
    """A monic polynomial with coefficients in the ambient field,
    low degree first; coeffs[-1] == 1."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("empty polynomial")
        one = self.coeffs[-1].owner.one()
        if self.coeffs[-1] != one:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_k_rational(self, K: FieldDescriptor) -> bool:
        return all(is_in_k(K, c) for c in self.coeffs)

    def as_binomial(self) -> Optional[Binomial]:
        if self.degree < 1:
            return None
        if any(not c.is_zero() for c in self.coeffs[1:-1]):
            return None
        return Binomial(self.degree, -self.coeffs[0])

    def __str__(self):
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
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


# ---------------------------------------------------------------------------
# irreducibility certificates
# ---------------------------------------------------------------------------


def binomial_irreducible(K: FieldDescriptor, f: Binomial) -> bool:
    """Exact irreducibility of x^(2^k) - c over the ambient field A of K.

    For 2-power degree the classical criterion is two membership tests:
    the binomial is irreducible iff c is not a square, and additionally
    (when the degree is divisible by 4) c is not of the form -4*u^4.
    Both tests reduce to branching power tests over A.
    """
    if f.degree < 1:
        raise ValueError("binomial degree must be >= 1")
    if f.degree == 1:
        return True
    if f.degree & (f.degree - 1):
        raise ValueError("only 2-power degrees are supported")
    c = f.constant
    if kth_power_test_branching(K, c, 2) is not None:
        return False
    if f.degree % 4 == 0:
        quarter = c / K.scalar(-4)
        if kth_power_test_branching(K, quarter, 4) is not None:
            return False
    return True


def certify_irreducible(K: FieldDescriptor, poly: Poly) -> bool:
    """Is poly certified irreducible over the ambient field A of K?

    Over an A that contains i (every field the grammar names) the
    minimal polynomial of every component is linear or a 2-power
    binomial, and the Capelli criterion decides those exactly.  Any
    other polynomial has no certificate: the answer is a definite False,
    never an open verdict.
    """
    if poly.degree < 1:
        raise ValueError("constants have no irreducibility")
    bino = poly.as_binomial()
    if bino is None or bino.degree & (bino.degree - 1):
        return False
    return binomial_irreducible(K, bino)
