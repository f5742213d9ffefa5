"""Exact arithmetic in the ambient fields that carry every computation.

A base field K of characteristic != 2 is presented through an *ambient*
field A together with an involution sigma whose fixed field is K.  Every
ambient field is one ring, Z[zeta] for zeta a primitive 2^L-th root of
unity (1 <= L <= LEVEL_BOUND), reduced mod q, with the power basis
1, zeta, ..., zeta^(2^(L-1) - 1) reduced by zeta^(2^(L-1)) = -1:

* q = 0: A = Q(zeta); level L = 1 is Q itself (zeta = -1);
* q an odd prime: A = F_q (L = 1) or A = F_q[i] (L = 2, zeta = i, which
  requires q = 3 mod 4 so that -1 is a non-square).

An element is stored as integer coordinates over that basis, in the
same reduced form as a flat algebra element: residues mod q over F_q,
and over Q(zeta) numerators over one positive denominator in lowest
terms, so equality and hashing compare plain tuples.  Both kinds keep
one element protocol, ``Element``: immutability, zero tests, sums,
differences, negation, equality, hashing, powers, operand coercion,
the product by a field element and the fixed-field test, written once
on those integers.  A single element over F_q or F_q[i] holds one or
two residues, and its products, sums and inverse are closed forms on
them; flat algebra elements and characteristic 0 use the general
kernel, one product ``times_coords`` in Z[zeta]/(zeta^d + 1) and one
inverse by descent through the quadratic tower.  Square roots descend
the same tower, to ``isqrt`` over Z (Z[zeta] is the full ring of
integers of Q(zeta), so roots over Q(zeta) run on integers too) or to
Tonelli-Shanks mod q.
``fractions.Fraction`` appears only at the boundary:
``FieldDescriptor.element`` accepts it and ``AmbientElement.coeffs``
returns it.

Each field is one object (``interned``): it is validated once, computes
its shape, 0, 1 and roots of unity once, and owner tests succeed on
identity.  A descriptor built directly is equal and hashes alike; it
only misses that fast path.  An element holds its field (``owner``),
and each operation on it reads the field there; ``field_of`` refuses a
number in an element's place.

The involution is one of: ``identity`` (K = A); ``inverse_conj``
(zeta -> zeta^-1, L >= 2; on F_q[i] this is Frobenius x -> x^q, as
i^q = -i); ``negated_inverse_conj`` (zeta -> -zeta^-1, L >= 3).

All arithmetic is exact; there is no floating point anywhere, and
``element`` refuses it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from math import gcd, isqrt, lcm
from numbers import Number
from typing import Iterator, Optional, Sequence, Tuple, Union

IDENTITY = "identity"
INVERSE_CONJ = "inverse_conj"
NEGATED_INVERSE_CONJ = "negated_inverse_conj"

# The bound on n, the exponent of the group order 2^n, and so on the
# depth of every 2-power test; ``require_depth`` is its one reader.
POWER_TEST_CAP = 16

Scalar = Union[int, Fraction]


class AmbientError(ValueError):
    """Raised for ill-formed descriptors, elements, or mixed-field ops."""


# Miller-Rabin on the prime bases up to 41 decides primality exactly
# below psi_13 (Sorenson & Webster, "Strong pseudoprimes to twelve prime
# bases", 2015); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981

# The bound on the cyclotomic level L: an element of Q(zeta_{2^L}) has
# 2^(L-1) coordinates.
LEVEL_BOUND = 16


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p < PRIME_TEST_BOUND."""
    if p < 2:
        return False
    for base in _MR_BASES:
        if p % base == 0:
            return p == base
    odd = p - 1
    w = _v2(odd)
    odd >>= w
    for base in _MR_BASES:
        x = pow(base, odd, p)
        if x in (1, p - 1):
            continue
        for _ in range(w - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _v2(x: int) -> int:
    """2-adic valuation of a positive integer."""
    assert x > 0
    return (x & -x).bit_length() - 1


@dataclass(frozen=True)
class FieldDescriptor:
    """An ambient field A = Z[zeta_{2^level}] mod q plus the involution
    that cuts out K inside it; q = 0 is characteristic 0, A = Q(zeta)."""

    involution: str
    level: int
    q: int = 0

    def __post_init__(self):
        if self.level < 1:
            raise AmbientError("cyclotomic level must be >= 1")
        if self.level > LEVEL_BOUND:
            raise AmbientError(
                f"cyclotomic level must be at most {LEVEL_BOUND}, got {self.level}"
            )
        if self.q:
            if self.q >= PRIME_TEST_BOUND:
                raise AmbientError(
                    f"finite modulus must be below {PRIME_TEST_BOUND}, the "
                    "bound of the primality test"
                )
            if self.q < 3 or self.q % 2 == 0 or not _is_prime(self.q):
                raise AmbientError("finite modulus must be an odd prime")
            if self.level > 2:
                raise AmbientError(f"finite level must be 1 or 2, got {self.level}")
            if self.level == 2 and self.q % 4 != 3:
                raise AmbientError("F_q[i] needs q = 3 mod 4")
        if self.involution == INVERSE_CONJ:
            if self.level < 2:
                raise AmbientError("inverse_conj needs level >= 2")
        elif self.involution == NEGATED_INVERSE_CONJ:
            if self.level < 3:
                raise AmbientError("negated_inverse_conj needs level >= 3")
        elif self.involution != IDENTITY:
            raise AmbientError(
                "involution must be identity, inverse_conj or negated_inverse_conj"
            )

    # -- basic shape, computed once per descriptor ----------------------

    @functools.cached_property
    def ambient_dim(self) -> int:
        """Dimension of A over its prime field."""
        return 1 << (self.level - 1)

    @functools.cached_property
    def root_level(self) -> int:
        """Largest t such that A contains a primitive 2^t-th root of unity."""
        if self.q:
            return _v2(self.q**self.ambient_dim - 1)
        return self.level

    @functools.cached_property
    def _roots(self) -> Tuple[tuple, tuple]:
        """(eps_t, eps_t^-1) for t = 0..root_level: eps_(t-1) = eps_t^2,
        each a ``squarings`` ladder from t = root_level down."""
        L, q, d = self.root_level, self.q, self.ambient_dim
        if q:
            top = _new(self, _fin_nonresidue(q, d), 1) ** ((q**d - 1) >> L)
        else:
            top = self.zeta_pow(1)
        roots, inverses = squarings(top, L), squarings(top.inverse(), L)
        return tuple(reversed(roots)), tuple(reversed(inverses))

    def __str__(self) -> str:
        tail = f" mod {self.q}" if self.q else ""
        return f"cyclotomic(level={self.level}, {self.involution}){tail}"

    # -- element construction ------------------------------------------

    def element(self, coeffs) -> "AmbientElement":
        """The element with these coordinates over the power basis: ints,
        or over Q(zeta) also Fractions.  Anything inexact, such as a
        float, is refused."""
        vals = tuple(coeffs)
        n = self.ambient_dim
        if len(vals) != n:
            raise AmbientError(f"expected {n} coordinates, got {len(vals)}")
        self._refuse_inexact(vals)
        den = lcm(*(c.denominator for c in vals))
        nums = [c.numerator * (den // c.denominator) for c in vals]
        return _new(self, *reduce_coords(self, nums, den))

    def coerce(self, c) -> Optional["AmbientElement"]:
        """``c`` as an element of this field: an element of it as is, any
        other number as a scalar (``element`` refuses inexact ones), None
        for anything that is not a number."""
        if isinstance(c, AmbientElement):
            if c.owner is not self and c.owner != self:
                raise AmbientError("operands live in different fields")
            return c
        if isinstance(c, Number):
            return self.scalar(c)
        return None

    def _refuse_inexact(self, vals) -> None:
        """Refuse any coordinate but an int, or over Q(zeta) a Fraction."""
        exact, names = int, "int"
        if not self.q:
            exact, names = (int, Fraction), "int or Fraction"
        for c in vals:
            if not isinstance(c, exact):
                raise AmbientError(
                    f"cannot use {type(c).__name__} as a coordinate over {self}: "
                    f"expected {names}"
                )

    def scalar(self, c: Scalar) -> "AmbientElement":
        """``element((c, 0, ..., 0))``, checking and reducing c alone."""
        self._refuse_inexact((c,))
        nums, den = reduce_coords(self, [c.numerator], c.denominator)
        return _new(self, nums + (0,) * (self.ambient_dim - 1), den)

    def zero(self) -> "AmbientElement":
        return self._scalars[0]

    def one(self) -> "AmbientElement":
        return self._scalars[1]

    @functools.cached_property
    def _scalars(self) -> tuple:
        """0, 1 and 1/2 (``half``, for halving by one product)."""
        return self.scalar(0), self.scalar(1), self.scalar(2).inverse()

    half = property(lambda self: self._scalars[2])

    def zeta_pow(self, e: int) -> "AmbientElement":
        """zeta^e for the defining root of unity zeta (i over F_q[i],
        -1 at level 1)."""
        n = self.ambient_dim
        e %= 2 * n
        ints = [0] * n
        ints[e % n] = 1 if e < n else -1
        return _new(self, *reduce_coords(self, ints, 1))

    def iter_ambient(self) -> Iterator["AmbientElement"]:
        """All elements of a finite ambient field, in coordinate order."""
        if not self.q:
            raise AmbientError("cannot enumerate an infinite field")
        for ints in product(range(self.q), repeat=self.ambient_dim):
            yield _new(self, ints, 1)


@functools.lru_cache(maxsize=None)
def interned(involution: str, level: int, q: int, /) -> FieldDescriptor:
    """The one descriptor of these values (all positional: one key each)."""
    return FieldDescriptor(involution, level, q)


class Element:
    """The protocol every field and algebra element keeps: an immutable
    value stored as integer coordinates ``ints`` over one denominator
    ``den``, reduced (see the module docstring), and owned by ``owner``,
    a field or an algebra whose ``coerce`` turns an operand into one of
    its elements (None for one it cannot use).  Zero tests, ``+``,
    ``-``, negation, ``==``, ``hash``, ``**``, the product by an ambient
    element and the fixed-field test run on the integers alone.  A
    subclass supplies ``field``, the ambient field of its coordinates;
    products of two algebra elements are the algebra's own."""

    __slots__ = ("owner", "ints", "den")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    @classmethod
    def _make(cls, owner, ints: tuple, den: int):
        """An element from coordinates that are already reduced."""
        x = object.__new__(cls)
        _set_owner(x, owner)
        _set_ints(x, ints)
        _set_den(x, den)
        return x

    def _lift(self, other):
        return self.owner.coerce(other)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_k_rational(self) -> bool:
        """Is every ambient coordinate run fixed by the involution: does
        the element lie in K, or have all its coefficients there?"""
        K = self.field
        return K.involution == IDENTITY or sigma_coords(K, self.ints) == list(self.ints)

    def __add__(self, other, sign: int = 1):  # sign -1 is ``__sub__``
        # an element of this kind and of this very owner needs no lift
        same = type(other) is type(self) and other.owner is self.owner
        o = other if same else self._lift(other)
        if o is None:
            return NotImplemented
        K = self.field
        q = K.q
        if q:  # residues: one comprehension, no denominators
            ints = tuple([(u + sign * v) % q for u, v in zip(self.ints, o.ints)])
            return self._make(self.owner, ints, 1)
        vals = combine_coords(K, self.ints, self.den, o.ints, o.den, sign)
        return self._make(self.owner, *vals)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o - self

    def __neg__(self):
        ints = negate_coords(self.ints, self.field.q)
        return self._make(self.owner, ints, self.den)

    def _times(self, c: "AmbientElement"):
        """self times the ambient element c: each run of coordinates by
        ``times_coords``, which reduces mod q, then over Q(zeta) one
        reduction to lowest terms."""
        K = self.field
        vals = times_coords(self.ints, c.ints, K.q)
        if K.q:
            return self._make(self.owner, tuple(vals), 1)
        return self._make(self.owner, *reduce_coords(K, vals, self.den * c.den))

    def inverse(self):
        raise TypeError(f"{type(self).__name__} has no inverse")

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base, e = base.inverse(), -e
        acc = None
        while e:
            if e & 1:
                acc = base if acc is None else acc * base
            e >>= 1
            if e:  # square only while bits remain
                base = base * base
        return self.owner.one() if acc is None else acc

    def __eq__(self, other):
        if type(other) is not type(self):
            if isinstance(other, Element) and other.field != self.field:
                return False  # over another field: unequal, not an error
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return (
            self.ints == other.ints
            and self.den == other.den
            and (self.owner is other.owner or self.owner == other.owner)
        )

    def __hash__(self):
        # equal elements hash alike across kinds: a scalar as the
        # Fraction it equals (which hashes as the int or Fraction does),
        # any other element as its coordinates up to the last nonzero one
        # (an algebra scalar's tail is zero)
        ints = self.ints
        if not any(ints[1:]):
            return hash(Fraction(ints[0], self.den))
        last = max(compress(range(len(ints)), ints))
        return hash((ints[: last + 1], self.den))


# the slot setters, which bypass the refusing ``__setattr__``
_set_owner, _set_ints, _set_den = (
    Element.owner.__set__, Element.ints.__set__, Element.den.__set__
)


class AmbientElement(Element):
    """One element of an ambient field, its ``owner``: ``ints`` holds its
    coordinates over the power basis as numerators over ``den``.
    ``FieldDescriptor.element`` builds elements."""

    __slots__ = ()

    field = Element.owner  # an ambient field owns its elements

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions over Q(zeta), as residues mod q
        over F_q (read-only)."""
        if self.owner.q:
            return self.ints
        den = self.den
        return tuple(Fraction(v, den) for v in self.ints)

    def is_scalar(self) -> bool:
        return not any(self.ints[1:])

    # -- products ----------------------------------------------------------

    def __mul__(self, other):
        same = type(other) is type(self) and other.owner is self.owner
        o = other if same else self._lift(other)
        if o is None:
            return NotImplemented
        K = self.owner
        q = K.q
        if not q:
            return self._times(o)
        # F_q or F_q[i] (i^2 = -1): the product in closed form
        x, y = self.ints, o.ints
        if len(x) == 1:
            return _new(K, (x[0] * y[0] % q,), 1)
        (x0, x1), (y0, y1) = x, y
        return _new(K, ((x0 * y0 - x1 * y1) % q, (x0 * y1 + x1 * y0) % q), 1)

    __rmul__ = __mul__

    def inverse(self) -> "AmbientElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        K, x, q = self.owner, self.ints, self.owner.q
        if q:  # 1/x mod q, or 1/(u + iv) = (u - iv)/(u^2 + v^2), the
            # norm nonzero as -1 is a non-square when q = 3 mod 4
            if len(x) == 1:
                return _new(K, (pow(x[0], -1, q),), 1)
            u, v = x
            n = pow(u * u + v * v, -1, q)
            return _new(K, (u * n % q, -v * n % q), 1)
        nums, nrm = _inverse_coords(x, 0)
        return _new(K, *reduce_coords(K, [v * self.den for v in nums], nrm))

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self * o.inverse()

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"<[{body}] in {self.owner}>"


_new = AmbientElement._make


# ---------------------------------------------------------------------------
# integer kernel, shared by every ambient field and by flat algebra
# elements: coordinates in Z[zeta]/(zeta^d + 1), reduced mod q when q is
# nonzero (where d <= 2)
# ---------------------------------------------------------------------------


def reduce_coords(
    K: FieldDescriptor, vals: Sequence[int], den: int
) -> Tuple[tuple, int]:
    """(vals, den) in the stored form: residues mod q over F_q (den 1),
    lowest terms with den > 0 over Q(zeta)."""
    q = K.q
    if q:
        if den != 1:
            inv = pow(den, -1, q)
            return tuple([v * inv % q for v in vals]), 1
        return tuple([v % q for v in vals]), 1
    if den < 0:
        vals, den = [-v for v in vals], -den
    g = gcd(den, *vals)
    if g != 1:
        vals, den = [v // g for v in vals], den // g
    return tuple(vals), den


def combine_coords(
    K: FieldDescriptor, x: Sequence[int], dx: int, y: Sequence[int], dy: int, sign: int
) -> Tuple[tuple, int]:
    """x/dx + y/dy (sign 1) or x/dx - y/dy (sign -1), coordinate by
    coordinate, in the stored form (``Element.__add__`` sums residues
    mod q itself)."""
    if dx == dy:
        vals = [u + sign * v for u, v in zip(x, y)]
        den = dx
    else:
        den = lcm(dx, dy)
        fx, fy = den // dx, sign * (den // dy)
        vals = [u * fx + v * fy for u, v in zip(x, y)]
    return reduce_coords(K, vals, den)


def negate_coords(vals: Sequence[int], q: int) -> tuple:
    """-vals, reduced mod q when q is nonzero."""
    return tuple([-v % q for v in vals] if q else [-v for v in vals])


def times_coords(vals: Sequence[int], c: Sequence[int], q: int) -> list:
    """Each run of d = len(c) coordinates in ``vals`` (an ambient
    element, or an algebra element stored flat) times the ambient
    element with integer coordinates ``c``, in Z[zeta]/(zeta^d + 1),
    reduced mod q when q is nonzero.  The product of flat elements and
    of characteristic 0; a single element over F_q or F_q[i] multiplies
    in closed form (``AmbientElement.__mul__``)."""
    d = len(c)
    if d == 1 or not any(c[1:]):  # a scalar
        c0 = c[0]
        if q:
            return [v * c0 % q for v in vals]
        return list(vals) if c0 == 1 else [v * c0 for v in vals]
    if d == 2:  # (x + yi)(c0 + c1 i), run by run
        c0, c1 = c
        if len(vals) == 2:
            x, y = vals
            out = [x * c0 - y * c1, x * c1 + y * c0]
        else:
            it = iter(vals)
            out = [w for x, y in zip(it, it) for w in (x * c0 - y * c1, x * c1 + y * c0)]
    else:
        terms = [(j, cj) for j, cj in enumerate(c) if cj]
        out = [0] * len(vals)
        for base in range(0, len(vals), d):
            for i, v in enumerate(vals[base : base + d]):
                if not v:
                    continue
                for j, cj in terms:
                    k = i + j
                    if k < d:
                        out[base + k] += v * cj
                    else:
                        out[base + k - d] -= v * cj
    return [v % q for v in out] if q else out


def _down_norm(u: Sequence[int], v: Sequence[int], q: int) -> list:
    """u^2 - zeta^2 v^2, the norm of u + zeta*v to the index-2 subfield,
    whose generator is zeta^2 (-1 when the subfield is the prime field,
    where the norm is one integer, u0^2 + v0^2)."""
    m = len(u)
    if m == 1:
        w = u[0] * u[0] + v[0] * v[0]
        return [w % q if q else w]
    gen = (0, 1) + (0,) * (m - 2)
    gvv = times_coords(times_coords(v, v, q), gen, q)
    return [x - y for x, y in zip(times_coords(u, u, q), gvv)]


def _interleave(u: Sequence[int], v: Sequence[int]) -> list:
    """u + zeta*v from its two halves over the index-2 subfield."""
    out = [0] * (2 * len(u))
    out[0::2] = u
    out[1::2] = v
    return out


def _inverse_coords(x: Sequence[int], q: int) -> Tuple[list, int]:
    """(nums, nrm) with x * nums = nrm, a nonzero integer, for nonzero x;
    mod q when q is nonzero.

    Write x = u + zeta*v over the subfield generated by zeta^2; then
    1/x = (u - zeta*v) / (u^2 - zeta^2 v^2) with the denominator down in
    the subfield, and recurse to the prime field.  At d = 2 over F_q
    this is 1/(u + iv) = (u - iv)/(u^2 + v^2).  A monomial c*zeta^k
    needs no descent: 1/x = -zeta^(d-k)/c, as zeta^d = -1.
    """
    support = [k for k, v in enumerate(x) if v]
    if len(support) == 1:
        k = support[0]
        nums = [0] * len(x)
        nums[-k] = -1 if k else 1
        return nums, x[k]
    u, v = x[0::2], x[1::2]
    nums, nrm = _inverse_coords(_down_norm(u, v, q), q)
    minus_v = [-t for t in v]
    return _interleave(times_coords(u, nums, q), times_coords(minus_v, nums, q)), nrm


def _sqrt_coords(a: Sequence[int], q: int) -> Optional[list]:
    """An x with x^2 = a, or None: a and x in Z[zeta] when q = 0, in
    F_q or F_q[i] (coordinates mod q) when q is nonzero.

    One norm descent through the quadratic tower A > ... > prime field
    (Lang, *Algebra*, VI 9).  Writing a = u + zeta*v, a root
    x = c + zeta*d must satisfy c^2 + zeta^2 d^2 = u and 2cd = v.  If
    v = 0 the root lies in the subfield or in zeta times it; otherwise
    c^2 = (u + w)/2 for one of the two square roots w of the subfield
    norm u^2 - zeta^2 v^2, and d = v/(2c).  Only the prime field tells
    q = 0 from q prime: the leaf is ``isqrt`` over Z and Tonelli-Shanks
    mod q, halving is a parity check over Z and a product by (q+1)/2
    mod q, and d comes from an exact division over Z and a modular
    inverse mod q.

    Over Z, Z[zeta] is the ring of integers of Q(zeta) (Washington,
    *Introduction to Cyclotomic Fields*, Thm 2.6), so a root in Q(zeta)
    of an element of Z[zeta] lies in Z[zeta]; a branch whose halving or
    division is not exact has no integral root, hence no root.  Every
    branch point is tried, so the search is complete.
    """
    n = len(a)
    if n == 1:
        if q:
            r = _fp_sqrt(a[0], q)
            return None if r is None else [r]
        if a[0] < 0:
            return None
        r = isqrt(a[0])
        return [r] if r * r == a[0] else None
    u, v = a[0::2], a[1::2]
    m = n // 2
    if not any(v):
        r = _sqrt_coords(u, q)
        if r is not None:
            return _interleave(r, [0] * m)
        # u / zeta^2, with zeta^-2 = -zeta^(2(m-1)) in the subfield
        r = _sqrt_coords(times_coords(u, (0,) * (m - 1) + (-1,), q), q)
        if r is not None:
            return _interleave([0] * m, r)
        return None
    w = _sqrt_coords(_down_norm(u, v, q), q)
    if w is None:
        return None
    for sign in (1, -1):
        twice = [x + sign * y for x, y in zip(u, w)]
        if q:
            half = [t * ((q + 1) >> 1) % q for t in twice]
        elif any(t & 1 for t in twice):
            continue
        else:
            half = [t >> 1 for t in twice]
        c = _sqrt_coords(half, q)
        if c is None or not any(c):
            continue
        # d = v / (2c) = v * nums / (2 * nrm)
        nums, nrm = _inverse_coords(c, q)
        top = times_coords(v, nums, q)
        if q:
            inv = pow(2 * nrm, -1, q)
            return _interleave(c, [t * inv % q for t in top])
        if any(t % (2 * nrm) for t in top):
            continue
        return _interleave(c, [t // (2 * nrm) for t in top])
    return None


@functools.lru_cache(maxsize=None)
def _signed_perm(n: int, k: int) -> Tuple[Tuple[int, int], ...]:
    """zeta -> zeta^k (k odd) on the power basis of length n: zeta^j
    goes to sign * zeta^target, one (target, sign) per j."""
    assert k % 2 == 1
    out = []
    for j in range(n):
        e = (j * k) % (2 * n)
        out.append((e, 1) if e < n else (e - n, -1))
    return tuple(out)


# ---------------------------------------------------------------------------
# finite fields: the first non-square and Tonelli-Shanks
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _fin_nonresidue(q: int, d: int) -> tuple:
    """First non-square of F_{q^d} (d = ``ambient_dim``, 1 or 2) in
    coordinate order.

    x is a square iff its norm to F_q is (Euler's criterion, since
    x^((q^d-1)/2) = N(x)^((q-1)/2)).  In F_q[i] every element of the
    rows (0, c) and (1, 0) is a square (F_q^* and i both are), so the
    first non-square is (1, c) for the least c with 1 + c^2 a non-square
    mod q; (q+1)/2 values of c qualify.
    """
    half = (q - 1) // 2
    for c in range(1, q):
        norm = c if d == 1 else 1 + c * c
        if pow(norm, half, q) != 1:
            return (c,) if d == 1 else (1, c)
    raise AssertionError("no non-residue found in a field of odd order")


def _fp_sqrt(a: int, q: int) -> Optional[int]:
    """A square root of the residue a in F_q, or None: pow(a, (q+1)/4)
    when q = 3 (mod 4), else Tonelli-Shanks, all on builtin ints."""
    a %= q
    if not a:
        return 0
    if pow(a, (q - 1) >> 1, q) != 1:
        return None
    if q & 3 == 3:
        return pow(a, (q + 1) >> 2, q)
    m = _v2(q - 1)
    odd = (q - 1) >> m
    c = pow(_fin_nonresidue(q, 1)[0], odd, q)
    x = pow(a, (odd + 1) >> 1, q)
    t = pow(a, odd, q)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        assert i < m
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return x


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def squarings(x: Element, count: int) -> list:
    """[x, x^2, x^4, ..., x^(2^count)]: count squarings, the one ladder
    behind the roots of unity and the expander's b^(2^r)."""
    out = [x]
    for _ in range(count):
        out.append(out[-1] * out[-1])
    return out


def eps(K: FieldDescriptor, t: int, power: int = 1) -> AmbientElement:
    """The canonical primitive 2^t-th root of unity in the ambient field,
    or with ``power`` -1 its inverse; the descriptor holds them.

    Over Q(zeta): the power zeta^(2^(L-t)) of the defining root.  Mod q:
    the first non-square in coordinate order raised to (q^d - 1)/2^t
    (d = ``ambient_dim``), which is g^(2^(w-t)) for g its power
    generating the 2-Sylow subgroup.  Raises if A has no such root.
    """
    if t < 0 or t > K.root_level:
        raise AmbientError(
            f"no primitive 2^{t}-th root of unity in this ambient field"
        )
    return K._roots[power < 0][t]


def field_of(x: AmbientElement) -> FieldDescriptor:
    """The field that owns x, where an element is required: an int or a
    Fraction, which names no field, is refused."""
    if not isinstance(x, AmbientElement):
        raise AmbientError(f"expected a field element, not {type(x).__name__}")
    return x.owner


def sigma(x: AmbientElement) -> AmbientElement:
    """Apply the involution of x's field."""
    K = field_of(x)
    if K.involution == IDENTITY:
        return x
    return _new(K, tuple(sigma_coords(K, x.ints)), x.den)


def sigma_coords(K: FieldDescriptor, vals: Sequence) -> list:
    """The involution on a run of prime-field coordinates, one ambient
    element after another (an algebra element stored flat): a signed
    permutation of the zeta-coordinates of each.  At level 2 the one
    involution is i -> -i, which negates every second coordinate; that
    is Frobenius x -> x^q over F_q[i], and complex conjugation over
    Q(i).  Residues stay reduced mod q (q is nonzero only up to level
    2); over Q(zeta) the coordinates may be numerators over any common
    denominator."""
    if K.involution == IDENTITY:
        return list(vals)
    n = K.ambient_dim
    if n == 2:
        q = K.q
        out = list(vals)
        out[1::2] = [-v % q for v in vals[1::2]] if q else [-v for v in vals[1::2]]
        return out
    perm = _signed_perm(n, 2 * n - 1 if K.involution == INVERSE_CONJ else n - 1)
    out = [0] * len(vals)
    for base in range(0, len(vals), n):
        chunk = vals[base : base + n]
        if any(chunk):
            for (t, sign), v in zip(perm, chunk):
                out[base + t] = v if sign > 0 else -v
    return out


def require_depth(n: int, name: str) -> None:
    """Refuse a depth ``name`` = n that is no int, or outside
    [0, POWER_TEST_CAP]."""
    if not isinstance(n, int):
        raise TypeError(f"{name} must be an int, not {type(n).__name__}")
    if not 0 <= n <= POWER_TEST_CAP:
        raise ValueError(f"{name} must be in [0, {POWER_TEST_CAP}]")


def require_i(K: FieldDescriptor, needs: str) -> None:
    """Refuse an ambient field with no square root of -1, which ``needs``
    (the construction, the square test) cannot do without."""
    if K.root_level < 2:
        raise ValueError(
            f"the ambient field has no square root of -1; {needs} needs i in A"
        )


def require_unit_in_k(a: AmbientElement) -> None:
    """Refuse an ``a`` that is no unit of K: no field element, not fixed
    by sigma, or zero."""
    field_of(a)
    if not a.is_k_rational():
        raise ValueError("a must lie in the fixed field K")
    if a.is_zero():
        raise ValueError("a must be nonzero")


def norm(x: AmbientElement) -> AmbientElement:
    """The product x * sigma(x); lands in K."""
    return x * sigma(x)


def sqrt_ambient(x: AmbientElement) -> Optional[AmbientElement]:
    """A square root of x in A with a canonical sign, or None.

    Of the two roots +-r the one with the lexicographically smaller
    coordinate vector is returned, making downstream searches
    deterministic.  The root of nums/den is sqrt(nums * den) / den
    (den = 1 over F_q), found by ``_sqrt_coords``; under one positive
    denominator the numerators order as the rationals do.
    """
    K = field_of(x)
    r = _sqrt_coords([v * x.den for v in x.ints], K.q)
    if r is None:
        return None
    nums, den = reduce_coords(K, r, x.den)
    cand = _new(K, min(nums, negate_coords(nums, K.q)), den)
    assert cand * cand == x
    return cand


def is_square(x: AmbientElement) -> bool:
    """``sqrt_ambient(x) is not None``, forming no root mod q: there x
    is a square iff its norm to F_q, x or u^2 + v^2 for x = u + iv, is
    (Euler's criterion).  Over Q(zeta), ``_sqrt_coords`` with no sign."""
    K = field_of(x)
    if K.q:
        nrm = sum(v * v for v in x.ints) if K.level == 2 else x.ints[0]
        return pow(nrm, (K.q - 1) >> 1, K.q) != K.q - 1
    return _sqrt_coords([v * x.den for v in x.ints], 0) is not None


def root_chain(x: AmbientElement, t: int) -> Tuple[int, AmbientElement]:
    """(j, y) for the largest j <= t with x a 2^j-th power in A, and y a
    2^j-th root of x, by at most 2t square roots (see ``classify.h_n``).

    Each step takes the canonical root; from j = L (the root level) on,
    where the 2^j-th roots of x are y times mu_{2^L}, a non-square y is
    first multiplied by eps_L.  ``classify.ks_decompose`` reads both the
    depth and the representative of a off one such chain."""
    K = field_of(x)
    y = x
    for j in range(t):
        r = sqrt_ambient(y)
        if r is None and j >= K.root_level:
            r = sqrt_ambient(y * eps(K, K.root_level))
        if r is None:
            return j, y
        y = r
    return t, y

