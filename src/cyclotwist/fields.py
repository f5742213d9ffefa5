"""Exact arithmetic in the ambient fields that carry every computation.

A base field K of characteristic != 2 is presented through an *ambient*
field A together with an involution sigma whose fixed field is K.  Two
ambient kinds are supported:

* ``cyclotomic``: A = Q(zeta) for zeta a primitive 2^L-th root of unity,
  1 <= L <= LEVEL_BOUND, with the power basis 1, zeta, ...,
  zeta^(2^(L-1) - 1) reduced by zeta^(2^(L-1)) = -1.  Level L = 1 is Q
  itself (zeta = -1).
* ``finite``: A = F_q (d = 1) or A = F_q[i] with i^2 = -1 (d = 2, which
  requires q = 3 mod 4 so that -1 is a non-square).

An element is stored as integer coordinates over that basis, in the
same reduced form as a flat algebra element: residues mod q over F_q,
and over Q(zeta) numerators over one positive denominator in lowest
terms, so equality and hashing compare plain tuples.  Both kinds share
one product, ``times_coords`` in Z[zeta]/(zeta^d + 1) (F_q[i] is
d = 2, zeta = i), and one inverse by descent through the quadratic
tower.  Square roots over Q(zeta) run on integers too, because Z[zeta]
is the full ring of integers of Q(zeta).  ``fractions.Fraction``
appears only at the boundary: ``FieldDescriptor.element`` accepts it and
``AmbientElement.coeffs`` returns it.

The involution is one of: ``identity`` (K = A); ``inverse_conj``
(zeta -> zeta^-1, cyclotomic, L >= 2); ``negated_inverse_conj``
(zeta -> -zeta^-1, cyclotomic, L >= 3); ``frobenius`` (x -> x^q on
F_q[i], i.e. i -> -i).

All arithmetic is exact; there is no floating point anywhere, and
``element`` refuses it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from numbers import Number
from typing import Iterator, Optional, Sequence, Tuple, Union

CYCLOTOMIC = "cyclotomic"
FINITE = "finite"

IDENTITY = "identity"
INVERSE_CONJ = "inverse_conj"
NEGATED_INVERSE_CONJ = "negated_inverse_conj"
FROBENIUS = "frobenius"

# Branching power tests walk a binary tree of square-root choices; 2^16
# leaves is the largest tree we ever agree to explore.
POWER_TEST_CAP = 16

Scalar = Union[int, Fraction]


class AmbientError(ValueError):
    """Raised for ill-formed descriptors, elements, or mixed-field ops."""


# Miller-Rabin on the prime bases up to 41 decides primality exactly
# below psi_13 (Sorenson & Webster, "Strong pseudoprimes to twelve prime
# bases", 2015); larger moduli are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981

# An element of Q(zeta_{2^L}) has 2^(L-1) coordinates; levels are bounded
# like n, by the 2^16 ceiling of POWER_TEST_CAP.
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
    """An ambient field A plus the involution that cuts out K inside it.

    ``level`` is the cyclotomic level L (A = Q(zeta_{2^L})); ``q`` and
    ``d`` describe the finite case A = F_{q^d}.  Unused parameters stay 0.
    """

    kind: str
    involution: str
    level: int = 0
    q: int = 0
    d: int = 0

    def __post_init__(self):
        if self.kind == CYCLOTOMIC:
            if self.level < 1:
                raise AmbientError("cyclotomic level must be >= 1")
            if self.level > LEVEL_BOUND:
                raise AmbientError(
                    f"cyclotomic level must be at most {LEVEL_BOUND}, got {self.level}"
                )
            if self.q or self.d:
                raise AmbientError("cyclotomic descriptor must not set q or d")
            if self.involution == INVERSE_CONJ:
                if self.level < 2:
                    raise AmbientError("inverse_conj needs level >= 2")
            elif self.involution == NEGATED_INVERSE_CONJ:
                if self.level < 3:
                    raise AmbientError("negated_inverse_conj needs level >= 3")
            elif self.involution != IDENTITY:
                raise AmbientError(
                    "cyclotomic involution must be identity, inverse_conj "
                    "or negated_inverse_conj"
                )
        elif self.kind == FINITE:
            if self.level:
                raise AmbientError("finite descriptor must not set level")
            if self.q >= PRIME_TEST_BOUND:
                raise AmbientError(
                    f"finite modulus must be below {PRIME_TEST_BOUND}, the "
                    "bound of the primality test"
                )
            if self.q < 3 or self.q % 2 == 0 or not _is_prime(self.q):
                raise AmbientError("finite modulus must be an odd prime")
            if self.d not in (1, 2):
                raise AmbientError("finite extension degree must be 1 or 2")
            if self.d == 2 and self.q % 4 != 3:
                raise AmbientError("F_q[i] needs q = 3 mod 4")
            if self.involution == FROBENIUS:
                if self.d != 2:
                    raise AmbientError("frobenius needs extension degree 2")
            elif self.involution != IDENTITY:
                raise AmbientError("finite involution must be identity or frobenius")
        else:
            raise AmbientError(f"unknown ambient kind {self.kind!r}")

    # -- basic shape ---------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        """Dimension of A over its prime field."""
        if self.kind == CYCLOTOMIC:
            return 1 << (self.level - 1)
        return self.d

    @property
    def root_level(self) -> int:
        """Largest t such that A contains a primitive 2^t-th root of unity."""
        if self.kind == CYCLOTOMIC:
            return self.level
        return _v2(self.q**self.d - 1)

    def __str__(self) -> str:
        if self.kind == CYCLOTOMIC:
            return f"cyclotomic(level={self.level}, {self.involution})"
        return f"finite(q={self.q}, d={self.d}, {self.involution})"

    # -- element construction ------------------------------------------

    def element(self, coeffs) -> "AmbientElement":
        """The element with these coordinates over the power basis: ints,
        or over Q(zeta) also Fractions.  Anything inexact, such as a
        float, is refused."""
        vals = tuple(coeffs)
        n = self.ambient_dim
        if len(vals) != n:
            raise AmbientError(f"expected {n} coordinates, got {len(vals)}")
        exact, names = int, "int"
        if self.kind == CYCLOTOMIC:
            exact, names = (int, Fraction), "int or Fraction"
        for c in vals:
            if not isinstance(c, exact):
                raise AmbientError(
                    f"cannot use {type(c).__name__} as a coordinate over {self}: "
                    f"expected {names}"
                )
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

    def scalar(self, c: Scalar) -> "AmbientElement":
        return self.element((c,) + (0,) * (self.ambient_dim - 1))

    def zero(self) -> "AmbientElement":
        return self.scalar(0)

    def one(self) -> "AmbientElement":
        return self.scalar(1)

    def zeta_pow(self, e: int) -> "AmbientElement":
        """zeta^e for the defining root of unity (cyclotomic only)."""
        if self.kind != CYCLOTOMIC:
            raise AmbientError("zeta_pow is only defined for cyclotomic fields")
        n = self.ambient_dim
        e %= 2 * n
        ints = [0] * n
        ints[e % n] = 1 if e < n else -1
        return _new(self, tuple(ints), 1)

    def iter_ambient(self) -> Iterator["AmbientElement"]:
        """All elements of a finite ambient field, in coordinate order."""
        if self.kind != FINITE:
            raise AmbientError("cannot enumerate an infinite field")
        if self.d == 1:
            for c0 in range(self.q):
                yield _new(self, (c0,), 1)
        else:
            for c0 in range(self.q):
                for c1 in range(self.q):
                    yield _new(self, (c0, c1), 1)


class AmbientElement:
    """One element of an ambient field: ``ints`` holds its coordinates
    over the power basis as numerators over ``den`` (see the module
    docstring).  ``FieldDescriptor.element`` builds elements; the
    arithmetic keeps every result reduced."""

    __slots__ = ("owner", "ints", "den")

    def __setattr__(self, name, value):
        raise AttributeError("field elements are immutable")

    @property
    def coeffs(self) -> tuple:
        """The coordinates as Fractions over Q(zeta), as residues mod q
        over F_q (read-only)."""
        if self.owner.kind != CYCLOTOMIC:
            return self.ints
        den = self.den
        return tuple(Fraction(v, den) for v in self.ints)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_scalar(self) -> bool:
        return not any(self.ints[1:])

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        K = self.owner
        return _new(K, *combine_coords(K, self.ints, self.den, o.ints, o.den, 1))

    __radd__ = __add__

    def __neg__(self):
        return _new(self.owner, negate_coords(self.ints, self.owner.q), self.den)

    def __sub__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        K = self.owner
        return _new(K, *combine_coords(K, self.ints, self.den, o.ints, o.den, -1))

    def __rsub__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        K = self.owner
        vals = times_coords(self.ints, o.ints, 0)
        return _new(K, *reduce_coords(K, vals, self.den * o.den))

    __rmul__ = __mul__

    def inverse(self) -> "AmbientElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        K = self.owner
        nums, nrm = _inverse_coords(self.ints, K.q)
        return _new(K, *reduce_coords(K, [v * self.den for v in nums], nrm))

    def __truediv__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        base = self
        if e < 0:
            base, e = base.inverse(), -e
        acc = self.owner.one()
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, AmbientElement):
            other = self.owner.coerce(other)
            if other is None:
                return NotImplemented
        return (
            self.ints == other.ints
            and self.den == other.den
            and (self.owner is other.owner or self.owner == other.owner)
        )

    def __hash__(self):
        return hash((self.owner, self.ints, self.den))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"<[{body}] in {self.owner}>"


def _new(owner: FieldDescriptor, ints: tuple, den: int) -> AmbientElement:
    """An element from coordinates that are already reduced."""
    x = object.__new__(AmbientElement)
    object.__setattr__(x, "owner", owner)
    object.__setattr__(x, "ints", ints)
    object.__setattr__(x, "den", den)
    return x


# ---------------------------------------------------------------------------
# integer kernel, shared by both kinds and by flat algebra elements:
# coordinates in Z[zeta]/(zeta^d + 1), reduced mod q over F_q (where
# d <= 2 and zeta = i)
# ---------------------------------------------------------------------------


def reduce_coords(
    K: FieldDescriptor, vals: Sequence[int], den: int
) -> Tuple[tuple, int]:
    """(vals, den) in the stored form: residues mod q over F_q (den 1),
    lowest terms with den > 0 over Q(zeta)."""
    if K.kind != CYCLOTOMIC:
        q = K.q
        if den != 1:
            inv = pow(den, -1, q)
            return tuple(v * inv % q for v in vals), 1
        return tuple(v % q for v in vals), 1
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
    coordinate, in the stored form."""
    if K.kind != CYCLOTOMIC:
        q = K.q
        return tuple((u + sign * v) % q for u, v in zip(x, y)), 1
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
    return tuple(-v % q for v in vals) if q else tuple(-v for v in vals)




def times_coords(vals: Sequence[int], c: Sequence[int], q: int) -> list:
    """Each run of d = len(c) coordinates in ``vals`` (an ambient
    element, or an algebra element stored flat) times the ambient
    element with integer coordinates ``c``, in Z[zeta]/(zeta^d + 1),
    which is also F_q[i] for d = 2; reduced mod q when q is nonzero.
    The one product of both ambient kinds."""
    d = len(c)
    if not any(c[1:]):  # a scalar
        c0 = c[0]
        if q:
            return [v * c0 % q for v in vals]
        return list(vals) if c0 == 1 else [v * c0 for v in vals]
    if d == 2:  # (x + yi)(c0 + c1 i), run by run
        c0, c1 = c
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
    whose generator is zeta^2 (-1 when the subfield is the prime field)."""
    m = len(u)
    gen = (-1,) if m == 1 else (0, 1) + (0,) * (m - 2)
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
    this is 1/(u + iv) = (u - iv)/(u^2 + v^2).
    """
    if len(x) == 1:
        return [1], x[0]
    u, v = x[0::2], x[1::2]
    nums, nrm = _inverse_coords(_down_norm(u, v, q), q)
    minus_v = [-t for t in v]
    return _interleave(times_coords(u, nums, q), times_coords(minus_v, nums, q)), nrm


def _sqrt_coords(a: Sequence[int]) -> Optional[list]:
    """An x in Z[zeta] with x^2 = a, or None; a in Z[zeta].

    Z[zeta] is the ring of integers of Q(zeta) (Washington,
    *Introduction to Cyclotomic Fields*, Thm 2.6), so a root in Q(zeta)
    of an element of Z[zeta] lies in Z[zeta] and the search runs on
    integers.  Recursion over the quadratic tower Q(zeta_{2^L}) >
    Q(zeta_{2^(L-1)}) > ... > Q.  Writing a = u + zeta*v, a root
    x = c + zeta*d must satisfy c^2 + zeta^2 d^2 = u and 2cd = v.  If
    v = 0 the root lies in the subfield or in zeta times it; otherwise
    c^2 = (u + w)/2 for one of the two square roots w of the subfield
    norm u^2 - zeta^2 v^2, and d = v/(2c).  A branch whose halving or
    division is not exact has no integral root, hence no root.  Every
    branch point is tried, so the search is complete.
    """
    n = len(a)
    if n == 1:
        if a[0] < 0:
            return None
        r = isqrt(a[0])
        return [r] if r * r == a[0] else None
    u, v = a[0::2], a[1::2]
    m = n // 2
    if not any(v):
        r = _sqrt_coords(u)
        if r is not None:
            return _interleave(r, [0] * m)
        # u / zeta^2, with zeta^-2 = -zeta^(2(m-1)) in the subfield
        r = _sqrt_coords(times_coords(u, (0,) * (m - 1) + (-1,), 0))
        if r is not None:
            return _interleave([0] * m, r)
        return None
    w = _sqrt_coords(_down_norm(u, v, 0))
    if w is None:
        return None
    for sign in (1, -1):
        twice = [x + sign * y for x, y in zip(u, w)]
        if any(t & 1 for t in twice):
            continue
        c = _sqrt_coords([t >> 1 for t in twice])
        if c is None or not any(c):
            continue
        # d = v / (2c) = v * nums / (2 * nrm)
        nums, nrm = _inverse_coords(c, 0)
        top = times_coords(v, nums, 0)
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
# finite fields: the 2-Sylow subgroup and Tonelli-Shanks
# ---------------------------------------------------------------------------


def _fin_pow(a: Sequence[int], e: int, q: int) -> list:
    acc, base = [1] + [0] * (len(a) - 1), a
    while e:
        if e & 1:
            acc = times_coords(acc, base, q)
        base = times_coords(base, base, q)
        e >>= 1
    return acc


@functools.lru_cache(maxsize=None)
def _fin_nonresidue(q: int, d: int) -> tuple:
    """First non-square of F_{q^d} in coordinate order.

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


@functools.lru_cache(maxsize=None)
def _fin_sylow_gen(q: int, d: int) -> tuple:
    """A generator of the 2-Sylow subgroup of F_{q^d}^*."""
    big = q**d - 1
    odd = big >> _v2(big)
    return tuple(_fin_pow(_fin_nonresidue(q, d), odd, q))


def _fin_sqrt(a: Sequence[int], q: int, d: int) -> Optional[list]:
    """Tonelli-Shanks on coordinate vectors, so d=1 and d=2 share one
    implementation."""
    if not any(a):
        return list(a)
    big = q**d
    one = [1] + [0] * (d - 1)
    if _fin_pow(a, (big - 1) // 2, q) != one:
        return None
    m = _v2(big - 1)
    odd = (big - 1) >> m
    c = _fin_sylow_gen(q, d)
    x = _fin_pow(a, (odd + 1) // 2, q)
    t = _fin_pow(a, odd, q)
    while t != one:
        i, tt = 0, t
        while tt != one:
            tt = times_coords(tt, tt, q)
            i += 1
        assert i < m
        b = _fin_pow(c, 1 << (m - i - 1), q)
        x = times_coords(x, b, q)
        c = times_coords(b, b, q)
        t = times_coords(t, c, q)
        m = i
    return x


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def eps(K: FieldDescriptor, t: int) -> AmbientElement:
    """The canonical primitive 2^t-th root of unity in the ambient field.

    Cyclotomic: the power zeta^(2^(L-t)) of the defining root.  Finite:
    g^(2^(w-t)) for g the 2-Sylow generator derived from the first
    non-square in coordinate order.  Raises if A has no such root.
    """
    if t < 0 or t > K.root_level:
        raise AmbientError(
            f"no primitive 2^{t}-th root of unity in this ambient field"
        )
    if t == 0:
        return K.one()
    if K.kind == CYCLOTOMIC:
        return K.zeta_pow(1 << (K.level - t))
    g = _fin_sylow_gen(K.q, K.d)
    return _new(K, tuple(_fin_pow(g, 1 << (K.root_level - t), K.q)), 1)


def sigma(K: FieldDescriptor, x: AmbientElement) -> AmbientElement:
    """Apply the descriptor's involution."""
    if x.owner != K:
        raise AmbientError("element does not belong to this field")
    if K.involution == IDENTITY:
        return x
    return _new(K, tuple(sigma_coords(K, x.ints)), x.den)


def sigma_coords(K: FieldDescriptor, vals: Sequence) -> list:
    """The involution on a run of prime-field coordinates, one ambient
    element after another (an algebra element stored flat): a signed
    permutation of the zeta-coordinates of each, or negating the
    i-coordinate over F_q[i].  Residues stay reduced mod q; over Q(zeta)
    the coordinates may be numerators over any common denominator."""
    if K.involution == IDENTITY:
        return list(vals)
    if K.involution == FROBENIUS:
        out = list(vals)
        out[1::2] = [-v % K.q for v in vals[1::2]]
        return out
    n = K.ambient_dim
    perm = _signed_perm(n, 2 * n - 1 if K.involution == INVERSE_CONJ else n - 1)
    out = [0] * len(vals)
    for base in range(0, len(vals), n):
        chunk = vals[base : base + n]
        if any(chunk):
            for (t, sign), v in zip(perm, chunk):
                out[base + t] = v if sign > 0 else -v
    return out


def is_in_k(K: FieldDescriptor, x: AmbientElement) -> bool:
    """Test membership in the fixed field K of the involution."""
    return sigma(K, x) == x


def norm(K: FieldDescriptor, x: AmbientElement) -> AmbientElement:
    """The product x * sigma(x); lands in K."""
    return x * sigma(K, x)


def sqrt_ambient(K: FieldDescriptor, x: AmbientElement) -> Optional[AmbientElement]:
    """A square root of x in A with a canonical sign, or None.

    Of the two roots +-r the one with the lexicographically smaller
    coordinate vector is returned, making downstream searches
    deterministic.  Over Q(zeta) the root of nums/den is
    sqrt(nums * den) / den, with nums * den in Z[zeta]; under one
    positive denominator the numerators order as the rationals do.
    """
    if x.owner != K:
        raise AmbientError("element does not belong to this field")
    if K.kind == CYCLOTOMIC:
        r = _sqrt_coords([v * x.den for v in x.ints])
    else:
        r = _fin_sqrt(x.ints, K.q, K.d)
    if r is None:
        return None
    cand = _new(K, *reduce_coords(K, r, x.den))
    cand = min(cand, -cand, key=lambda e: e.ints)
    assert cand * cand == x
    return cand


def kth_power_test_branching(
    K: FieldDescriptor, x: AmbientElement, k: int
) -> Optional[AmbientElement]:
    """Find y in A with y^k = x (k a power of two), or None.

    Repeated square roots alone are not enough: at every level both
    signs +-r must be explored, because the branch that continues to
    the bottom need not be the canonical one.  The search therefore
    walks the full sign tree (at most k leaves) and returns the first
    witness found.
    """
    if k < 1 or k & (k - 1):
        raise AmbientError("k must be a positive power of two")
    depth = k.bit_length() - 1
    if depth > POWER_TEST_CAP:
        raise AmbientError(f"power test capped at 2^{POWER_TEST_CAP}")

    def search(y: AmbientElement, lvl: int) -> Optional[AmbientElement]:
        if lvl == 0:
            return y
        r = sqrt_ambient(K, y)
        if r is None:
            return None
        for cand in (r, -r):
            hit = search(cand, lvl - 1)
            if hit is not None:
                return hit
        return None

    return search(x, depth)
