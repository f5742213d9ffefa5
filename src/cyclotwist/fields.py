"""Exact arithmetic in the ambient fields that carry every computation.

A base field K of characteristic != 2 is presented through an *ambient*
field A together with an involution sigma whose fixed field is K.  Two
ambient kinds are supported:

* ``cyclotomic``: A = Q(zeta) for zeta a primitive 2^L-th root of unity.
  Elements are coefficient vectors of exact rationals over the power
  basis 1, zeta, ..., zeta^(2^(L-1) - 1), reduced by zeta^(2^(L-1)) = -1.
  Level L = 1 is Q itself (zeta = -1).
* ``finite``: A = F_q (d = 1) or A = F_q[i] with i^2 = -1 (d = 2, which
  requires q = 3 mod 4 so that -1 is a non-square).  Elements are
  vectors of residues mod q.

The involution is one of: ``identity`` (K = A); ``inverse_conj``
(zeta -> zeta^-1, cyclotomic, L >= 2); ``negated_inverse_conj``
(zeta -> -zeta^-1, cyclotomic, L >= 3); ``frobenius`` (x -> x^q on
F_q[i], i.e. i -> -i).

All arithmetic is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
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
        return AmbientElement(self, tuple(coeffs))

    def coerce(self, c) -> Optional["AmbientElement"]:
        """``c`` as an element of this field: an element of it as is, an
        int or Fraction as a scalar, None for any other type."""
        if isinstance(c, AmbientElement):
            if c.owner != self:
                raise AmbientError("operands live in different fields")
            return c
        if isinstance(c, (int, Fraction)):
            return self.scalar(c)
        return None

    def scalar(self, c: Scalar) -> "AmbientElement":
        pad = [0] * (self.ambient_dim - 1)
        return self.element([c] + pad)

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
        coeffs = [Fraction(0)] * n
        if e < n:
            coeffs[e] = Fraction(1)
        else:
            coeffs[e - n] = Fraction(-1)
        return self.element(coeffs)

    def iter_ambient(self) -> Iterator["AmbientElement"]:
        """All elements of a finite ambient field, in coordinate order."""
        if self.kind != FINITE:
            raise AmbientError("cannot enumerate an infinite field")
        if self.d == 1:
            for c0 in range(self.q):
                yield self.element((c0,))
        else:
            for c0 in range(self.q):
                for c1 in range(self.q):
                    yield self.element((c0, c1))


@dataclass(frozen=True)
class AmbientElement:
    """One element of an ambient field, as an exact coefficient vector."""

    owner: FieldDescriptor
    coeffs: tuple

    def __post_init__(self):
        n = self.owner.ambient_dim
        if len(self.coeffs) != n:
            raise AmbientError(
                f"expected {n} coordinates, got {len(self.coeffs)}"
            )
        if self.owner.kind == CYCLOTOMIC:
            fixed = tuple(
                c if type(c) is Fraction else Fraction(c) for c in self.coeffs
            )
        else:
            q = self.owner.q
            for c in self.coeffs:
                if not isinstance(c, int):
                    raise AmbientError("finite-field coordinates must be integers")
            fixed = tuple(c % q for c in self.coeffs)
        object.__setattr__(self, "coeffs", fixed)

    # -- helpers --------------------------------------------------------

    @classmethod
    def _stored(cls, owner: FieldDescriptor, coeffs: tuple) -> "AmbientElement":
        """An element from coordinates already in the stored form:
        Fractions over Q(zeta), residues mod q over F_q."""
        x = object.__new__(cls)
        object.__setattr__(x, "owner", owner)
        object.__setattr__(x, "coeffs", coeffs)
        return x

    def as_ints(self) -> Tuple[Tuple[int, ...], int]:
        """The prime-field coordinates as integers over one positive
        denominator, (numerators, den); den is 1 over F_q, and over
        Q(zeta) it is the least common denominator."""
        if self.owner.kind != CYCLOTOMIC:
            return self.coeffs, 1
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in self.coeffs), den

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_scalar(self) -> bool:
        return not any(self.coeffs[1:])

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        return self.owner.element(x + y for x, y in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self.owner.element(-x for x in self.coeffs)

    def __sub__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        return self.owner.element(x - y for x, y in zip(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self.owner.coerce(other)
        if o is None:
            return NotImplemented
        own = self.owner
        if own.kind == CYCLOTOMIC:
            return own.element(_cyc_mul(self.coeffs, o.coeffs))
        return own.element(_fin_mul(self.coeffs, o.coeffs, own.q))

    __rmul__ = __mul__

    def inverse(self) -> "AmbientElement":
        own = self.owner
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if own.kind == CYCLOTOMIC:
            return own.element(_cyc_inv(self.coeffs))
        return own.element(_fin_inv(self.coeffs, own.q))

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
        if isinstance(other, AmbientElement):
            return self.owner == other.owner and self.coeffs == other.coeffs
        o = self.owner.coerce(other)
        return NotImplemented if o is None else self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.owner, self.coeffs))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"<[{body}] in {self.owner}>"


# ---------------------------------------------------------------------------
# cyclotomic kernel: tuples of Fractions, basis 1, zeta, ..., zeta^(n-1),
# reduction zeta^n = -1 (negacyclic).
# ---------------------------------------------------------------------------


def _cyc_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    out = [Fraction(0)] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            k = i + j
            if k < n:
                out[k] += ai * bj
            else:
                out[k - n] -= ai * bj
    return tuple(out)


def _cyc_sub(a: tuple, b: tuple) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _cyc_neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _cyc_subgen(m: int) -> tuple:
    """The defining root of the index-2 subfield, as an m-tuple (zeta^2)."""
    if m == 1:
        return (Fraction(-1),)
    g = [Fraction(0)] * m
    g[1] = Fraction(1)
    return tuple(g)


def _interleave(u: tuple, v: tuple) -> tuple:
    out = [None] * (2 * len(u))
    out[0::2] = u
    out[1::2] = v
    return tuple(out)


def _cyc_inv(a: tuple) -> tuple:
    n = len(a)
    if n == 1:
        return (Fraction(1) / a[0],)
    # Write a = u + zeta*v over the subfield generated by zeta^2; then
    # 1/a = (u - zeta*v) / (u^2 - zeta^2 v^2) with the denominator down
    # in the subfield, and recurse.
    u, v = a[0::2], a[1::2]
    g = _cyc_subgen(n // 2)
    den = _cyc_sub(_cyc_mul(u, u), _cyc_mul(_cyc_mul(v, v), g))
    di = _cyc_inv(den)
    return _interleave(_cyc_mul(u, di), _cyc_neg(_cyc_mul(v, di)))


def _rat_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    p, q = c.numerator, c.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _cyc_sqrt(a: tuple) -> Optional[tuple]:
    """A square root of a in the same power basis, or None.

    Recursion over the quadratic tower Q(zeta_{2^L}) > Q(zeta_{2^(L-1)})
    > ... > Q.  Writing a = u + zeta*v, a root x = c + zeta*d must satisfy
    c^2 + zeta^2 d^2 = u and 2cd = v.  If v = 0 the root lies in the
    subfield or in zeta times it; otherwise c^2 = (u + w)/2 for one of the
    two square roots w of the subfield norm u^2 - zeta^2 v^2, and
    d = v/(2c).  Every branch point is tried, so the search is complete.
    """
    n = len(a)
    if n == 1:
        r = _rat_sqrt(a[0])
        return None if r is None else (r,)
    u, v = a[0::2], a[1::2]
    m = n // 2
    g = _cyc_subgen(m)
    if not any(v):
        r = _cyc_sqrt(u)
        if r is not None:
            return _interleave(r, (Fraction(0),) * m)
        r = _cyc_sqrt(_cyc_mul(u, _cyc_inv(g)))
        if r is not None:
            return _interleave((Fraction(0),) * m, r)
        return None
    nrm = _cyc_sub(_cyc_mul(u, u), _cyc_mul(_cyc_mul(v, v), g))
    w = _cyc_sqrt(nrm)
    if w is None:
        return None
    for wc in (w, _cyc_neg(w)):
        csq = tuple((x + y) / 2 for x, y in zip(u, wc))
        c = _cyc_sqrt(csq)
        if c is None or not any(c):
            continue
        d = _cyc_mul(v, _cyc_inv(tuple(2 * x for x in c)))
        return _interleave(c, d)
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
# finite kernel: tuples of residues mod q, length 1 or 2, i^2 = -1.
# ---------------------------------------------------------------------------


def _fin_mul(a: tuple, b: tuple, q: int) -> tuple:
    if len(a) == 1:
        return ((a[0] * b[0]) % q,)
    a0, a1 = a
    b0, b1 = b
    return ((a0 * b0 - a1 * b1) % q, (a0 * b1 + a1 * b0) % q)


def _fin_inv(a: tuple, q: int) -> tuple:
    if len(a) == 1:
        return (pow(a[0], -1, q),)
    a0, a1 = a
    nrm = (a0 * a0 + a1 * a1) % q
    w = pow(nrm, -1, q)
    return ((a0 * w) % q, (-a1 * w) % q)


def _fin_pow(a: tuple, e: int, q: int) -> tuple:
    one = (1,) + (0,) * (len(a) - 1)
    acc, base = one, a
    while e:
        if e & 1:
            acc = _fin_mul(acc, base, q)
        base = _fin_mul(base, base, q)
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
    return _fin_pow(_fin_nonresidue(q, d), odd, q)


def _fin_sqrt(a: tuple, q: int, d: int) -> Optional[tuple]:
    """Tonelli-Shanks, run with generic tuple arithmetic so d=1 and d=2
    share one implementation."""
    if not any(a):
        return a
    big = q**d
    one = (1,) + (0,) * (d - 1)
    if _fin_pow(a, (big - 1) // 2, q) != one:
        return None
    w = _v2(big - 1)
    odd = (big - 1) >> w
    c = _fin_pow(_fin_nonresidue(q, d), odd, q)
    x = _fin_pow(a, (odd + 1) // 2, q)
    t = _fin_pow(a, odd, q)
    m = w
    while t != one:
        i, tt = 0, t
        while tt != one:
            tt = _fin_mul(tt, tt, q)
            i += 1
        assert i < m
        b = _fin_pow(c, 1 << (m - i - 1), q)
        x = _fin_mul(x, b, q)
        c = _fin_mul(b, b, q)
        t = _fin_mul(t, c, q)
        m = i
    assert _fin_mul(x, x, q) == a
    return x


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


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
    return K.element(_fin_pow(g, 1 << (K.root_level - t), K.q))


def sigma(K: FieldDescriptor, x: AmbientElement) -> AmbientElement:
    """Apply the descriptor's involution."""
    if x.owner != K:
        raise AmbientError("element does not belong to this field")
    if K.involution == IDENTITY:
        return x
    return K.element(sigma_coords(K, x.coeffs))


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


def times_coords(vals: Sequence[int], c: Sequence[int], q: int) -> list:
    """Each run of d = len(c) coordinates in ``vals`` (an algebra
    element stored flat) times the ambient element with integer
    coordinates ``c``, in Z[zeta]/(zeta^d + 1), which is also F_q[i]
    for d = 2; reduced mod q when q is nonzero."""
    d = len(c)
    terms = [(j, cj) for j, cj in enumerate(c) if cj]
    if len(terms) == 1 and terms[0][0] == 0:
        c0 = terms[0][1]
        out = list(vals) if c0 == 1 else [v * c0 for v in vals]
    else:
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
    deterministic.
    """
    if x.owner != K:
        raise AmbientError("element does not belong to this field")
    if K.kind == CYCLOTOMIC:
        r = _cyc_sqrt(x.coeffs)
    else:
        r = _fin_sqrt(x.coeffs, K.q, K.d)
    if r is None:
        return None
    cand = K.element(r)
    cand = min(cand, -cand, key=lambda e: e.coeffs)
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
