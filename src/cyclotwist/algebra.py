"""The twisted group algebra K_t<g> and its exact linear algebra.

K_t<g> is K[g]/(g^(2^n) - a): a commutative algebra with basis
1, g, ..., g^(2^n - 1) whose multiplication wraps around with a factor
of a.  Elements are stored with *ambient* coefficients so that the same
code paths serve K-rational elements and ambient-side constructions;
K-rationality is a property we can always test after the fact.

Products are one big-integer multiplication each (Kronecker
substitution, see ``alg_mul``), taken on the sublattice of exponents
the operands occupy, so an idempotent supported on every 2^j-th power
of g costs a product of length 2^(n-j).  Multiplying by a power of g
is ``AlgebraElement.shift``, a rotation of the coefficients.

Also here: the monic polynomials over K that the construction states
as minimal polynomials (it writes them in closed form, no factoring or
linear algebra), and the irreducibility certificate for 2-power
binomials over the ambient field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple, Union

from .fields import (
    CYCLOTOMIC,
    POWER_TEST_CAP,
    AmbientElement,
    AmbientError,
    FieldDescriptor,
    is_in_k,
    kth_power_test_branching,
)

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

    def _coerce(self, c: Coeffish) -> AmbientElement:
        if isinstance(c, AmbientElement):
            if c.owner != self.field:
                raise AmbientError("coefficient from a different field")
            return c
        return self.field.scalar(c)

    def element(self, coeffs) -> "AlgebraElement":
        return AlgebraElement(self, tuple(self._coerce(c) for c in coeffs))

    def zero(self) -> "AlgebraElement":
        return self.element([0] * self.size)

    def one(self) -> "AlgebraElement":
        return self.gbar(0)

    def scalar(self, c: Coeffish) -> "AlgebraElement":
        out = [self.field.zero()] * self.size
        out[0] = self._coerce(c)
        return AlgebraElement(self, tuple(out))

    def gbar(self, e: int = 1) -> "AlgebraElement":
        """The basis monomial g^e, reduced by g^(2^n) = a.  e >= 0."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        wraps, r = divmod(e, self.size)
        out = [self.field.zero()] * self.size
        out[r] = self.a**wraps
        return AlgebraElement(self, tuple(out))


@dataclass(frozen=True)
class AlgebraElement:
    spec: AlgebraSpec
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.spec.size:
            raise ValueError(
                f"expected {self.spec.size} coefficients, got {len(self.coeffs)}"
            )
        for c in self.coeffs:
            if not isinstance(c, AmbientElement) or c.owner != self.spec.field:
                raise AmbientError("coefficients must come from the base field")

    def _lift(self, other) -> Optional["AlgebraElement"]:
        if isinstance(other, AlgebraElement):
            if other.spec != self.spec:
                raise AmbientError("operands live in different algebras")
            return other
        if isinstance(other, (AmbientElement, int, Fraction)):
            return self.spec.scalar(other)
        return None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_k_rational(self) -> bool:
        return all(is_in_k(self.spec.field, c) for c in self.coeffs)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return AlgebraElement(
            self.spec, tuple(x + y for x, y in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.spec, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return AlgebraElement(
            self.spec, tuple(x - y for x, y in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def scale(self, c: Coeffish) -> "AlgebraElement":
        cc = self.spec._coerce(c)
        return AlgebraElement(self.spec, tuple(cc * x for x in self.coeffs))

    def shift(self, k: int) -> "AlgebraElement":
        """g^k * self for k >= 0: the coefficients rotate by k, and each
        one that wraps past g^(2^n) picks up a factor of a per wrap."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        spec = self.spec
        wraps, r = divmod(k, spec.size)
        low = spec.a**wraps
        high = low * spec.a
        cut = spec.size - r
        head = tuple(c * high if c else c for c in self.coeffs[cut:])
        tail = self.coeffs[:cut]
        if wraps:
            tail = tuple(c * low if c else c for c in tail)
        return AlgebraElement(spec, head + tail)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return alg_mul(self, other)
        if isinstance(other, (AmbientElement, int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
        if isinstance(other, (AmbientElement, int, Fraction)):
            other = self.spec.scalar(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __repr__(self):
        body = " + ".join(
            f"({c!r})*g^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()
        )
        return f"<{body or '0'}>"


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Twisted cyclic convolution: exponents wrap with a factor of a.

    One big-integer product does the work (Kronecker substitution).
    Both operands live on the lattice of exponents divisible by
    ``step``, the gcd of 2^n and every exponent where x or y is
    nonzero: they are polynomials in u = g^step with u^M = a,
    M = 2^n/step.  Their prime-field coordinates are written as
    integers (residues mod q, or numerators over each operand's common
    denominator) into slots of one int each, 2d-1 slots per power of u
    for an ambient field of dimension d, so the product's coordinates
    land in separate slots.  Each slot is wide enough for the largest
    coordinate a product can have, with a sign bit, rounded up to whole
    bytes so packing and unpacking are byte copies.  The product is
    then folded back: zeta^d = -1 (i^2 = -1) in the ambient index, and
    u^M = a in the exponent.
    """
    if x.spec != y.spec:
        raise AmbientError("operands live in different algebras")
    spec = x.spec
    size = spec.size
    if x.is_zero() or y.is_zero():
        return spec.zero()
    step = size
    for z in (x, y):
        for i, c in enumerate(z.coeffs):
            if c:
                step = gcd(step, i)
    M = size // step
    K = spec.field
    d = K.ambient_dim
    stride = 2 * d - 1
    xs, dx = _flat(K, x.coeffs[::step])
    ys, dy = (xs, dx) if y is x else _flat(K, y.coeffs[::step])
    bound = max(map(abs, xs)) * max(map(abs, ys)) * M * d
    width = ((bound.bit_length() + 2) + 7) // 8
    half = 1 << (8 * width - 1)
    px = _pack(xs, d, width, half)
    prod = px * px if y is x else px * _pack(ys, d, width, half)

    # signed digits: biasing every slot by half makes each one a
    # nonnegative byte string
    slots = (2 * M - 1) * stride
    raw = (prod + _bias(slots, width, half)).to_bytes(slots * width, "little")
    digits = [
        int.from_bytes(raw[t : t + width], "little") - half
        for t in range(0, slots * width, width)
    ]
    rows = []
    for base in range(0, len(digits), stride):
        row = digits[base : base + d]
        for j in range(d - 1):
            row[j] -= digits[base + d + j]
        rows.append(row)
    den = dx * dy
    if M > 1:
        a_num, da = _flat(K, (spec.a,))
        if da != 1:
            den *= da
            rows[:M] = [[v * da for v in row] for row in rows[:M]]
        for m in range(M - 1):
            _add_negacyclic(rows[m], a_num, rows[M + m])

    out = [K.zero()] * size
    for m in range(M):
        row = rows[m]
        if K.kind == CYCLOTOMIC:
            row = [Fraction(v, den) for v in row]
        out[m * step] = AmbientElement(K, tuple(row))
    return AlgebraElement(spec, tuple(out))


def _flat(K: FieldDescriptor, coeffs) -> Tuple[List[int], int]:
    """The prime-field coordinates of ``coeffs``, concatenated, as
    integers over one common denominator: (numerators, denominator)."""
    vals = [v for c in coeffs for v in c.coeffs]
    if K.kind != CYCLOTOMIC:
        return vals, 1
    den = lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def _pack(vals: List[int], d: int, width: int, half: int) -> int:
    """Digits ``vals`` (d per power of u) at slots m*(2d-1) + j, each
    ``width`` bytes, as one signed int."""
    pad = half.to_bytes(width, "little") * (d - 1)
    chunks = []
    for base in range(0, len(vals), d):
        for v in vals[base : base + d]:
            chunks.append((v + half).to_bytes(width, "little"))
        chunks.append(pad)
    packed = b"".join(chunks)
    return int.from_bytes(packed, "little") - _bias(len(packed) // width, width, half)


def _bias(slots: int, width: int, half: int) -> int:
    return int.from_bytes(half.to_bytes(width, "little") * slots, "little")


def _add_negacyclic(acc: List[int], f: List[int], h: List[int]) -> None:
    """acc += f*h in Z[zeta]/(zeta^d + 1), d = len(acc)."""
    d = len(acc)
    for i, fi in enumerate(f):
        if not fi:
            continue
        for j, hj in enumerate(h):
            if hj:
                k = i + j
                if k < d:
                    acc[k] += fi * hj
                else:
                    acc[k - d] -= fi * hj


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
                lead = str(c.coeffs[0])
                sign = "-" if lead.startswith("-") else "+"
                mag = lead.lstrip("-")
                body = mag if k == 0 else (f"{mono}" if mag == "1" else f"{mag}*{mono}")
            else:
                sign = "+"
                vec = ",".join(str(x) for x in c.coeffs)
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
