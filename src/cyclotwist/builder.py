"""Closed-form construction of all minimal idempotents of K_t<g>.

Every minimal idempotent is an averaged character sum

    (1/T) * sum_{j<T} w_j * u^j

over powers of a unit u = b^(-2^r) g^(2^(n-s+r)), where the weights w_j
are the powers of one character chi, or of a character and its image
under the involution, so that the result is K-rational.  Each item is
given by one constant k = b^(2^r) / chi, the constant of its minimal
polynomial x^S - k: its partner, when it has one, is sigma(k), and
there is none exactly when k lies in K.  The sum is over the powers of
c = k^-1, and as k^T = a, c^j = k^(T-j) / a, so the family's
``elements`` inverts a at most once (never for the family {1}, every
T = 1) and nothing it states.  As the powers of u never wrap, the sum
is the T powers of c (and their sigma images) laid on the lattice
g^(j * 2^(n-s+r)); ``_char_sum`` builds them as one
flat integer list by doubling k's ladder down from k/a, with O(log T)
products per item and none per coefficient.  Each case function is the
paper's block table, a function of (K, s) alone: it states its blocks
(r, first_label, start, step, count) with b-free starts, and never sees
b.  ``_expanded``, the one place b enters, multiplies each block's start
by b^(2^r), from one squaring ladder of b, and runs the block's product
by the root of unity ``step``, one product per item, giving the closed
forms (label, r, k) as ``_stated`` reads them.  So every family
is its b-free core's blocks plus b: ``build`` expands them on dec.b,
``core_family`` on b = 1 and ``ambient_constants`` on the root.  An
item is its label and (S, k), S = 2^(n-s+r) read off the algebra's size
2^n; ``_stated`` counts the blocks' items and refuses a family past
``MAX_COORDS`` coordinates before it forms one constant, so a family
that exists fits, and none holds a coefficient:
``IdempotentFamily.elements`` builds them one at a time.  Beyond that
size, n enters only as the cap that ``build`` hands ``ks_decompose``.
Which family of weights applies is decided entirely by the field type
(B/D/E) of ``classify(K)``, the depth s of a in the 2-power filtration,
and the coset form of a in K_s, which ``_dispatch`` alone reads.  The
four case functions below each state one complete family in closed
form; ``build`` dispatches and states each item, and holds no
certificate: ``oracle.verified`` certifies a stated family.
``core_family`` states the b-free core of one (K, form, s), of which
each family of that kind is the image.  The two that serve every depth
(``thm2_case1`` for K = A, ``thm3_case3`` for a plain coset) average
over the roots of unity up to t = min(s, m) or min(s, m-1) and add the
blocks on squared generators only when s runs past that supply.

Index conventions that completeness depends on (pinned by the test
suite, which drops the labels of the rejected narrower variants):

* in the plain high-depth family (``thm3_case3``) the double-indexed
  block starts at r = 0, not r = 1;
* in the negated family (``thm3_case4``) the single index starts at
  i = 0, not i = 1.

Dropping either row leaves the family summing to something other
than 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .algebra import AlgebraElement, AlgebraSpec, Poly, off_lattice
from .classify import (
    EPS_COSET,
    NEGATED,
    TYPE_B,
    TYPE_D,
    TYPE_E,
    CosetDecomposition,
    classify,
    ks_decompose,
)
from .fields import (
    IDENTITY,
    AmbientElement,
    FieldDescriptor,
    eps,
    interned,
    reduce_coords,
    sigma,
    sigma_coords,
    squarings,
    times_coords,
)

# the most coordinates, items x 2^n x d, that a stated family may hold
MAX_COORDS = 1 << 30


@dataclass(frozen=True)
class IdempotentItem:
    """One minimal idempotent e by its constants: g^S * e_k = k * e_k for
    its part e_k.  ``dim`` (of e*K_t<g>) and ``min_poly`` (of g*e) follow
    from (S, k), and ``verify_family`` proves both; ``elements`` builds e."""

    label: tuple
    S: int
    k: AmbientElement

    @property
    def paired(self) -> bool:
        """Does the involution pair k with sigma(k) != k: is k outside K?"""
        return not self.k.is_k_rational()

    @property
    def dim(self) -> int:
        return self.S << self.paired

    @property
    def min_poly(self) -> Poly:
        """x^S - k, or x^(2S) - (k + sigma k) x^S + k sigma k if paired."""
        S, k, one = self.S, self.k, self.k.owner.one()
        sk = sigma(k)
        if sk != k:
            terms = [(0, k * sk), (S, -(k + sk)), (2 * S, one)]
        else:
            terms = [(0, -k), (S, one)]
        return Poly(tuple((e, v) for e, v in terms if v))


@dataclass(frozen=True)
class IdempotentFamily:
    spec: AlgebraSpec
    decomposition: CosetDecomposition
    items: Tuple[IdempotentItem, ...]

    def elements(self) -> Iterator[AlgebraElement]:
        """The items' elements, each built as the stream reaches it; the
        call inverts a iff some item has T > 1, and is within ``MAX_COORDS``."""
        spec, items = self.spec, self.items
        ainv = spec.a.inverse() if any(it.S < spec.size for it in items) else None
        return (_char_sum(spec, it.S, it.k, it.paired, ainv) for it in items)


# ---------------------------------------------------------------------------
# character-sum machinery
# ---------------------------------------------------------------------------


def _char_sum(
    spec: AlgebraSpec,
    S: int,
    k: AmbientElement,
    paired: bool,
    ainv: Optional[AmbientElement],
) -> AlgebraElement:
    """(1/T) * sum_{j<T} c^j * g^(jS) for c = k^-1, plus the same sum
    over sigma(c) when ``paired``, T = 2^n/S: the averaged character sum
    over the powers of the unit u = b^(-2^r) g^S, given the constant
    k = b^(2^r) / chi of its character chi, the item's exponent S and
    ``ainv`` = a^-1.  Since jS < 2^n the powers of u never wrap, so the
    coefficient c^j / T lands on g^(jS).  An unpaired item with T = 1
    (the family {1}) is 1, and reads no ``ainv``.

    Nothing here inverts: k^T = a makes c^j = k^(T-j) / a, so the
    coefficients are k's powers times 1/a, read downward from
    c^(T-1) = k/a to c^0 = k^T/a = 1.  With k/a = w/E and k = nums/D,
    the numerators of c^0, ..., c^(T-1), c^j over E * D^(T-1-j), form
    one flat list of T * d integers, built by doubling: with the last
    m powers c^(T-m), ..., c^(T-1) in place and high = nums^m, one
    ``times_coords`` call gives the m before them, which go in front,
    and squaring high readies the next round, so past the one product
    k * a^-1 the ladder takes log2 T products by high and log2 T - 1
    squarings.  Power j is
    raised to the common denominator top = E * D^(T-1) by one scale
    list (only when D > 1).  The partner's powers are the ladder's
    ``sigma_coords`` image, as sigma(c)^j = sigma(c^j) (sigma fixes a)
    and sigma fixes E and D.  The T * d sums over T * top are reduced
    (the zeros off the lattice change neither the gcd nor a residue),
    then ``off_lattice`` lays them on the lattice g^(jS)."""
    K = spec.field
    q = K.q
    d = K.ambient_dim
    T = spec.size // S
    if T == 1 and not paired:
        return spec.one()
    last = k * ainv  # c^(T-1)
    flat, high = list(last.ints), k.ints
    for i in range(T.bit_length() - 1):
        if i:
            high = times_coords(high, high, q)
        flat = times_coords(flat, high, q) + flat
    top = last.den * k.den ** (T - 1)
    if k.den > 1:  # c^j = w_j / (E * D^(T-1-j)) = w_j * D^j / top
        scales = list(accumulate(repeat(k.den, T - 1), mul, initial=1))
        for i in range(d):
            flat[i::d] = map(mul, flat[i::d], scales)
    if paired:
        flat = list(map(add, flat, sigma_coords(K, flat)))
    flat, den = reduce_coords(K, flat, T * top)
    vals = off_lattice(flat, d, S, spec.size)
    return AlgebraElement._make(spec, tuple(vals), den)


def _expanded(blocks: Sequence[tuple], b: AmbientElement) -> Iterator[tuple]:
    """(label, r, k) of each item of ``blocks``: the items of a block
    (r, first_label, start, step, count) are labelled up from
    first_label in its last index and hold k = start * b^(2^r) * step^i,
    i < count.  The one place b enters the construction: b^(2^r) comes
    from one squaring ladder of b to the blocks' largest r, a start of
    one takes it as it is, and each constant is formed as the stream
    reaches it, one product per item."""
    one, ladder = b.owner.one(), squarings(b, max((r for r, *_ in blocks), default=0))
    for r, label, start, step, count in blocks:
        k0 = ladder[r] if start is one else start * ladder[r]
        ks = accumulate(repeat(step, count - 1), mul, initial=k0)
        head = label[:-1]
        for i, k in enumerate(ks, label[-1]):
            yield head + (i,), r, k


# ---------------------------------------------------------------------------
# the construction cases
# ---------------------------------------------------------------------------


def thm2_case1(K: FieldDescriptor, s: int) -> List[tuple]:
    """K = A, or depth s = 0: the 2^t characters of <h> over eps_t,
    t = min(s, m), each give one idempotent averaged at full length.
    When s exceeds m the rest collapse into one family per extra power
    of two, r = 1..s-m, built on the squared generators."""
    m = K.root_level
    t = min(s, m)
    et = eps(K, t)
    blocks = [(0, (0,), K.one(), et, 1 << t)]
    if s > m:
        em1, count = eps(K, m - 1), 1 << (m - 1)
        blocks += [(r, (r, 0), et, em1, count) for r in range(1, s - m + 1)]
    return blocks


def thm3_case4(K: FieldDescriptor, s: int) -> List[tuple]:
    """a = -b^(2^s) with 1 <= s <= m-1: weights mix eps_{s+1} with the
    characters of <h>, each paired with its image under the
    involution."""
    cls = classify(K)
    assert 1 <= s <= cls.m - 1 and cls.field_type in (TYPE_D, TYPE_E)
    return [(0, (0,), eps(K, s + 1), eps(K, s - 1), 1 << (s - 1))]


def thm3_case3(K: FieldDescriptor, s: int) -> List[tuple]:
    """a = b^(2^s) with s >= 1 and K != A: the characters of <h> over
    eps_t, t = min(s, m-1), pair off under the involution; endpoints
    i = 0 and i = 2^(t-1) are self-paired.  From s = m on, past the
    root-of-unity supply, a double-indexed block over the squared
    generators takes over, r = 0..s-m."""
    cls = classify(K)
    m = cls.m
    assert s >= 1 and cls.field_type in (TYPE_D, TYPE_E)
    t = min(s, m - 1)
    half = 1 << (t - 1)
    blocks = [(0, (0,), K.one(), eps(K, t, -1), half + 1)]
    if s >= m:
        em, em2 = eps(K, m), eps(K, m - 2)
        blocks += [(r, (r, 0), em, em2, half) for r in range(s - m + 1)]
    return blocks


def thm3_case5(K: FieldDescriptor, s: int) -> List[tuple]:
    """a = (1+eps_m)^(2^s) b^(2^s), type D, s >= m.  The unit 1+eps_m
    threads through every weight.  At s = m the first family is already
    complete; deeper s add a block on the squared generator that ends
    in two self-paired idempotents and (from s >= m+2 on) one block per
    further squaring."""
    cls = classify(K)
    m = cls.m
    assert s >= m and cls.field_type == TYPE_D
    u, em1, em2 = eps(K, m), eps(K, m - 1), eps(K, m - 2)
    w = squarings(1 + u, s - m)  # (1+u)^(2^r) for r = 0..s-m
    count, quarter = 1 << (m - 1), 1 << (m - 2)
    blocks = [(0, (0,), w[0], em1, count)]
    if s > m:
        # c0 = 2 + u + u^-1 = (1+u)^2 / u; the block's last constant,
        # c0 * eps_(m-1)^(2^(m-2)) (times b^2), is -c0 (times b^2)
        c0 = w[1] * eps(K, m, -1)
        blocks += [(1, (1, 0), c0 * em1, em1, quarter), (1, (1, count - 1), c0, em1, 1)]
        blocks += [(r, (r, 0), w[r] * u, em2, quarter) for r in range(2, s - m + 1)]
    return blocks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _dispatch(K: FieldDescriptor, form: str, s: int) -> List[tuple]:
    if classify(K).field_type == TYPE_B or s == 0:
        return thm2_case1(K, s)
    if form == NEGATED:
        return thm3_case4(K, s)
    if form == EPS_COSET:
        return thm3_case5(K, s)
    return thm3_case3(K, s)


def build(spec: AlgebraSpec) -> IdempotentFamily:
    """State the complete family of minimal idempotents of K_t<g>.

    One ``ks_decompose`` call gives the depth s = h_n(a) and the coset
    form of a (one chain of square roots, two when s exceeds the root
    level); the case function's blocks, expanded on dec.b, then state
    every item in closed form, by its constants, and no element is
    built; an oversized family is refused (ValueError) on its blocks'
    count, before any constant (``_stated``).  ``build`` never checks
    the family: ``oracle.verified`` certifies it.
    """
    dec = ks_decompose(spec.a, spec.n)
    return _stated(spec, dec, _dispatch(spec.field, dec.form, dec.s))


def core_family(K: FieldDescriptor, form: str, s: int) -> IdempotentFamily:
    """The b-free core of every family over K of coset form ``form`` and
    depth s: the same case function's blocks expanded on b = 1 over
    C = K[z]/(z^(2^s) - u), u = w^(2^s) for the unit w that starts the
    r = 0 block (1, eps_(s+1) or 1+eps_m), whose item's constant k has
    k^(2^s) = u.

    The family of a = u*b^(2^s) at any n >= s is its image under the
    injective map z -> g^(2^(n-s)) * b^-1, item for item: the core item
    (label, 2^r, k) goes to (label, 2^(n-s+r), k*b^(2^r)), as
    ``_expanded`` folds b^(2^r) into each block and nothing else of b.
    ``oracle.verify_core`` certifies a family through it.  It holds no
    a and no n."""
    blocks = _dispatch(K, form, s)
    w = blocks[0][2]
    dec = CosetDecomposition(s, form, K.one(), w)
    return _stated(AlgebraSpec(s, squarings(w, s)[-1]), dec, blocks)


def _stated(spec: AlgebraSpec, dec: CosetDecomposition, blocks) -> IdempotentFamily:
    """The family of the core blocks ``blocks`` expanded on dec.b
    (``_expanded``), each item (label, r, k) at S = 2^(n-s+r).  A family
    of more than ``MAX_COORDS`` coordinates, 2^n x d per item counted
    on the blocks, is refused (ValueError) before any constant is formed."""
    S, d = spec.size >> dec.s, spec.field.ambient_dim  # s <= n
    if sum(count for *_, count in blocks) * spec.size * d > MAX_COORDS:
        raise ValueError(
            f"at {spec.size} coefficients x {d} coordinates per item, the family"
            f" exceeds the limit of {MAX_COORDS} coordinates"
        )
    items = tuple(IdempotentItem(label, S << r, k) for label, r, k in _expanded(blocks, dec.b))
    return IdempotentFamily(spec, dec, items)


def _ambient(x: AmbientElement) -> AmbientElement:
    """``x`` re-homed in A, its field's ambient field (interned, trivial involution)."""
    K = x.owner
    return AmbientElement._make(interned(IDENTITY, K.level, K.q), x.ints, x.den)


def ambient_constants(family: IdempotentFamily) -> List[Tuple[int, AmbientElement]]:
    """(S, k) of every item over the ambient field A, for
    ``conjugate_pairing_check``: A has the identity involution, so the
    ``thm2_case1`` blocks over A expanded on the family's root
    (``CosetDecomposition.root``) state them, each k the constant of its
    x^S - k; no item, second algebra, inverse or ``ks_decompose`` is
    built.  No cap applies: there are at most twice as many as the
    family at n has, and its blocks' count passed the cap."""
    size, dec = family.spec.size, family.decomposition
    root = _ambient(dec.root)
    closed = _expanded(thm2_case1(root.owner, dec.s), root)
    return [(size >> (dec.s - r), k) for _, r, k in closed]
