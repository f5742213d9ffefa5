"""Independent verification of constructed idempotent families.

``builder`` states a family and this module alone certifies it: a
checked family is ``verified(family, elements)``, the report of
``verify_family``, which raises ``VerificationError`` unless it passes.
Three lines of evidence are kept separate:

* ``verify_family``: structural checks inside the algebra itself
  (K-rationality, annihilation by the stated minimal polynomials,
  completeness, component dimensions), plus the certificate that every
  item is minimal; idempotency and orthogonality follow from these
  checks and are not multiplied out;
* ``cross_check``: over finite fields, a certificate that the family is
  exactly the set of primitive idempotents, read off the subalgebra
  fixed by Frobenius with its own product of residues, in time
  polynomial in 2^n; ``brute_enumerate_minimal``, which exhausts all
  q^(2^n) coefficient vectors, stays as the ground truth that the
  selftest and the tests compare against;
* ``conjugate_pairing_check``: the involution's orbits on the
  constants the construction states over the full ambient field
  (trivial involution), against the K-side items' constants.

The structural checks and the Frobenius certificate share nothing with
each other or with the construction: no roots of unity or coset forms,
and ``alg_mul`` only for a family that fails a check.  The minimality
certificate reads only each item's stated polynomial: once the
structural checks prove it the minimal polynomial, the item is
primitive iff it is irreducible over K, which Capelli's criterion over
A and quadratic descent from A to K decide with one square root and
one square test in A (``certify_irreducible``).  ``verify_family`` is
the one check of the coefficients ``builder._char_sum`` expands, in one
pass over their stream; pairing reads each item's constants (S, k) alone.

``verify`` runs those coefficient checks on the family's b-free core
alone (``verify_core``).  With a = u*b^(2^s) (``ks_decompose``), the
core is the family the same case function states on (s, b = 1) over
C = K[z]/(z^(2^s) - u) (``builder.core_family``), and the injective
map z -> g^(2^(n-s)) * b^-1 takes it onto the family.  So the family is
certified by (a) ``verify_family`` on the core, (b) a == u*b^(2^s)
with b in K, (c) each item being its core item's image, and (d)
``certify_irreducible`` at n when s < n.  At s = n, (b) and (c) make
each polynomial at n the core's under x -> x/b, which keeps
irreducibility, so the core's verdict on each item is the family's.
``verify`` takes (a) once per (K, form, s), never per a or n, and (b)
to (d) on every call.  The coefficients ``idempotents`` prints are
checked at n (``verified``), as they are the ones it prints.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import dataclass
from itertools import repeat
from math import gcd, lcm
from operator import add, attrgetter
from typing import TYPE_CHECKING, List, Sequence, Tuple

from . import _enum_py, fields
from .algebra import AlgebraElement, AlgebraSpec, Poly, lattice_step, on_lattice
from .fields import (
    IDENTITY,
    FieldDescriptor,
    require_i,
    sigma_coords,
    squarings,
    times_coords,
)
from .grammar import format_label

if TYPE_CHECKING:
    from .builder import IdempotentFamily

DEFAULT_ENUM_BUDGET = 10**6


class VerificationError(RuntimeError):
    """Raised by ``verified``; carries the full report."""

    def __init__(self, report: "VerificationReport"):
        self.report = report
        super().__init__(report.headline())


def verified(family: IdempotentFamily, elements) -> VerificationReport:
    """The report of ``verify_family`` on ``elements``; raises
    VerificationError unless it passes."""
    report = verify_family(family, elements)
    if not report.ok:
        raise VerificationError(report)
    return report


class EnumerationBudgetError(ValueError):
    """The requested cross-check (the Frobenius certificate, or brute-force
    enumeration) would be too large."""


def _flag(fails: str):
    """A pass/fail field of ``ItemCheck`` and the text its failure reports."""
    return dataclasses.field(metadata={"fails": fails})


@dataclass(frozen=True)
class ItemCheck:
    """The checks on one item, in report order."""

    label: tuple
    nonzero: bool = _flag("is zero")
    idempotent: bool = _flag("is not idempotent")
    k_rational: bool = _flag("has coefficients outside K")
    min_poly_annihilates: bool = _flag("is not annihilated by its min poly")
    min_poly_k_rational: bool = _flag("has a min poly outside K[x]")
    dim_consistent: bool = _flag("has dim != deg(min poly)")
    primitive: bool = _flag("is not certified minimal")

    def violations(self) -> List[str]:
        """One line per failed check, naming the item as the family
        listing does (``format_label``)."""
        return [
            f"{format_label(self.label)} {f.metadata['fails']}"
            for f in _FLAGS
            if not getattr(self, f.name)
        ]


_FLAGS = dataclasses.fields(ItemCheck)[1:]
# every flag but the last, ``primitive``, which ``verify_core`` sets itself
_kept_flags = attrgetter(*[f.name for f in _FLAGS[:-1]])


@dataclass(frozen=True)
class VerificationReport:
    item_checks: Tuple[ItemCheck, ...]
    orthogonal: bool
    sum_is_one: bool
    dim_total: int
    expected_dim: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def headline(self) -> str:
        if self.ok:
            return "PASS"
        return "FAIL: " + "; ".join(self.failures)


def verify_family(family: IdempotentFamily, elements) -> VerificationReport:
    """Run every structural check on a constructed family, and certify
    each item minimal from its stated polynomial.  ``elements()`` yields
    the elements in item order, once, and again only if the family fails.

    The construction states each item's minimal polynomial p; these
    checks prove it, and imply idempotency and orthogonality rather
    than multiply them out.  Let f = x^(2^n) - a and J = {y : p(g)*y = 0},
    an ideal of dimension deg gcd(p, f) <= deg p; p(g)*e is the sum of
    c_k * g^k * e over the stated terms (k, c_k) of p.
    When every p(g) annihilates its e and the items sum to 1, the
    ideals J contain the items, so they add up to all of K_t<g> and
    their dimensions sum to at least 2^n.  Degrees summing to 2^n then
    make the sum direct, with dim J = deg p: e*e' lies in J and J', so
    it is 0 for two different items, and e = e*(sum of the items) = e*e.
    Only when one of these checks fails is e*e == e computed.  Each y
    in J is then e*y, so J is the component e*K_t<g>; g*e generates it
    and p(g*e) = 0, so p, of degree dim J, is the minimal polynomial of
    g*e, and e is primitive iff p is irreducible over K
    (``certify_irreducible``).

    The coefficient checks build no intermediate element, and their
    arithmetic follows the support, not 2^n.  Each e is read once, on
    the lattice of h = gcd(step(e), every stated degree), with step(e)
    the coarsest power of two dividing every exponent where e is nonzero
    (``lattice_step``): h divides step(e), so e's coefficients there
    (``on_lattice``) hold all of e.  Every power of g in p(g)*e is a
    multiple of h, wrapped ones included since h divides 2^n, so
    p(g)*e = 0 is one integer combination of them, tested once
    (``_annihilates``); the zero and K-rationality tests read them too,
    and there e joins the running sum, kept over the lcm of the
    denominators seen so far (``_add_on_lattice``).
    """
    spec = family.spec
    K = spec.field

    # the elements in one pass, the constants apart: each loop's work together
    polys = [it.min_poly for it in family.items]
    read = []  # nonzero, k_rational and min_poly_annihilates of each element
    d, fixed = K.ambient_dim, K.involution == IDENTITY
    total, D, fine = [0] * (spec.size * d), 1, spec.size
    for p, e in zip(polys, elements(), strict=True):
        h = gcd(lattice_step(e.ints, d), *(k for k, _ in p.terms))
        xs = on_lattice(e.ints, d, h)
        D = _add_on_lattice(total, D, fine, xs, e.den, h, K)
        fine = min(fine, h)
        k_rational = fixed or sigma_coords(K, xs) == list(xs)
        read.append((any(xs), k_rational, _annihilates(spec, xs, h, p.terms)))
    sum_is_one = total[0] == D and not any(total[1:])
    degrees = sum(p.degree for p in polys)
    orthogonal = all(r[2] for r in read) and sum_is_one and degrees == spec.size
    # a direct sum implies idempotency; else e*e is formed, in a second pass
    squares = repeat(True) if orthogonal else (e * e == e for e in elements())
    checks = [
        ItemCheck(
            label=it.label,
            nonzero=nonzero,
            idempotent=square,
            k_rational=k_rational,
            min_poly_annihilates=annihilates,
            min_poly_k_rational=all(c.is_k_rational() for _, c in p.terms),
            dim_consistent=p.degree == it.dim,
            primitive=certify_irreducible(p),
        )
        for it, p, (nonzero, k_rational, annihilates), square in zip(
            family.items, polys, read, squares
        )
    ]
    return _report(family, checks, orthogonal, sum_is_one, [])


def _report(family, checks, orthogonal, sum_is_one, failures) -> VerificationReport:
    """The report on ``family`` with these item checks: ``failures``,
    then one line for repeated labels, for each failed item check, for a
    sum other than 1 and for dimensions that do not add up to 2^n."""
    size = family.spec.size
    labels = [it.label for it in family.items]
    if len(set(labels)) != len(labels):
        failures.append("duplicate labels in family")
    failures += [line for check in checks for line in check.violations()]
    if not sum_is_one:
        failures.append("family does not sum to 1")
    dim_total = sum(it.dim for it in family.items)
    if dim_total != size:
        failures.append(f"component dimensions sum to {dim_total}, expected {size}")
    return VerificationReport(
        item_checks=tuple(checks),
        orthogonal=orthogonal,
        sum_is_one=sum_is_one,
        dim_total=dim_total,
        expected_dim=size,
        failures=tuple(failures),
    )


def verify_core(
    family: IdempotentFamily, core: IdempotentFamily, core_report: VerificationReport
) -> VerificationReport:
    """The report of ``verify_family`` on ``family``, certified through
    its b-free core C = K[z]/(z^(2^s) - u) (``builder.core_family``),
    given ``core_report``, ``verify_family``'s report on the core (2^s
    coefficients), which a caller takes once per core.

    With b the family's coset representative, z -> g^(2^(n-s)) * b^-1
    maps C into K_t<g> whenever a = u * b^(2^s), and injectively, as it
    sends z^i (i < 2^s) to a nonzero multiple of g^(i * 2^(n-s)).  It
    keeps K-rationality when b is in K, so the core's items go to
    nonzero K-rational items that sum to 1, and the core item of
    x^(2^r) - k goes to the item whose x^S - k*b^(2^r), S = 2^(n-s+r),
    annihilates it (p_n(g) = b^(2^r) * p_core(z), and likewise for a
    paired item), of degrees summing to 2^n.  So ``verify_family``'s
    argument holds at n once three things are checked here:

    * (b) b is in K and a == u * b^(2^s), on one squaring ladder of b;
    * (c) each item's (label, S, k) is its core item's image;
    * (d) at s < n, each item's polynomial at n is irreducible
      (``certify_irreducible``).

    At s = n, (b) and (c) make each polynomial at n the core's under the
    K-linear substitution x -> x/b, p_n(x) = b^deg * p_core(x/b), an
    automorphism of K[x] for b != 0 in K, which keeps irreducibility:
    the core's ``primitive`` is the family's, and (d) is not run.
    The per-item flags are the core's, with (d) as ``primitive`` at
    s < n; a failed (b) or (c) adds a failure line first
    (``image_failures``).  No coefficient at n is formed, and nothing is
    kept."""
    deeper = core.spec.n < family.spec.n
    checks = [
        ItemCheck(
            it.label,
            *_kept_flags(c),
            certify_irreducible(it.min_poly) if deeper else c.primitive,
        )
        for it, c in zip(family.items, core_report.item_checks)
    ]
    return _report(
        family,
        checks,
        core_report.orthogonal,
        core_report.sum_is_one,
        image_failures(family, core),
    )


def image_failures(family: IdempotentFamily, core: IdempotentFamily) -> List[str]:
    """Checks (b) and (c) of ``verify_core``: one line if b is not in K
    or a != u * b^(2^s), on one squaring ladder of b (u = the core's a,
    s = its n), else one line if some item's (label, S, k) is not its
    core item's image; no line when ``family`` is the core's image."""
    spec, b = family.spec, family.decomposition.b
    s = core.spec.n
    bs = squarings(b, s)  # b^(2^r) for r = 0..s
    if not (
        core.spec.field == spec.field == b.owner
        and s <= spec.n
        and b.is_k_rational()
        and spec.a == core.spec.a * bs[-1]
    ):
        return ["a is not u*b^(2^s) with b in K for the core's u and s"]
    # the core item (label, 2^r, k) goes to (label, 2^(n-s+r), k*b^(2^r))
    image = [
        (c.label, c.S << (spec.n - s), c.k * bs[c.S.bit_length() - 1])
        for c in core.items
    ]
    if image != [(it.label, it.S, it.k) for it in family.items]:
        return ["family is not the image of its core"]
    return []


def _add_on_lattice(total, D, fine, xs, den, h, K: FieldDescriptor) -> int:
    """Add the element of numerators ``xs`` on the lattice of ``h``
    (``on_lattice``) over ``den`` to the sum ``total`` over D, zero off
    the lattice of ``fine``, and return the sum's new denominator lcm(D, den)."""
    q, d = K.q, K.ambient_dim
    L = lcm(D, den)
    f, raised = L // den, L // D
    for j in range(d):
        if raised > 1:
            total[j :: fine * d] = map(raised.__mul__, total[j :: fine * d])
        lane = slice(j, None, h * d)
        vals = xs[j::d] if f == 1 else map(f.__mul__, xs[j::d])
        run = map(add, total[lane], vals)
        total[lane] = [v % q for v in run] if q else run
    return L


def _annihilates(spec: AlgebraSpec, xs, h: int, terms) -> bool:
    """Is p(g)*e = 0, for p stated by its nonzero terms (k, c_k) and e by
    its numerators ``xs`` on the lattice of ``h`` (``on_lattice``), h | k?

    Every power of g in p(g)*e = sum c_k * g^k * e is then a multiple of
    h, and so is every wrapped one, since h divides 2^n: the sum lives on
    the lattice of stride h, as a polynomial in u = g^h with u^M = a,
    M = 2^n/h, and is 0 off it.  On the lattice, g^k sends u^i to
    u^(i + k/h) with one factor of a per wrap past u^M, so each term is
    two runs of e's numerators times c_k * a^w, w wraps, each run by
    ``times_coords``.  The runs are brought to one common
    denominator (e's own denominator is common to all and left out) and
    added, and the sum is tested for zero once, mod q over F_q."""
    q, d = spec.field.q, spec.field.ambient_dim
    M = spec.size // h
    runs = []  # (first power of u, numerators, ambient factor)
    for k, c in terms:
        w, r = divmod(k // h, M)
        cut = (M - r) * d
        runs.append((r, xs[:cut], c * spec.a**w if w else c))
        if r:
            runs.append((0, xs[cut:], c * spec.a ** (w + 1)))
    den = lcm(*(x.den for _, _, x in runs))
    acc = [0] * (M * d)
    for r, vals, x in runs:
        vals = times_coords(vals, x.ints, 0)
        f = den // x.den
        lo, hi = r * d, r * d + len(vals)
        acc[lo:hi] = map(add, acc[lo:hi], vals if f == 1 else map(f.__mul__, vals))
    return not any(v % q for v in acc) if q else not any(acc)


# ---------------------------------------------------------------------------
# the irreducibility certificate
# ---------------------------------------------------------------------------


def certify_irreducible(poly: Poly) -> bool:
    """Is poly certified irreducible over K, the field of its monic top
    coefficient?

    Over an A that contains i, Capelli's criterion decides a 2-power
    binomial x^(2^k) - c over A with one square test: it is
    irreducible iff c is no square in A, since its other condition,
    c not in -4*A^4, is implied once -4 = (1+i)^4 is a fourth power
    (Lang, *Algebra*, VI Thm 9.1).

    When A/K is quadratic with involution sigma, a monic K-rational p
    is irreducible over K iff it is irreducible over A, or p = f*sigma(f)
    with f irreducible over A and f != sigma(f): a K-rational factor is
    sigma-stable, so it holds both of f and sigma(f) or neither
    (Trager, "Algebraic factoring and rational function integration",
    SYMSAC 1976).  The construction states q(x^S) for q = y - c or a
    monic quadratic q = y^2 + beta*y + gamma, S a power of two.  One
    square root splits q over A into y - c and y - sigma(c): of -gamma
    for a binomial, else of beta^2 - 4*gamma, formed by sums and halved
    by one product.  Then p is irreducible iff c is not in K and x^S - c
    is irreducible over A: S = 1, or c no square in A (``is_square``).
    A binomial whose constant is no square in A is irreducible over A
    already.  The root's sign does not matter: -c lies in K iff c does,
    and is a square iff c is, as -1 = i^2; the other root of the
    discriminant gives sigma(c), a square iff c is.  Over K = A every
    root lies in K, so the formula reduces to Capelli's square test:
    x^D - c is irreducible iff c is no square in A.

    Any other polynomial has no certificate: the answer is a definite
    False, never an open verdict.
    """
    K = poly.terms[-1][1].owner
    require_i(K, "the square test")
    D = poly.degree
    if D < 1:
        raise ValueError("constants have no irreducibility")
    if D == 1:
        return True
    S = D // 2
    c = dict(poly.terms)
    if D & (D - 1) or c.keys() - {0, S, D}:
        return False
    beta, gamma = c.get(S), c.get(0, K.zero())
    # every root is looked up on the module, so that a traced run counts it
    if not all(c.is_k_rational() for _, c in poly.terms):
        return False
    if beta is None:
        root = fields.sqrt_ambient(-gamma)
        if root is None:
            return True
    else:
        twice = gamma + gamma
        delta = fields.sqrt_ambient(beta * beta - twice - twice)
        if delta is None:
            return False
        root = (delta - beta) * K.half
    return not root.is_k_rational() and (S == 1 or not fields.is_square(root))


# ---------------------------------------------------------------------------
# finite fields: brute force, and the Frobenius certificate
# ---------------------------------------------------------------------------


def _require_prime_field(K: FieldDescriptor, what: str, over: str) -> None:
    """Refuse K unless it is finite of size q: ``what`` needs a finite
    field, and ``over`` works over K itself."""
    if not K.q:
        raise ValueError(f"{what} needs a finite field")
    if K.level == 2 and K.involution == IDENTITY:
        raise ValueError(f"{over} is over K; need |K| = q")


def brute_enumerate_minimal(
    spec: AlgebraSpec, max_count: int = DEFAULT_ENUM_BUDGET
) -> List[AlgebraElement]:
    """Every minimal idempotent, found by exhausting all q^(2^n)
    coefficient vectors.  Only for finite K of size q (the fixed field
    of F:q presentations); refuses anything over budget.  The ground
    truth of selftest criterion 2 and of the tests; ``cross_check``
    does not call it."""
    K = spec.field
    _require_prime_field(K, "brute-force enumeration", "enumeration")
    count = K.q**spec.size
    if count > max_count:
        raise EnumerationBudgetError(
            f"enumeration of {K.q}^{spec.size} = {count} vectors exceeds "
            f"the budget of {max_count}"
        )
    a_int = spec.a.ints[0]
    return [spec.element(vec) for vec in _enum_py.atoms(K.q, spec.n, a_int)]


def certificate_work(family: IdempotentFamily) -> int:
    """What ``cross_check``'s ``max_count`` bounds: 2^n times the items."""
    return family.spec.size * len(family.items)


def cross_check(
    family: IdempotentFamily, elements, max_count: int = DEFAULT_ENUM_BUDGET
) -> bool:
    """Is the family over a finite K exactly the set of primitive
    idempotents?  Decided by ``_frobenius_certificate`` on ``elements``,
    which is called only when ``max_count`` bounds ``certificate_work``."""
    spec = family.spec
    K = spec.field
    _require_prime_field(K, "the Frobenius certificate", "the certificate")
    work = certificate_work(family)
    if work > max_count:
        raise EnumerationBudgetError(
            f"certificate work of {spec.size} coefficients x {len(family.items)} "
            f"items = {work} exceeds the budget of {max_count}"
        )
    d = K.ambient_dim
    vecs = []
    for e in elements():
        if d == 2 and any(e.ints[1::2]):  # an i-coordinate: e is not over K
            return False
        vecs.append(e.ints[::d])
    return _frobenius_certificate(K.q, spec.size, spec.a.ints[0], vecs)


def _frobenius_certificate(q: int, N: int, a: int, vecs: Sequence[tuple]) -> bool:
    """Are ``vecs`` exactly the primitive idempotents of
    F_q[g]/(g^N - a)?  Each vector holds the N residues of one item.

    Every idempotent lies in the Frobenius-fixed subalgebra
    B = {x : x^q = x} (Berlekamp, "Factoring polynomials over finite
    fields", 1967), and B is F_q^r for r the number of primitive
    idempotents.  Frobenius is a monomial map: c*g^k goes to
    c*a^floor(kq/N)*g^(kq mod N), so a fixed x is fixed cycle by cycle
    of k -> kq mod N, and a cycle carries a fixed x != 0 exactly when
    the product of its twists a^floor(kq/N) is 1.  That gives r with no
    product.

    The vectors must then be r nonzero idempotents whose running sums
    stay idempotent.  In characteristic != 2, (s + e)^2 = s + e for
    idempotents s and e forces s*e = 0, so the items are pairwise
    orthogonal, and r nonzero orthogonal idempotents of F_q^r are its r
    primitive ones.  Two more checks are implied but cost no product:
    each item is fixed, which turns most wrong items away first, and
    the items sum to 1.
    """
    perm = [k * q % N for k in range(N)]
    twist = [pow(a, k * q // N, q) for k in range(N)]
    seen = [False] * N
    r = 0
    for start in range(N):
        if seen[start]:
            continue
        prod, k = 1, start
        while not seen[k]:
            seen[k] = True
            prod = prod * twist[k] % q
            k = perm[k]
        r += prod == 1
    if len(vecs) != r:
        return False
    total = (0,) * N
    for e in vecs:
        if not any(e) or any(e[perm[k]] != e[k] * twist[k] % q for k in range(N)):
            return False
        total = tuple((x + y) % q for x, y in zip(total, e))
        if _square(e, q, a) != e or _square(total, q, a) != total:
            return False
    return total == (1,) + (0,) * (N - 1)


def _square(x: tuple, q: int, a: int) -> tuple:
    """x*x in F_q[g]/(g^N - a), N = len(x): one big-integer square of
    the residues packed into slots wide enough for any coefficient of
    the plain square (Kronecker substitution), wrapped back with
    g^N = a.  A slot of up to 8 bytes is a struct lane."""
    N = len(x)
    w = (N * (q - 1) ** 2).bit_length() // 8 + 1
    if w <= 8:
        w = 1 << (w - 1).bit_length()
        lane = "BHIQ"[w.bit_length() - 1]
        packed = int.from_bytes(struct.pack(f"<{N}{lane}", *x), "little")
        raw = (packed * packed).to_bytes(2 * N * w, "little")
        c = struct.unpack(f"<{2 * N}{lane}", raw)
    else:
        packed = int.from_bytes(b"".join(v.to_bytes(w, "little") for v in x), "little")
        raw = (packed * packed).to_bytes(2 * N * w, "little")
        c = [int.from_bytes(raw[t : t + w], "little") for t in range(0, len(raw), w)]
    return tuple((c[k] + a * c[N + k]) % q for k in range(N))


# ---------------------------------------------------------------------------
# conjugate pairing against the ambient constants
# ---------------------------------------------------------------------------


def conjugate_pairing_check(family: IdempotentFamily, ambient: Sequence[tuple]) -> bool:
    """Galois-descent consistency of the K-side family, on constants.

    ``ambient`` holds (S, k) for every item the case functions state
    over the ambient field (trivial involution): the idempotent e(S, k)
    cut out by x^S - k.  The items over K are the involution's orbit
    sums of those, and sigma(e(S, k)) = e(S, sigma(k)), so ``ambient``
    must be, as a set, the K items' (S, k) and (S, sigma(k)).  This is
    sound because ``verify_family`` proves each K item to be the
    idempotent cut out by its stated x^S - k (or that factor times its
    sigma image), so (S, k) determines the item.
    """
    K = family.spec.field
    if K.involution == IDENTITY:
        raise ValueError("pairing check needs a nontrivial involution")
    # a signed permutation keeps lowest terms and reduced residues
    want = {(it.S, it.k.ints, it.k.den) for it in family.items}
    want |= {(it.S, tuple(sigma_coords(K, it.k.ints)), it.k.den) for it in family.items}
    return {(S, k.ints, k.den) for S, k in ambient} == want
