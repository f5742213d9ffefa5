"""Independent verification of constructed idempotent families.

Three lines of evidence are kept separate:

* ``verify_family``: structural checks inside the algebra itself
  (idempotency, K-rationality, completeness, component dimensions,
  minimal polynomials), plus the certificate that every item is
  minimal; orthogonality follows from these checks and is not
  multiplied out pair by pair;
* ``brute_enumerate_minimal`` / ``cross_check``: over finite fields,
  exhaustive enumeration of every idempotent, with no shared code or
  ideas with the closed-form construction;
* ``conjugate_pairing_check``: let the involution act on the family
  built over the full ambient field (trivial involution) and compare
  the orbit sums against the K-side family.

The structural checks and enumeration share nothing with each other or
with the construction.  Pairing and the minimality certificate share
the orbit sums: the primitive idempotents of K_t<g> are the orbit sums
of those of A_t<g> (Galois descent), and over A every component is cut
out by a 2-power binomial that the Capelli criterion decides exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from . import _enum_py
from .algebra import AlgebraElement, AlgebraSpec, certify_irreducible
from .fields import FINITE, FROBENIUS, IDENTITY, FieldDescriptor, sigma_coords

if TYPE_CHECKING:
    from .builder import IdempotentFamily

DEFAULT_ENUM_BUDGET = 10**6


class VerificationError(RuntimeError):
    """Raised by checked builds; carries the full report."""

    def __init__(self, report: "VerificationReport"):
        self.report = report
        super().__init__(report.headline())


class EnumerationBudgetError(ValueError):
    """The requested brute-force enumeration would be too large."""


@dataclass(frozen=True)
class ItemCheck:
    label: tuple
    nonzero: bool
    idempotent: bool
    k_rational: bool
    min_poly_annihilates: bool
    min_poly_k_rational: bool
    dim_consistent: bool
    primitive: bool

    def violations(self) -> List[str]:
        out = []
        name = f"e{self.label}"
        for flag, what in (
            (self.nonzero, "is zero"),
            (self.idempotent, "is not idempotent"),
            (self.k_rational, "has coefficients outside K"),
            (self.min_poly_annihilates, "is not annihilated by its min poly"),
            (self.min_poly_k_rational, "has a min poly outside K[x]"),
            (self.dim_consistent, "has dim != deg(min poly)"),
            (self.primitive, "is not certified minimal"),
        ):
            if not flag:
                out.append(f"{name} {what}")
        return out


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

    def as_dict(self) -> dict:
        # The JSON format keeps "sound" (always equal to "pass") and
        # "uncertified" (always empty): every verdict is definite.
        # "orthogonal" is implied by the other checks, not multiplied
        # out (see verify_family).
        return {
            "pass": self.ok,
            "sound": self.ok,
            "orthogonal": self.orthogonal,
            "sum_is_one": self.sum_is_one,
            "dim_total": self.dim_total,
            "expected_dim": self.expected_dim,
            "failures": list(self.failures),
            "uncertified": [],
            "items": [
                {
                    "label": list(c.label),
                    "nonzero": c.nonzero,
                    "idempotent": c.idempotent,
                    "k_rational": c.k_rational,
                    "min_poly_annihilates": c.min_poly_annihilates,
                    "min_poly_k_rational": c.min_poly_k_rational,
                    "dim_consistent": c.dim_consistent,
                    "primitive": c.primitive,
                }
                for c in self.item_checks
            ],
        }


def verify_family(
    family: IdempotentFamily, ambient: IdempotentFamily
) -> VerificationReport:
    """Run every structural check on a constructed family, and certify
    each item minimal by descent from ``ambient``, the family of the
    same algebra over A (see ``builder.ambient_family``).

    The construction states each item's minimal polynomial p; these
    checks prove it, and imply orthogonality rather than multiply it
    out.  An idempotent e whose p annihilates g*e (p(g*e) = p(g)*e, the
    sum of c_k * g^k * e over the nonzero coefficients c_k of p, each
    term a shift) spans a component e*K_t<g> of dimension at most
    deg p, since g*e generates it.  Idempotents that sum to 1 make
    K_t<g> the sum of their components, so those dimensions sum to at
    least 2^n.  Degrees summing to 2^n then force every dimension to
    equal deg p, so p, which the minimal polynomial divides, is the
    minimal polynomial; and they make the sum direct, so e*f, which
    lies in e*K_t<g> and f*K_t<g>, is 0.
    """
    spec = family.spec
    K = spec.field
    failures: List[str] = []
    checks: List[ItemCheck] = []

    labels = [it.label for it in family.items]
    if len(set(labels)) != len(labels):
        failures.append("duplicate labels in family")

    minimal, ambient_failures = _descent(family, ambient)
    for it in family.items:
        e = it.element
        # p(g*e) = p(g)*e for idempotent e, term by term: a stated
        # prod_chi (x^S - c_chi) has at most three nonzero coefficients
        terms = [e.shift(k).scale(c) for k, c in enumerate(it.min_poly.coeffs) if c]
        acc = sum(terms[1:], terms[0])
        check = ItemCheck(
            label=it.label,
            nonzero=not e.is_zero(),
            idempotent=e * e == e,
            k_rational=e.is_k_rational(),
            min_poly_annihilates=acc.is_zero(),
            min_poly_k_rational=it.min_poly.is_k_rational(K),
            dim_consistent=it.min_poly.degree == it.dim,
            primitive=_raw_key(e) in minimal,
        )
        checks.append(check)
        failures.extend(check.violations())

    total = spec.zero()
    for e in family.elements():
        total = total + e
    sum_is_one = total == spec.one()
    if not sum_is_one:
        failures.append("family does not sum to 1")

    dim_total = sum(it.dim for it in family.items)
    if dim_total != spec.size:
        failures.append(
            f"component dimensions sum to {dim_total}, expected {spec.size}"
        )
    failures.extend(ambient_failures)

    orthogonal = (
        all(c.idempotent and c.min_poly_annihilates for c in checks)
        and sum_is_one
        and sum(it.min_poly.degree for it in family.items) == spec.size
    )
    return VerificationReport(
        item_checks=tuple(checks),
        orthogonal=orthogonal,
        sum_is_one=sum_is_one,
        dim_total=dim_total,
        expected_dim=spec.size,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# the minimality certificate: Galois descent plus Capelli
# ---------------------------------------------------------------------------


def _raw_key(e: AlgebraElement) -> tuple:
    """The stored coordinates of ``e``, comparable across the K-side
    and the ambient algebra."""
    return e.ints, e.den


def _ambient_failures(ambient: IdempotentFamily) -> List[str]:
    """Why ``ambient`` is not certified to be the complete family of
    primitive idempotents of A_t<g>; empty when it is.

    Each item e must be idempotent with a minimal polynomial x^d - c
    that the Capelli criterion proves irreducible over A and that
    (g*e)^d = g^d*e = c*e confirms; the items must sum to 1 and their
    degrees to 2^n.  Orthogonality need not be checked: idempotents
    that sum to 1 cover every primitive idempotent of A_t<g> at least
    once, so their component dimensions, each at most its d, sum to at
    least 2^n.  Degrees summing to 2^n then make every component the
    field A[x]/(x^d - c) and leave no primitive idempotent under two
    items.
    """
    spec = ambient.spec
    out = []
    total = spec.zero()
    for it in ambient.items:
        e, poly = it.element, it.min_poly
        name = f"ambient e{it.label}"
        if not certify_irreducible(spec.field, poly):
            out.append(f"{name} has min poly {poly}, not certified irreducible")
        elif e * e != e:
            out.append(f"{name} is not idempotent")
        else:
            bino = poly.as_binomial()
            if e.shift(bino.degree) != e.scale(bino.constant):
                out.append(f"{name} is not annihilated by its min poly")
        total = total + e
    if total != spec.one():
        out.append("ambient family does not sum to 1")
    degrees = sum(it.min_poly.degree for it in ambient.items)
    if degrees != spec.size:
        out.append(f"ambient min poly degrees sum to {degrees}, expected {spec.size}")
    return out


def _orbit_sums(K: FieldDescriptor, ambient: IdempotentFamily) -> Optional[Set[tuple]]:
    """Raw keys of the sums of the orbits of K's involution on the
    ambient family, or None when the involution does not permute it."""
    spec0 = ambient.spec

    def conj(e: AlgebraElement) -> AlgebraElement:
        return AlgebraElement(spec0, sigma_coords(K, e.ints), e.den)

    remaining = {_raw_key(it.element): it.element for it in ambient.items}
    sums = set()
    while remaining:
        _, e = remaining.popitem()
        f = conj(e)
        kf = _raw_key(f)
        if kf == _raw_key(e):
            sums.add(kf)
            continue
        if kf not in remaining:
            return None
        remaining.pop(kf)
        sums.add(_raw_key(e + f))
    return sums


def _descent(
    family: IdempotentFamily, ambient: IdempotentFamily
) -> Tuple[Set[tuple], List[str]]:
    """Raw keys of the items of ``family`` certified minimal, and the
    failures of the ambient family that stop the certificate.

    An item is certified when the ambient family is the complete family
    of primitive idempotents over A and the item is one of its orbit
    sums (Curtis & Reiner, Methods of Representation Theory I, section
    7).  When K = A the family is its own ambient family; its
    completeness is then part of the checks ``verify_family`` makes, and
    only the irreducibility of each minimal polynomial is left.
    """
    if ambient is family:
        A = family.spec.field
        return {
            _raw_key(it.element)
            for it in family.items
            if certify_irreducible(A, it.min_poly)
        }, []
    failures = _ambient_failures(ambient)
    sums = _orbit_sums(family.spec.field, ambient)
    if sums is None:
        failures.append("the involution does not permute the ambient family")
    return (sums if not failures else set()), failures


# ---------------------------------------------------------------------------
# brute force over finite fields
# ---------------------------------------------------------------------------


def brute_enumerate_minimal(
    spec: AlgebraSpec, max_count: int = DEFAULT_ENUM_BUDGET
) -> List[AlgebraElement]:
    """Every minimal idempotent, found by exhausting all q^(2^n)
    coefficient vectors.  Only for finite K of size q (the fixed field
    of F:q presentations); refuses anything over budget."""
    K = spec.field
    if K.kind != FINITE:
        raise ValueError("brute-force enumeration needs a finite field")
    if K.d == 2 and K.involution != FROBENIUS:
        raise ValueError("enumeration is over K; need |K| = q")
    count = K.q**spec.size
    if count > max_count:
        raise EnumerationBudgetError(
            f"enumeration of {K.q}^{spec.size} = {count} vectors exceeds "
            f"the budget of {max_count}"
        )
    if not spec.a.is_scalar():
        raise ValueError("a must be a scalar residue")
    a_int = spec.a.ints[0]
    return [spec.element(vec) for vec in _enum_py.atoms(K.q, spec.n, a_int)]


def cross_check(family: IdempotentFamily, max_count: int = DEFAULT_ENUM_BUDGET) -> bool:
    """Does the closed-form family coincide, as a set, with the
    brute-forced minimal idempotents?"""
    enumerated = brute_enumerate_minimal(family.spec, max_count)
    return set(enumerated) == set(family.elements())


# ---------------------------------------------------------------------------
# conjugate pairing against the ambient family
# ---------------------------------------------------------------------------


def conjugate_pairing_check(
    family: IdempotentFamily, ambient: IdempotentFamily
) -> bool:
    """Galois-descent consistency of the K-side family.

    Apply the involution coefficient-wise to ``ambient``, the family
    built over the ambient field with the trivial involution, and sum
    each orbit.  The orbit sums must be exactly the K-side family.
    This exercises a completely different construction path (the
    trivial-involution cases) against the paired ones.
    """
    K = family.spec.field
    if K.involution == IDENTITY:
        raise ValueError("pairing check needs a nontrivial involution")
    return _orbit_sums(K, ambient) == {_raw_key(it.element) for it in family.items}
