"""Exact minimal idempotents of twisted group algebras of cyclic 2-groups.

The algebra K_t<g> = K[g]/(g^(2^n) - a) over a field K of characteristic
!= 2 is commutative and semisimple; this package constructs its complete
family of minimal idempotents in closed form, classifies the base field,
and verifies the result against independent oracles: structural checks,
Galois-descent pairing, and over F_q a certificate read off the
Frobenius-fixed subalgebra (``brute_enumerate_minimal`` keeps the
exhaustive enumeration as ground truth for small instances).

Typical use::

    from cyclotwist import AlgebraSpec, build, parse_element, parse_field, verified

    K = parse_field("Q")
    family = build(AlgebraSpec(2, parse_element(K, "-4")))
    verified(family, family.elements)  # raises VerificationError unless it passes
    for item in family.items:
        print(item.label, item.dim, item.min_poly)
"""

from .algebra import AlgebraElement, AlgebraSpec, Poly
from .builder import IdempotentFamily, IdempotentItem, ambient_constants, build
from .classify import (
    Classification,
    CosetDecomposition,
    classify,
    emulates,
    h_n,
    ks_decompose,
    ks_membership,
)
from .fields import (
    AmbientElement,
    AmbientError,
    FieldDescriptor,
    eps,
    norm,
    sigma,
    sqrt_ambient,
)
from .grammar import format_element, format_field, parse_element, parse_field
from .oracle import (
    VerificationError,
    VerificationReport,
    brute_enumerate_minimal,
    conjugate_pairing_check,
    cross_check,
    verified,
    verify_family,
)

__version__ = "1.0.0"

__all__ = [
    "AlgebraElement",
    "AlgebraSpec",
    "AmbientElement",
    "AmbientError",
    "Classification",
    "CosetDecomposition",
    "FieldDescriptor",
    "IdempotentFamily",
    "IdempotentItem",
    "Poly",
    "VerificationError",
    "VerificationReport",
    "ambient_constants",
    "brute_enumerate_minimal",
    "build",
    "classify",
    "conjugate_pairing_check",
    "cross_check",
    "emulates",
    "eps",
    "format_element",
    "format_field",
    "h_n",
    "ks_decompose",
    "ks_membership",
    "norm",
    "parse_element",
    "parse_field",
    "sigma",
    "sqrt_ambient",
    "verified",
    "verify_family",
    "__version__",
]
