"""Acceptance suite: seven numbered criteria over a fixed case matrix.

The matrix below pins one instance of every construction branch
(root-supplied shallow and deep, depth 0, paired shallow, paired deep
with both signs of lam, negated with both signs, and the unit-coset
family including its double-indexed blocks), with the component
dimensions frozen as regression values.  The criterion functions are
shared verbatim by the CLI ``selftest`` subcommand and by the pytest
acceptance tests, so a red criterion reproduces identically in both.

Setting the environment variable ``CYCLOTWIST_CORRUPT`` makes
criterion 1 deliberately tamper with the first verified family and
report the invariant that catches it — a debug hook for checking that
failure reporting works end to end.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from .algebra import AlgebraSpec, Poly
from .builder import (
    IdempotentFamily,
    ambient_family,
    ambient_spec,
    build,
    thm3_case3,
    thm3_case4,
    verified,
)
from .classify import classify, h_n, ks_decompose, ks_membership
from .fields import FINITE, IDENTITY, FieldDescriptor
from .grammar import parse_element, parse_field
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    VerificationError,
    cross_check,
    conjugate_pairing_check,
    verify_family,
)

__all__ = [
    "MATRIX",
    "MatrixCase",
    "CriterionResult",
    "CRITERIA",
    "run_selftest",
]


@dataclass(frozen=True)
class MatrixCase:
    tag: str
    field: str
    n: int
    a: str
    dims: Tuple[int, ...]  # sorted component dimensions, frozen as regression

    def spec(self) -> AlgebraSpec:
        K = parse_field(self.field)
        return AlgebraSpec(K, self.n, parse_element(K, self.a))

    def repro(self) -> str:
        return f"cyclotwist verify {self.field} {self.n} {self.a}"

    def __str__(self) -> str:
        return f"({self.field}, n={self.n}, a={self.a})"


# Every construction branch at least once.  The depth-0 finite instance
# lives over F:5 because F:3 admits none: every unit of F_3 is a fourth
# power of F_9, so h_2(a) >= 2 for both residues.  The last instance's
# a is (1 + eps_3)^16 = 9232 + 6528*sqrt(2) written over the zeta-basis.
MATRIX: Tuple[MatrixCase, ...] = (
    MatrixCase("split-shallow", "F:5", 2, "1", (1, 1, 1, 1)),
    MatrixCase("split-shallow", "QC:3", 2, "4", (1, 1, 1, 1)),
    MatrixCase("split-shallow", "QC:3", 1, "-1", (1, 1)),
    MatrixCase("split-shallow", "QC:4", 2, "16", (1, 1, 1, 1)),
    MatrixCase("split-deep", "F:5", 3, "1", (1, 1, 1, 1, 2, 2)),
    MatrixCase("depth-0", "Q", 2, "2", (4,)),
    MatrixCase("depth-0", "F:5", 2, "2", (4,)),
    MatrixCase("paired-shallow", "F:3", 2, "1", (1, 1, 2)),
    MatrixCase("paired-shallow", "Q", 3, "4", (4, 4)),
    MatrixCase("paired-shallow", "QR:5", 2, "16", (1, 1, 2)),
    MatrixCase("paired-deep", "F:3", 3, "1", (1, 1, 2, 2, 2)),
    MatrixCase("paired-deep", "QE:3", 3, "16", (1, 1, 2, 2, 2)),
    MatrixCase("paired-deep", "QR:3", 3, "16", (1, 1, 2, 2, 2)),
    MatrixCase("negated", "Q", 2, "-1", (4,)),
    MatrixCase("negated", "F:3", 1, "2", (2,)),
    MatrixCase("negated", "QE:3", 2, "-1", (2, 2)),
    MatrixCase("unit-coset", "Q", 2, "-4", (2, 2)),
    MatrixCase("unit-coset", "Q", 3, "16", (2, 2, 2, 2)),
    MatrixCase("unit-coset", "QR:3", 4, "9232,6528,0,-6528", (2, 2, 2, 2, 2, 2, 4)),
)

# Finite ground-truth grid for brute-force cross-checks: (field, n)
# expanded over every residue a in F_q*; plus any finite matrix
# instance within budget (covered below by construction).
GROUND_TRUTH_GRID: Tuple[Tuple[str, int], ...] = (
    ("F:3", 1),
    ("F:3", 2),
    ("F:3", 3),
    ("F:5", 1),
    ("F:5", 2),
    ("F:7", 1),
    ("F:7", 2),
)


def _case(field: str, n: int, a: str) -> MatrixCase:
    return next(c for c in MATRIX if (c.field, c.n, c.a) == (field, n, a))


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: List[str]
    repro: Optional[str] = None

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.title}): {verdict}"


# Every criterion reads its families from this cache, so each algebra
# is built once per process, also where two fields share an ambient
# algebra (QR:3 and QE:3 over Q(zeta_8)).
@lru_cache(maxsize=None)
def _family(spec: AlgebraSpec) -> IdempotentFamily:
    return build(spec, checked=False)


def _families(spec: AlgebraSpec) -> Tuple[IdempotentFamily, IdempotentFamily]:
    """The unchecked family of ``spec`` and its ambient family."""
    family = _family(spec)
    if spec.field.involution == IDENTITY:
        return family, family
    return family, _family(ambient_spec(spec))


@lru_cache(maxsize=None)
def _checked_family(case: MatrixCase) -> IdempotentFamily:
    return verified(*_families(case.spec()))


def _family_or_error(case: MatrixCase):
    """(family, None) on success, (None, message) on any failure."""
    try:
        return _checked_family(case), None
    except VerificationError as err:
        return None, f"verification failed: {err}"
    except Exception as err:  # construction itself blew up
        return None, f"{type(err).__name__}: {err}"


def criterion_case_matrix(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    details: List[str] = []
    repro = None
    for case in MATRIX:
        family, err = _family_or_error(case)
        if err is not None:
            details.append(f"{case} [{case.tag}]: {err}")
        else:
            dims = tuple(sorted(it.dim for it in family.items))
            if dims != case.dims:
                details.append(f"{case} [{case.tag}]: dims {dims} != {case.dims}")
        if details and repro is None:
            repro = case.repro()
    if not details and os.environ.get("CYCLOTWIST_CORRUPT"):
        case = MATRIX[0]
        family = _checked_family(case)
        tampered = replace(family, items=family.items[:-1], report=None)
        report = verify_family(tampered, ambient_family(tampered))
        details.append(
            f"{case}: deliberate corruption detected by: "
            + "; ".join(report.failures)
        )
        repro = case.repro()
    return CriterionResult(
        1, "case-coverage matrix verifies", not details, details, repro
    )


def criterion_ground_truth(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    details: List[str] = []
    repro = None
    instances: List[Tuple[str, int, str]] = []
    for field_spec, n in GROUND_TRUTH_GRID:
        q = parse_field(field_spec).q
        instances.extend((field_spec, n, str(a)) for a in range(1, q))
    for case in MATRIX:
        K = parse_field(case.field)
        if K.kind == FINITE and (case.field, case.n, case.a) not in instances:
            instances.append((case.field, case.n, case.a))
    skipped = 0
    for field_spec, n, a in instances:
        K = parse_field(field_spec)
        if K.q ** (1 << n) > max_enum:
            skipped += 1
            continue
        spec = AlgebraSpec(K, n, parse_element(K, a))
        try:
            agree = cross_check(_family(spec), max_count=max_enum)
        except Exception as err:
            agree = False
            details.append(f"({field_spec}, n={n}, a={a}): {type(err).__name__}: {err}")
        else:
            if not agree:
                details.append(f"({field_spec}, n={n}, a={a}): enumeration mismatch")
        if details and repro is None:
            repro = f"cyclotwist verify {field_spec} {n} {a}"
    if skipped == len(instances):
        details.append(
            f"no instance cross-checked: all {skipped} are over the "
            f"enumeration budget {max_enum}"
        )
    notes = [f"{len(instances) - skipped} instances cross-checked"]
    if skipped:
        notes.append(f"{skipped} skipped (over enumeration budget {max_enum})")
    return CriterionResult(
        2, "brute-force ground truth", not details, details or notes, repro
    )


def _expected_poly(K: FieldDescriptor, ints: Tuple[int, ...]) -> Poly:
    return Poly(tuple(K.scalar(c) for c in ints))


def criterion_exact_decompositions(
    max_enum: int = DEFAULT_ENUM_BUDGET,
) -> CriterionResult:
    details: List[str] = []
    repro = None
    Q = parse_field("Q")

    def check_polys(case: MatrixCase, expected: set, what: str) -> None:
        nonlocal repro
        family, err = _family_or_error(case)
        if err is not None:
            details.append(f"{case}: {err}")
        else:
            got = {it.min_poly for it in family.items}
            if got != expected:
                details.append(f"{case}: minimal polynomials differ from {what}")
        if details and repro is None:
            repro = case.repro()

    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
    check_polys(
        _case("Q", 2, "-4"),
        {_expected_poly(Q, (2, -2, 1)), _expected_poly(Q, (2, 2, 1))},
        "x^2-2x+2, x^2+2x+2",
    )
    # x^8 - 16 = (x^2 - 2)(x^2 + 2)(x^2 - 2x + 2)(x^2 + 2x + 2)
    check_polys(
        _case("Q", 3, "16"),
        {
            _expected_poly(Q, (-2, 0, 1)),
            _expected_poly(Q, (2, 0, 1)),
            _expected_poly(Q, (2, -2, 1)),
            _expected_poly(Q, (2, 2, 1)),
        },
        "the factors of x^8-16",
    )
    case = _case("F:3", 2, "1")  # dims {1, 1, 2}
    family, err = _family_or_error(case)
    if err is not None:
        details.append(f"{case}: {err}")
        repro = repro or case.repro()
    elif tuple(sorted(it.dim for it in family.items)) != (1, 1, 2):
        details.append(f"{case}: dims differ from (1, 1, 2)")
        repro = repro or case.repro()
    return CriterionResult(
        3, "exact decompositions reproduced", not details, details, repro
    )


def criterion_depth_regression(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    details: List[str] = []
    Q = parse_field("Q")
    checks = [
        ("h_3(16) over Q", h_n(Q, Q.scalar(16), 3), 3),
        ("h_2(4) over Q", h_n(Q, Q.scalar(4), 2), 1),
    ]
    for field_spec in sorted({case.field for case in MATRIX}):
        K = parse_field(field_spec)
        checks.append((f"h_3(1) over {field_spec}", h_n(K, K.one(), 3), 3))
    for label, got, want in checks:
        if got != want:
            details.append(f"{label} = {got}, expected {want}")
    return CriterionResult(
        4,
        "depth computation regressions",
        not details,
        details,
        "cyclotwist classify Q --n 3" if details else None,
    )


def _v2(x: int) -> int:
    t = 0
    while x % 2 == 0:
        x //= 2
        t += 1
    return t


def _odd_primes(bound: int):
    for q in range(3, bound, 2):
        if all(q % p for p in range(3, int(q**0.5) + 1, 2)):
            yield q


def criterion_structure_law(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    details: List[str] = []
    for q in _odd_primes(200):
        K = parse_field(f"F:{q}")
        cls = classify(K)
        if q % 4 == 1:
            want = ("B", _v2(q - 1))
        else:
            want = ("E", 1 + _v2(q + 1))
        if (cls.field_type, cls.m) != want:
            details.append(f"F:{q} classified {cls.field_type}, m={cls.m}; expected {want}")
    for q in _odd_primes(32):
        K = parse_field(f"F:{q}")
        units = [x for x in K.iter_ambient() if x != K.zero()]
        for s in range(4):
            table = {x ** (1 << s) for x in units}
            for a0 in range(1, q):
                a = K.scalar(a0)
                if ks_membership(K, a, s) != (a in table):
                    details.append(f"F:{q}: membership of {a0} at s={s} disagrees with power table")
    return CriterionResult(
        5,
        "finite-field structure law",
        not details,
        details,
        "cyclotwist classify F:199" if details else None,
    )


def criterion_conjugate_pairing(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    details: List[str] = []
    repro = None
    for case in MATRIX:
        if parse_field(case.field).involution == IDENTITY:
            continue
        try:
            agree = conjugate_pairing_check(*_families(case.spec()))
        except Exception as err:
            details.append(f"{case}: {type(err).__name__}: {err}")
        else:
            if not agree:
                details.append(f"{case}: orbit sums of the ambient family differ")
        if details and repro is None:
            repro = case.repro()
    return CriterionResult(
        6, "conjugate-pairing equivalence", not details, details, repro
    )


def criterion_index_regressions(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    details: List[str] = []

    def family_sum(spec: AlgebraSpec, items) -> bool:
        total = spec.zero()
        for it in items:
            total = total + it.element
        return total == spec.one()

    # Negated family must start at i = 0: with i = 1 the (Q, 2, -1)
    # family is empty and cannot sum to 1.
    case = _case("Q", 2, "-1")
    spec = case.spec()
    s = h_n(spec.field, spec.a, spec.n)
    dec = ks_decompose(spec.field, spec.a, s)
    items = thm3_case4(spec, s, dec.b)
    if family_sum(spec, [it for it in items if it.label != (0,)]):
        details.append(f"{case}: the rejected i=1 reading unexpectedly sums to 1")
    if not family_sum(spec, items):
        details.append(f"{case}: the adopted i=0 reading fails to sum to 1")

    # Deep paired family must include the r = 0 block: without it the
    # (F:3, 3, 1) family loses two components.
    case = _case("F:3", 3, "1")
    spec = case.spec()
    s = h_n(spec.field, spec.a, spec.n)
    dec = ks_decompose(spec.field, spec.a, s)
    items = thm3_case3(spec, s, dec.b)
    if family_sum(spec, [it for it in items if len(it.label) == 1 or it.label[0] >= 1]):
        details.append(f"{case}: the rejected r=1 reading unexpectedly sums to 1")
    if not family_sum(spec, items):
        details.append(f"{case}: the adopted r=0 reading fails to sum to 1")
    return CriterionResult(
        7,
        "index-convention regressions",
        not details,
        details,
        _case("Q", 2, "-1").repro() if details else None,
    )


CRITERIA: Tuple[Callable[[int], CriterionResult], ...] = (
    criterion_case_matrix,
    criterion_ground_truth,
    criterion_exact_decompositions,
    criterion_depth_regression,
    criterion_structure_law,
    criterion_conjugate_pairing,
    criterion_index_regressions,
)


def run_selftest(max_enum: int = DEFAULT_ENUM_BUDGET, stream=None) -> int:
    stream = stream or sys.stdout
    failed = False
    for criterion in CRITERIA:
        result = criterion(max_enum)
        print(result.line(), file=stream)
        for line in result.details:
            print(f"    {line}", file=stream)
        if not result.passed:
            failed = True
            if result.repro:
                print(f"    reproduce with: {result.repro}", file=stream)
    print("selftest: " + ("FAIL" if failed else "PASS"), file=stream)
    return 1 if failed else 0
