"""Acceptance suite: seven numbered criteria over a fixed case matrix.

The matrix below pins one instance of every construction branch
(root-supplied shallow and deep, depth 0, paired shallow, paired deep
and negated over both types D and E, and the unit-coset family
including its double-indexed blocks), with the component
dimensions frozen as regression values.  The criterion functions are
shared verbatim by the CLI ``selftest`` subcommand and by the pytest
acceptance tests, so a red criterion reproduces identically in both.
All seven criteria walk their cases through one loop (``_each_case``):
a check that returns a failure text or raises gives one detail line, so
no case hides another and no criterion stops the run, and the first
failing case names the ``reproduce with`` command, a CLI call that
shows the failing value.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Callable, List, NamedTuple, Optional, Tuple

from .algebra import AlgebraSpec, Poly
from .builder import (
    IdempotentFamily,
    _stated,
    ambient_constants,
    build,
    thm3_case3,
    thm3_case4,
)
from .classify import classify, h_n, ks_decompose, ks_membership
from .fields import IDENTITY, FieldDescriptor
from .grammar import parse_element, parse_field
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    VerificationError,
    brute_enumerate_minimal,
    conjugate_pairing_check,
    verified,
)

__all__ = ["MATRIX", "MatrixCase", "CriterionResult", "CRITERIA", "run_selftest"]


class MatrixCase(NamedTuple):
    tag: str
    field: str
    n: int
    a: str
    dims: Tuple[int, ...]  # sorted component dimensions, frozen as regression

    def spec(self) -> AlgebraSpec:
        return AlgebraSpec(self.n, parse_element(parse_field(self.field), self.a))

    def repro(self, command: str = "verify") -> str:
        return f"cyclotwist {command} {self.field} {self.n} {self.a}"

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
    ("F:3", 1), ("F:3", 2), ("F:3", 3), ("F:5", 1), ("F:5", 2), ("F:7", 1), ("F:7", 2)
)


def _case(field: str, n: int, a: str) -> MatrixCase:
    return next(c for c in MATRIX if (c.field, c.n, c.a) == (field, n, a))


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    details: List[str]
    repro: Optional[str]

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} ({self.title}): {verdict}"


# Every criterion reads its families from this cache, so each algebra
# is built once per process.
@lru_cache(maxsize=None)
def _family(spec: AlgebraSpec) -> IdempotentFamily:
    return build(spec)


@lru_cache(maxsize=None)
def _checked_family(case: MatrixCase) -> IdempotentFamily:
    family = _family(case.spec())
    verified(family, family.elements)
    return family


def _each_case(
    number: int, title: str, cases, check, name=str, repro=MatrixCase.repro
) -> CriterionResult:
    """Criterion ``number`` of ``check`` over ``cases``: one detail
    ``name(case): text`` for each case whose check returns a failure
    text or raises, and the ``repro`` of the first such case."""
    details, first = [], None
    for case in cases:
        try:
            failure = check(case)
        except VerificationError as err:
            failure = f"verification failed: {err}"
        except Exception as err:  # the check itself blew up
            failure = f"{type(err).__name__}: {err}"
        if failure is not None:
            details.append(f"{name(case)}: {failure}")
            first = first or repro(case)
    return CriterionResult(number, title, not details, details, first)


def _unchecked(field: str, n: int, a) -> str:
    """The CLI call whose ``s:`` line prints h_n(a) over the field."""
    return f"cyclotwist idempotents --unchecked {field} {n} {a}"


def criterion_case_matrix(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    def check(case: MatrixCase) -> Optional[str]:
        dims = tuple(sorted(it.dim for it in _checked_family(case).items))
        return None if dims == case.dims else f"dims {dims} != {case.dims}"

    title = "case-coverage matrix verifies"
    repro = "idempotents --verify"  # runs the check: ``verified`` at n
    return _each_case(1, title, MATRIX, check, lambda c: f"{c} [{c.tag}]", lambda c: c.repro(repro))


def criterion_ground_truth(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    keys = [
        (f, n, str(a)) for f, n in GROUND_TRUTH_GRID for a in range(1, parse_field(f).q)
    ]
    keys += [(c.field, c.n, c.a) for c in MATRIX if parse_field(c.field).q]
    instances = [MatrixCase("ground-truth", *key, ()) for key in dict.fromkeys(keys)]
    within = [c for c in instances if parse_field(c.field).q ** (1 << c.n) <= max_enum]
    skipped = len(instances) - len(within)

    def check(case: MatrixCase) -> Optional[str]:
        spec = case.spec()
        if set(brute_enumerate_minimal(spec, max_enum)) != set(_family(spec).elements()):
            return "enumeration mismatch"
        return None

    result = _each_case(2, "brute-force ground truth", within, check)
    if not within:
        over = f"all {skipped} are over the enumeration budget {max_enum}"
        return result._replace(passed=False, details=[f"no instance cross-checked: {over}"])
    if result.passed:
        result.details.append(f"{len(within)} instances cross-checked")
        if skipped:
            result.details.append(
                f"{skipped} skipped (over enumeration budget {max_enum})"
            )
    return result


def _expected_poly(K: FieldDescriptor, ints: Tuple[int, ...]) -> Poly:
    """The Poly with these integer coefficients, low degree first."""
    return Poly(tuple((k, K.scalar(c)) for k, c in enumerate(ints) if c))


def criterion_exact_decompositions(
    max_enum: int = DEFAULT_ENUM_BUDGET,
) -> CriterionResult:
    Q = parse_field("Q")
    expected = {
        # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2)
        _case("Q", 2, "-4"): (((2, -2, 1), (2, 2, 1)), "x^2-2x+2, x^2+2x+2"),
        # x^8 - 16 = (x^2 - 2)(x^2 + 2)(x^2 - 2x + 2)(x^2 + 2x + 2)
        _case("Q", 3, "16"): (
            ((-2, 0, 1), (2, 0, 1), (2, -2, 1), (2, 2, 1)),
            "the factors of x^8-16",
        ),
    }

    def check(case: MatrixCase) -> Optional[str]:
        factors, what = expected[case]
        polys = {_expected_poly(Q, ints) for ints in factors}
        if {it.min_poly for it in _checked_family(case).items} != polys:
            return f"minimal polynomials differ from {what}"
        return None

    title = "exact decompositions reproduced"
    # ``idempotents`` prints the minimal polynomials the check compares
    return _each_case(3, title, expected, check, repro=lambda c: c.repro("idempotents"))


def criterion_depth_regression(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    # (field, n, a, h_n(a))
    cases = [("Q", 3, "16", 3), ("Q", 2, "4", 1)]
    cases += [(field, 3, "1", 3) for field in sorted({c.field for c in MATRIX})]

    def check(case) -> Optional[str]:
        field, n, a, want = case
        K = parse_field(field)
        got = h_n(parse_element(K, a), n)
        return None if got == want else f"depth {got}, expected {want}"

    def name(case) -> str:
        return f"h_{case[1]}({case[2]}) over {case[0]}"

    title = "depth computation regressions"
    return _each_case(4, title, cases, check, name, lambda c: _unchecked(*c[:3]))


def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def _odd_primes(bound: int):
    for q in range(3, bound, 2):
        if all(q % p for p in range(3, isqrt(q) + 1, 2)):
            yield q


@lru_cache(maxsize=None)
def _powers(field: str, s: int) -> frozenset:
    """The 2^s-th powers of the units of the finite field."""
    K = parse_field(field)
    return frozenset(x ** (1 << s) for x in K.iter_ambient() if x != K.zero())


def criterion_structure_law(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    # (F:q, None, None): the type and m of F_q; (F:q, s, a0): is a0 in K_s?
    cases = [(f"F:{q}", None, None) for q in _odd_primes(200)]
    cases += [
        (f"F:{q}", s, a) for q in _odd_primes(32) for s in range(4) for a in range(1, q)
    ]

    def check(case) -> Optional[str]:
        field, s, a0 = case
        K = parse_field(field)
        if s is None:
            cls, q = classify(K), K.q
            want = ("B", _v2(q - 1)) if q % 4 == 1 else ("E", 1 + _v2(q + 1))
            if (cls.field_type, cls.m) != want:
                return f"classified {cls.field_type}, m={cls.m}; expected {want}"
        elif ks_membership(K.scalar(a0), s) != (K.scalar(a0) in _powers(field, s)):
            return "membership disagrees with the power table"
        return None

    def name(case) -> str:
        field, s, a0 = case
        return field if s is None else f"{a0} in K_{s} over {field}"

    def repro(case) -> str:
        field, s, a0 = case
        return f"cyclotwist classify {field}" if s is None else _unchecked(*case)

    return _each_case(5, "finite-field structure law", cases, check, name, repro)


def criterion_conjugate_pairing(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    def check(case: MatrixCase) -> Optional[str]:
        family = _family(case.spec())
        if conjugate_pairing_check(family, ambient_constants(family)):
            return None
        return "orbit sums of the ambient family differ"

    paired = [c for c in MATRIX if parse_field(c.field).involution != IDENTITY]
    return _each_case(6, "conjugate-pairing equivalence", paired, check)


def criterion_index_regressions(max_enum: int = DEFAULT_ENUM_BUDGET) -> CriterionResult:
    # (case, case function, the length of the labels (0, ...) that the
    # rejected narrower reading drops, the rejected and the adopted
    # index).  The negated family must start at i = 0: with i = 1 the
    # (Q, 2, -1) family is empty and cannot sum to 1.  The deep paired
    # family must include the r = 0 block (0, j): without it the
    # (F:3, 3, 1) family loses two components.  Built per call, so it
    # holds the case functions bound on this module when the criterion runs.
    conventions = (
        (_case("Q", 2, "-1"), thm3_case4, 1, "i=1", "i=0"),
        (_case("F:3", 3, "1"), thm3_case3, 2, "r=1", "r=0"),
    )

    def check(convention) -> Optional[str]:
        case, construct, dropped, rejected, adopted = convention
        spec = case.spec()
        dec = ks_decompose(spec.a, spec.n)
        family = _stated(spec, dec, construct(spec.field, dec.s))
        elements = list(zip(family.items, family.elements()))
        narrowed = [e for it, e in elements if it.label[0] or len(it.label) != dropped]
        zero, one = spec.zero(), spec.one()
        failures = []
        if sum(narrowed, zero) == one:
            failures.append(f"the rejected {rejected} reading unexpectedly sums to 1")
        if sum((e for _, e in elements), zero) != one:
            failures.append(f"the adopted {adopted} reading fails to sum to 1")
        return "; ".join(failures) or None

    title = "index-convention regressions"
    return _each_case(
        7, title, conventions, check, lambda c: str(c[0]), lambda c: c[0].repro()
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


def run_selftest(max_enum: int = DEFAULT_ENUM_BUDGET) -> int:
    """Run every criterion, print its report to stdout, and return the
    exit status: 0 if all pass, else 1."""
    failed = False
    for criterion in CRITERIA:
        result = criterion(max_enum)
        print(result.line())
        for line in result.details:
            print(f"    {line}")
        if not result.passed:
            failed = True
            if result.repro:
                print(f"    reproduce with: {result.repro}")
    print("selftest: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0
