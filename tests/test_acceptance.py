"""Acceptance gate: the seven criteria, one test and one verdict line each.

Each test delegates to the shared criterion functions in
cyclotwist.selftest (the same code the ``cyclotwist selftest``
subcommand runs), prints the criterion's verdict line, and fails with
the collected details if the criterion does not hold.  Criteria with a
stated runtime bound assert it.
"""

import contextlib
import io
import shlex
import time
from dataclasses import replace

import pytest

from cyclotwist import builder, cli, selftest
from cyclotwist.grammar import parse_field
from cyclotwist.oracle import DEFAULT_ENUM_BUDGET, verified
from cyclotwist.selftest import (
    criterion_case_matrix,
    criterion_conjugate_pairing,
    criterion_depth_regression,
    criterion_exact_decompositions,
    criterion_ground_truth,
    criterion_index_regressions,
    criterion_structure_law,
)
from test_builder import item_blocks


def check(criterion, time_bound=None):
    start = time.monotonic()
    result = criterion(DEFAULT_ENUM_BUDGET)
    elapsed = time.monotonic() - start
    print(result.line())
    assert result.passed, "\n".join(result.details)
    if time_bound is not None:
        assert elapsed < time_bound, (
            f"criterion {result.number} took {elapsed:.1f}s, bound {time_bound}s"
        )
    return result


def test_criterion_1_case_matrix():
    check(criterion_case_matrix, time_bound=10.0)


def test_criterion_2_ground_truth():
    result = check(criterion_ground_truth, time_bound=60.0)
    assert result.details == ["27 instances cross-checked"]


def test_criterion_2_fails_when_nothing_is_cross_checked():
    result = criterion_ground_truth(0)
    assert not result.passed
    assert result.details == [
        "no instance cross-checked: all 27 are over the enumeration budget 0"
    ]
    assert result.repro is None


def test_criterion_3_exact_decompositions():
    check(criterion_exact_decompositions)


def test_criterion_4_depth_regression():
    check(criterion_depth_regression)


def test_criterion_5_structure_law():
    check(criterion_structure_law, time_bound=30.0)


def test_criterion_6_conjugate_pairing():
    check(criterion_conjugate_pairing)


def test_criterion_7_index_regressions():
    check(criterion_index_regressions)


def test_selftest_builds_each_algebra_once(monkeypatch):
    # 40 distinct algebras: the matrix and the ground-truth grid; the
    # pairing criterion reads the ambient algebras' constants and builds
    # none of them
    calls = []

    def counting(spec):
        calls.append(spec)
        return original(spec)

    original = builder.build
    monkeypatch.setattr(builder, "build", counting)
    monkeypatch.setattr(selftest, "build", counting)
    selftest._family.cache_clear()
    selftest._checked_family.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert selftest.run_selftest() == 0
    assert out.getvalue().rstrip().endswith("selftest: PASS")
    assert len(calls) == len(set(calls)) == 40


# the originals that the replacements below wrap
_BRUTE_ENUMERATE = selftest.brute_enumerate_minimal
_EXPECTED_POLY = selftest._expected_poly
_THM3_CASE3 = selftest.thm3_case3
_H_N = selftest.h_n
_CLASSIFY = selftest.classify
_KS_MEMBERSHIP = selftest.ks_membership
_CHECKED_FAMILY = selftest._checked_family
_THM3_CASE4 = selftest.thm3_case4
_CHAR_SUM = builder._char_sum


def _matrix_with_two_faults(matrix):
    # QR:5 loses a dimension; the second F:5 case gets a = 0, which
    # AlgebraSpec refuses
    out = []
    for case in matrix:
        if case.field == "QR:5":
            case = replace(case, dims=case.dims[1:])
        elif (case.field, case.n, case.a) == ("F:5", 3, "1"):
            case = replace(case, a="0")
        out.append(case)
    return tuple(out)


def _pairing_with_two_faults(family, ambient):
    K, n = family.spec.field, family.spec.n
    if K.q and n == 3:
        return False
    if K.q and n == 1:
        raise ValueError("deliberate")
    return True


def _enumeration_with_two_faults(spec, max_count):
    key = (spec.field.q, spec.n, spec.a.ints[0])
    if key == (7, 2, 3):
        return []
    if key == (5, 3, 1):
        raise ValueError("deliberate")
    return _BRUTE_ENUMERATE(spec, max_count)


def _depth_with_two_faults(a, n):
    K = a.owner
    if (K, a, n) == (parse_field("Q"), K.scalar(16), 3):
        return 2
    if (K, n) == (parse_field("F:5"), 3):
        raise RuntimeError("deliberate")
    return _H_N(a, n)


def _classification_with_a_fault(K):
    cls = _CLASSIFY(K)
    return replace(cls, m=cls.m + 1) if K == parse_field("F:13") else cls


def _checked_family_with_a_fault(case):
    # the first matrix case loses its last item, so its check raises
    # VerificationError
    if case is not selftest.MATRIX[0]:
        return _CHECKED_FAMILY(case)
    family = selftest._family(case.spec())
    short = replace(family, items=family.items[:-1])
    verified(short, short.elements)


def _relabelled_case4(K, s):
    # no label (0,): the rejected i=1 reading drops nothing
    return [(r, (i + 1,), *rest) for r, (i,), *rest in item_blocks(_THM3_CASE4(K, s), K)]


def _membership_with_a_fault(a, s):
    member = _KS_MEMBERSHIP(a, s)
    return not member if (a, s) == (parse_field("F:7").scalar(2), 1) else member


FORCED_FAILURES = {
    "case matrix": (
        criterion_case_matrix,
        {"MATRIX": _matrix_with_two_faults(selftest.MATRIX)},
        "criterion 1 (case-coverage matrix verifies): FAIL\n"
        "    (F:5, n=3, a=0) [split-deep]: ValueError: a must be nonzero\n"
        "    (QR:5, n=2, a=16) [paired-shallow]: dims (1, 1, 2) != (1, 2)\n"
        "    reproduce with: cyclotwist idempotents --verify F:5 3 0\n",
    ),
    "verification error": (
        criterion_case_matrix,
        {"_checked_family": _checked_family_with_a_fault},
        "criterion 1 (case-coverage matrix verifies): FAIL\n"
        "    (F:5, n=2, a=1) [split-shallow]: verification failed: FAIL: family "
        "does not sum to 1; component dimensions sum to 3, expected 4\n"
        "    reproduce with: cyclotwist idempotents --verify F:5 2 1\n",
    ),
    "ground truth": (
        criterion_ground_truth,
        {"brute_enumerate_minimal": _enumeration_with_two_faults},
        "criterion 2 (brute-force ground truth): FAIL\n"
        "    (F:7, n=2, a=3): enumeration mismatch\n"
        "    (F:5, n=3, a=1): ValueError: deliberate\n"
        "    reproduce with: cyclotwist verify F:7 2 3\n",
    ),
    "exact decompositions": (
        criterion_exact_decompositions,
        {
            "_expected_poly": lambda K, ints: _EXPECTED_POLY(
                K, (2, 0, 1) if ints == (-2, 0, 1) else ints
            )
        },
        "criterion 3 (exact decompositions reproduced): FAIL\n"
        "    (Q, n=3, a=16): minimal polynomials differ from the factors of "
        "x^8-16\n"
        "    reproduce with: cyclotwist idempotents Q 3 16\n",
    ),
    "depth": (
        criterion_depth_regression,
        {"h_n": _depth_with_two_faults},
        "criterion 4 (depth computation regressions): FAIL\n"
        "    h_3(16) over Q: depth 2, expected 3\n"
        "    h_3(1) over F:5: RuntimeError: deliberate\n"
        "    reproduce with: cyclotwist idempotents --unchecked Q 3 16\n",
    ),
    "structure law": (
        criterion_structure_law,
        {
            "classify": _classification_with_a_fault,
            "ks_membership": _membership_with_a_fault,
        },
        "criterion 5 (finite-field structure law): FAIL\n"
        "    F:13: classified B, m=3; expected ('B', 2)\n"
        "    2 in K_1 over F:7: membership disagrees with the power table\n"
        "    reproduce with: cyclotwist classify F:13\n",
    ),
    "membership": (
        criterion_structure_law,
        {"ks_membership": _membership_with_a_fault},
        "criterion 5 (finite-field structure law): FAIL\n"
        "    2 in K_1 over F:7: membership disagrees with the power table\n"
        "    reproduce with: cyclotwist idempotents --unchecked F:7 1 2\n",
    ),
    "conjugate pairing": (
        criterion_conjugate_pairing,
        {"conjugate_pairing_check": _pairing_with_two_faults},
        "criterion 6 (conjugate-pairing equivalence): FAIL\n"
        "    (F:3, n=3, a=1): orbit sums of the ambient family differ\n"
        "    (F:3, n=1, a=2): ValueError: deliberate\n"
        "    reproduce with: cyclotwist verify F:3 3 1\n",
    ),
    "index conventions": (
        criterion_index_regressions,
        {"thm3_case3": lambda K, s: item_blocks(_THM3_CASE3(K, s), K)[:-1]},
        "criterion 7 (index-convention regressions): FAIL\n"
        "    (F:3, n=3, a=1): the adopted r=0 reading fails to sum to 1\n"
        "    reproduce with: cyclotwist verify F:3 3 1\n",
    ),
    "rejected reading": (
        criterion_index_regressions,
        {"thm3_case4": _relabelled_case4},
        "criterion 7 (index-convention regressions): FAIL\n"
        "    (Q, n=2, a=-1): the rejected i=1 reading unexpectedly sums to 1\n"
        "    reproduce with: cyclotwist verify Q 2 -1\n",
    ),
}
@pytest.mark.parametrize("what", FORCED_FAILURES)
def test_forced_failure_lines_are_pinned(monkeypatch, what):
    # failures forced in each criterion: every detail line and the
    # reproduce line, byte for byte
    criterion, replacements, expected = FORCED_FAILURES[what]
    for name, replacement in replacements.items():
        monkeypatch.setattr(selftest, name, replacement)
    monkeypatch.setattr(selftest, "CRITERIA", (criterion,))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert selftest.run_selftest() == 1
    assert out.getvalue() == expected + "selftest: FAIL\n"


def test_a_fault_off_the_core_fails_its_reproduce_line(monkeypatch, capsys):
    # one coefficient corrupted in the QC:3 families with a != 1, none of
    # them a core: verify, which certifies through the core, passes the
    # first failing case, and the call criterion 1 names, which runs its
    # check at n, exits 1
    K = parse_field("QC:3")

    def corrupted(spec, *rest):
        e = _CHAR_SUM(spec, *rest)
        return e + 1 if spec.field == K and spec.a != 1 else e

    caches = (selftest._family, selftest._checked_family, cli._certified_core)
    monkeypatch.setattr(builder, "_char_sum", corrupted)
    try:
        for cache in caches:
            cache.cache_clear()
        result = criterion_case_matrix()
        argv = shlex.split(result.repro)
        assert (result.passed, argv[:3]) == (False, ["cyclotwist", "idempotents", "--verify"])
        assert cli.main(argv[1:]) == 1
        assert cli.main(["verify", *argv[3:]]) == 0
    finally:
        for cache in caches:
            cache.cache_clear()
    capsys.readouterr()


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_no_criterion_stops_the_run(monkeypatch, capsys, error):
    # a raising depth computation fails criterion 4 case by case; the
    # later criteria still run and the CLI reports no usage error
    def raising(a, n):
        raise error("deliberate")

    monkeypatch.setattr(selftest, "h_n", raising)
    assert cli.main(["selftest"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fields = sorted({case.field for case in selftest.MATRIX})
    names = ["h_3(16) over Q", "h_2(4) over Q"] + [f"h_3(1) over {f}" for f in fields]
    block = (
        "criterion 4 (depth computation regressions): FAIL\n"
        + "".join(f"    {name}: {error.__name__}: deliberate\n" for name in names)
        + "    reproduce with: cyclotwist idempotents --unchecked Q 3 16\n"
    )
    assert len(names) == 10 and block in out
    assert out.endswith(
        "criterion 5 (finite-field structure law): PASS\n"
        "criterion 6 (conjugate-pairing equivalence): PASS\n"
        "criterion 7 (index-convention regressions): PASS\n"
        "selftest: FAIL\n"
    )
