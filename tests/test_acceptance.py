"""Acceptance gate: the seven criteria, one test and one verdict line each.

Each test delegates to the shared criterion functions in
cyclotwist.selftest (the same code the ``cyclotwist selftest``
subcommand runs), prints the criterion's verdict line, and fails with
the collected details if the criterion does not hold.  Criteria with a
stated runtime bound assert it.
"""

import io
import time

import pytest

from cyclotwist import builder, selftest
from cyclotwist.oracle import DEFAULT_ENUM_BUDGET
from cyclotwist.selftest import (
    criterion_case_matrix,
    criterion_conjugate_pairing,
    criterion_depth_regression,
    criterion_exact_decompositions,
    criterion_ground_truth,
    criterion_index_regressions,
    criterion_structure_law,
)


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
    # 52 distinct algebras: the matrix, the ground-truth grid and the
    # ambient algebras of the involutive matrix fields
    calls = []

    def counting(spec, checked=True):
        calls.append(spec)
        return original(spec, checked)

    original = builder.build
    monkeypatch.setattr(builder, "build", counting)
    monkeypatch.setattr(selftest, "build", counting)
    selftest._family.cache_clear()
    selftest._checked_family.cache_clear()
    out = io.StringIO()
    assert selftest.run_selftest(stream=out) == 0
    assert out.getvalue().rstrip().endswith("selftest: PASS")
    assert len(calls) == len(set(calls)) == 52
