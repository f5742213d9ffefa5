"""CLI contract: output shapes, JSON schema, determinism, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _checked_family_with_a_fault
from test_golden_cli import argvs, every_argv
from test_oracle import (
    core_report,
    family_and_core,
    first_k_negated,
    mutants,
    report_dict,
    with_elements,
)

from cyclotwist import algebra, cli, selftest
from cyclotwist.builder import build
from cyclotwist.classify import classify
from cyclotwist.cli import _build_parser, main
from cyclotwist.grammar import format_element, format_field, parse_field
from cyclotwist.oracle import VerificationError, verified, verify_core, verify_family

DEEP_A = "170459392,120532992,0,-120532992"  # (1 + eps_3)^32 over QR:3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify --------------------------------------------------------------------


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "Q")
    assert code == 0 and err == ""
    assert out == "field: Q\ntype: D\nm: 2\n"


def test_classify_with_n(capsys):
    code, out, _ = run(capsys, "classify", "QC:3", "--n", "2")
    assert code == 0
    assert "emulates: A" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "F:7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "field": "F:7",
        "classification": {"type": "E", "m": 4, "emulates": None},
        "n": None,
    }


# -- idempotents ------------------------------------------------------------------


def test_idempotents_depth_zero(capsys):
    code, out, _ = run(capsys, "idempotents", "Q", "1", "2")
    assert code == 0
    assert "s: 0" in out
    assert "idempotents (1):" in out
    assert "min poly x^2 - 2" in out


def test_idempotents_with_verify(capsys):
    code, out, _ = run(capsys, "idempotents", "F:3", "2", "1", "--verify")
    assert code == 0
    assert "idempotents (3):" in out
    assert "verification: PASS" in out


def test_idempotents_json_schema(capsys):
    code, out, _ = run(capsys, "idempotents", "Q", "2", "-4", "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "field",
        "classification",
        "n",
        "a",
        "s",
        "coset",
        "idempotents",
        "verification",
    ]
    assert data["field"] == "Q"
    assert data["classification"] == {"type": "D", "m": 2, "emulates": "none"}
    assert data["s"] == 2
    assert data["coset"] == {"form": "eps_coset", "b": "-1"}
    assert data["verification"] is None
    items = data["idempotents"]
    assert [it["dim"] for it in items] == [2, 2]
    assert items[0] == {
        "label": [0],
        "coeffs": ["1/2", "-1/4", "0", "1/8"],
        "dim": 2,
        "min_poly": {"coeffs": ["2", "2", "1"]},
    }
    # exact strings only: no floats anywhere in the document
    assert "." not in out


def test_idempotents_certifies_the_octic_unit_coset(capsys):
    # the octic components are certified by quadratic descent, so the
    # check passes
    code, out, err = run(
        capsys, "idempotents", "QR:3", "5", DEEP_A, "--verify", "--json"
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["verification"]["pass"] is True
    assert data["verification"]["uncertified"] == []
    assert tuple(sorted(it["dim"] for it in data["idempotents"])) == (
        2, 2, 2, 2, 2, 2, 4, 8, 8,
    )


def test_idempotents_unchecked_shows_family(capsys):
    code, out, _ = run(capsys, "idempotents", "QR:3", "5", DEEP_A, "--unchecked")
    assert code == 0
    assert "idempotents (9):" in out


def test_verify_and_unchecked_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["idempotents", "Q", "2", "-4", "--verify", "--unchecked"])
    assert exc.value.code == 2


# -- verify -----------------------------------------------------------------------


def test_verify_finite_all_oracles(capsys):
    code, out, _ = run(capsys, "verify", "F:3", "3", "1")
    assert code == 0
    assert "structural: PASS" in out
    assert "enumeration: pass" in out
    assert "pairing: pass" in out
    assert "overall: PASS" in out


def test_verify_enumerates_over_a_61_bit_prime(capsys):
    # the Frobenius certificate squares in slots wider than 8 bytes
    code, out, _ = run(capsys, "verify", "F:2305843009213693951", "6", "5")
    assert code == 0
    assert "enumeration: pass" in out
    assert "overall: PASS" in out


def test_verify_reads_a_literal_past_4300_digits(capsys):
    # the interpreter refuses int(str) past 4,300 digits by default
    code, out, err = run(capsys, "verify", "Q", "2", "1" + "0" * 4399 + "7")
    assert (code, err) == (0, "")
    assert "overall: PASS" in out


@pytest.mark.parametrize(
    "argv, token",
    [
        (["verify", "Q", "2", "1e10000000"], "1e10000000"),
        (["idempotents", "QC:3", "1", "0,1e9,0,0"], "1e9"),
        (["verify", "Q", "2", "3E2"], "3E2"),
    ],
    ids=lambda x: x if isinstance(x, str) else " ".join(x),
)
def test_an_exponent_in_a_literal_is_refused_at_once(capsys, argv, token):
    # 1e10000000 would name a ten-million-digit a in ten characters
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: bad coordinate '{token}': expected a rational like -3/2\n"


def test_a_decimal_literal_is_exact(capsys):
    # a decimal is as large as its text: 1.5 is 3/2
    code, out, err = run(capsys, "verify", "Q", "2", "1.5")
    assert (code, err) == (0, "")
    assert "overall: PASS" in out
    assert run(capsys, "verify", "Q", "2", "3/2")[1] == out


def test_json_prints_coefficients_past_4300_digits(capsys):
    # a = (10^1500 + 7)^4 reads 6,001 digits, and c = b^-1 puts a
    # 4,501-digit denominator into the coefficients
    a = str((10**1500 + 7) ** 4)
    code, out, err = run(capsys, "idempotents", "--unchecked", "--json", "Q", "2", a)
    assert (code, err) == (0, "")
    items = json.loads(out)["idempotents"]
    assert len(items) == 3
    assert max(len(c) for it in items for c in it["coeffs"]) == 4504


def test_verify_skips_are_reported(capsys):
    code, out, _ = run(capsys, "verify", "QC:3", "2", "4")
    assert code == 0
    assert "enumeration: skipped" in out
    assert "pairing: skipped" in out


def test_verify_budget_skip(capsys):
    # the certificate's work on F:7 3 1 is 2^3 coefficients x 5 items = 40
    code, out, _ = run(capsys, "verify", "F:7", "3", "1", "--max-enum", "39")
    assert code == 0
    assert (
        "enumeration: skipped: certificate work of 8 coefficients x 5 items "
        "= 40 exceeds the budget of 39" in out
    )
    assert "pairing: pass" in out


def test_verify_passes_the_octic_unit_coset(capsys):
    code, out, _ = run(capsys, "verify", "QR:3", "5", DEEP_A)
    assert code == 0
    assert "structural: PASS" in out
    assert "pairing: pass" in out
    assert "overall: PASS" in out


@pytest.mark.parametrize(
    "field_spec, n, a",
    [
        ("QR:3", "4", "9232,6528,0,-6528"),
        ("Q", "3", "16"),
        ("QE:3", "3", "16"),
        ("F:7", "3", "1"),
    ],
)
def test_passing_verify_multiplies_no_algebra_elements(
    field_spec, n, a, capsys, monkeypatch
):
    # idempotency is implied by the other checks, and pairing, the
    # certificate and the Frobenius certificate take no algebra product
    calls = []
    inner = algebra.alg_mul

    def counted(x, y):
        calls.append((x, y))
        return inner(x, y)

    monkeypatch.setattr(algebra, "alg_mul", counted)
    code, out, _ = run(capsys, "verify", field_spec, n, a)
    assert code == 0 and "overall: PASS" in out
    assert calls == []


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "F:5", "1", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["enumeration"] == "pass"
    assert data["pairing"] == "skipped: trivial involution"
    assert data["structural"]["sum_is_one"] is True


VERIFY_JSON_ARGVS = [argv for argv in argvs() if argv[:2] == ["verify", "--json"]]


def test_every_golden_verify_json_call_is_compared():
    assert len(VERIFY_JSON_ARGVS) == 28


@pytest.mark.parametrize("argv", VERIFY_JSON_ARGVS, ids=" ".join)
def test_idempotents_verify_gives_the_structural_verdict(capsys, argv):
    # one verdict: the verification object of ``idempotents --verify
    # --json`` is the structural object of ``verify --json``
    code, out, _ = run(capsys, *argv)
    structural = json.loads(out)["structural"]
    assert code == 0 and structural["pass"] is True
    code, out, _ = run(capsys, "idempotents", "--verify", "--json", *argv[2:])
    assert code == 0
    assert json.loads(out)["verification"] == structural


# -- exit codes and determinism ------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "QC:1"],
        ["classify", "F:9"],
        ["idempotents", "Q", "2", "1,2,3"],
        ["idempotents", "Q", "2", "0"],
        ["idempotents", "QE:3", "2", "7,x"],
        ["classify", "F:3317044064679887385961983"],  # beyond the primality test
        ["classify", "QR:30"],  # beyond the level bound, 2^29 coordinates
        ["classify", "Q", "--n", "40"],  # beyond the depth bound
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""  # a refused call prints nothing
    assert err.startswith("error: ") and "Traceback" not in err


def test_level_bound_is_named(capsys):
    code, _, err = run(capsys, "classify", "QR:30")
    assert err == "error: cyclotomic level must be at most 16, got 30\n"
    code, out, err = run(capsys, "classify", "QR:16")
    assert code == 0 and err == "" and "m: 16" in out


def test_memory_error_exits_2(capsys, monkeypatch):
    # a job too large for the machine is no verification failure (exit 1)
    def exhausted(spec):
        raise MemoryError

    monkeypatch.setattr(cli, "build", exhausted)
    for argv in (["verify", "QR:12", "12", "-1"], ["idempotents", "Q", "2", "1"]):
        assert run(capsys, *argv) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("command", [["verify"], ["idempotents", "--unchecked"]])
def test_an_oversized_family_is_refused_at_once(capsys, command):
    # F:65537 16 1 splits fully: 2^16 items of 2^16 residues, 2^32 in
    # all, which no storage or run time allows; it is refused while it is
    # stated, before its first element is built, with nothing printed
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "F:65537", "16", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: at 65536 coefficients x 1 coordinates per item, the family"
        " exceeds the limit of 1073741824 coordinates\n"
    )


# the size of one item, 2^n coefficients x 2^(L-1) coordinates, of QC:L at n = L
PER_ITEM = {
    "QC:15": "32768 coefficients x 16384 coordinates",
    "QC:16": "65536 coefficients x 32768 coordinates",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "QC:15", "15", "-1"],
        ["verify", "QC:16", "16", "-1"],
        ["idempotents", "--unchecked", "QC:16", "16", "-1"],
    ],
    ids=" ".join,
)
def test_a_family_past_the_limit_is_refused_before_its_constants(capsys, argv):
    # QC:15 15 -1 has 2^15 items of 2^15 x 2^14 coordinates; at QC:16 not
    # one item of 2^16 x 2^15 fits: each is refused on its blocks' count
    # of items, before any of its 2^n constants
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == (
        f"error: at {PER_ITEM[argv[-3]]} per item, the family exceeds the limit of"
        " 1073741824 coordinates\n"
    )


def test_a_refusal_holds_little_memory(capsys):
    # all 2^16 constants of QC:16 16 -1, each of 2^15 coordinates, take
    # gigabytes; the refusal forms none
    tracemalloc.start()
    try:
        code = main(["verify", "QC:16", "16", "-1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (2, "")
    assert peak < 16 << 20, peak


@pytest.mark.parametrize(
    "argv", [["verify"], ["idempotents", "--unchecked", "--json"]], ids=" ".join
)
def test_a_call_holds_one_element_at_a_time(argv):
    # QC:7 7 -1 has 64 items of 128 x 64 coordinates: held at once they
    # peak past 4 MiB, streamed one at a time under 2 MiB
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main([*argv, "QC:7", "7", "-1"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_verification_error_exits_1(capsys, monkeypatch):
    # a family that fails its check reports on stderr and prints nothing
    F5 = parse_field("F:5")
    family = build(algebra.AlgebraSpec(2, F5.one()))
    short = replace(family, items=family.items[1:])
    report = verify_family(short, short.elements)

    def failing(spec):
        raise VerificationError(report)

    monkeypatch.setattr(cli, "build", failing)
    code, out, err = run(capsys, "idempotents", "F:5", "2", "1")
    assert (code, out) == (1, "")
    assert err == f"verification failed: {report.headline()}\n"
    assert err.startswith("verification failed: FAIL: ")


def test_documented_example_runs(capsys):
    # the example of the module docstring and the README: -1/2 + sqrt(-2)
    code, out, err = run(capsys, "idempotents", "QE:3", "2", "--", "-1/2,1,0,1")
    assert code == 0 and err == ""
    assert "idempotents (1):" in out


def test_closed_pipe_exits_141_quietly():
    # as `cyclotwist idempotents QC:6 6 -1 | head -2`: the reader takes
    # two lines and closes the pipe while about 77 kB are still to come,
    # more than the pipe holds, so the writer meets the closed pipe
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = ["idempotents", "QC:6", "6", "-1"]
    with subprocess.Popen(
        [sys.executable, "-m", "cyclotwist.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,  # readline takes no byte past the line
        env=env,
    ) as proc:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert head == [b"field: QC:6\n", b"type: B (m=6, emulates none)\n"]
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("q", ["1000000007", "2305843009213693951"])
def test_classify_large_prime_moduli(capsys, q):
    # both are 3 mod 4: F_q is presented in F_q[i], type E
    code, out, err = run(capsys, "classify", f"F:{q}")
    assert code == 0 and err == ""
    assert out.startswith(f"field: F:{q}\ntype: E\n")


def test_output_is_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "idempotents", "QE:3", "3", "16", "--json")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


# -- selftest --------------------------------------------------------------------------


def test_selftest_with_budget_cap(capsys):
    code, out, _ = run(capsys, "selftest", "--max-enum", "100")
    assert code == 0
    for k in range(1, 8):
        assert f"criterion {k} (" in out
    assert "skipped (over enumeration budget 100)" in out
    assert out.rstrip().endswith("selftest: PASS")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "F:3", "1", "1", "--max-enum", "-5"],
        ["selftest", "--max-enum", "-1"],
    ],
)
def test_negative_enumeration_budget_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "argument --max-enum: must be a nonnegative integer" in err


def test_non_integer_enumeration_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "F:7", "2", "3", "--max-enum", "x"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("argument --max-enum: invalid int value: 'x'\n")


USAGE = {
    "classify": "usage: cyclotwist classify [-h] [--n N] [--json] field\n",
    "verify": "usage: cyclotwist verify [-h] [--max-enum M] [--json] field n a\n",
}


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["classify", "F:1_3"],
            "error: bad field spec 'F:1_3': modulus '1_3' is not an integer\n",
        ),
        (
            ["classify", "QC:\u0663"],
            "error: bad field spec 'QC:\u0663': level '\u0663' is not an integer\n",
        ),
        (
            ["verify", "F:7", "\u0662", "3"],
            USAGE["verify"] + "cyclotwist verify: error: argument n: invalid int value: '\u0662'\n",
        ),
        (
            ["verify", "F:7", "0_2", "3"],
            USAGE["verify"] + "cyclotwist verify: error: argument n: invalid int value: '0_2'\n",
        ),
        (
            ["verify", "F:7", "2", "3", "--max-enum", "1_0"],
            USAGE["verify"]
            + "cyclotwist verify: error: argument --max-enum: invalid int value: '1_0'\n",
        ),
        (
            ["classify", "Q", "--n", "\u0662"],
            USAGE["classify"]
            + "cyclotwist classify: error: argument --n: invalid int value: '\u0662'\n",
        ),
    ],
)
def test_cli_integers_are_read_by_one_ascii_grammar(capsys, argv, err):
    # int reads "_" separators and non-ASCII digits; the field spec, N,
    # --n and --max-enum read a sign and ASCII digits alone
    assert _exit(lambda: main(argv), capsys) == (2, "", err)


def test_selftest_with_an_empty_budget_fails(capsys):
    # a budget that admits no instance is a failure, not a vacuous pass
    code, out, _ = run(capsys, "selftest", "--max-enum", "0")
    assert code == 1
    assert "criterion 2 (brute-force ground truth): FAIL" in out
    assert "no instance cross-checked: all 27 are over the enumeration budget 0" in out
    assert out.rstrip().endswith("selftest: FAIL")


def test_selftest_corruption_hook(capsys, monkeypatch):
    # the first matrix case loses its last item: its check fails
    monkeypatch.setattr(selftest, "_checked_family", _checked_family_with_a_fault)
    code, out, _ = run(capsys, "selftest", "--max-enum", "100")
    assert code == 1
    assert "criterion 1 (case-coverage matrix verifies): FAIL" in out
    assert "verification failed: FAIL: family does not sum to 1" in out
    assert "reproduce with: cyclotwist idempotents --verify F:5 2 1" in out
    assert out.rstrip().endswith("selftest: FAIL")


SELFTEST_TAIL = """\
criterion 2 (brute-force ground truth): PASS
    27 instances cross-checked
criterion 3 (exact decompositions reproduced): PASS
criterion 4 (depth computation regressions): PASS
criterion 5 (finite-field structure law): PASS
criterion 6 (conjugate-pairing equivalence): PASS
criterion 7 (index-convention regressions): PASS
"""


@pytest.mark.parametrize(
    "corrupt, code, expected",
    [
        (
            None,
            0,
            "criterion 1 (case-coverage matrix verifies): PASS\n"
            + SELFTEST_TAIL
            + "selftest: PASS\n",
        ),
        (
            1,
            1,
            "criterion 1 (case-coverage matrix verifies): FAIL\n"
            "    (F:5, n=2, a=1) [split-shallow]: verification failed: FAIL: family "
            "does not sum to 1; component dimensions sum to 3, expected 4\n"
            "    reproduce with: cyclotwist idempotents --verify F:5 2 1\n"
            + SELFTEST_TAIL
            + "selftest: FAIL\n",
        ),
    ],
)
def test_selftest_stdout_is_pinned(capsys, monkeypatch, corrupt, code, expected):
    # the whole default report, byte for byte, as it is and with the
    # first matrix case short of ``corrupt`` items
    if corrupt:
        monkeypatch.setattr(selftest, "_checked_family", _checked_family_with_a_fault)
    assert run(capsys, "selftest") == (code, expected, "")


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the parser is built once and reused: a usage error in between
    # leaves no state behind for the next call
    argv = ["verify", "--json", "F:5", "2", "1"]
    first = run(capsys, *argv)
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "F:5", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: a" in capsys.readouterr().err
    assert run(capsys, *argv) == first
    assert _build_parser() is _build_parser()


# calls main hands to the whole parser, and plain calls, which it reads
# off the declaration, by what they test
PARITY_ARGVS = {
    "no arguments": [],
    "top help": ["-h"],
    "unknown command": ["verb"],
    "command alone": ["verify"],
    "missing a": ["verify", "F:7", "2"],
    "leftover argument": ["verify", "F:7", "2", "3", "extra"],
    "bad n": ["verify", "F:7", "x", "3"],
    "bad budget": ["verify", "F:7", "2", "3", "--max-enum", "x"],
    "negative budget": ["verify", "F:7", "2", "3", "--max-enum", "-1"],
    "option after --": ["idempotents", "QE:3", "2", "--", "-1/2,1,0,1", "--json"],
    "exclusive flags": ["idempotents", "F:7", "2", "3", "--verify", "--unchecked"],
    "abbreviated flag": ["verify", "--js", "F:7", "2", "3"],
    "negative a, abbreviated budget": ["verify", "F:7", "2", "-1", "--max", "5"],
    "flag after --": ["verify", "F:7", "2", "3", "--", "--json"],
    "selftest leftover": ["selftest", "extra"],
    "option before command": ["--json", "verify", "F:7", "2", "3"],
    "bad classify n": ["classify", "Q", "--n", "x"],
    # plain calls
    "plain": ["verify", "F:7", "2", "3", "--json"],
    "plain, negative a": ["verify", "--json", "Q", "2", "-1"],
    "plain, decimal a": ["verify", "Q", "2", "-1.5", "--max-enum", "0"],
    "plain idempotents": ["idempotents", "--unchecked", "--json", "F:5", "2", "1"],
    "plain classify": ["classify", "QC:3", "--n", "2", "--json"],
    "repeated flag": ["verify", "F:7", "2", "3", "--json", "--json"],
}


def _exit(call, capsys):
    """The exit code, stdout and stderr of ``call()``."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARITY_ARGVS.values(), ids=PARITY_ARGVS.keys())
def test_main_parses_each_call_as_the_whole_parser_does(argv, capsys, monkeypatch):
    # main reads a plain call off the declaration and hands any other to
    # the whole parser: the exit code, stdout and stderr, and the whole
    # namespace the handler receives, are those of the whole parser
    namespaces = []
    for name, command in cli.COMMANDS.items():

        def record(args, handler=command.handler):
            namespaces.append(vars(args))
            return handler(args)

        monkeypatch.setitem(cli.COMMANDS, name, command._replace(handler=record))

    def whole():
        args = _build_parser().parse_args(argv)
        return cli.COMMANDS[args.command].handler(args)

    assert _exit(lambda: main(argv), capsys) == _exit(whole, capsys)
    if namespaces:  # the call parsed, and each path ran its handler
        mine, theirs = namespaces
        assert mine == theirs


def test_every_golden_and_benchmark_call_without_a_separator_is_plain():
    # main reads these calls off the declaration, with no argparse, into
    # the namespace argparse would give; only a "--", or a call that the
    # whole parser refuses, sends one to it
    parser = _build_parser()
    for argv in every_argv():
        mine = cli._plain_args(argv)
        if mine is not None:
            assert vars(mine) == vars(parser.parse_args(argv)), argv
        elif "--" not in argv:
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


def test_no_declared_option_looks_like_a_negative_number():
    # the direct parse reads "-1" as a positional, which argparse does
    # only while no option of the parser looks like a negative number
    names = [arg for command in cli.COMMANDS.values() for arg in command.arguments]
    assert "--max-enum" in names
    assert [arg for arg in names if re.match(r"^-\d+$|^-\d*\.\d+$", arg)] == []


# the tokens of the drawn calls: field specs, integers with and without
# a sign, literals that start with "-" and other words, then the
# subcommands, every option string exact and abbreviated, and tokens
# argparse reads its own way
CALL_WORDS = [
    *("Q", "F:7", "QC:3", "F:1_3", "0", "2", "3", "+2", "-1", "-4", "0_2", "\u0662"),
    *("-1.5", "-.5", "-1/2", "-1,0,0,0", "1/2", "1 / 2", ""),
]
CALL_TOKENS = [
    *CALL_WORDS,
    *("classify", "idempotents", "verify", "selftest"),
    *("--json", "--n", "--max-enum", "--verify", "--unchecked", "-h", "--help"),
    *("--js", "--max", "--max-enum=3", "--n=2", "--", "-", "-x", "x"),
]
POSITIONALS = {"classify": 1, "idempotents": 3, "verify": 3, "selftest": 0}


@st.composite
def calls(draw):
    """A subcommand and its tokens: about as many words as it takes
    positionals, and up to three tokens of the whole alphabet, in any
    order."""
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    k = POSITIONALS[command]
    words = draw(st.lists(st.sampled_from(CALL_WORDS), min_size=max(k - 1, 0), max_size=k + 1))
    others = draw(st.lists(st.sampled_from(CALL_TOKENS), max_size=3))
    return command, draw(st.permutations(words + others))


@settings(max_examples=600, deadline=None)
@given(calls())
@example(("verify", ["F:7", "2", "-1.5", "--max-enum", "3", "--json"]))
@example(("idempotents", ["--verify", "F:7", "--verify", "2", "-.5"]))
@example(("idempotents", ["F:7", "2", "3", "--verify", "--unchecked"]))
@example(("verify", ["F:7", "2", "3", "--max-enum", "x", "--max-enum", "3"]))
@example(("classify", ["Q", "--n", "-1"]))
def test_the_direct_parse_is_argparse_on_every_plain_call(call):
    # where the direct parse gives a namespace, the whole parser gives
    # the same one; where the whole parser refuses the call, the direct
    # parse gives None.  No handler runs
    command, tokens = call
    mine = cli._plain_args([command, *tokens])
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            args = _build_parser().parse_args([command, *tokens])
    except SystemExit:
        assert mine is None
        return
    if mine is not None:
        assert vars(mine) == vars(args)


# -- the JSON writer ---------------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"": [], "e\u00e9\u4e2d\U0001f600": {}, "\x00\x1f\"\\/\n\t": [[], {}]})
@example([True, False, None, 0, -1, -(2**200), 2**200, "", "\x7f\ud800"])
@example({"a": {"b": {"c": [[[]]]}}})
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj, "\n") == json.dumps(obj, indent=2)


def test_json_writer_refuses_other_types():
    for obj in (1.5, (1, 2), {1: "a"}):
        with pytest.raises(TypeError):
            cli._json_text(obj, "\n")


def _family_dict(family, verification):
    """The ``idempotents --json`` document as an object: the reference
    whose ``json.dumps(obj, indent=2)`` the CLI writes as text."""
    spec = family.spec
    dec = family.decomposition
    return {
        "field": format_field(spec.field),
        "classification": cli._classification_dict(classify(spec.field), spec.n),
        "n": spec.n,
        "a": format_element(spec.a),
        "s": dec.s,
        "coset": {"form": dec.form, "b": format_element(dec.b)},
        "idempotents": [
            {
                "label": list(it.label),
                "coeffs": cli._coeff_literals(e),
                "dim": it.dim,
                "min_poly": {"coeffs": cli._poly_literals(it.min_poly)},
            }
            for it, e in zip(family.items, family.elements())
        ],
        "verification": verification,
    }


def test_json_writer_on_every_golden_json_call(capsys):
    # idempotents writes its document item by item, and verify and
    # idempotents --verify their report by template: each must be the
    # bytes json.dumps writes for the reference object, checked and
    # unchecked alike, with the tests' report_dict as its report
    json_argvs = [argv for argv in argvs() if "--json" in argv]
    family_argvs = [argv for argv in json_argvs if argv[0] == "idempotents"]
    flags = {flag for argv in family_argvs for flag in argv}
    assert {"--verify", "--unchecked"} <= flags
    for argv in family_argvs:
        code, out, _ = run(capsys, *argv)
        args = _build_parser().parse_args(argv)
        family = build(cli._spec_from_args(args))
        report = None if args.unchecked else verified(family, family.elements)
        verification = report_dict(report) if args.verify else None
        reference = _family_dict(family, verification)
        assert (code, out) == (0, json.dumps(reference, indent=2) + "\n")
    verify_argvs = [argv for argv in json_argvs if argv not in family_argvs]
    assert verify_argvs
    for argv in verify_argvs:
        _, out, _ = run(capsys, *argv)
        spec = cli._spec_from_args(_build_parser().parse_args(argv))
        verdicts = json.loads(out)
        obj = {
            "field": format_field(spec.field),
            "n": spec.n,
            "a": format_element(spec.a),
            "structural": report_dict(cli._certified(build(spec))),
            **{key: verdicts[key] for key in ("enumeration", "pairing", "pass")},
        }
        assert out == json.dumps(obj, indent=2) + "\n"


def failing_reports():
    """Reports with failure lines and false flags: verify_family on the
    wrong families of ``mutants``, and verify_core on families that are
    not their core's image (a doubled b, a negated k)."""
    for field_spec, n, a in [("F:7", "2", "3"), ("F:3", "1", "2"), ("Q", "3", "16")]:
        family, core = family_and_core(field_spec, n, a)
        for _, elements in mutants(family):
            yield verify_family(*with_elements(family, elements))
        dec = family.decomposition
        for wrong in (
            replace(family, decomposition=replace(dec, b=dec.b + dec.b)),
            replace(family, items=first_k_negated(family.items)),
        ):
            yield verify_core(wrong, core, core_report(core))


def test_report_writer_on_failing_reports():
    # every golden report passes, so only these write failure lines,
    # false flags and an empty item list
    reports = list(failing_reports())
    flags = {f for r in reports for c in r.item_checks for f in cli._item_flags(c)}
    assert all(not r.ok for r in reports)
    assert False in flags and any(not r.item_checks for r in reports)
    for report in reports:
        want = json.dumps({"structural": report_dict(report)}, indent=2)
        assert '{\n  "structural": ' + cli._report_json(report) + "\n}" == want
