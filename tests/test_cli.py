"""CLI contract: output shapes, JSON schema, determinism, exit codes."""

import json

import pytest

from cyclotwist.cli import main

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


def test_idempotents_refuses_uncertified(capsys):
    # the octic components are certified by descent, so the checked
    # build succeeds
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


def test_verify_skips_are_reported(capsys):
    code, out, _ = run(capsys, "verify", "QC:3", "2", "4")
    assert code == 0
    assert "enumeration: skipped" in out
    assert "pairing: skipped" in out


def test_verify_budget_skip(capsys):
    code, out, _ = run(capsys, "verify", "F:7", "3", "1", "--max-enum", "100")
    assert code == 0
    assert "enumeration: skipped" in out
    assert "pairing: pass" in out


def test_verify_uncertified_fails(capsys):
    code, out, _ = run(capsys, "verify", "QR:3", "5", DEEP_A)
    assert code == 0
    assert "structural: PASS" in out
    assert "pairing: pass" in out
    assert "overall: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "F:5", "1", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["enumeration"] == "pass"
    assert data["pairing"] == "skipped: trivial involution"
    assert data["structural"]["sum_is_one"] is True


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
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_level_bound_is_named(capsys):
    code, _, err = run(capsys, "classify", "QR:30")
    assert err == "error: cyclotomic level must be at most 16, got 30\n"
    code, out, err = run(capsys, "classify", "QR:16")
    assert code == 0 and err == "" and "m: 16" in out


def test_documented_example_runs(capsys):
    # the example of the module docstring and the README: -1/2 + sqrt(-2)
    code, out, err = run(capsys, "idempotents", "QE:3", "2", "--", "-1/2,1,0,1")
    assert code == 0 and err == ""
    assert "idempotents (1):" in out


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


def test_selftest_with_an_empty_budget_fails(capsys):
    # a budget that admits no instance is a failure, not a vacuous pass
    code, out, _ = run(capsys, "selftest", "--max-enum", "0")
    assert code == 1
    assert "criterion 2 (brute-force ground truth): FAIL" in out
    assert "no instance cross-checked: all 27 are over the enumeration budget 0" in out
    assert out.rstrip().endswith("selftest: FAIL")


def test_selftest_corruption_hook(capsys, monkeypatch):
    monkeypatch.setenv("CYCLOTWIST_CORRUPT", "1")
    code, out, _ = run(capsys, "selftest", "--max-enum", "100")
    assert code == 1
    assert "criterion 1 (case-coverage matrix verifies): FAIL" in out
    assert "deliberate corruption detected by: family does not sum to 1" in out
    assert "reproduce with: cyclotwist verify F:5 2 1" in out
    assert out.rstrip().endswith("selftest: FAIL")
