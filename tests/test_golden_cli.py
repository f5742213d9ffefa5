"""One table of pinned CLI calls: the byte-identity of every call the
repository pins.

``golden_cli.json`` holds one entry per call, keyed by
``shlex.join(argv)``: the call's exit code (argparse's ``SystemExit``
included), the sha256 of its stdout and its stderr verbatim.  The calls
are each selftest MATRIX case under four commands, each call in
``CALLS`` (the deep instances, the selftest, classify, every refusal
and the depth calls, among them the high-height calls whose a is
computed here: 1,600-bit coordinates, two squares B^2 and a literal
past the interpreter's int/str digit limit) and each call any benchmark
seed can draw (``perfbench/workloads.py``).  Tier-1 runs every entry in
process, and each ``verify`` call must print it cold and again warm, in
the same process, once its core is held.  Refactors of the
construction, the verifier or the arithmetic kernel must leave every
entry unchanged.  To re-freeze after an intended output change, run
from the repository root::

    PYTHONPATH=src python tests/test_golden_cli.py --freeze

and to run every entry through the installed ``cyclotwist`` console
script, one fresh interpreter per call in development mode with every
warning an error (``PYTHONDEVMODE=1``, ``PYTHONWARNINGS=error``), as CI
does::

    PYTHONPATH=src python tests/test_golden_cli.py --console
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cyclotwist import cli
from cyclotwist.fields import sigma
from cyclotwist.grammar import format_coeffs, format_element, parse_element, parse_field
from cyclotwist.selftest import MATRIX

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = (
    ("idempotents",),
    ("idempotents", "--unchecked", "--json"),
    ("idempotents", "--verify", "--json"),
    ("verify", "--json"),
)

# Instances of depth 5 to 9, where the big-integer products are largest:
# long coefficients (a scaled by 5^64 and 5^32), F_q at n = 7, and the
# deepest instances verify finishes in a few seconds: F_q at n = 9,
# Q at n = 8, and the cyclotomic ambients of dimension 32 and 8.
DEEP = (
    ("idempotents", "--unchecked", "--json", "F:5", "7", "1"),
    ("idempotents", "--unchecked", "--json", "F:13", "7", "3"),
    ("idempotents", "--unchecked", "--json", "QC:4", "6", str(16 * 5**64)),
    ("idempotents", "--unchecked", "--json", "Q", "5", str(16 * 5**32)),
    ("idempotents", "--unchecked", "--json", "F:7", "5", "5"),
    ("verify", "--json", "F:5", "6", "1"),
    ("verify", "--json", "F:3", "7", "1"),
    ("verify", "--json", "QR:3", "5", "170459392,120532992,0,-120532992"),
    ("verify", "--json", "F:5", "9", "1"),
    ("verify", "--json", "Q", "8", "16"),
    ("verify", "--json", "QC:6", "6", "-1"),
    ("verify", "--json", "QE:4", "6", "16"),
    # non-rational constants with denominators: b^16 and b^32 for
    # b = 1/3 + sqrt(2)/5 over QR:3, and -c^8 for c = -1/2 + (2/7)sqrt(-2)
    # over QE:3
    (
        "verify",
        "--json",
        "QR:3",
        "5",
        "1418100868747201/6568408355712890625,66849916046512/437893890380859375,"
        "0,-66849916046512/437893890380859375",
    ),
    (
        "idempotents",
        "--unchecked",
        "--json",
        "QR:3",
        "6",
        "4022020147883132362565560099201/43143988327398919500410556793212890625,"
        "189599848042472239384571625824/2876265888493261300027370452880859375,0,"
        "-189599848042472239384571625824/2876265888493261300027370452880859375",
    ),
    (
        "verify",
        "--json",
        "QE:3",
        "5",
        "--",
        "-28545857/1475789056,-101711/6588344,0,-101711/6588344",
    ),
    # 3^8 = (-3i)^8 over Q(i): the canonical 4th root -9i of 3^8 is no
    # square, so b = -3i (the power test's witness) and not the -3 that
    # the chain of square roots reaches through -9i * i = 9
    ("idempotents", "--unchecked", "--json", "QC:2", "3", "6561"),
)


def _coordinates(bits, count):
    """``count`` coordinates of ``bits`` bits, signed, drawn from
    ``random.Random(5)``, as one literal."""
    r = random.Random(5)
    return ",".join(str(r.getrandbits(bits) - 2 ** (bits - 1)) for _ in range(count))


def _b_squared(field, bits, count, symmetric=False):
    """The literal of B^2 over ``field`` for B the element of
    ``_coordinates(bits, count)``, or for B = x + sigma(x), x that
    element, if ``symmetric``."""
    b = parse_element(parse_field(field), _coordinates(bits, count))
    if symmetric:
        b = b + sigma(b)
    return format_element(b * b)


def _past_the_digit_limit():
    """(10^1500 + 7)^4, 6,001 digits: past the 4,300 that int and str
    convert by default, so it is formed with the limit lifted, as
    ``cli.main`` lifts it, and the limit is then restored."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str((10**1500 + 7) ** 4)
    finally:
        sys.set_int_max_str_digits(limit)


# The calls at depth, each a path where its output is largest.  The reach
# rule (test_package_rules.py) runs the table without them: a call left
# out can leave a package function unreached, never hide one
AT_DEPTH = (
    # finite cross-check beyond the brute-force budget
    ("verify", "F:3", "10", "1"),
    # certificate from the stated polynomials at n = 9, and the checked
    # build in text
    ("verify", "QR:7", "9", "-1"),
    ("idempotents", "--verify", "QR:7", "9", "-1"),
    # family JSON at depth: F_q at n = 12 (24 items); fractions and
    # vectors over QE:5 (8 items)
    ("idempotents", "--unchecked", "--json", "F:13", "12", "1"),
    ("idempotents", "--unchecked", "--json", "QE:5", "7", "-1"),
    # polynomial path at S = 2^14 and the F_q[i] descent at n = 16
    ("verify", "F:7", "16", "6"),
    # the unchecked family printed from the flat integers, in text and
    # JSON, at n = 16 over F_7 and at n = 7 over QC:7
    ("idempotents", "--unchecked", "F:7", "16", "6"),
    ("idempotents", "--unchecked", "--json", "F:7", "16", "6"),
    ("idempotents", "--unchecked", "QC:7", "7", "-1"),
    ("idempotents", "--unchecked", "--json", "QC:7", "7", "-1"),
    # the core's verdicts carried to a family of its own size (s = n =
    # 16, b = 2, type E)
    ("verify", "F:7", "16", "2"),
    # full cyclotomic field at depth (type B, characteristic 0)
    ("verify", "QC:7", "7", "-1"),
    # imaginary subfield at depth (type E, characteristic 0)
    ("verify", "QE:6", "8", "-1"),
    # unit coset at s = m + 4 (type D, blocks r = 1..4)
    ("verify", "Q", "14", "4294967296"),
    # plain coset past the root supply in characteristic 0 (type D, s = 3
    # >= m = 2)
    ("verify", "Q", "16", "6561"),
    # fused coefficient checks at 2^10 x 128 coordinates per item
    ("verify", "QR:8", "10", "-1"),
    # F_q with q = 1 mod 4 at depth (Tonelli-Shanks roots, binomial
    # certificates)
    ("verify", "F:13", "14", "1"),
    # a 61-bit modulus through the closed forms, the certificate and
    # pairing
    ("verify", "F:2305843009213693951", "6", "1"),
    # a 64-bit-height constant over QC:8 (128 coordinates)
    ("verify", "QC:8", "4", "--", _coordinates(64, 128)),
    # a family of one field at height inverts nothing (1,600-bit
    # coordinates); B^2 certified through its core over QC:8, and in the
    # coset form over QR:7, pairing included, for B = x + sigma(x)
    ("verify", "QC:8", "4", "--", _coordinates(1600, 128)),
    ("verify", "QC:8", "4", "--", _b_squared("QC:8", 400, 128)),
    ("verify", "QR:7", "4", "--", _b_squared("QR:7", 700, 64, symmetric=True)),
    # coordinates past the interpreter's int/str digit limit, read and
    # printed
    ("idempotents", "--unchecked", "--json", "Q", "2", _past_the_digit_limit()),
    # frontier calls that finish in about a second in a fresh
    # interpreter: QC:8 at n = 8, and F:3 at n = 16, whose certificate
    # work is over the enumeration budget
    ("verify", "QC:8", "8", "-1"),
    ("verify", "F:3", "16", "1"),
)

# Every pinned call besides the matrix and the benchmark: the deep
# instances, each group under what it shows, then the calls at depth
CALLS = (
    *DEEP,
    # the selftest, passing, and failing with no instance under its
    # enumeration budget
    ("selftest",),
    ("selftest", "--max-enum", "0"),
    # classify: the emulation label, JSON null, a refused depth
    ("classify", "QC:3", "--n", "2"),
    ("classify", "F:7", "--json"),
    ("classify", "Q", "--n", "40"),
    # a verdict and a checked build in text
    ("verify", "F:7", "2", "3"),
    ("idempotents", "--verify", "Q", "2", "-4"),
    # refusals: exit 2, empty stdout, the named error
    ("verify", "Q", "17", "-4"),
    ("idempotents", "F:9", "2", "1"),
    ("verify", "QC:17", "2", "1"),
    ("idempotents", "--json", "Q", "2", "0"),
    ("verify", "Q", "2", "1e1000000000"),
    # one ASCII grammar on every Python, whatever int and Fraction read
    ("verify", "Q", "2", "1_000"),
    ("verify", "Q", "2", "1 / 2"),
    # and so are the spec's modulus and level, N, --n and --max-enum
    ("classify", "F:1_3"),
    # argparse's refusals, through the whole parser
    ("verify", "F:7", "2", "3", "extra"),
    ("idempotents", "QE:3", "2", "--", "-1/2,1,0,1", "--json"),
    ("verify", "F:7", "2"),
    ("verify", "F:7", "0_2", "3"),
    ("idempotents", "--verify", "--unchecked", "F:7", "2", "3"),
    # a plain call with a negative a, read without argparse
    ("verify", "Q", "2", "-1"),
    # an oversized family is refused while it is stated
    ("verify", "F:65537", "16", "1"),
    # a cyclotomic family past the limit is refused before its constants
    # are formed
    ("verify", "QC:15", "15", "-1"),
    ("verify", "QC:16", "16", "-1"),
    *AT_DEPTH,
)


def _matrix_argvs():
    for case in MATRIX:
        for command in COMMANDS:
            yield [*command, case.field, str(case.n), case.a]


def argvs():
    """Each matrix case under four commands, then each ``DEEP`` call:
    the calls whose instances the per-instance tests run on."""
    return [*_matrix_argvs(), *map(list, DEEP)]


def every_argv():
    """Every call of the table: the matrix calls, ``CALLS``, then every
    call any benchmark seed can draw."""
    calls = [*_matrix_argvs(), *map(list, CALLS)]
    return calls + [inst.argv() for inst in workloads.every_instance()]


def golden_instances():
    """(field, n, a) of every ``argvs()`` call and every selftest matrix
    case, sorted: the instances the per-instance tests run on."""
    out = {(c.field, str(c.n), c.a) for c in MATRIX}
    out |= {tuple(t for t in argv if not t.startswith("--"))[1:] for argv in argvs()}
    return sorted(out)


def entry(code, stdout, stderr):
    """The table's entry of a call that exits ``code`` and writes the
    bytes ``stdout`` and the text ``stderr``."""
    return {"sha256": hashlib.sha256(stdout).hexdigest(), "exit": code, "stderr": stderr}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
    return entry(code, out.getvalue().encode(), err.getvalue())


def load():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load()) == sorted(shlex.join(argv) for argv in every_argv())


def check(argv):
    """Each run of ``argv`` against its entry: one run, or a ``verify``
    call cold and then warm on the core its first run certified."""
    frozen = load()[shlex.join(argv)]
    for _ in range(1 + (argv[0] == "verify")):
        assert run(argv) == frozen


@pytest.mark.parametrize("argv", every_argv(), ids=shlex.join)
def test_cli_output_is_frozen(argv):
    # each test starts with no core held (conftest.py)
    check(argv)


def test_the_table_catches_a_changed_separator(monkeypatch):
    # the coordinates of a coefficient joined by ";" in place of ","
    def changed(ints, den, d):
        return [t.replace(",", ";") for t in format_coeffs(ints, den, d)]

    monkeypatch.setattr(cli, "format_coeffs", changed)
    with pytest.raises(AssertionError):
        check(["idempotents", "--unchecked", "--json", "QC:2", "3", "6561"])


def test_the_table_catches_a_changed_refusal(monkeypatch):
    # the same exit code and stdout, one character more on stderr
    def changed(spec):
        try:
            return parse_field(spec)
        except ValueError as err:
            raise ValueError(f"{err}.") from None

    monkeypatch.setattr(cli, "parse_field", changed)
    with pytest.raises(AssertionError):
        check(["idempotents", "F:9", "2", "1"])


def console():
    """Run every entry through the ``cyclotwist`` console script, each in
    a fresh interpreter in development mode with every warning an error
    and 120 s to finish, and print each call that differs from its
    entry.  Return 1 if any does."""
    script = shutil.which("cyclotwist")
    if script is None:
        sys.exit("no cyclotwist console script on PATH: run pip install -e . first")
    env = {**os.environ, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
    frozen = load()
    calls = every_argv()
    failed = 0
    for argv in calls:
        key = shlex.join(argv)
        try:
            done = subprocess.run([script, *argv], capture_output=True, timeout=120, env=env)
            got = entry(done.returncode, done.stdout, done.stderr.decode())
        except subprocess.TimeoutExpired:
            got = {"sha256": None, "exit": "timed out after 120 s", "stderr": None}
        want = frozen.get(key, dict.fromkeys(got, "no entry"))
        if got != want:
            failed += 1
            print(f"FAIL: cyclotwist {key}")
            for name in ("exit", "stderr", "sha256"):
                print(f"  {name}: expected {want[name]!r}, got {got[name]!r}")
    print(f"{len(calls) - failed} of {len(calls)} calls match {GOLDEN.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--console"]:
        sys.exit(console())
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python tests/test_golden_cli.py --freeze | --console")
    frozen = {shlex.join(argv): run(argv) for argv in every_argv()}
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"froze {len(frozen)} entries to {GOLDEN}")
