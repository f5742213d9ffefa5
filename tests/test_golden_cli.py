"""Byte-identity of the CLI on every selftest matrix case, on a few
deep instances and on every benchmark call.

``golden_cli.json`` holds, for each MATRIX case under four commands, for
each call in ``DEEP`` and for each call any benchmark seed can draw
(``perfbench/workloads.py``), the sha256 of stdout and the exit code.
Each ``verify`` call must print them cold and again warm, in the same
process, once its core is held.
Refactors of the construction, the verifier or the arithmetic kernel
must leave every entry unchanged.  To re-freeze after an intended
output change, run from the repository root::

    PYTHONPATH=src python tests/test_golden_cli.py --freeze
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cyclotwist.cli import main
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


def argvs():
    for case in MATRIX:
        for command in COMMANDS:
            yield [*command, case.field, str(case.n), case.a]
    for argv in DEEP:
        yield list(argv)


def every_argv():
    """``argvs()``, then every call any benchmark seed can draw."""
    return [*argvs(), *(inst.argv() for inst in workloads.every_instance())]


def golden_instances():
    """(field, n, a) of every ``argvs()`` call and every selftest matrix
    case, sorted: the instances the per-instance tests run on."""
    out = {(c.field, str(c.n), c.a) for c in MATRIX}
    out |= {tuple(t for t in argv if not t.startswith("--"))[1:] for argv in argvs()}
    return sorted(out)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"sha256": digest, "exit": code}


def load():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load()) == sorted(" ".join(argv) for argv in every_argv())


@pytest.mark.parametrize("argv", every_argv(), ids=" ".join)
def test_cli_output_is_frozen(argv):
    # each test starts with no core held (conftest.py); a verify call
    # runs a second time, warm, on the core its first run certified
    frozen = load()[" ".join(argv)]
    for _ in range(1 + (argv[0] == "verify")):
        assert run(argv) == frozen


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python tests/test_golden_cli.py --freeze")
    frozen = {" ".join(argv): run(argv) for argv in every_argv()}
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"froze {len(frozen)} entries to {GOLDEN}")
