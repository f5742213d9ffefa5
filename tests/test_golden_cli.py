"""Byte-identity of the CLI on every selftest matrix case.

``golden_cli.json`` holds, for each MATRIX case under four commands,
the sha256 of stdout and the exit code.  Refactors of the construction
or the verifier must leave every entry unchanged.  To re-freeze after
an intended output change, run from the repository root::

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

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = (
    ("idempotents",),
    ("idempotents", "--unchecked", "--json"),
    ("idempotents", "--verify", "--json"),
    ("verify", "--json"),
)


def argvs():
    for case in MATRIX:
        for command in COMMANDS:
            yield [*command, case.field, str(case.n), case.a]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return {"sha256": digest, "exit": code}


def load():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(load()) == sorted(" ".join(argv) for argv in argvs())


@pytest.mark.parametrize("argv", list(argvs()), ids=" ".join)
def test_cli_output_is_frozen(argv):
    assert run(argv) == load()[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit("usage: python tests/test_golden_cli.py --freeze")
    frozen = {" ".join(argv): run(argv) for argv in argvs()}
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"froze {len(frozen)} entries to {GOLDEN}")
