"""The README's examples and the package docstring's, run as written.

Each fenced block of ``README.md`` that opens with ``$ cyclotwist`` is
a CLI call and its stdout, byte for byte; the ``json`` block is the
parsed output of ``idempotents --json Q 2 -4``; each ``python`` block
runs, and the ``ks_decompose`` one prints what its comment says.  The
"Typical use" block of ``cyclotwist.__doc__`` runs too, and every name
in ``cyclotwist.__all__`` resolves.
"""

import contextlib
import io
import json
import re
import shlex
import textwrap
from pathlib import Path

import pytest

import cyclotwist
from cyclotwist.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
SESSIONS = [body for _, body in BLOCKS if body.startswith("$ cyclotwist ")]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def _stdout(call, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        call(*args)
    return out.getvalue()


def test_the_readme_shows_what_this_reads():
    assert [s.partition("\n")[0] for s in SESSIONS] == [
        "$ cyclotwist idempotents Q 2 -4",
        "$ cyclotwist verify F:3 3 1",
    ]
    assert [lang for lang, _ in BLOCKS].count("json") == 1
    assert len(PYTHON) == 2


@pytest.mark.parametrize("session", SESSIONS, ids=lambda s: s.partition("\n")[0][2:])
def test_cli_sessions_print_what_they_show(session):
    command, _, shown = session.partition("\n")
    argv = shlex.split(command)[2:]
    assert _stdout(main, argv) == shown


def test_json_example_is_the_output():
    [shown] = [body for lang, body in BLOCKS if lang == "json"]
    out = _stdout(main, ["idempotents", "--json", "Q", "2", "-4"])
    assert json.loads(shown) == json.loads(out)


@pytest.mark.parametrize("index", range(len(PYTHON)))
def test_python_examples_run(index):
    out = _stdout(exec, PYTHON[index], {})
    if "ks_decompose" in PYTHON[index]:
        assert out == "4 eps_coset 1\n"


def test_the_package_docstring_example_runs():
    _, _, block = cyclotwist.__doc__.partition("Typical use::\n")
    out = _stdout(exec, textwrap.dedent(block), {})
    # Q(i) at n = 2, a = -4: x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2) over Q
    assert out == "(0,) 2 x^2 + 2*x + 2\n(1,) 2 x^2 - 2*x + 2\n"


def test_every_exported_name_resolves():
    missing = [name for name in cyclotwist.__all__ if not hasattr(cyclotwist, name)]
    assert missing == []
    assert len(set(cyclotwist.__all__)) == len(cyclotwist.__all__)
