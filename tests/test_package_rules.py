"""Rules the package keeps as a whole, checked on its source.

The README promises a pure standard-library package with no floating
point: every absolute import is a standard-library module, and no
module writes a float or complex literal or calls ``float``,
``complex`` or ``math.sqrt``.  The per-layer benchmark traces a run by
rebinding module-level names from outside the package
(``perfbench/layers.py``); a rename would silently drop a layer from
its report, so those names are pinned here.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import cyclotwist

PACKAGE = Path(cyclotwist.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {
        "__init__",
        "algebra",
        "builder",
        "classify",
        "cli",
        "fields",
        "grammar",
        "oracle",
        "selftest",
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    outside = []
    for node in ast.walk(_parsed(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        outside += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    assert not outside


def _inexact(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"{node.value!r} literal"
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id in ("float", "complex"):
            return f"{f.id}() call"
        if (
            isinstance(f, ast.Attribute)
            and f.attr == "sqrt"
            and isinstance(f.value, ast.Name)
            and f.value.id == "math"
        ):
            return "math.sqrt() call"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        if any(alias.name == "sqrt" for alias in node.names):
            return "math.sqrt import"
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    found = [
        f"line {node.lineno}: {what}"
        for node in ast.walk(_parsed(path))
        if (what := _inexact(node))
    ]
    assert not found


def test_the_rules_catch_what_they_name():
    def caught(src):
        return [w for n in ast.walk(ast.parse(src)) if (w := _inexact(n))]

    assert caught("r = int(q**0.5)") == ["0.5 literal"]
    assert caught("z = 2j") == ["2j literal"]
    assert caught("x = float(y)") == ["float() call"]
    assert caught("x = complex(1, 2)") == ["complex() call"]
    assert caught("import math\nr = math.sqrt(q)") == ["math.sqrt() call"]
    assert caught("from math import sqrt") == ["math.sqrt import"]
    assert caught("from math import isqrt\nr = isqrt(q) + 1") == []


# the module-level names perfbench/layers.py rebinds to trace a run
TRACED_NAMES = [
    "cli.main",
    "cli.parse_field",
    "cli.parse_element",
    "cli.format_element",
    "cli.format_field",
    "cli.classify",
    "cli.build",
    "cli.verify_family",
    "cli.cross_check",
    "cli.conjugate_pairing_check",
    "builder.classify",
    "builder.ks_decompose",
    "builder.build",
    "builder.thm2_case1",
    "builder.thm3_case3",
    "builder.thm3_case4",
    "builder.thm3_case5",
    "algebra.alg_mul",
    "oracle.certify_irreducible",
    "oracle.verify_family",
    "oracle.brute_enumerate_minimal",
    "fields.sqrt_ambient",
    "classify.sqrt_ambient",
    "fields.AmbientElement.__mul__",
    "fields.AmbientElement.__rmul__",
]


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_traced_names_exist(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"cyclotwist.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


def test_the_depth_cap_is_read_only_in_fields():
    # the bound on n is checked by fields.require_depth alone, so that
    # replacing the cap changes one function
    readers = [
        f"{path.name}: line {node.lineno}"
        for path in MODULES
        if path.name != "fields.py"
        for node in ast.walk(_parsed(path))
        if "POWER_TEST_CAP"
        in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
    ]
    assert not readers


def test_the_ci_workflow_parses_and_every_step_acts():
    # a workflow that is not valid YAML runs none of its steps, and a
    # step with neither ``run`` nor ``uses`` does nothing
    import yaml

    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    jobs = yaml.safe_load(workflow.read_text())["jobs"]
    steps = [step for job in jobs.values() for step in job["steps"]]
    assert steps
    assert [s for s in steps if not ("run" in s or "uses" in s)] == []
