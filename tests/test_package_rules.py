"""Rules the package keeps as a whole, checked on its source.

The README promises a pure standard-library package with no floating
point: every absolute import is a standard-library module, and no
module writes a float or complex literal or calls ``float``,
``complex`` or ``math.sqrt``.  The per-layer benchmark traces a run by
rebinding module-level names from outside the package
(``perfbench/layers.py``); a rename would silently drop a layer from
its report, so those names are pinned here.  Every element holds its
field, so no function takes an element and its field both.  ``builder``
states a family and only ``oracle`` certifies it, so no layer below the
oracle imports it, and only ``builder._dispatch`` reads the coset
form.  CI calls the CLI only where the golden table cannot pin a call.
The CLI declares its command line as its own data and reads no private
attribute.  Every package function runs on some command, or is library
API or a failure path named with its reason: code that only tests reach
lives in the tests.  The commands are the golden table's calls
(``tests/test_golden_cli.py``) but for those at depth, and argparse's
help.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import re
import subprocess
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


def test_the_reference_enumerator_imports_nothing_from_the_package():
    # the ground truth shares no code with the construction: every
    # import of _enum_py names a standard-library module, and a
    # relative one (".", ".fields") names none
    modules = []
    for node in ast.walk(_parsed(PACKAGE / "_enum_py.py")):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert all(m.partition(".")[0] in sys.stdlib_module_names for m in modules), modules


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


def test_the_construction_reads_n_only_as_the_cap():
    # the classification belongs to the field alone, and the builder
    # reads n only where build hands the cap to ks_decompose: every S
    # comes from the size 2^n
    classify = importlib.import_module("cyclotwist.classify").classify
    assert len(inspect.signature(classify).parameters) == 1
    tree = _parsed(PACKAGE / "builder.py")
    allowed = {
        id(node)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "build"
        for node in ast.walk(fn)
    }
    readers = [
        f"builder.py: line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "n"
        if id(node) not in allowed
    ]
    assert not readers


# the paper's block tables: functions of (K, s) alone
CASE_FUNCTIONS = ("thm2_case1", "thm3_case3", "thm3_case4", "thm3_case5")


def _where_b_enters(path):
    """Each place of ``path`` where b enters the construction besides its
    one expander: a case function with parameters other than (K, s), a
    function other than ``_expanded`` with a parameter b, and a read of
    an attribute ``.b`` outside ``_stated``, which hands dec.b to it."""
    found = []
    for top in _parsed(path).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if node.name in CASE_FUNCTIONS and params != ["K", "s"]:
                    found.append(f"{node.name}: parameters {', '.join(params)}")
                elif "b" in params and node.name != "_expanded":
                    found.append(f"{node.name}: parameter b")
            elif isinstance(node, ast.Attribute) and node.attr == "b" and name != "_stated":
                found.append(f"{name}: reads .b, line {node.lineno}")
    return found


def test_b_enters_the_construction_in_one_place():
    # a family is its core's blocks plus b: the case functions state
    # b-free blocks from (K, s), and the expander alone folds b^(2^r)
    # into each block's start
    builder = importlib.import_module("cyclotwist.builder")
    for name in CASE_FUNCTIONS:
        assert list(inspect.signature(getattr(builder, name)).parameters) == ["K", "s"]
    assert _where_b_enters(PACKAGE / "builder.py") == []


def test_the_b_rule_catches_what_it_names(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def thm2_case1(K, s, b): ...\n"
        "def thm3_case3(K, s):\n"
        "    return dec.b\n"
        "def _expanded(blocks, b): ...\n"
        "def _stated(spec, dec, blocks):\n"
        "    return dec.b\n"
        "def ambient(family):\n"
        "    def inner(b): ...\n"
        "class Family:\n"
        "    def expand(self):\n"
        "        return self.decomposition.b\n"
    )
    assert _where_b_enters(path) == [
        "thm2_case1: parameters K, s, b",
        "thm3_case3: reads .b, line 3",
        "inner: parameter b",
        "Family: reads .b, line 11",
    ]


# the names of the coset forms, which only the dispatch reads
FORMS = {"PLAIN", "NEGATED", "EPS_COSET"}


def _form_readers(path):
    """Each name of a coset form that ``path`` reads outside
    ``_dispatch``, by the top-level function, class or ``<module>``
    statement that reads it."""
    found = []
    for top in _parsed(path).body:
        name = getattr(top, "name", "<module>")
        if name == "_dispatch":
            continue
        for node in ast.walk(top):
            form = getattr(node, "id", None) or getattr(node, "attr", None)
            if form in FORMS:
                found.append(f"{name}: {form}, line {node.lineno}")
    return found


def test_only_the_dispatch_reads_the_coset_form():
    # the form picks the case function, and everything else of a family
    # (its core's unit w included) is read off that function's blocks
    assert _form_readers(PACKAGE / "builder.py") == []


def test_the_form_rule_catches_what_it_names(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from .classify import EPS_COSET, NEGATED, PLAIN\n"
        "def _dispatch(K, form, s):\n"
        "    return form == NEGATED\n"
        "def core_family(K, form, s):\n"
        "    if form == NEGATED:\n"
        "        return 1\n"
        "    return 2 if form == classify.EPS_COSET else 3\n"
        "UNITS = {PLAIN: 1}\n"
    )
    assert _form_readers(path) == [
        "core_family: NEGATED, line 5",
        "core_family: EPS_COSET, line 7",
        "<module>: PLAIN, line 8",
    ]


def _workflow_steps():
    import yaml

    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
    jobs = yaml.safe_load(workflow.read_text())["jobs"]
    return [step for job in jobs.values() for step in job["steps"]]


def _cli_calls(script):
    """The arguments of each call of the CLI in ``script``, a step's
    shell code, through the console script or ``python -m
    cyclotwist.cli``: what follows each ``cyclotwist`` outside single
    quotes, up to the end of its command."""
    code = re.sub(r"'[^']*'", "''", script)
    calls = re.findall(r"(?<![\w./-])cyclotwist(?:\.cli)?\b([^)|;&\n]*)", code)
    return [call.strip() for call in calls]


def test_the_ci_workflow_parses_and_every_step_acts():
    # a workflow that is not valid YAML runs none of its steps, and a
    # step with neither ``run`` nor ``uses`` does nothing
    steps = _workflow_steps()
    assert steps
    assert [s for s in steps if not ("run" in s or "uses" in s)] == []


def test_the_ci_workflow_calls_the_cli_only_where_the_table_cannot():
    # every pinned call is an entry of the golden table, which CI runs
    # through the console script (``--console``): the workflow calls
    # the CLI itself only for argparse's help, whose text differs across
    # Python versions, and for a call under an address-space limit
    calls = [call for step in _workflow_steps() for call in _cli_calls(step.get("run", ""))]
    assert sorted(calls) == ["-h", "verify -h", "verify QC:9 9 -1"]


def test_the_workflow_rule_catches_what_it_names():
    script = (
        "out=$(cyclotwist -h)\n"
        "test \"${out%%$'\\n'*}\" = 'usage: cyclotwist [-h] ...'\n"
        "python -X dev -W error -m cyclotwist.cli selftest\n"
        "a=$(python -c 'from cyclotwist import parse_field; print(1)')\n"
        "out=$(timeout 10 cyclotwist verify QC:8 4 -- \"$a\")\n"
        "cyclotwist idempotents --json Q 2 3 | python -c \"$check\"\n"
        "python -m pip install -e . && python tests/test_golden_cli.py --console\n"
    )
    assert _cli_calls(script) == [
        "-h",
        "selftest",
        'verify QC:8 4 -- "$a"',
        "idempotents --json Q 2 3",
    ]


# every cache in the package, and what it is keyed by.  The benchmark
# reruns identical inputs, so outside the selftest no cache may be keyed
# by an algebra spec, an element or a: each holds what one field (or one
# process) computes once, never an answer
CACHES = {
    "fields.interned": "(involution, level, q): the one descriptor per field",
    "fields.FieldDescriptor.ambient_dim": "the interned descriptor",
    "fields.FieldDescriptor.root_level": "the interned descriptor",
    "fields.FieldDescriptor._roots": "the interned descriptor",
    "fields.FieldDescriptor._scalars": "the interned descriptor",
    "fields._signed_perm": "(n, k), a permutation of the power basis",
    "fields._fin_nonresidue": "(q, d), the first non-square",
    "classify.classify": "a field descriptor",
    "cli._build_parser": "nothing: the one argument parser",
    "cli._certified_core": "(K, form, s): the b-free core and its report, no a or n",
    "selftest._family": "a matrix spec, each algebra built once per selftest",
    "selftest._checked_family": "a matrix case",
    "selftest._powers": "(field, s), a ground-truth table",
}
CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}
# parameters that would key a cache by an input's answer
INPUT_PARAMS = {"spec", "a", "x", "family", "dec"}
INPUT_TYPES = {"AlgebraSpec", "AlgebraElement", "AmbientElement", "Element"}


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _cached_functions():
    """(dotted name, function node, enclosing class name or None) of
    every cached function in the package, and (dotted name, None, None)
    of every module-level store that starts as an empty dict."""
    out = []
    for path in MODULES:
        tree = _parsed(path)
        for node in tree.body:
            value = getattr(node, "value", None)
            if isinstance(value, ast.Dict) and not value.keys:
                targets = getattr(node, "targets", None) or [node.target]
                out += [(f"{path.stem}.{t.id}", None, None) for t in targets]
        scopes = [(None, tree)] + [
            (n.name, n) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
        ]
        for owner, scope in scopes:
            for fn in scope.body:
                if isinstance(fn, ast.FunctionDef) and any(
                    _decorator_name(d) in CACHE_DECORATORS for d in fn.decorator_list
                ):
                    name = ".".join(filter(None, (path.stem, owner, fn.name)))
                    out.append((name, fn, owner))
    return out


def test_every_cache_is_on_the_allowlist():
    assert sorted(name for name, _, _ in _cached_functions()) == sorted(CACHES)


def _keyed_caches():
    """Each cache outside the selftest that is keyed by an input."""
    keyed = []
    for name, fn, owner in _cached_functions():
        if name.startswith("selftest.") or fn is None:
            continue
        if owner not in (None, "FieldDescriptor"):
            keyed.append(f"{name}: cached on a {owner}")
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
            annotation = ast.unparse(arg.annotation) if arg.annotation else ""
            if arg.arg in INPUT_PARAMS or annotation.strip("'\"") in INPUT_TYPES:
                keyed.append(f"{name}: parameter {arg.arg}")
    return keyed


def test_no_cache_is_keyed_by_an_input():
    assert not _keyed_caches()


def test_the_cache_rules_catch_what_they_name(tmp_path, monkeypatch):
    src = (
        "import functools\n"
        "from functools import cached_property, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def by_spec(spec): ...\n"
        "@lru_cache\n"
        "def by_element(y: 'AmbientElement'): ...\n"
        "class AlgebraSpec:\n"
        "    @cached_property\n"
        "    def zero(self): ...\n"
        "def plain(spec): ...\n"
        "STORE: dict = {}\n"
        "TABLE = {1: 2}\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(src)
    monkeypatch.setattr(sys.modules[__name__], "MODULES", [path])
    found = {name for name, _, _ in _cached_functions()}
    assert found == {
        "probe.by_spec",
        "probe.by_element",
        "probe.AlgebraSpec.zero",
        "probe.STORE",
    }
    assert sorted(_keyed_caches()) == [
        "probe.AlgebraSpec.zero: cached on a AlgebraSpec",
        "probe.by_element: parameter y",
        "probe.by_spec: parameter spec",
    ]


# an element holds its field (``x.owner``), so a function that takes an
# element reads the field off it and takes no second copy
ELEMENT_TYPES = {"AmbientElement", "AlgebraElement", "Element"}


def _field_beside_an_element(paths):
    """Each function of ``paths`` with a parameter annotated
    ``FieldDescriptor`` beside one annotated with an element type."""
    found = []
    for path in paths:
        for fn in ast.walk(_parsed(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            types = {
                ast.unparse(arg.annotation).strip("'\"") for arg in args if arg.annotation
            }
            if "FieldDescriptor" in types and types & ELEMENT_TYPES:
                found.append(f"{path.stem}.{fn.name}")
    return found


def test_no_function_takes_the_field_of_its_element():
    assert _field_beside_an_element(MODULES) == []
    spec = importlib.import_module("cyclotwist.algebra").AlgebraSpec
    assert tuple(f.name for f in dataclasses.fields(spec)) == ("n", "a")


def test_an_item_is_its_label_and_constants():
    # dim and min_poly are read off (S, k), and IdempotentFamily.elements
    # builds the element on demand: an item stores no derived fact (and
    # the cache rules above keep any cache off it)
    item = importlib.import_module("cyclotwist.builder").IdempotentItem
    assert tuple(f.name for f in dataclasses.fields(item)) == ("label", "S", "k")


def test_a_family_is_what_the_construction_states():
    # a family holds no verdict: build returns it as stated, and the
    # report is what verify_family returns
    family = importlib.import_module("cyclotwist.builder").IdempotentFamily
    fields = tuple(f.name for f in dataclasses.fields(family))
    assert fields == ("spec", "decomposition", "items")


def _package_imports(path):
    """(module, for type checking only) of each package module that
    ``path`` imports, at any depth."""
    tree = _parsed(path)
    typing_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [a.name for a in node.names]
            found |= {(name, id(node) in typing_only) for name in names}
    return found


def test_only_the_oracle_certifies():
    # builder states a family and oracle certifies it: no layer below
    # the oracle imports it, the oracle reads builder's types only, build
    # has no switch that runs a check, and each certificate has one home
    for stem in ("fields", "algebra", "classify", "grammar", "builder"):
        imported = {name for name, _ in _package_imports(PACKAGE / f"{stem}.py")}
        assert "oracle" not in imported, stem
    builder_imports = {i for i in _package_imports(PACKAGE / "oracle.py") if i[0] == "builder"}
    assert builder_imports == {("builder", True)}
    build = importlib.import_module("cyclotwist.builder").build
    assert list(inspect.signature(build).parameters) == ["spec"]
    for name in ("verified", "certify_irreducible"):
        homes = [
            path.stem
            for path in MODULES
            for fn in _parsed(path).body
            if isinstance(fn, ast.FunctionDef) and fn.name == name
        ]
        assert homes == ["oracle"], name


def test_the_import_rule_catches_what_it_names(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from typing import TYPE_CHECKING\n"
        "from . import fields\n"
        "from .algebra import Poly\n"
        "if TYPE_CHECKING:\n"
        "    from .builder import IdempotentFamily\n"
        "def late():\n"
        "    from .oracle import verified\n"
    )
    assert _package_imports(path) == {
        ("fields", False),
        ("algebra", False),
        ("builder", True),
        ("oracle", False),
    }


def _private_attributes(path):
    """Each attribute named with one leading underscore that ``path``
    reads or writes, as ``owner.name``."""
    return [
        f"{ast.unparse(node.value)}.{node.attr}"
        for node in ast.walk(_parsed(path))
        if isinstance(node, ast.Attribute)
        if node.attr[:1] == "_" and node.attr[:2] != "__"
    ]


def test_the_cli_reads_no_private_attribute():
    # the command line is declared in the CLI's own data, so no private
    # name of argparse (or of another module) can change under it
    assert _private_attributes(PACKAGE / "cli.py") == []


def test_the_private_attribute_rule_catches_what_it_names(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import argparse\n"
        "options = own._actions\n"
        "kinds = {argparse._StoreAction, argparse.Namespace}\n"
        "text = int.__repr__(args.json)\n"
    )
    assert _private_attributes(path) == ["own._actions", "argparse._StoreAction"]


def test_the_field_rule_catches_what_it_names(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def both(K: FieldDescriptor, x: 'AmbientElement'): ...\n"
        "def algebra(e: AlgebraElement, K: 'FieldDescriptor', step: int): ...\n"
        "def field_only(K: FieldDescriptor, t: int): ...\n"
        "def element_only(x: Element, n: int): ...\n"
        "def bare(K, x): ...\n"
    )
    assert _field_beside_an_element([path]) == ["probe.both", "probe.algebra"]


# -- every package function runs on some command ----------------------------------

# the calls besides the golden table's (``every_argv``, but for the calls
# at depth): argparse's help, whose text CI checks only to its first
# usage line, so that the table leaves it out
REACH_CALLS = ["-h", "verify -h"]

# a fresh interpreter, profiled from before the package is imported, runs
# every call and prints (module, first line) of each package code object
# it entered; the first line of a decorated function is its decorator's
_REACH_SCRIPT = """
import cProfile, contextlib, io, json, shlex, sys
from pathlib import Path
package, tests, calls = Path(sys.argv[1]).resolve(), sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [str(package.parent), tests]
profile = cProfile.Profile()
profile.enable()
from cyclotwist.cli import main
from test_golden_cli import AT_DEPTH, every_argv
table = [argv for argv in every_argv() if tuple(argv) not in AT_DEPTH]
for argv in table + [shlex.split(call) for call in calls]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass
profile.disable()
entered = {
    (path.stem, entry.code.co_firstlineno)
    for entry in profile.getstats()
    if not isinstance(entry.code, str)
    if (path := Path(entry.code.co_filename).resolve()).parent == package
}
print(json.dumps(sorted(entered)))
"""

# each package function that no call enters, and why it stays: library
# API that README documents, or a path that only a failure takes
UNREACHED = {
    "algebra.AlgebraSpec.gbar": "library API: g^k is spec.gbar(k) (README, Library)",
    "algebra.AlgebraSpec.coerce": "library API: the lift of a mixed operand (README, Library)",
    "algebra.AlgebraElement.coeffs": "library API: an element's coefficients (README, Library)",
    "algebra.AlgebraElement.__mul__": "library API; e*e, formed only for a family that fails",
    "algebra.AlgebraElement.__repr__": "library API: the element at a prompt",
    "algebra.alg_mul": "the product of two algebra elements, formed only for a family that fails",
    "algebra._pack": "alg_mul's Kronecker packing",
    "algebra._unpack": "alg_mul's Kronecker unpacking",
    "algebra._bias": "alg_mul's Kronecker packing",
    "fields.FieldDescriptor.__str__": "library API: the field at a prompt",
    "fields.Element.__setattr__": "failure path: an element is immutable",
    "fields.Element.__rsub__": "library API: a number minus an element (README, Library)",
    "fields.Element.inverse": "failure path: an algebra element has no inverse",
    "fields.AmbientElement.coeffs": "library API: an element's coordinates (README, Library)",
    "fields.AmbientElement.__repr__": "library API: the element at a prompt",
    "oracle.VerificationError.__init__": "failure path: verified refuses a failing family",
    "selftest.MatrixCase.repro": "failure path: the call of a command that reproduces a case",
    "selftest.MatrixCase.__str__": "failure path: a failing case's name",
    "selftest._unchecked": "failure path: the call that reproduces a failing depth",
    "selftest.criterion_depth_regression.name": "failure path: a failing depth's name",
    "selftest.criterion_structure_law.name": "failure path: a failing law's name",
    "selftest.criterion_structure_law.repro": "failure path: the call that reproduces it",
}


def _defs(tree, prefix):
    """(dotted name, first line) of every function defined in ``tree``,
    methods and nested functions included, the first line of a decorated
    one its first decorator's, as its code object counts it."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, min(d.lineno for d in node.decorator_list + [node])
            yield from _defs(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node, f"{prefix}{node.name}.")


def test_every_package_function_runs_on_some_command():
    # code that only tests reach belongs in the tests: each function the
    # commands never enter is library API or a failure path, named here
    tests = Path(__file__).parent
    argv = [sys.executable, "-c", _REACH_SCRIPT, str(PACKAGE), str(tests)]
    done = subprocess.run(
        argv + [json.dumps(REACH_CALLS)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    entered = {tuple(key) for key in json.loads(done.stdout)}
    unreached = {
        name
        for path in MODULES
        for name, line in _defs(_parsed(path), f"{path.stem}.")
        if (path.stem, line) not in entered
    }
    # (unreached and not allowed, allowed but reached)
    assert (sorted(unreached - UNREACHED.keys()), sorted(UNREACHED.keys() - unreached)) == ([], [])


def test_the_reach_rule_names_what_it_finds():
    tree = ast.parse(
        "import functools\n"
        "def plain(): ...\n"
        "class Spec:\n"
        "    @property\n"
        "    @functools.cache\n"
        "    def size(self):\n"
        "        def inner(): ...\n"
        "async def later(): ...\n"
        "f = lambda: 0\n"
    )
    assert list(_defs(tree, "probe.")) == [
        ("probe.plain", 2),
        ("probe.Spec.size", 4),
        ("probe.Spec.size.inner", 7),
        ("probe.later", 8),
    ]
