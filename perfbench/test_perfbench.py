"""Tests of the benchmark itself: inputs, checker, time limit, tracing.

Run from the repository root (they are not part of the package suite)::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import signal
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import compare
import layers
import run
import workloads
import yardstick
from cyclotwist import cli

REF = workloads.load_reference()


def call(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 5) == workloads.generate(name, 5)
    assert workloads.generate(name, 5) != workloads.generate(name, 6)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_drawn_instance_has_a_reference(name):
    for seed in range(20):
        for inst in workloads.generate(name, seed):
            assert inst.key in REF["dims"]
            table = "construct_sha256" if inst.command == "idempotents" else "oracles"
            assert inst.key in REF[table]


def test_sweep_small_is_every_small_unit_plus_char0_cases():
    insts = workloads.generate("sweep-small", 0)
    assert len(insts) == len(set(insts)) == 136 + len(workloads.SWEEP_CHAR0)


def test_reference_dims_sum_to_the_algebra_dimension():
    for key, dims in REF["dims"].items():
        n = int(key.split()[1])
        assert sum(dims) == 1 << n, key


# -- the checker -----------------------------------------------------------------


def test_construct_output_passes_and_tampering_is_caught():
    inst = workloads.Instance(workloads.CONSTRUCT, "F:7", 5, "3")
    code, out = call(inst.argv())
    assert workloads.check(inst, code, out, REF) == workloads.OK

    data = json.loads(out)
    data["idempotents"][0]["coeffs"][0] = "1"  # one coefficient changed
    changed = json.dumps(data, indent=2) + "\n"
    assert changed != out
    with pytest.raises(workloads.WrongAnswer):
        workloads.check(inst, code, changed, REF)

    data = json.loads(out)
    del data["idempotents"][-1]  # one component dropped
    with pytest.raises(workloads.WrongAnswer):
        workloads.check(inst, code, json.dumps(data, indent=2) + "\n", REF)


def test_verify_output_passes_and_tampering_is_caught():
    inst = workloads.Instance(workloads.VERIFY, "F:5", 3, "1")
    code, out = call(inst.argv())
    assert workloads.check(inst, code, out, REF) == workloads.OK

    tampered = []
    data = json.loads(out)
    del data["structural"]["items"][-1]  # one component dropped
    tampered.append(data)
    data = json.loads(out)
    data["structural"]["dim_total"] -= 1
    tampered.append(data)
    data = json.loads(out)
    data["enumeration"] = "mismatch"
    tampered.append(data)
    data = json.loads(out)
    data["enumeration"] = "skipped: enumeration turned off"
    tampered.append(data)
    data = json.loads(out)
    data["structural"]["failures"] = ["e(0,) is not idempotent"]
    tampered.append(data)
    data = json.loads(out)
    data["structural"]["items"][-1]["label"] = [9, 9]  # regrouped family
    tampered.append(data)
    for data in tampered:
        with pytest.raises(workloads.WrongAnswer):
            workloads.check(inst, code, json.dumps(data), REF)
    with pytest.raises(workloads.WrongAnswer):
        workloads.check(inst, code, "not json", REF)


def test_uncertified_counts_as_failed_not_wrong():
    (q5,) = [slot for slot in workloads.DEEP_SLOTS if slot.field == "Q"]
    inst = workloads.Instance(workloads.VERIFY, "Q", 5, q5.members()[0])
    code, out = call(inst.argv())
    assert code == 1
    assert workloads.check(inst, code, out, REF) == workloads.UNCERTIFIED


def test_refusal_counts_as_failed_not_wrong():
    inst = workloads.Instance(workloads.VERIFY, "F:5", 3, "1")
    assert workloads.check(inst, 2, "", REF) == workloads.REFUSED


def test_hanging_instance_times_out(monkeypatch):
    monkeypatch.setattr(run, "INSTANCE_LIMIT_S", 0.5)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        hang = workloads.Instance(workloads.VERIFY, "F:3", 7, "1")
        elapsed, status = run.run_one(cli, hang, REF)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert status == workloads.TIMEOUT
    assert elapsed < 5


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail(samples, 50) == (90.0, "p90 of 100 samples")


def test_tail_of_few_samples_is_the_slowest_instance():
    # Three passes over three instances; instance 1 is the slow one.
    samples = [1.0, 5.0, 2.0, 1.1, 7.0, 2.1, 0.9, 6.0, 9.0]
    value, note = run.tail(samples, 3)
    assert value == 6.0
    assert note == "slowest of 3 instances, median of 3 passes"


def test_latencies_are_scaled_by_the_yardstick_around_them(monkeypatch):
    # Five 0.4 s instances on a host that runs the yardstick at half its
    # nominal speed: every latency is halved.  The yardstick runs before
    # the pass, once a second of instances has run, and after the last.
    yardsticks = iter([2.0, 2.0, 2.0])
    monkeypatch.setattr(
        run.yardstick, "measure", lambda: next(yardsticks) * yardstick.NOMINAL_S
    )
    monkeypatch.setattr(run, "run_one", lambda cli, inst, ref: (0.4, workloads.OK))
    passes = run.Passes(None, workloads.generate("sweep-small", 0)[:5], REF)
    raw, scaled = passes.run()
    assert raw == pytest.approx(2.0)
    assert scaled == pytest.approx(1.0)
    assert passes.scaled == pytest.approx([0.2] * 5)
    assert len(passes.yardsticks) == 3


def test_yardstick_calls_nothing_in_the_program():
    import ast

    tree = ast.parse((run.BENCH / "yardstick.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported <= {"annotations", "gc", "Fraction", "perf_counter"}


# -- tracing ---------------------------------------------------------------------


def test_self_time_excludes_enclosed_spans():
    tracer = layers.Tracer()
    inner = tracer.span("inner", lambda: sum(range(10000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(5)])
    outer()
    assert tracer.calls["inner"] == 5
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"]
    )


def test_install_binds_every_site_and_uninstall_restores():
    import cyclotwist.algebra as algebra
    import cyclotwist.fields as fields

    before = (algebra.alg_mul, fields.AmbientElement.__mul__, cli.build)
    undo, missing = layers.install(layers.Tracer())
    try:
        assert missing == []
        assert algebra.alg_mul is not before[0]
    finally:
        layers.uninstall(undo)
    assert (algebra.alg_mul, fields.AmbientElement.__mul__, cli.build) == before


def _traced_counts(name, seed):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", name]
        + ["--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert metrics["trace.overhead_frac"]["unit"] == "ratio"
    return {c: metrics[c]["value"] for c in layers.COUNTS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_on_one_seed(name):
    assert _traced_counts(name, 3) == _traced_counts(name, 3)


# -- comparing runs --------------------------------------------------------------


def _stdout_file(tmp_path, name, backend, wall):
    meta = {"workload": "sweep-small", "trace": False, "enumeration_backend": backend}
    result = {"metrics": {"wall_norm_s": {"value": wall, "unit": "s"}}}
    path = tmp_path / name
    path.write_text("meta " + json.dumps(meta) + "\n" + json.dumps(result) + "\n")
    return str(path)


def test_compare_takes_medians_and_refuses_other_backends(tmp_path):
    def side(tag, walls, backend="pure"):
        return [
            _stdout_file(tmp_path, f"{tag}{i}", backend, wall)
            for i, wall in enumerate(walls)
        ]

    parent = side("p", [5, 6, 9])  # median 6
    slower = side("s", [8, 8, 1])  # median 8: a third worse
    faster = side("f", [7, 6, 2])  # median 6
    compiled = side("k", [6], "compiled")
    assert compare.main(["--parent", *parent, "--change", *slower]) == 1
    assert compare.main(["--parent", *parent, "--change", *faster]) == 0
    assert compare.main(["--parent", *parent, "--change", *compiled]) == 2


# -- refusing to run without the program -----------------------------------------


def test_refuses_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- an outside oracle for the frozen dimensions ---------------------------------


def _sympy_degrees(key: str):
    """Degrees of the irreducible factors of x^(2^n) - a over K."""
    sympy = pytest.importorskip("sympy")
    field, n, literal = key.split()
    x = sympy.Symbol("x")
    f = x ** (1 << int(n))
    if field.startswith("F:"):
        poly = sympy.Poly(f - int(literal), x, modulus=int(field[2:]))
        return sorted(p.degree() for p, _ in poly.factor_list()[1])
    level = 2 if field == "Q" else int(field.split(":")[1])
    zeta = sympy.exp(2 * sympy.pi * sympy.I / 2**level)
    coords = [sympy.Rational(c) for c in literal.split(",")]
    a = sympy.expand_complex(sum(c * zeta**k for k, c in enumerate(coords)))
    real = sympy.expand_complex(zeta + 1 / zeta)
    extension = {
        "Q": None,
        "QC": [sympy.I, real],
        "QR": real,
        "QE": sympy.expand_complex(zeta - 1 / zeta),
    }[field.split(":")[0]]
    if extension is None:
        _, factors = sympy.factor_list(f - a)
    else:
        _, factors = sympy.factor_list(f - a, extension=extension)
    return sorted(sympy.degree(p, x) for p, _ in factors)


# Over Q(zeta_16) sympy takes more than two minutes on the degree-64
# polynomial; the other 170 instances take a few seconds together.
SYMPY_SKIP = ("QC:4 6 ",)


@pytest.mark.parametrize(
    "key", sorted(k for k in REF["dims"] if not k.startswith(SYMPY_SKIP))
)
def test_reference_dims_match_sympy_factor_degrees(key):
    assert _sympy_degrees(key) == REF["dims"][key]
