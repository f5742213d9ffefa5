"""Run one benchmark workload through cyclotwist's CLI entry point.

From the root of a checkout::

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Every call goes through ``cyclotwist.cli.main`` in this one process,
single-threaded, with stdout captured and checked against the frozen
reference.  A wrong answer aborts the run with exit 1.  Uncertified
results, refusals, time-outs and exceptions count as failed.

Between instances the run times ``yardstick.py``, a fixed pure-Python
workload, and scales each latency by the yardstick times around it: the
host's speed drifts by a third over minutes, and the scaled (``norm``)
times cancel that drift.  The raw times are in the ``meta`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced warm-up pass, then alternates untraced passes with passes that
have the layer wrappers of ``layers.py`` installed, and reports the
per-layer metrics (medians over the traced passes) plus the tracing
overhead.  The line before the last starts with ``meta`` and holds the
run's metadata; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import List, Tuple

import layers
import workloads
import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# The seconds a run budgets for one pass.  A run makes seconds /
# NOMINAL_PASS_S passes, at least two, whatever the machine's speed, so
# the number of latency samples, and with it the tail percentile, is the
# same on every run.  At the seed state (Python 3.11, two shared cores,
# pure enumeration kernel) a pass takes about 11.5, 9.5 and 7.5 s,
# yardstick included; construct-deep is budgeted short so that it makes
# four passes at --seconds 30, as its pass times spread the most.
NOMINAL_PASS_S = {"verify-deep": 10.0, "construct-deep": 7.5, "sweep-small": 7.5}
# Stop starting passes once a run has taken this many times --seconds,
# so that a much slower program still ends in bounded time.
RUN_CAP = 3.0
INSTANCE_LIMIT_S = 20.0
# Time the yardstick again once this many seconds of instances have run
# since it last ran: around every deep instance, and about every second
# of sweep-small, for a tenth more time per pass.
YARDSTICK_EVERY_S = 1.0
SETUP_REPEATS = 15
TAIL_BEYOND = 10
# The tail is a percentile only where TAIL_BEYOND samples lie above this
# one; with fewer samples it is the slowest instance (see tail()).
TAIL_MIN_PERCENTILE = 90.0

SETUP_CHILD = (
    "import sys, cyclotwist.cli, workloads; "
    "workloads.generate(sys.argv[1], int(sys.argv[2]))"
)


class InstanceTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that the CLI's
    own ``except ValueError`` cannot swallow it."""


def _on_alarm(signum, frame):
    raise InstanceTimeout


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else "unknown"
    return ref


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclotwist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _backend(cyclotwist) -> str:
    backend = getattr(cyclotwist, "enumeration_backend", None)
    return backend() if backend else "pure"


def metadata(args, cyclotwist) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "enumeration_backend": _backend(cyclotwist),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "instance_limit_s": INSTANCE_LIMIT_S,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> List[float]:
    """Fresh interpreter to ``import cyclotwist.cli`` done and the
    workload generated, SETUP_REPEATS times after one untimed start
    that writes the bytecode caches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    argv = [sys.executable, "-c", SETUP_CHILD, workload, str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - start)
    return times


def run_one(cli, inst: workloads.Instance, ref: dict) -> Tuple[float, str]:
    """One ``cli.main`` call: its latency and its checked status."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, INSTANCE_LIMIT_S)
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(inst.argv())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        status = workloads.TIMEOUT
    except SystemExit as exc:  # argparse refuses its arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        print(f"{inst.key}: {exc!r}", file=sys.stderr)
        status = workloads.ERROR
    elapsed = perf_counter() - start
    if code is not None:
        status = workloads.check(inst, code, out.getvalue(), ref)
    return elapsed, status


class Passes:
    """Passes over one workload's instances; keeps every latency, raw
    and scaled to the yardstick, and every checked status."""

    def __init__(self, cli, instances: List[workloads.Instance], ref: dict):
        self.cli, self.instances, self.ref = cli, instances, ref
        self.latencies: List[float] = []
        self.scaled: List[float] = []
        self.yardsticks: List[float] = []
        self.statuses: Counter = Counter()

    def _yardstick(self) -> float:
        seconds = yardstick.measure()
        self.yardsticks.append(seconds)
        return seconds

    def run(self) -> Tuple[float, float]:
        """One pass; returns its raw and its scaled time, each the sum of
        the pass's latencies.  A group of instances is scaled by the
        mean of the yardstick times just before and just after it."""
        raw: List[float] = []
        scaled: List[float] = []
        group: List[float] = []
        before = self._yardstick()
        for i, inst in enumerate(self.instances):
            elapsed, status = run_one(self.cli, inst, self.ref)
            self.statuses[status] += 1
            group.append(elapsed)
            if sum(group) >= YARDSTICK_EVERY_S or i == len(self.instances) - 1:
                after = self._yardstick()
                factor = 2 * yardstick.NOMINAL_S / (before + after)
                raw += group
                scaled += [t * factor for t in group]
                before, group = after, []
        self.latencies += raw
        self.scaled += scaled
        return sum(raw), sum(scaled)

    @property
    def certified(self) -> int:
        return self.statuses[workloads.OK]


def tail(samples: List[float], instances: int) -> Tuple[float, str]:
    """The latency tail of whole passes, as (value, what it is).

    The highest percentile with at least TAIL_BEYOND samples above it,
    where that is at least TAIL_MIN_PERCENTILE.  With fewer samples, as
    on the deep workloads, such a percentile would sit near the median,
    so the tail is instead the slowest instance's median latency over
    the passes.  ``samples`` holds whole passes, in instance order."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    percentile = 100.0 * rank / len(ordered)
    if percentile >= TAIL_MIN_PERCENTILE:
        return ordered[rank - 1], f"p{percentile:.3g} of {len(ordered)} samples"
    slowest = max(
        statistics.median(samples[i::instances]) for i in range(instances)
    )
    passes = len(samples) // instances
    return slowest, f"slowest of {instances} instances, median of {passes} passes"


def pass_count(workload: str, seconds: int) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def end_to_end(passes: Passes, count: int, deadline: float, setup: list):
    walls = []
    for _ in range(count):
        walls.append(passes.run())
        if perf_counter() > deadline:
            break
    instances = len(passes.instances)
    scaled = passes.scaled
    tail_value, tail_note = tail(scaled, instances)
    certified_frac = passes.certified / len(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_norm_s": (statistics.median(w for _, w in walls), "s"),
        "latency_p50_norm_s": (statistics.median(scaled), "s"),
        "latency_tail_norm_s": (tail_value, "s"),
        "certified_frac": (certified_frac, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = passes.latencies
    meta = {
        "passes": len(walls),
        "pass_walls_s": [w for w, _ in walls],
        "pass_walls_norm_s": [w for _, w in walls],
        "raw_wall_s": statistics.median(w for w, _ in walls),
        "raw_latency_p50_s": statistics.median(raw),
        "raw_latency_tail_s": tail(raw, instances)[0],
        "yardstick_median_s": statistics.median(passes.yardsticks),
        "yardstick_runs": len(passes.yardsticks),
        "setup_runs_s": setup,
        "latency_tail": tail_note,
        "latency_samples": len(scaled),
        "failed_frac": 1 - certified_frac,
    }
    return metrics, meta


def per_layer(passes: Passes, count: int, deadline: float):
    # An untimed warm-up pass fills the caches, so every later pass does
    # the same work and the traced counts repeat exactly.  Then passes
    # alternate untraced and traced, so that the overhead compares warm
    # neighbours.
    passes.run()
    walls = {False: [], True: []}
    per_pass = []
    for i in range(count):
        traced = i % 2 == 1
        if traced:
            tracer = layers.Tracer()
            undo, missing = layers.install(tracer)
            try:
                walls[traced].append(passes.run()[1])
            finally:
                layers.uninstall(undo)
            per_pass.append(tracer.metrics())
        else:
            walls[traced].append(passes.run()[1])
        if traced and perf_counter() > deadline:
            break
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    untraced, traced = (statistics.median(walls[t]) for t in (False, True))
    metrics["trace.untraced_wall_norm_s"] = (untraced, "s")
    metrics["trace.traced_wall_norm_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    meta = {"traced_passes": len(per_pass), "missing_binding_sites": missing}
    return metrics, meta


def run_workload(args) -> int:
    if not (SRC / "cyclotwist" / "cli.py").is_file():
        print(f"error: no cyclotwist sources under {SRC}", file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import cyclotwist
    from cyclotwist import cli

    meta = metadata(args, cyclotwist)
    yardstick.measure()  # untimed: the first call of a process is slower
    passes = Passes(
        cli,
        workloads.generate(args.workload, args.seed),
        workloads.load_reference(),
    )
    count = pass_count(args.workload, args.seconds)
    deadline = perf_counter() + RUN_CAP * args.seconds
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.trace:
            metrics, more = per_layer(passes, count, deadline)
        else:
            metrics, more = end_to_end(passes, count, deadline, setup)
    except workloads.WrongAnswer as err:
        print(f"WRONG ANSWER: {err}", file=sys.stderr)
        return 1
    meta.update(more, statuses=dict(passes.statuses))

    attempted = len(passes.latencies)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": attempted - passes.certified,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("meta " + json.dumps(meta))
    for name, (value, unit) in metrics.items():
        note = f"  ({meta['latency_tail']})" if name == "latency_tail_norm_s" else ""
        print(f"{name:32s} {value:14.6g} {unit}{note}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so no cache carries over."""
    worst = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
