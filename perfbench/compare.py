"""Compare the benchmark runs of a parent and a change by their medians.

Save the standard output of each ``run.py`` run to its own file, then::

    python3 perfbench/compare.py --parent p1.txt p2.txt ... --change c1.txt c2.txt ...

Each file holds one run's ``meta`` line and, as its last line, the
result.  For every metric the script prints the median over each side's
runs, the relative change, and whether the change is worse than the
bound BENCHMARK.json fixes.  Give each side several runs: one run's
times can move by a quarter on a shared host.

Refuses (exit 2) to compare runs of different workloads, tracing modes
or enumeration backends: the compiled enumeration kernel is about 85
times faster than the pure one, so runs with the two are different
programs on sweep-small.  Exits 1 when an end-to-end metric is worse
than its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MUST_MATCH = ("workload", "trace", "enumeration_backend")
Run = Tuple[dict, dict]  # the meta and the metrics of one run


def read_run(path: str) -> Run:
    """The meta and the metrics of one run's captured stdout."""
    lines = Path(path).read_text().splitlines()
    metas = [json.loads(line[5:]) for line in lines if line.startswith("meta ")]
    if not metas or not lines[-1].startswith("{"):
        raise SystemExit(f"{path}: not the output of a finished run.py run")
    return metas[-1], json.loads(lines[-1])["metrics"]


def medians(runs: List[Run]) -> dict:
    names = set.intersection(*(set(metrics) for _, metrics in runs))
    return {
        name: statistics.median(metrics[name]["value"] for _, metrics in runs)
        for name in names
    }


def compare(parent: List[Run], change: List[Run], spec: dict) -> int:
    first = parent[0][0]
    for meta, _ in parent + change:
        for key in MUST_MATCH:
            if meta[key] != first[key]:
                print(
                    f"refusing to compare: {key} is {first[key]!r} "
                    f"against {meta[key]!r}",
                    file=sys.stderr,
                )
                return 2
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worst = 0
    before, after = medians(parent), medians(change)
    print(f"medians of {len(parent)} parent and {len(change)} change runs")
    for name in sorted(set(before) & set(after)):
        a, b = before[name], after[name]
        rel = (b - a) / a if a else float("nan")
        verdict = ""
        m = declared.get(name)
        if m is not None and "bound" in m and a:
            worse = rel if m["better"] == "lower" else -rel
            if worse > m["bound"]:
                verdict = f"WORSE than bound {m['bound']}"
                worst = 1
        print(f"{name:32s} {a:14.6g} {b:14.6g} {rel:+9.2%} {verdict}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="STDOUT")
    parser.add_argument("--change", nargs="+", required=True, metavar="STDOUT")
    args = parser.parse_args(argv)
    parent = [read_run(p) for p in args.parent]
    change = [read_run(p) for p in args.change]
    return compare(parent, change, json.loads(BENCHMARK.read_text()))


if __name__ == "__main__":
    sys.exit(main())
