"""Write reference.json: the frozen answers the benchmark checks against.

For every instance any seed can draw, records

* ``dims``: the sorted component dimensions, from an unchecked build;
* ``oracles``: for verify instances, which of enumeration and pairing
  passed ("pass") or did not apply ("skipped");
* ``labels``: for verify instances, the sorted component labels that
  ``verify --json`` prints;
* ``construct_sha256``: the sha256 of ``idempotents --unchecked --json``
  stdout, whose bytes are pinned.

Run it only at a commit whose answers are trusted, from the root::

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def call(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def freeze() -> dict:
    sys.path.insert(0, str(SRC))
    from cyclotwist import cli

    ref = {"dims": {}, "oracles": {}, "labels": {}, "construct_sha256": {}}
    for inst in workloads.every_instance():
        if inst.key not in ref["dims"]:
            build = workloads.Instance(workloads.CONSTRUCT, inst.field, inst.n, inst.a)
            code, out = call(cli, build.argv())
            if code != 0:
                raise SystemExit(f"{inst.key}: unchecked build exited {code}")
            dims = sorted(it["dim"] for it in json.loads(out)["idempotents"])
            ref["dims"][inst.key] = dims
        code, out = call(cli, inst.argv())
        if inst.command == workloads.CONSTRUCT:
            ref["construct_sha256"][inst.key] = workloads.sha256(out)
        else:
            report = json.loads(out)
            ref["oracles"][inst.key] = {
                oracle: report[oracle].split(":")[0]
                for oracle in ("enumeration", "pairing")
            }
            ref["labels"][inst.key] = workloads.labels(report)
    return ref


if __name__ == "__main__":
    reference = freeze()
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
