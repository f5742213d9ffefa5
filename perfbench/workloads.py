"""The benchmark's workloads, their frozen reference answers, and the
checker that compares one CLI call's output against them.

Each workload is a list of CLI argument vectors.  The seed decides which
pool member fills each slot and the order of the instances; the program
under test only ever sees the generated argument vectors.

Why these three workloads:

* ``verify-deep`` runs ``verify --json`` on the largest instances that
  finish in seconds.  Its time is algebra multiplication (minimal
  polynomials, orthogonality, pairing rebuilds) and trial-division
  certification; ``Q 5 16`` is uncertified at the seed state.  Every
  instance is over the enumeration budget, so enumeration costs nothing.
* ``construct-deep`` builds the same families plus two deeper ones with
  ``idempotents --unchecked --json``: the builder and algebra layers
  with no oracle at all.  A change that makes verification cheaper at
  construction's expense, or the reverse, shows up against verify-deep.
* ``sweep-small`` runs ``verify --json`` on every unit of F_q for small
  q and n <= 3, plus the small characteristic-0 selftest cases.  Brute
  enumeration and fixed per-call costs dominate; it is the "no change"
  control for work on the algebra kernel.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

REFERENCE_PATH = Path(__file__).with_name("reference.json")

VERIFY = "verify"
CONSTRUCT = "idempotents"

# Multipliers c for the characteristic-0 slots: a * c^(2^n) keeps the
# depth s and the coset form of a, while growing the coefficients.  c
# starts at 5: with c = 1 and c = 3 the coefficients are short enough
# that the QR:3 4 slot verifies 6-10% faster, and which c a seed drew
# moved verify-deep's median latency by as much.
ODD_C = (5, 7, 9, 11)


@dataclass(frozen=True)
class Slot:
    """One position of a deep workload: a field, n, and the pool of a.

    A finite slot lists its residues, all of one construction case.  A
    characteristic-0 slot gives one literal, scaled by c^(2^n)."""

    field: str
    n: int
    pool: Tuple[str, ...] = ()
    base: str = ""

    def members(self) -> List[str]:
        if self.pool:
            return list(self.pool)
        return [_scale(self.base, c ** (1 << self.n)) for c in ODD_C]


@dataclass(frozen=True)
class Instance:
    command: str
    field: str
    n: int
    a: str

    @property
    def key(self) -> str:
        return f"{self.field} {self.n} {self.a}"

    def argv(self) -> List[str]:
        flags = ["--json"] if self.command == VERIFY else ["--unchecked", "--json"]
        return [self.command, self.field, str(self.n), self.a] + flags


def _scale(literal: str, factor: int) -> str:
    return ",".join(str(int(x) * factor) for x in literal.split(","))


DEEP_SLOTS = (
    Slot("F:5", 6, ("1",)),
    Slot("F:7", 5, ("1", "2", "4")),  # plain, s = 5
    Slot("F:7", 5, ("3", "5", "6")),  # negated, s = 3
    Slot("QR:3", 4, base="9232,6528,0,-6528"),  # (1 + eps_3)^16: unit coset
    Slot("QC:4", 6, base="16"),
    Slot("Q", 5, base="16"),  # uncertified at the seed state
)

CONSTRUCT_ONLY_SLOTS = (
    Slot("F:5", 7, ("1",)),
    Slot("F:13", 7, ("1", "3", "9")),
)

SWEEP_PRIMES = (3, 5, 7, 11, 13)
SWEEP_MAX_N = 3

# The characteristic-0 cases of the selftest matrix with n <= 3.
SWEEP_CHAR0 = (
    ("QC:3", 2, "4"),
    ("QC:3", 1, "-1"),
    ("QC:4", 2, "16"),
    ("Q", 2, "2"),
    ("Q", 3, "4"),
    ("QR:5", 2, "16"),
    ("QE:3", 3, "16"),
    ("QR:3", 3, "16"),
    ("Q", 2, "-1"),
    ("QE:3", 2, "-1"),
    ("Q", 2, "-4"),
    ("Q", 3, "16"),
)

WORKLOADS = ("verify-deep", "construct-deep", "sweep-small")


def _sweep_instances() -> List[Instance]:
    out = [
        Instance(VERIFY, f"F:{q}", n, str(a))
        for q in SWEEP_PRIMES
        for n in range(SWEEP_MAX_N + 1)
        for a in range(1, q)
    ]
    out += [Instance(VERIFY, f, n, a) for f, n, a in SWEEP_CHAR0]
    return out


def _draw(rng: random.Random, command: str, slots) -> List[Instance]:
    return [Instance(command, s.field, s.n, rng.choice(s.members())) for s in slots]


def generate(workload: str, seed: int) -> List[Instance]:
    """The instances of one pass, drawn and ordered by ``seed``."""
    rng = random.Random(seed)
    if workload == "sweep-small":
        out = _sweep_instances()
    elif workload == "verify-deep":
        out = _draw(rng, VERIFY, DEEP_SLOTS)
    elif workload == "construct-deep":
        out = _draw(rng, CONSTRUCT, DEEP_SLOTS + CONSTRUCT_ONLY_SLOTS)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(out)
    return out


def every_instance() -> List[Instance]:
    """Every instance any seed can draw, for freezing the reference."""
    deep = [(s.field, s.n, a) for s in DEEP_SLOTS for a in s.members()]
    extra = [(s.field, s.n, a) for s in CONSTRUCT_ONLY_SLOTS for a in s.members()]
    out = [Instance(VERIFY, *t) for t in deep]
    out += [Instance(CONSTRUCT, *t) for t in deep + extra]
    out += _sweep_instances()
    return out


# ---------------------------------------------------------------------------
# checking one call
# ---------------------------------------------------------------------------

OK = "ok"
UNCERTIFIED = "uncertified"
REFUSED = "refused"
TIMEOUT = "timeout"
ERROR = "error"


class WrongAnswer(Exception):
    """The program answered, and the answer is wrong."""


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def labels(report: dict) -> List[List[int]]:
    """The sorted component labels of a ``verify --json`` report."""
    return sorted(item["label"] for item in report["structural"]["items"])


def check(inst: Instance, code: int, stdout: str, ref: dict) -> str:
    """Classify one finished call as OK, UNCERTIFIED or REFUSED, or raise
    WrongAnswer.  ``ref`` is the loaded reference file."""
    if code == 2:
        return REFUSED
    dims: Optional[List[int]] = ref["dims"].get(inst.key)
    if dims is None:
        raise WrongAnswer(f"{inst.key}: no reference answer")
    if inst.command == CONSTRUCT:
        if code != 0:
            raise WrongAnswer(f"{inst.key}: exit {code} from an unchecked build")
        if sha256(stdout) != ref["construct_sha256"][inst.key]:
            raise WrongAnswer(f"{inst.key}: output differs from the pinned bytes")
        return OK
    return _check_verify(inst, code, stdout, dims, ref)


def _check_verify(
    inst: Instance, code: int, stdout: str, dims: List[int], ref: dict
) -> str:
    try:
        out = json.loads(stdout)
        structural = out["structural"]
        failures = structural["failures"]
        uncertified = structural["uncertified"]
        items = structural["items"]
        got_labels = labels(out)
        dim_total = structural["dim_total"]
        verdict = out["pass"]
    except (ValueError, KeyError, TypeError) as err:
        raise WrongAnswer(f"{inst.key}: unreadable verify output ({err!r})") from None
    problems = []
    if failures:
        problems.append(f"structural failures {failures}")
    if dim_total != 1 << inst.n or dim_total != sum(dims):
        problems.append(f"dim_total {dim_total}, expected {1 << inst.n}")
    if len(items) != len(dims):
        problems.append(f"{len(items)} components, expected {len(dims)}")
    elif got_labels != ref["labels"][inst.key]:
        problems.append(f"component labels {got_labels} differ from the frozen ones")
    for oracle, want in ref["oracles"][inst.key].items():
        got = out.get(oracle)
        if got == "mismatch" or (want == "pass" and got != "pass"):
            problems.append(f"{oracle}: {got!r}, expected {want!r}")
    if verdict != (code == 0) or code not in (0, 1):
        problems.append(f"exit {code} disagrees with pass={verdict!r}")
    elif code == 1 and not uncertified:
        problems.append("failed with every component certified")
    if problems:
        raise WrongAnswer(f"{inst.key}: " + "; ".join(problems))
    return OK if code == 0 else UNCERTIFIED
