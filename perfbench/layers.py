"""Per-layer tracing from outside the program.

The program's layers call one another through module-level names
(``from .builder import build`` binds ``cli.build``, and so on).  A
traced run re-binds those names to wrappers that record spans and
counts, and restores them afterwards.  Nothing in the package is edited,
so an untraced run executes exactly the code users run.

A span's self time is its duration minus the time of the spans it
directly encloses.  Names that are only counted (ambient
multiplication, power tests, square roots) are called millions of times
and get a counter without timing, to keep the overhead down.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# span name -> binding sites (module, attribute)
SPANS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli.main": (("cli", "main"),),
    "grammar.parse": (("cli", "parse_field"), ("cli", "parse_element")),
    "grammar.format": (("cli", "format_element"), ("cli", "format_field")),
    "classify.classify": (("builder", "classify"), ("cli", "classify")),
    "classify.h_n": (("builder", "h_n"),),
    "classify.ks_decompose": (("builder", "ks_decompose"),),
    "builder.build": (("cli", "build"), ("builder", "build")),
    "builder.construct": tuple(
        ("builder", f)
        for f in (
            "thm2_case1",
            "thm2_case2",
            "thm3_case2",
            "thm3_case3",
            "thm3_case4",
            "thm3_case5",
        )
    ),
    "algebra.mul": (("algebra", "alg_mul"),),
    "algebra.min_poly": (("builder", "min_poly_in_component"),),
    "algebra.certify": (("oracle", "certify_irreducible"),),
    "oracle.verify_family": (("cli", "verify_family"), ("oracle", "verify_family")),
    "oracle.cross_check": (("cli", "cross_check"),),
    "oracle.enumerate": (("oracle", "brute_enumerate_minimal"),),
    "oracle.pairing": (("cli", "conjugate_pairing_check"),),
    "kernel.atoms": (("_kernel", "atoms"),),
}

# counter name -> binding sites; a class attribute is "module:Class"
COUNTERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "fields.power_test": (
        ("classify", "kth_power_test_branching"),
        ("algebra", "kth_power_test_branching"),
    ),
    "fields.sqrt": (("fields", "sqrt_ambient"), ("classify", "sqrt_ambient")),
    "fields.ambient_mul": (
        ("fields:AmbientElement", "__mul__"),
        ("fields:AmbientElement", "__rmul__"),
    ),
}

# Counts that repeat exactly on every traced pass of one seed.
COUNTS = (
    "algebra.mul_calls",
    "fields.ambient_mul_calls",
    "builder.build_calls",
    "fields.power_test_calls",
    "fields.sqrt_calls",
    "oracle.uncertified",
    "oracle.enum_vectors",
)


class Tracer:
    """Aggregated spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._active: Counter = Counter()
        self._child: List[float] = []  # time of enclosed spans, per open span

    def span(
        self, name: str, fn: Callable, on_result: Optional[Callable] = None
    ) -> Callable:
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._active[name] += 1
            self._child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self.self_time[name] += dt - self._child.pop()
                self._active[name] -= 1
                if not self._active[name]:  # count a recursive span once
                    self.total[name] += dt
                if self._child:
                    self._child[-1] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks that read results ----------------------------------------

    def _certified(self, args, result) -> None:
        if result is None:
            self.calls["oracle.uncertified"] += 1

    def _enumerated(self, args, result) -> None:
        spec = args[0]
        self.calls["oracle.enum_vectors"] += spec.field.q**spec.size
        self.calls["oracle.enum_atoms"] += len(result)

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric of this pass, as name -> (value, unit)."""
        out: Dict[str, Tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}_s"] = (self.total[name], "s")
            out[f"{name}_self_s"] = (self.self_time[name], "s")
        c = self.calls
        out["algebra.mul_calls"] = (c["algebra.mul"], "count")
        out["fields.ambient_mul_calls"] = (c["fields.ambient_mul"], "count")
        out["builder.build_calls"] = (c["builder.build"], "count")
        out["fields.power_test_calls"] = (c["fields.power_test"], "count")
        out["fields.sqrt_calls"] = (c["fields.sqrt"], "count")
        out["oracle.uncertified"] = (c["oracle.uncertified"], "count")
        # q^(2^n) per enumeration run: computed from the instance, not
        # counted inside the kernel
        out["oracle.enum_vectors"] = (c["oracle.enum_vectors"], "computed")
        vectors = c["oracle.enum_vectors"]
        out["oracle.enum_yield"] = (
            c["oracle.enum_atoms"] / vectors if vectors else 0.0,
            "ratio",
        )
        return out


def _resolve(package: str, site: str):
    module, _, cls = site.partition(":")
    obj = importlib.import_module(f"{package}.{module}")
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer, package: str = "cyclotwist") -> Tuple[list, list]:
    """Re-bind every binding site that exists to a wrapper of ``tracer``.

    Returns (undo list for ``uninstall``, sites not found).  A site a
    later version of the program no longer has is skipped and reported,
    not an error, so the same benchmark keeps running across versions."""
    hooks = {
        "algebra.certify": tracer._certified,
        "oracle.enumerate": tracer._enumerated,
    }
    undo, missing = [], []
    plan = [(name, sites, True) for name, sites in SPANS.items()]
    plan += [(name, sites, False) for name, sites in COUNTERS.items()]
    for name, sites, timed in plan:
        for site, attr in sites:
            try:
                owner = _resolve(package, site)
            except (ImportError, AttributeError):
                missing.append(f"{site}.{attr}")
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{site}.{attr}")
                continue
            wrapped = (
                tracer.span(name, fn, hooks.get(name))
                if timed
                else tracer.counter(name, fn)
            )
            undo.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)
