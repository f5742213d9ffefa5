"""Command-line interface.

Four subcommands::

    cyclotwist classify FIELD [--n N] [--json]
    cyclotwist idempotents FIELD N A [--json] [--verify | --unchecked]
    cyclotwist verify FIELD N A [--max-enum M] [--json]
    cyclotwist selftest [--max-enum M]

FIELD uses the spec grammar (Q, QC:L, QR:L, QE:L, F:q) and A is an
element literal (comma-separated exact coordinates).  Element literals
that begin with ``-`` but are not plain integers must follow a ``--``
separator, e.g. ``cyclotwist idempotents QE:3 2 -- -1/2,1,0,1`` for
a = -1/2 + sqrt(-2).

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All output is deterministic: identical invocations produce identical
bytes.  JSON output keeps a stable key order and serializes every
number as an exact string — never a float.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .algebra import AlgebraSpec
from .builder import IdempotentFamily, ambient_family, build
from .classify import classify
from .fields import IDENTITY, FINITE
from .grammar import format_element, format_field, parse_element, parse_field
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    EnumerationBudgetError,
    VerificationError,
    conjugate_pairing_check,
    cross_check,
    verify_family,
)

__all__ = ["main"]


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _label_str(label: tuple) -> str:
    return "e[" + ",".join(str(i) for i in label) + "]"


def _classification_dict(cls) -> dict:
    return {"type": cls.field_type, "m": cls.m, "emulates": cls.emulates}


def _family_dict(family: IdempotentFamily, verification: Optional[dict]) -> dict:
    spec = family.spec
    dec = family.decomposition
    return {
        "field": format_field(spec.field),
        "classification": _classification_dict(family.classification),
        "n": spec.n,
        "a": format_element(spec.a),
        "s": dec.s,
        "coset": {"form": dec.form, "b": format_element(dec.b)},
        "idempotents": [
            {
                "label": list(it.label),
                "coeffs": [format_element(c) for c in it.element.coeffs],
                "dim": it.dim,
                "min_poly": {
                    "coeffs": [format_element(c) for c in it.min_poly.coeffs]
                },
            }
            for it in family.items
        ],
        "verification": verification,
    }


def _print_family_text(family: IdempotentFamily) -> None:
    spec = family.spec
    cls = family.classification
    dec = family.decomposition
    print(f"field: {format_field(spec.field)}")
    emu = f", emulates {cls.emulates}" if cls.emulates else ""
    print(f"type: {cls.field_type} (m={cls.m}{emu})")
    print(f"n: {spec.n}")
    print(f"a: {format_element(spec.a)}")
    print(f"s: {dec.s}")
    print(f"coset: {dec.form}, b = {format_element(dec.b)}")
    print(f"idempotents ({len(family.items)}):")
    for it in family.items:
        print(f"  {_label_str(it.label)}: dim {it.dim}, min poly {it.min_poly}")
        coeffs = ", ".join(
            f"({format_element(c)})" if not c.is_scalar() else format_element(c)
            for c in it.element.coeffs
        )
        print(f"    coeffs: {coeffs}")


def _cmd_classify(args) -> int:
    K = parse_field(args.field)
    cls = classify(K, args.n)
    if args.json:
        _print_json(
            {
                "field": format_field(K),
                "classification": _classification_dict(cls),
                "n": args.n,
            }
        )
        return 0
    print(f"field: {format_field(K)}")
    print(f"type: {cls.field_type}")
    print(f"m: {cls.m}")
    if args.n is not None:
        print(f"emulates: {cls.emulates}")
    return 0


def _spec_from_args(args) -> AlgebraSpec:
    K = parse_field(args.field)
    return AlgebraSpec(K, args.n, parse_element(K, args.a))


def _cmd_idempotents(args) -> int:
    spec = _spec_from_args(args)
    family = build(spec, checked=not args.unchecked)
    verification = None
    if args.verify:
        verification = family.report.as_dict()
    if args.json:
        _print_json(_family_dict(family, verification))
    else:
        _print_family_text(family)
        if args.verify:
            print(f"verification: {family.report.headline()}")
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    family = build(spec, checked=False)
    ambient = ambient_family(family)
    report = verify_family(family, ambient)

    if spec.field.kind != FINITE:
        enumeration = "skipped: enumeration needs a finite field"
    else:
        try:
            enumeration = (
                "pass" if cross_check(family, args.max_enum) else "mismatch"
            )
        except EnumerationBudgetError as err:
            enumeration = f"skipped: {err}"

    if spec.field.involution == IDENTITY:
        pairing = "skipped: trivial involution"
    else:
        pairing = "pass" if conjugate_pairing_check(family, ambient) else "mismatch"

    passed = report.ok and "mismatch" not in (enumeration, pairing)
    if args.json:
        _print_json(
            {
                "field": format_field(spec.field),
                "n": spec.n,
                "a": format_element(spec.a),
                "structural": report.as_dict(),
                "enumeration": enumeration,
                "pairing": pairing,
                "pass": passed,
            }
        )
    else:
        print(f"structural: {report.headline()}")
        print(f"enumeration: {enumeration}")
        print(f"pairing: {pairing}")
        print("overall: " + ("PASS" if passed else "FAIL"))
    return 0 if passed else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(max_enum=args.max_enum)


def _budget(text: str) -> int:
    """A nonnegative enumeration budget."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotwist",
        description="minimal idempotents of twisted cyclic 2-group algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="field type, m, and emulation")
    p.add_argument("field", help="field spec (Q, QC:L, QR:L, QE:L, F:q)")
    p.add_argument("--n", type=int, default=None, help="algebra exponent")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("idempotents", help="construct the idempotent family")
    p.add_argument("field", help="field spec")
    p.add_argument("n", type=int)
    p.add_argument("a", help="element literal")
    p.add_argument("--json", action="store_true")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--verify", action="store_true", help="attach the verification report"
    )
    group.add_argument(
        "--unchecked",
        action="store_true",
        help="skip verification",
    )
    p.set_defaults(handler=_cmd_idempotents)

    p = sub.add_parser("verify", help="run every applicable oracle")
    p.add_argument("field", help="field spec")
    p.add_argument("n", type=int)
    p.add_argument("a", help="element literal")
    p.add_argument("--max-enum", type=_budget, default=DEFAULT_ENUM_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in verification criteria")
    p.add_argument("--max-enum", type=_budget, default=DEFAULT_ENUM_BUDGET)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except VerificationError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
