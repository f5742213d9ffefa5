"""Command-line interface.

Four subcommands::

    cyclotwist classify FIELD [--n N] [--json]
    cyclotwist idempotents FIELD N A [--json] [--verify | --unchecked]
    cyclotwist verify FIELD N A [--max-enum M] [--json]
    cyclotwist selftest [--max-enum M]

FIELD uses the spec grammar (Q, QC:L, QR:L, QE:L, F:q) and A is an
element literal (comma-separated exact coordinates).  N, M, the value
of ``--n`` and a spec's level and modulus are integers in one ASCII
grammar, a sign and digits (``grammar.parse_int``).  An element literal
that begins with ``-`` must follow a ``--`` separator unless it is a
negative integer or decimal (``-4``, ``-1.5``, ``-.5``), e.g.
``cyclotwist idempotents QE:3 2 -- -1/2,1,0,1`` for a = -1/2 + sqrt(-2).
The subcommands are declared once, in ``COMMANDS``: a plain call, each
token an exact option, its value or a positional, is read straight off
it (``_plain_args``), and argparse, built from it, parses every other
call and writes all usage, help and error text.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
141 (128 + SIGPIPE) when the reader closes stdout early, as
``| head`` does; nothing is then written to stderr.
All output is deterministic: identical invocations produce identical
bytes.  JSON output keeps a stable key order and serializes every
number as an exact string — never a float.  Its bytes are those of
``json.dumps(obj, indent=2)``: ``_json_text`` writes them for any
object, ``idempotents --json`` writes each item's text directly, one
join per coefficient list (``_item_json``), and the verification report
of ``verify --json`` and ``idempotents --verify --json`` is written by
``_report_json``, one template per item check.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .algebra import AlgebraSpec
from .builder import IdempotentFamily, ambient_constants, build, core_family
from .classify import classify, emulates
from .fields import IDENTITY, FieldDescriptor
from .grammar import (
    format_coeffs,
    format_element,
    format_field,
    format_label,
    parse_element,
    parse_field,
    parse_int,
)
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    FLAG_FAILURES,
    EnumerationBudgetError,
    VerificationError,
    VerificationReport,
    conjugate_pairing_check,
    cross_check,
    verified,
    verify_core,
    verify_family,
)

__all__ = ["main"]


# the text of each leaf type, written inside a container with no recursion
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_text(obj, pad: str) -> str:
    """The JSON text of ``obj`` with 2-space indent and the separators
    "," and ": "; ``pad`` is a newline plus the indent of its line."""
    if isinstance(obj, dict):
        ends, values = "{}", obj.values()
        heads = [encode_basestring_ascii(k) + ": " for k in obj]
    elif isinstance(obj, list):
        ends, heads, values = "[]", repeat(""), obj
    elif type(obj) in _JSON_LEAVES:
        return _JSON_LEAVES[type(obj)](obj)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return ends
    inner = pad + "  "
    parts = []
    for head, v in zip(heads, values):
        leaf = _JSON_LEAVES.get(type(v))
        parts.append(head + (leaf(v) if leaf else _json_text(v, inner)))
    return ends[0] + inner + ("," + inner).join(parts) + pad + ends[1]


# one item check at its place in either report: the label's elements
# and then each flag, in ``ItemCheck``'s field order
_ITEM_CHECK_JSON = (
    '{{\n        "label": [\n          {}\n        ]'
    + "".join(f',\n        "{name}": {{}}' for name in FLAG_FAILURES)
    + "\n      }}"
)
_JSON_BOOL = {True: "true", False: "false"}.__getitem__


def _report_json(report: VerificationReport) -> str:
    """The JSON text of ``report`` at its place in either document, a
    value of the top object, as ``json.dumps(obj, indent=2)`` writes it:
    the keys pass, sound, orthogonal, sum_is_one, dim_total,
    expected_dim, failures, uncertified and items, each item check one
    template filled with its label and its flags.  A label is a nonempty
    tuple of ints, which need no escaping.  The format keeps "sound"
    (always equal to "pass") and "uncertified" (always empty): every
    verdict is definite.  "orthogonal" is implied by the other checks,
    not multiplied out (``oracle.verify_family``)."""
    items = [
        _ITEM_CHECK_JSON.format(
            ",\n          ".join(map(str, c.label)), *map(_JSON_BOOL, c[1:])
        )
        for c in report.item_checks
    ]
    items = "[\n      " + ",\n      ".join(items) + "\n    ]" if items else "[]"
    ok = _JSON_BOOL(report.ok)
    failures = _json_text(list(report.failures), "\n    ")
    return (
        f'{{\n    "pass": {ok},\n    "sound": {ok},'
        f'\n    "orthogonal": {_JSON_BOOL(report.orthogonal)},'
        f'\n    "sum_is_one": {_JSON_BOOL(report.sum_is_one)},'
        f'\n    "dim_total": {report.dim_total},'
        f'\n    "expected_dim": {report.expected_dim},'
        f'\n    "failures": {failures},\n    "uncertified": [],'
        f'\n    "items": {items}\n  }}'
    )


def _classification_dict(cls, n: Optional[int]) -> dict:
    """The ``classification`` object; "emulates" is null without n."""
    emu = None if n is None else emulates(cls, n)
    return {"type": cls.field_type, "m": cls.m, "emulates": emu}


def _coeff_literals(e) -> list:
    """One literal per coefficient of the algebra element ``e``."""
    return format_coeffs(e.ints, e.den, e.spec.field.ambient_dim)


def _poly_literals(p) -> list:
    """One literal per coefficient of the polynomial ``p``, dense, low
    degree first: "0" where ``p`` states no term."""
    out = ["0"] * (p.degree + 1)
    for k, c in p.terms:
        out[k] = format_element(c)
    return out


def _item_json(it, e) -> str:
    """The text of item ``it`` of element ``e`` in ``idempotents --json``,
    at its place in ``json.dumps(obj, indent=2)``: each list is one join.
    The label, ``format_coeffs`` and ``_poly_literals`` tokens are made
    of ``str(int)``, "/" and "," alone, so none needs JSON escaping."""
    label = ",\n        ".join(map(str, it.label))
    coeffs = '",\n        "'.join(_coeff_literals(e))
    p = it.min_poly  # deg p = dim
    poly = '",\n          "'.join(_poly_literals(p))
    return (
        f'{{\n      "label": [\n        {label}\n      ],'
        f'\n      "coeffs": [\n        "{coeffs}"\n      ],'
        f'\n      "dim": {p.degree},'
        f'\n      "min_poly": {{\n        "coeffs": [\n          "{poly}"'
        "\n        ]\n      }\n    }"
    )


def _print_family_json(family: IdempotentFamily, elements, report) -> None:
    """Print the family and its ``elements`` as ``print(json.dumps(obj,
    indent=2))`` would, with ``obj`` the keys field, classification, n, a,
    s, coset, idempotents and verification, ``report`` or null for no
    ``report``.  The header goes through ``_json_text``, the
    report through ``_report_json``, and the items, which hold nearly all
    the bytes, through ``_item_json``, each as its element comes."""
    spec = family.spec
    dec = family.decomposition
    header = {
        "field": format_field(spec.field),
        "classification": _classification_dict(classify(spec.field), spec.n),
        "n": spec.n,
        "a": format_element(spec.a),
        "s": dec.s,
        "coset": {"form": dec.form, "b": format_element(dec.b)},
    }
    # the header object without its closing "\n}", so the list follows it
    sep = _json_text(header, "\n")[:-2] + ',\n  "idempotents": [\n    '
    for it, e in zip(family.items, elements, strict=True):
        print(sep + _item_json(it, e), end="")
        sep = ",\n    "
    tail = "null" if report is None else _report_json(report)
    print(f'\n  ],\n  "verification": {tail}\n}}')


def _print_family_text(family: IdempotentFamily, elements) -> None:
    spec = family.spec
    cls = classify(spec.field)
    dec = family.decomposition
    print(f"field: {format_field(spec.field)}")
    print(f"type: {cls.field_type} (m={cls.m}, emulates {emulates(cls, spec.n)})")
    print(f"n: {spec.n}")
    print(f"a: {format_element(spec.a)}")
    print(f"s: {dec.s}")
    print(f"coset: {dec.form}, b = {format_element(dec.b)}")
    print(f"idempotents ({len(family.items)}):")
    for it, e in zip(family.items, elements, strict=True):
        p = it.min_poly  # deg p = dim
        print(f"  {format_label(it.label)}: dim {p.degree}, min poly {p}")
        # a literal with a comma is a non-scalar coefficient
        coeffs = ", ".join([f"({t})" if "," in t else t for t in _coeff_literals(e)])
        print(f"    coeffs: {coeffs}")


def _cmd_classify(args) -> int:
    K = parse_field(args.field)
    classification = _classification_dict(classify(K), args.n)
    if args.json:
        obj = {"field": format_field(K), "classification": classification, "n": args.n}
        print(_json_text(obj, "\n"))
        return 0
    print(f"field: {format_field(K)}")
    print(f"type: {classification['type']}")
    print(f"m: {classification['m']}")
    if args.n is not None:
        print(f"emulates: {classification['emulates']}")
    return 0


def _spec_from_args(args) -> AlgebraSpec:
    return AlgebraSpec(args.n, parse_element(parse_field(args.field), args.a))


def _cmd_idempotents(args) -> int:
    spec = _spec_from_args(args)
    family = build(spec)  # refuses an oversized family
    elements = family.elements()
    if not args.unchecked:  # nothing is printed before the verdict
        elements = list(elements)
        report = verified(family, elements.__iter__)
    if args.json:
        _print_family_json(family, elements, report if args.verify else None)
    else:
        _print_family_text(family, elements)
        if args.verify:
            print(f"verification: {report.headline()}")
    return 0


@functools.lru_cache(maxsize=None)
def _certified_core(
    K: FieldDescriptor, form: str, s: int
) -> Tuple[IdempotentFamily, VerificationReport]:
    """The b-free core of (K, form, s) (``builder.core_family``) and
    ``verify_family``'s report on it, taken once per (K, form, s) in a
    process: neither holds an a or an n."""
    core = core_family(K, form, s)
    return core, verify_family(core, core.elements)


def _certified(family: IdempotentFamily) -> VerificationReport:
    """``family``'s report, certified through its b-free core
    (``oracle.verify_core``) at every depth: at s < n with each item's
    polynomial certified irreducible at n, at s = n with the core's
    verdicts, as x -> x/b carries each core polynomial to the family's."""
    dec = family.decomposition
    return verify_core(family, *_certified_core(family.spec.field, dec.form, dec.s))


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    family = build(spec)
    report = _certified(family)

    if not spec.field.q:
        enumeration = "skipped: enumeration needs a finite field"
    else:
        try:
            verdict = cross_check(family, family.elements, args.max_enum)
            enumeration = "pass" if verdict else "mismatch"
        except EnumerationBudgetError as err:
            enumeration = f"skipped: {err}"

    if spec.field.involution == IDENTITY:
        pairing = "skipped: trivial involution"
    else:
        paired = conjugate_pairing_check(family, ambient_constants(family))
        pairing = "pass" if paired else "mismatch"

    passed = report.ok and "mismatch" not in (enumeration, pairing)
    if args.json:
        # the keys field, n, a, structural, enumeration, pairing and pass
        head = {"field": format_field(spec.field), "n": spec.n, "a": format_element(spec.a)}
        tail = {"enumeration": enumeration, "pairing": pairing, "pass": passed}
        print(
            _json_text(head, "\n")[:-2]
            + f',\n  "structural": {_report_json(report)},'
            + _json_text(tail, "\n")[1:]
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


def _integer(text: str) -> int:
    """An integer of the command line, read by ``grammar.parse_int``;
    argparse writes its refusal as it writes one of ``type=int``."""
    try:
        return parse_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _budget(text: str) -> int:
    """A nonnegative enumeration budget."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


class Command(NamedTuple):
    """A subcommand: help, handler, arguments, exclusive group."""

    help: str
    handler: Callable[[argparse.Namespace], int]
    arguments: Dict[str, dict]
    exclusive: Tuple[str, ...] = ()


_SPEC = {"field": {"help": "field spec"}, "n": {"type": _integer}, "a": {"help": "element literal"}}
_FLAG = {"action": "store_true"}
_BUDGET = {"type": _budget, "default": DEFAULT_ENUM_BUDGET, "metavar": "M"}

# the command line, declared once, each argument by its name and its
# ``add_argument`` keywords: a positional, a store_true flag or an
# option of one value.  ``_build_parser`` builds argparse's parser from
# it, and ``_plain_args`` reads a plain call off it
COMMANDS = {
    "classify": Command(
        "field type, m, and emulation",
        _cmd_classify,
        {
            "field": {"help": "field spec (Q, QC:L, QR:L, QE:L, F:q)"},
            "--n": {"type": _integer, "default": None, "help": "algebra exponent"},
            "--json": _FLAG,
        },
    ),
    "idempotents": Command(
        "construct the idempotent family",
        _cmd_idempotents,
        {
            **_SPEC,
            "--json": _FLAG,
            "--verify": {**_FLAG, "help": "attach the verification report"},
            "--unchecked": {**_FLAG, "help": "skip verification"},
        },
        exclusive=("--verify", "--unchecked"),
    ),
    "verify": Command(
        "run every applicable oracle",
        _cmd_verify,
        {
            **_SPEC,
            "--max-enum": {
                **_BUDGET,
                "help": "over F_q, skip the Frobenius certificate when its work, 2^n "
                "coefficients times the number of items, exceeds M (default %(default)s)",
            },
            "--json": _FLAG,
        },
    ),
    "selftest": Command(
        "run the built-in verification criteria",
        _cmd_selftest,
        {
            "--max-enum": {
                **_BUDGET,
                "help": "skip a brute-force ground-truth instance when it has more than "
                "M coefficient vectors, q^(2^n) (default %(default)s)",
            },
        },
    ),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    about = "minimal idempotents of twisted cyclic 2-group algebras"
    parser = argparse.ArgumentParser(prog="cyclotwist", description=about)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        group = p.add_mutually_exclusive_group() if command.exclusive else p
        for arg, keywords in command.arguments.items():
            (group if arg in command.exclusive else p).add_argument(arg, **keywords)
    return parser


def _grammar(name: str, command: Command):
    """(dest, type) of each positional of ``command``, in order, and of
    each option, type None for a flag; the namespace of a call that
    names no option; its exclusive options.  A dest is argparse's."""
    positionals, options, defaults = [], {}, {"command": name}
    for arg, keywords in command.arguments.items():
        convert = keywords.get("type", str)
        if arg[:1] != "-":
            positionals.append((arg, convert))
            continue
        dest, flag = arg[2:].replace("-", "_"), keywords.get("action") == "store_true"
        defaults[dest] = False if flag else keywords.get("default")
        options[arg] = dest, None if flag else convert
    return positionals, options, defaults, frozenset(command.exclusive)


_GRAMMARS = {name: _grammar(name, command) for name, command in COMMANDS.items()}
# argparse's negative number, a positional while no option looks like
# one (a test pins that none does), in ASCII digits on every Python
_NEGATIVE_NUMBER = re.compile(r"-[0-9]+|-[0-9]*\.[0-9]+")


def _plain_args(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The namespace ``_build_parser().parse_args(argv)`` returns when
    the call is plain: a subcommand, then each token an exact option of
    it, that option's value, or a positional (a token that does not start
    with "-", or a negative number).  Otherwise None, and argparse parses
    the call: -h or --, an abbreviation or --opt=value, a missing value
    or one that starts with "-", a failed conversion, the wrong number
    of positionals, two options of one exclusive group."""
    tokens = iter(argv)
    grammar = _GRAMMARS.get(next(tokens, ""))
    if grammar is None:
        return None
    positionals, options, defaults, exclusive = grammar
    args = argparse.Namespace()
    values = args.__dict__
    values.update(defaults)
    words, named = [], set()
    try:
        for token in tokens:
            if token in options:
                dest, convert = options[token]
                if convert is None:
                    values[dest] = True
                elif (text := next(tokens, "-"))[:1] == "-":
                    return None
                else:
                    values[dest] = convert(text)
                named.add(token)
            elif token[:1] != "-" or _NEGATIVE_NUMBER.fullmatch(token):
                words.append(token)
            else:
                return None
        if len(words) != len(positionals) or len(exclusive.intersection(named)) > 1:
            return None
        for (dest, convert), word in zip(positionals, words):
            values[dest] = convert(word)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    # exact coordinates may run past the interpreter's 4,300 digits for
    # int <-> str, both in a literal and in what is printed: the limit is
    # lifted for the call, and the caller's restored on every way out
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: Optional[Sequence[str]]) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command].handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to os.devnull, so
        # that the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except VerificationError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        # the job is too large for this machine, which is no verdict on
        # the family: exit 1 is kept for a verification failure
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
