"""Field-spec and element-literal parsing and printing."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import algebra_elements, kernel_specs
from test_builder import ambient_spec
from test_golden_cli import golden_instances

from cyclotwist.algebra import AlgebraSpec
from cyclotwist.builder import build
from cyclotwist.fields import (
    IDENTITY,
    INVERSE_CONJ,
    NEGATED_INVERSE_CONJ,
    FieldDescriptor,
)
from cyclotwist.grammar import (
    format_coeffs,
    format_element,
    format_field,
    parse_element,
    parse_field,
    parse_int,
)

CANONICAL = ["Q", "QC:2", "QC:3", "QC:4", "QR:3", "QR:5", "QE:3", "QE:4",
             "F:3", "F:5", "F:7", "F:13"]


@pytest.mark.parametrize("spec", CANONICAL)
def test_parse_print_roundtrip(spec):
    K = parse_field(spec)
    assert format_field(K) == spec
    assert parse_field(format_field(K)) == K


def test_qr2_is_a_synonym_for_q():
    assert parse_field("QR:2") == parse_field("Q")
    assert format_field(parse_field("QR:2")) == "Q"


def test_finite_presentations():
    # F:q is F_q itself when q = 1 (mod 4), else Frobenius on F_q[i],
    # which is inverse_conj at level 2 mod q
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 65537, 2**61 - 1):
        K = parse_field(f"F:{q}")
        want = (IDENTITY, 1, q) if q % 4 == 1 else (INVERSE_CONJ, 2, q)
        assert (K.involution, K.level, K.q) == want
        assert parse_field(format_field(K)) == K


@pytest.mark.parametrize(
    "spec, want",
    [
        ("Q", (INVERSE_CONJ, 2, 0)),
        ("QC:2", (IDENTITY, 2, 0)),
        ("QC:16", (IDENTITY, 16, 0)),
        ("QR:3", (INVERSE_CONJ, 3, 0)),
        ("QR:16", (INVERSE_CONJ, 16, 0)),
        ("QE:3", (NEGATED_INVERSE_CONJ, 3, 0)),
        ("QE:16", (NEGATED_INVERSE_CONJ, 16, 0)),
    ],
)
def test_cyclotomic_presentations(spec, want):
    K = parse_field(spec)
    assert (K.involution, K.level, K.q) == want
    assert format_field(K) == spec


@pytest.mark.parametrize(
    "bad, message",
    [
        ("QC:1", "level must be >= 2"),
        ("QR:1", "level must be >= 2"),
        ("QE:2", "level must be >= 3"),
        ("QE:x", "not an integer"),
        ("F:9", "odd prime"),
        ("F:2", "odd prime"),
        ("F:0", "odd prime"),
        ("F:-7", "odd prime"),
        ("F:", "not an integer"),
        ("R", "unknown field spec"),
        ("QQ:4", "unknown field spec"),
    ],
)
def test_rejected_specs_name_the_constraint(bad, message):
    with pytest.raises(ValueError, match=message):
        parse_field(bad)


@pytest.mark.parametrize(
    "text, value",
    [
        ("0_2", None),
        ("1_000", None),
        ("\u0662", None),  # ARABIC-INDIC DIGIT TWO, which int reads as 2
        ("1\u0663", None),
        ("", None),
        ("1e3", None),
        ("1.0", None),
        ("+3", 3),
        ("-0", 0),
        (" 12 ", 12),
        ("-4", -4),
    ],
)
def test_integers_are_read_by_one_ascii_grammar(text, value):
    # the grammar of a coordinate over F_q, whatever int reads
    if value is not None:
        assert parse_int(text) == value
        return
    with pytest.raises(ValueError, match=f"^{re.escape(f'invalid int value: {text!r}')}$"):
        parse_int(text)


@pytest.mark.parametrize(
    "spec, what",
    [
        ("F:1_3", "modulus '1_3'"),
        ("F:\u0661\u0663", "modulus '\u0661\u0663'"),
        ("QC:\u0663", "level '\u0663'"),
        ("QR:0_3", "level '0_3'"),
        ("QE:\u0663", "level '\u0663'"),
    ],
)
def test_a_spec_reads_its_integer_in_the_ascii_grammar(spec, what):
    message = f"bad field spec {spec!r}: {what} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_field(spec)


def test_nameless_descriptors_are_refused():
    # level-1 cyclotomic and finite presentations outside the grammar
    # have no canonical spelling
    for K in (
        FieldDescriptor(IDENTITY, 1),
        FieldDescriptor(IDENTITY, 2, 7),
        FieldDescriptor(IDENTITY, 1, 7),
    ):
        with pytest.raises(ValueError, match="no spec string"):
            format_field(K)


# -- element literals -----------------------------------------------------------


def test_scalar_and_vector_literals():
    Q = parse_field("Q")
    assert parse_element(Q, "-4") == Q.scalar(-4)
    assert parse_element(Q, "-4,0") == Q.scalar(-4)
    assert parse_element(Q, " 1/2 , -3 ") == Q.element((Fraction(1, 2), -3))
    F7 = parse_field("F:7")
    assert parse_element(F7, "12") == F7.scalar(5)


def test_format_element_is_shortest_faithful():
    Q = parse_field("Q")
    assert format_element(Q.scalar(-4)) == "-4"
    assert format_element(Q.element((Fraction(1, 2), 1))) == "1/2,1"


@pytest.mark.parametrize(
    "field, bad, message",
    [
        # the id names the field only where it is not Q (d = 2)
        pytest.param(field, bad, message, id=f"{bad}-{message}" if field == "Q" else None)
        for field, bad, message in [
            ("Q", "", "empty"),
            ("Q", "1,2,3", "expected 1 or 2"),
            ("Q", "x", "bad coordinate"),
            ("Q", "1/0", "bad coordinate"),
            ("Q", "1e3", "bad coordinate '1e3'"),
            ("Q", "2.5E1,0", "bad coordinate '2.5E1'"),
            ("F:5", "1,0", "expected 1 coordinate, got 2$"),
        ]
    ],
)
def test_rejected_literals(field, bad, message):
    with pytest.raises(ValueError, match=message):
        parse_element(parse_field(field), bad)


@pytest.mark.parametrize(
    "token, value",
    [
        ("1_000", None),
        ("1 / 2", None),
        ("\u0661", None),  # ARABIC-INDIC DIGIT ONE, which int and Fraction read as 1
        ("1e3", None),
        ("+3", Fraction(3)),
        (".5", Fraction(1, 2)),
        ("5.", Fraction(5)),
        ("-3/2", Fraction(-3, 2)),
    ],
)
def test_coordinates_are_read_by_one_ascii_grammar(token, value):
    # int and Fraction read more than the grammar, and differently on
    # each Python: 1_000 from 3.11 on, "1 / 2" on 3.12 alone
    Q = parse_field("Q")
    if value is not None:
        assert parse_element(Q, token) == Q.scalar(value)
        return
    for field, expected in (("Q", "a rational like -3/2"), ("F:5", "an integer")):
        message = f"bad coordinate {token!r}: expected {expected}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_element(parse_field(field), token)


def test_finite_literals_are_integers_only():
    F5 = parse_field("F:5")
    with pytest.raises(ValueError, match="an integer"):
        parse_element(F5, "1/2")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CANONICAL),
    st.lists(
        st.fractions(min_value=-30, max_value=30, max_denominator=12),
        min_size=1,
        max_size=8,
    ),
)
def test_literal_roundtrip_property(spec, coords):
    K = parse_field(spec)
    if K.q:
        coords = [int(c) % K.q for c in coords]
    if len(coords) != 1:
        coords = (coords * K.ambient_dim)[: K.ambient_dim]
    x = K.scalar(coords[0]) if len(coords) == 1 else K.element(coords)
    assert parse_element(K, format_element(x)) == x


# -- coefficient literals straight from the flat integers ---------------------


@pytest.mark.parametrize("field_spec, n, a", golden_instances())
def test_format_coeffs_matches_format_element_on_golden_items(field_spec, n, a):
    K = parse_field(field_spec)
    family = build(AlgebraSpec(int(n), parse_element(K, a)))
    for fam in (family, build(ambient_spec(family.spec))):
        for e in fam.elements():
            want = [format_element(c) for c in e.coeffs]
            assert format_coeffs(e.ints, e.den, e.spec.field.ambient_dim) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_format_coeffs_matches_format_element_on_flat_tuples(data):
    d = data.draw(st.sampled_from([1, 2, 4, 8]))
    K = FieldDescriptor(IDENTITY, d.bit_length())
    den = data.draw(st.integers(min_value=2, max_value=720))
    coord = st.one_of(st.just(0), st.integers(min_value=-2000, max_value=2000))
    run = st.one_of(
        st.lists(coord, min_size=d, max_size=d),
        coord.map(lambda v: [v] + [0] * (d - 1)),  # a scalar run
    )
    runs = data.draw(st.lists(run, min_size=1, max_size=6))
    ints = tuple(v for r in runs for v in r)
    want = [format_element(K.element([Fraction(v, den) for v in r])) for r in runs]
    assert format_coeffs(ints, den, d) == want
    # independently: each coordinate as its Fraction prints, a zero tail dropped
    assert want == [
        ",".join(str(Fraction(v, den)) for v in (r if any(r[1:]) else r[:1]))
        for r in runs
    ]
    assert format_coeffs(ints, 1, d) == [
        format_element(K.element(r)) for r in runs
    ]


# signed integers and fractions joined by ",": what `idempotents --json`
# writes between quotes without escaping
COEFF_TOKEN = re.compile(r"-?[0-9]+(/[0-9]+)?(,-?[0-9]+(/[0-9]+)?)*")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coeff_tokens_need_no_json_escaping(data):
    spec = data.draw(kernel_specs())
    d = spec.field.ambient_dim
    e = data.draw(algebra_elements(spec))
    # and raw numerators of either sign over a denominator > 1
    size = len(e.ints)
    numerator = st.integers(-(10**30), 10**30)
    ints = data.draw(st.lists(numerator, min_size=size, max_size=size))
    den = data.draw(st.integers(min_value=2, max_value=10**30))
    for flat, over in ((e.ints, e.den), (ints, den)):
        for token in format_coeffs(flat, over, d):
            assert COEFF_TOKEN.fullmatch(token), token
