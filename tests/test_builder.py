"""The closed-form construction: dispatch, completeness, and honest limits."""

import importlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotwist import builder, cli, fields
from cyclotwist.algebra import AlgebraSpec, Poly, lattice_step
from cyclotwist.builder import (
    _ambient,
    _char_sum,
    _expanded,
    _stated,
    build,
    core_family,
    thm3_case3,
    thm3_case4,
)
from cyclotwist.classify import (
    EPS_COSET,
    NEGATED,
    PLAIN,
    TYPE_B,
    classify,
    ks_decompose,
)
from cyclotwist.fields import (
    IDENTITY,
    FieldDescriptor,
    eps,
    sigma,
)
from cyclotwist.grammar import parse_element, parse_field
from cyclotwist.oracle import (
    DEFAULT_ENUM_BUDGET,
    certificate_work,
    certify_irreducible,
    verified,
    verify_family,
)
from mutants import index_variants
from test_golden_cli import golden_instances

# the module, which the package's ``classify`` function shadows
classify_module = importlib.import_module("cyclotwist.classify")

DEEP_A = "170459392,120532992,0,-120532992"  # (1 + eps_3)^32 over QR:3


def spec_of(field_spec, n, a_literal):
    K = parse_field(field_spec)
    return AlgebraSpec(n, parse_element(K, a_literal))


def ambient_spec(spec):
    """The same algebra over the ambient field A (interned, with the
    trivial involution); equal to ``spec`` when K = A.  Its ``build``
    is the ambient family, coefficients and all, which the tests compare
    the package's ambient-side results against."""
    return AlgebraSpec(spec.n, _ambient(spec.a))


def poly_of(coeffs):
    """The Poly with these coefficients, a sequence low degree first or
    a {degree: coefficient} dict: its nonzero terms."""
    pairs = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs)
    return Poly(tuple((k, c) for k, c in sorted(pairs) if c))


def decomposed(spec):
    dec = ks_decompose(spec.a, spec.n)
    return dec.s, dec


def items_of(spec, dec, blocks):
    """(item, element) of each item that a case function's ``blocks``
    state on dec.b."""
    family = _stated(spec, dec, blocks)
    return list(zip(family.items, family.elements()))


def item_blocks(blocks, K):
    """The items that a case function's ``blocks`` over K state on b = 1,
    each as a block of one item, so that a mutant acts on the expanded
    item stream: expanded on any b, they state the items ``blocks`` do."""
    return [(r, label, k, k, 1) for label, r, k in _expanded(blocks, K.one())]


def items_sum(spec, items):
    return sum((e for _, e in items), spec.zero())


def min_poly_reference(e):
    """Minimal polynomial of z = g*e over K inside the component
    e*K_t<g>, found by incremental Gaussian elimination on the powers
    e, z, z^2, ... over the ambient field: the first power that becomes
    linearly dependent yields the monic relation.  Since e is
    idempotent, z^k = g^k * e.  Refuses a relation outside K[x]."""
    spec = e.spec
    K = spec.field
    if e.is_zero() or e * e != e:
        raise ValueError("e must be a nonzero idempotent")
    zero, one = K.zero(), K.one()

    rows = []  # (pivot index, echelon vector, expression in powers of z)
    cur, g = e, spec.gbar()
    k = 0
    while True:
        vec = list(cur.coeffs)
        combo = [zero] * k + [one]
        for pivot, rvec, rcombo in rows:
            f = vec[pivot]
            if f.is_zero():
                continue
            vec = [v - f * r for v, r in zip(vec, rvec)]
            small = [f * c for c in rcombo] + [zero] * (len(combo) - len(rcombo))
            combo = [c - s for c, s in zip(combo, small)]
        if all(v.is_zero() for v in vec):
            poly = poly_of(combo)
            if not all(c.is_k_rational() for _, c in poly.terms):
                raise ValueError("g*e does not generate a K-rational component")
            return poly
        pivot = next(i for i, v in enumerate(vec) if not v.is_zero())
        inv = vec[pivot].inverse()
        vec = [inv * v for v in vec]
        combo = [inv * c for c in combo]
        rows.append((pivot, vec, combo))
        cur = g * cur
        k += 1
        assert k <= spec.size, "no linear relation within the algebra dimension"


# -- structure of built families ----------------------------------------------


def test_verified_returns_the_report_and_leaves_the_family_stated():
    family = build(spec_of("Q", 2, "-4"))
    report = verified(family, family.elements)
    assert report.ok and report == verify_family(family, family.elements)
    assert family == build(family.spec)
    assert [it.label for it in family.items] == [(0,), (1,)]
    assert sum(it.dim for it in family.items) == 4


@pytest.mark.parametrize(
    "field_spec, n, a",
    [
        ("QR:3", 4, "9232,6528,0,-6528"),
        ("Q", 3, "16"),
        ("QE:3", 3, "16"),
        ("F:7", 3, "1"),
    ],
)
def test_verified_builds_each_element_once(field_spec, n, a, monkeypatch):
    # types D and E: the certificate needs no family over A
    spec = spec_of(field_spec, n, a)
    assert classify(spec.field).field_type != TYPE_B
    family = build(spec)
    calls = []
    monkeypatch.setattr(builder, "build", lambda *args: calls.append(args))
    char_sums = Counter()

    def char_sum(*args):
        char_sums[args[1:3]] += 1
        return _char_sum(*args)

    monkeypatch.setattr(builder, "_char_sum", char_sum)
    assert verified(family, family.elements).ok
    assert calls == []
    # and each element once: a passing family takes one pass
    assert char_sums == Counter((it.S, it.k) for it in family.items)


@pytest.mark.parametrize(
    "field_spec, n, a, chains",
    [
        ("F:5", 2, "1", 1),  # s = 2 = L
        ("F:7", 5, "3", 1),  # s = 3 < L = 4 over F_49
        ("QC:2", 3, "6561", 2),  # s = 3 > L = 2
        ("QR:3", 4, "9232,6528,0,-6528", 2),  # s = 4 > L = 3
    ],
)
def test_build_runs_one_chain_of_square_roots(field_spec, n, a, chains, monkeypatch):
    # the depth and the witness come from one chain; a second, of length
    # L, only when s exceeds the root level
    spec = spec_of(field_spec, n, a)
    calls = []
    inner = fields.root_chain

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(fields, "root_chain", counted)
    monkeypatch.setattr(classify_module, "root_chain", counted)
    family = build(spec)
    assert (family.decomposition.s > spec.field.root_level) == (chains == 2)
    assert len(calls) == chains


def test_stated_family_has_no_report():
    family = build(spec_of("Q", 2, "-4"))
    assert not hasattr(family, "report")


def test_labels_single_and_double_indexed():
    family = build(spec_of("Q", 3, "16"))
    verified(family, family.elements)
    assert [it.label for it in family.items] == [(0,), (1,), (1, 0), (1, 1)]
    family = build(spec_of("F:5", 3, "1"))
    verified(family, family.elements)
    labels = [it.label for it in family.items]
    assert [l for l in labels if len(l) == 2] == [(1, 0), (1, 1)]


def test_every_dispatch_branch_is_reachable():
    fired = set()
    for field_spec, n, a in [
        ("F:5", 2, "1"),
        ("F:5", 3, "1"),
        ("Q", 2, "2"),
        ("F:3", 2, "1"),
        ("F:3", 3, "1"),
        ("Q", 2, "-1"),
        ("Q", 2, "-4"),
    ]:
        spec = spec_of(field_spec, n, a)
        cls = classify(spec.field)
        s, dec = decomposed(spec)
        if cls.field_type == TYPE_B:
            fired.add("split-shallow" if s <= cls.m else "split-deep")
        elif s == 0:
            fired.add("depth-0")
        elif dec.form == NEGATED:
            fired.add("negated")
        elif dec.form == EPS_COSET:
            fired.add("unit-coset")
        elif s <= cls.m - 1:
            fired.add("paired-shallow")
        else:
            fired.add("paired-deep")
    assert fired == {
        "split-shallow",
        "split-deep",
        "depth-0",
        "negated",
        "unit-coset",
        "paired-shallow",
        "paired-deep",
    }


@pytest.mark.parametrize(
    "field_spec, n, a",
    [
        ("F:5", 3, "1"),
        ("QR:3", 4, "9232,6528,0,-6528"),
        ("F:7", 5, "5"),  # F_q[i]
        ("QC:4", 6, "16"),  # d = 8
        ("Q", 3, "1"),
        ("Q", 3, "16"),  # a^-1 = 1/16
        ("Q", 3, "1/16"),  # k = +-2^(-2^r) makes D > 1
    ],
)
def test_char_sum_matches_dense_powers(field_spec, n, a):
    # item constants k = chi^-1 * alpha^(2^r) for alpha^(2^s) = a and
    # each 2^t-th root of unity chi, t = min(s - r, L), so that k^T = a,
    # alone and paired with sigma(k); r = s is the length T = 1
    spec = spec_of(field_spec, n, a)
    K = spec.field
    s, dec = decomposed(spec)
    ainv = spec.a.inverse()
    for r in range(s + 1):
        t = min(s - r, K.root_level)
        for i in range(1 << t):
            k = eps(K, t) ** i * dec.root ** (1 << r)
            assert k ** (1 << (s - r)) == spec.a
            S = spec.size >> (s - r)
            c = k.inverse()
            assert _char_sum(spec, S, k, False, ainv) == dense_char_sum(spec, s, r, [c])
            both = [c, sigma(c)]
            assert _char_sum(spec, S, k, True, ainv) == dense_char_sum(spec, s, r, both)


def dense_char_sum(spec, s, r, cs):
    """(1/T) * sum over c in cs of sum_{j<T} c^j * g^(jS), T = 2^(s-r),
    S = 2^(n-s+r), from the dense powers of each c and of g^S."""
    T = 1 << (s - r)
    gS = spec.gbar(1 << (spec.n - s + r))
    total = spec.zero()
    for c in cs:
        power = spec.one()
        for _ in range(T):
            total = total + power
            power = power * gS * c
    return total * spec.field.scalar(T).inverse()


@pytest.mark.parametrize(
    "field_spec, n, a",
    [
        ("F:5", 3, "1"),
        ("F:3", 3, "1"),
        ("F:7", 3, "5"),
        ("Q", 3, "16"),
        ("QC:3", 2, "4"),
        ("QE:3", 2, "-1"),
        ("QR:3", 4, "9232,6528,0,-6528"),
    ],
)
def test_items_carry_their_closed_form(field_spec, n, a):
    # each item is the character sum of c = k^-1 for its stated k on
    # the powers of g^S, with sigma(c)'s when k is not in K: what
    # pairing reads
    spec = spec_of(field_spec, n, a)
    K = spec.field
    family = build(spec)
    verified(family, family.elements)
    for it, e in zip(family.items, family.elements()):
        c = it.k.inverse()
        cs = [c] if sigma(it.k) == it.k else [c, sigma(c)]
        s = n - it.S.bit_length() + 1  # with r = 0, S = 2^(n-s)
        assert it.paired == (len(cs) == 2)
        assert e == dense_char_sum(spec, s, 0, cs)
        assert it.dim == it.S * len(cs)


N_FREE_FIELDS = ["F:3", "F:7", "Q", "QR:3", "QE:3", "QC:3"]


def unit_matrix(field_spec):
    """(field, n, a) for n <= 6 and each a in 1, -1, 2, 3, 16 that is a
    unit of the field."""
    q = parse_field(field_spec).q
    units = [a for a in ("1", "-1", "2", "3", "16") if not q or int(a) % q]
    return [(field_spec, str(n), a) for n in range(7) for a in units]


def closed_form(family):
    dec = family.decomposition
    head = (dec.s, dec.form, dec.b.owner, dec.b.ints, dec.b.den)
    items = [(it.label, it.k.owner, it.k.ints, it.k.den) for it in family.items]
    return head, items, [(it.S, it.dim) for it in family.items]


@pytest.mark.parametrize(
    "instances",
    [golden_instances()] + [unit_matrix(f) for f in N_FREE_FIELDS],
    ids=["golden"] + N_FREE_FIELDS,
)
def test_constants_do_not_depend_on_n(instances):
    # the case functions state (label, r, k) from K, s and b; n enters
    # only through S = 2^(n-s+r), so once a's depth s is below n one
    # more doubling of the group doubles every S and dim, and no more
    for field_spec, n, a in instances:
        spec = spec_of(field_spec, int(n), a)
        if spec.n >= 16 or ks_decompose(spec.a, spec.n).s >= spec.n:
            continue
        deeper = AlgebraSpec(spec.n + 1, spec.a)
        head, items, sizes = closed_form(build(spec))
        head1, items1, sizes1 = closed_form(build(deeper))
        assert (head1, items1) == (head, items), (field_spec, n, a)
        assert sizes1 == [(2 * S, 2 * dim) for S, dim in sizes], (field_spec, n, a)


@pytest.mark.parametrize(
    "instances",
    [golden_instances()] + [unit_matrix(f) for f in N_FREE_FIELDS],
    ids=["golden"] + N_FREE_FIELDS,
)
def test_each_item_lies_on_the_lattice_of_its_S(instances):
    # verify_family reads an item's lattice off its coefficients, never
    # from S, and _char_sum lays it on the item's S: the two
    # agree, except that a paired item with no x^S term (sigma(k) = -k)
    # cancels every odd power of g^S and lies on the lattice of 2S
    for field_spec, n, a in instances:
        family = build(spec_of(field_spec, int(n), a))
        d = family.spec.field.ambient_dim
        for it, e in zip(family.items, family.elements()):
            no_middle = it.S not in dict(it.min_poly.terms)
            step = 2 * it.S if it.dim == 2 * it.S and no_middle else it.S
            where = (field_spec, n, a, it.label)
            assert lattice_step(e.ints, d) == step, where


@pytest.mark.parametrize(
    "field_spec, n, a",
    [
        ("F:7", 5, "1"),  # F_q[i], s = 5
        ("F:13", 7, "3"),  # F_q, s = 7
        ("QC:4", 6, "16"),
        ("QR:3", 4, "9232,6528,0,-6528"),  # the unit coset
    ],
)
def test_build_forms_each_constant_once(monkeypatch, field_spec, n, a):
    # Each item costs one constant k = b^(2^r) / chi: b is squared per
    # depth r, and the constants are running products of the roots of
    # unity; a paired item takes its second character's constant from
    # the involution.  Not counting the chain of square roots in
    # ks_decompose, a build makes at most s + 2 powers (the roots of
    # unity themselves) and three inverses, from caches emptied first:
    # a descriptor built directly computes its roots of unity and 1/2
    # anew, each with one inverse, and the family's elements invert a.
    K = replace(parse_field(field_spec))
    spec = AlgebraSpec(n, parse_element(K, a))
    classify.cache_clear()
    calls = Counter()
    counting = [True]

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += counting[0]
            return fn(*args)

        return wrapper

    def uncounted(*args):
        counting[0] = False
        try:
            return ks_decompose(*args)
        finally:
            counting[0] = True

    def char_sum(spec, S, k, paired, ainv):
        calls["characters"] += 1 + paired
        return _char_sum(spec, S, k, paired, ainv)

    element = fields.AmbientElement
    monkeypatch.setattr(element, "__pow__", counted("pow", element.__pow__))
    monkeypatch.setattr(element, "inverse", counted("inverse", element.inverse))
    monkeypatch.setattr(builder, "ks_decompose", uncounted)
    monkeypatch.setattr(builder, "_char_sum", char_sum)
    family = build(spec)
    assert calls["characters"] == 0
    elements = list(family.elements())
    s = family.decomposition.s
    assert len(elements) == len(family.items)
    assert calls["characters"] == sum(1 + it.paired for it in family.items)
    assert calls["pow"] <= s + 2
    assert calls["inverse"] <= 3


def test_build_inverts_a_alone(monkeypatch):
    # the case functions state each k = b^(2^r) / chi on b and the
    # roots of unity, and _char_sum reads c^j = k^(T-j) / a: after
    # ks_decompose, and once the field holds its roots of unity and 1/2,
    # a build inverts nothing, and the stream of its elements inverts a
    # at most once and nothing else, whatever its item count; the family
    # {1}, every item of T = 1, inverts nothing at all
    inverted = []
    inverse = fields.AmbientElement.inverse

    def recorded(x):
        inverted.append(x)
        return inverse(x)

    for field_spec, n, a in golden_instances():
        spec = spec_of(field_spec, int(n), a)
        K = spec.field
        dec = ks_decompose(spec.a, spec.n)
        eps(K, K.root_level), K.half
        with monkeypatch.context() as m:
            m.setattr(builder, "ks_decompose", lambda *args: dec)
            m.setattr(fields.AmbientElement, "inverse", recorded)
            inverted.clear()
            family = build(spec)
            assert inverted == [], (field_spec, n, a)
            list(family.elements())
        all_t1 = all(it.S == spec.size for it in family.items)
        assert inverted == ([] if all_t1 else [spec.a]), (field_spec, n, a)


@pytest.mark.parametrize("field_spec, n, a", golden_instances(), ids=" ".join)
def test_each_call_builds_each_element_once(field_spec, n, a, monkeypatch, capsys):
    # an unchecked build states constants alone; idempotents --unchecked
    # and the checked idempotents build each item's element once on a
    # passing family, however many oracles or writers read it.  verify
    # builds each element of the core once, at every depth s, and each
    # item's at n once only for the Frobenius certificate
    built = Counter()

    def char_sum(spec, S, k, *rest):
        built[spec, S, k] += 1
        return _char_sum(spec, S, k, *rest)

    monkeypatch.setattr(builder, "_char_sum", char_sum)
    family = build(spec_of(field_spec, int(n), a))
    dec = family.decomposition
    assert not built
    items = Counter((family.spec, it.S, it.k) for it in family.items)
    certified = family.spec.field.q and certificate_work(family) <= DEFAULT_ENUM_BUDGET
    core = core_family(family.spec.field, dec.form, dec.s)
    verify = Counter((core.spec, it.S, it.k) for it in core.items)
    verify += items if certified else Counter()
    for command, want in (
        (["verify"], verify),
        (["idempotents", "--unchecked"], items),
        (["idempotents"], items),
    ):
        built.clear()
        assert cli.main([*command, field_spec, n, "--", a]) == 0
        capsys.readouterr()
        assert built == want, command


def test_an_oversized_family_is_refused_before_any_element(monkeypatch):
    # the limit counts items x 2^n x d coordinates: F:7 3 1 has 5 items
    # of 8 coefficients of 2 coordinates, 80 in all; build refuses it as
    # it is stated
    spec = spec_of("F:7", 3, "1")
    built = []
    monkeypatch.setattr(builder, "_char_sum", lambda *args: built.append(args))
    monkeypatch.setattr(builder, "MAX_COORDS", 79)
    refusal = "^at 8 coefficients x 2 coordinates per item, the family exceeds"
    with pytest.raises(ValueError, match=refusal + " the limit of 79 coordinates$"):
        build(spec)
    assert built == []
    monkeypatch.setattr(builder, "MAX_COORDS", 80)
    family = build(spec)
    assert len(family.items) * spec.size * spec.field.ambient_dim == 80
    assert built == []
    assert len(list(family.elements())) == len(built) == 5


def test_a_refused_family_forms_no_further_constant(monkeypatch, capsys):
    # the limit counts the blocks' items, so a refused family forms no
    # constant: the expander is not entered on F:7 3 1 with room for two
    # of its five items (16 coordinates each), nor on the golden
    # refusals, each past the limit by its count alone
    entered, formed = [], []

    def expanded(blocks, b, _fn=_expanded):
        entered.append(b)
        closed = list(_fn(blocks, b))
        formed.extend(closed)
        return iter(closed)

    monkeypatch.setattr(builder, "_expanded", expanded)
    for argv in (["F:65537", "16", "1"], ["QC:15", "15", "-1"], ["QC:16", "16", "-1"]):
        assert cli.main(["verify", *argv]) == 2
        err = capsys.readouterr().err
        assert err.endswith(" the family exceeds the limit of 1073741824 coordinates\n")
    monkeypatch.setattr(builder, "MAX_COORDS", 47)
    with pytest.raises(ValueError, match="the limit of 47 coordinates$"):
        build(spec_of("F:7", 3, "1"))
    assert entered == formed == []
    monkeypatch.setattr(builder, "MAX_COORDS", 80)
    assert len(build(spec_of("F:7", 3, "1")).items) == len(formed) == 5


# -- index-convention regressions ----------------------------------------------


def narrowed(spec, full, kind):
    """The (item, element) pairs of ``full`` that the catalogue's index
    variant ``kind`` (``mutants.index_variants``) keeps."""
    [change] = [change for k, change in index_variants(build(spec)) if k == kind]
    kept = change(tuple(it for it, _ in full))
    return [(it, e) for it, e in full if it in kept]


def test_negated_family_must_start_at_zero():
    # the family that starts at i = 1 is the one without e(0,)
    spec = spec_of("Q", 2, "-1")
    s, dec = decomposed(spec)
    full = items_of(spec, dec, thm3_case4(spec.field, s))
    assert items_sum(spec, full) == spec.one()
    assert [it.label for it, _ in full] == [(0,)]
    assert narrowed(spec, full, "i = 0 item dropped") == []  # i = 1 leaves nothing

    spec = spec_of("QE:3", 2, "-1")
    s, dec = decomposed(spec)
    full = items_of(spec, dec, thm3_case4(spec.field, s))
    rest = narrowed(spec, full, "i = 0 item dropped")
    assert len(rest) == 1
    assert items_sum(spec, rest) != spec.one()


def test_deep_paired_family_needs_r0_block():
    # the block that starts at r = 1 is the family without e(0, i)
    spec = spec_of("F:3", 3, "1")
    s, dec = decomposed(spec)
    full = items_of(spec, dec, thm3_case3(spec.field, s))
    assert items_sum(spec, full) == spec.one()
    rest = narrowed(spec, full, "r = 0 block dropped")
    assert len(rest) == len(full) - 2
    assert items_sum(spec, rest) != spec.one()


def test_flipped_lambda_loses_k_rationality():
    # Type E negates the involution's image of eps_m, so the partner of
    # the double-indexed constant c = eps_m^-1 eps_(m-2)^-i b^(-2^r) is
    # sigma(c) = -eps_m eps_(m-2)^i b^(-2^r).  With the type-D partner,
    # +eps_m eps_(m-2)^i b^(-2^r), the double-indexed items recombine
    # into idempotents of the ambient algebra: still idempotent, still
    # summing to 1, but no longer K-rational - verification rejects.
    spec = spec_of("F:3", 3, "1")
    K = spec.field
    s, dec = decomposed(spec)
    m = classify(K).m
    em, em2 = eps(K, m), eps(K, m - 2)
    full = items_of(spec, dec, thm3_case3(K, s))
    singles = [(it, e) for it, e in full if len(it.label) == 1]
    doubles = [
        dense_char_sum(spec, s, r, [em**-1 * em2**-i * bi, em * em2**i * bi])
        for r in range(s - m + 1)
        for i in range(1 << (m - 2))
        for bi in [dec.b ** -(1 << r)]
    ]
    assert items_sum(spec, singles) + sum(doubles, spec.zero()) == spec.one()
    assert doubles and all(not e.is_k_rational() for e in doubles)
    assert all(e * e == e for e in doubles)
    # the involution's partner gives the K-rational items the build states
    assert all(
        dense_char_sum(spec, s, r, [c, sigma(c)]).is_k_rational()
        for r in range(s - m + 1)
        for i in range(1 << (m - 2))
        for c in [em**-1 * em2**-i * dec.b ** -(1 << r)]
    )


# -- certification of non-binomial components -----------------------------------


def test_deep_unit_coset_family_is_certified():
    # the octic components (below) are certified by quadratic descent:
    # over the ambient field each splits into two conjugate binomials
    family = build(spec_of("QR:3", 5, DEEP_A))
    assert tuple(sorted(it.dim for it in family.items)) == (
        2, 2, 2, 2, 2, 2, 4, 8, 8,
    )
    report = verify_family(family, family.elements)
    assert report.ok
    assert all(c.primitive for c in report.item_checks)


def test_cancelled_middle_terms_are_not_stated():
    # x^8 - 16: the pairs of characters +-sqrt(2) and +-sqrt(-2) state
    # x^2 - 2 and x^2 + 2, their middle coefficient -(k1 + k2) being 0
    family = build(spec_of("Q", 3, "16"))
    verified(family, family.elements)
    terms = {str(it.min_poly): it.min_poly.terms for it in family.items}
    assert sorted(terms) == ["x^2 + 2", "x^2 + 2*x + 2", "x^2 - 2", "x^2 - 2*x + 2"]
    Q = family.spec.field
    assert terms["x^2 - 2"] == ((0, Q.scalar(-2)), (2, Q.one()))
    assert terms["x^2 + 2"] == ((0, Q.scalar(2)), (2, Q.one()))


def test_deep_unit_coset_octics():
    # The two depth-2 components have the conjugate non-binomial minimal
    # polynomials x^8 +- (8 + 6*sqrt2) x^4 + (68 + 48*sqrt2).
    spec = spec_of("QR:3", 5, DEEP_A)
    family = build(spec)
    octics = {
        it.label: [(k, c.coeffs) for k, c in it.min_poly.terms]
        for it in family.items
        if it.dim == 8
    }
    assert octics[(2, 0)] == [
        (0, (68, 48, 0, -48)),
        (4, (8, 6, 0, -6)),
        (8, (1, 0, 0, 0)),
    ]
    assert octics[(2, 1)] == [
        (0, (68, 48, 0, -48)),
        (4, (-8, -6, 0, 6)),
        (8, (1, 0, 0, 0)),
    ]


# -- emulation edges -------------------------------------------------------------


def test_emulated_full_split():
    # m >= n+1 with identity involution: all components have dim 1
    family = build(spec_of("QC:4", 2, "16"))
    verified(family, family.elements)
    assert [it.dim for it in family.items] == [1, 1, 1, 1]


def test_emulated_paired_split():
    family = build(spec_of("QR:5", 2, "16"))
    verified(family, family.elements)
    assert tuple(sorted(it.dim for it in family.items)) == (1, 1, 2)


def test_level_one_ambient():
    # A = Q (level 1, identity) and F_q with q = 3 mod 4 (identity) have
    # no i, which every construction case assumes: the spec is refused
    # before anything is built.  The last three once built non-minimal
    # families.
    Q1 = FieldDescriptor(IDENTITY, 1)
    F3 = FieldDescriptor(IDENTITY, 1, 3)
    F7 = FieldDescriptor(IDENTITY, 1, 7)
    for K, n, a in [(Q1, 3, 256), (F3, 2, 2), (F7, 3, 1), (Q1, 2, -4)]:
        with pytest.raises(ValueError, match="square root of -1"):
            AlgebraSpec(n, K.scalar(a))
    # the certificate is one square test only because i is in A: over Q,
    # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2) although -4 is no square,
    # so it refuses rather than answer
    x4_plus_4 = poly_of((Q1.scalar(4), Q1.zero(), Q1.zero(), Q1.zero(), Q1.one()))
    with pytest.raises(ValueError, match="square root of -1"):
        certify_irreducible(x4_plus_4)


# -- invariance properties ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["F:3", "F:5", "F:7", "Q", "QC:3", "QR:3", "QE:3"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=100),
    st.sampled_from([1, 2, 4, 16, -1, -2, -4, -16]),
    st.sampled_from([2, 3, 5]),
)
def test_scaling_by_full_powers_preserves_dims(
    field_spec, n, a_seed, c_seed, a_rational, c_rational
):
    # a and a*c^(2^n) give isomorphic algebras: g -> c^-1 * g maps
    # K[g]/(g^(2^n) - a) onto K[g]/(g^(2^n) - a*c^(2^n)), so it maps the
    # primitive idempotents of the one onto those of the other
    K = parse_field(field_spec)
    if K.q:
        a = K.scalar(1 + a_seed % (K.q - 1))
        c = K.scalar(1 + c_seed % (K.q - 1))
    else:
        a, c = K.scalar(a_rational), K.scalar(c_rational)
    base = build(AlgebraSpec(n, a))
    spec = AlgebraSpec(n, a * c ** (1 << n))
    scaled = build(spec)
    image = {
        spec.element(e_k * c**-k for k, e_k in enumerate(e.coeffs)): it.dim
        for it, e in zip(base.items, base.elements())
    }
    assert image == {e: it.dim for it, e in zip(scaled.items, scaled.elements())}


def galois(K, x, k):
    """tau(x) for the automorphism tau: zeta -> zeta^k (k odd) of the
    ambient field Q(zeta), zeta^d = -1."""
    d = K.ambient_dim
    out = [0] * d
    for j, c in enumerate(x.coeffs):
        e = j * k % (2 * d)
        out[e % d] += c if e < d else -c
    return K.element(out)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["QC:3", "QC:4", "QR:3", "QR:4", "QE:3", "QE:4"]),
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(-2, 2), min_size=8, max_size=8),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=7),
)
def test_galois_conjugate_constant_conjugates_the_family(
    field_spec, n, coords, depth, sign, j
):
    # tau commutes with the involution (the Galois group is abelian), so
    # it maps K to K and K[g]/(g^(2^n) - a) onto K[g]/(g^(2^n) - tau(a))
    # coefficient by coefficient; primitive idempotents are unique, so
    # the family of tau(a) is the image of the family of a as a set.
    # a = +-c^(2^depth) with c in K reaches every depth and coset form.
    K = parse_field(field_spec)
    d = K.ambient_dim
    k = 2 * (j % d) + 1
    x = K.element(coords[:d])
    c = x if K.involution == IDENTITY else x + sigma(x)
    if c.is_zero():
        c = K.one()
    a = c ** (1 << min(depth, n)) * sign
    spec = AlgebraSpec(n, galois(K, a, k))
    family = build(AlgebraSpec(n, a))
    image = {
        spec.element(galois(K, e_k, k) for e_k in e.coeffs) for e in family.elements()
    }
    assert image == set(build(spec).elements())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        ["F:3", "F:5", "F:7", "F:11", "F:13"]
        + ["Q", "QC:3", "QR:3", "QE:3", "QR:4", "QE:4"]
    ),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([1, 2, 4, 16, 64, -1, -2, -4, -16, -64]),
)
def test_random_finite_builds_verify(field_spec, n, a_seed, a_rational):
    K = parse_field(field_spec)
    if K.q:
        a = K.scalar(1 + a_seed % (K.q - 1))
    else:
        a = K.scalar(a_rational)
    family = build(AlgebraSpec(n, a))
    verified(family, family.elements)  # raises on any failure
    assert sum(it.dim for it in family.items) == 1 << n


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["QC:3", "QC:4", "QR:3", "QE:3", "QR:4", "QE:4"]),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([1, 2, 4, 16, 64, -1, -2, -4, -16, -64]),
)
def test_random_cyclotomic_builds_verify_to_depth_five(field_spec, n, a_rational):
    K = parse_field(field_spec)
    family = build(AlgebraSpec(n, K.scalar(a_rational)))
    verified(family, family.elements)
    assert sum(it.dim for it in family.items) == 1 << n


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(
        ["Q", "QC:3", "QC:4", "QR:3", "QR:4", "QE:3", "QE:4"]
        + ["F:3", "F:5", "F:7", "F:11", "F:13"]
    ),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([1, 2, 4, 16, 64, -1, -2, -4, -16, -64]),
)
def test_stated_min_poly_matches_gaussian_reference(field_spec, n, a_seed, a_rational):
    K = parse_field(field_spec)
    if K.q:
        a = K.scalar(1 + a_seed % (K.q - 1))
    else:
        a = K.scalar(a_rational)
    family = build(AlgebraSpec(n, a))
    verified(family, family.elements)
    for fam in (family, build(ambient_spec(family.spec))):
        for it, e in zip(fam.items, fam.elements()):
            assert it.min_poly == min_poly_reference(e)
            assert it.dim == it.min_poly.degree


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["QR:3", "QE:3", "QC:3", "QC:4"]),
    st.integers(min_value=0, max_value=4),
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=7),
        min_size=8,
        max_size=8,
    ),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1, -1]),
)
def test_non_rational_constants_build_and_verify(field_spec, n, coords, depth, sign):
    # a = +-c^(2^j) for c in K with fractional coordinates: every depth
    # and coset form, with denominators in every coordinate
    K = parse_field(field_spec)
    x = K.element(coords[: K.ambient_dim])
    c = x if K.involution == IDENTITY else x + sigma(x)
    if c.is_zero():
        c = K.one()
    a = c ** (1 << min(depth, n)) * sign
    family = build(AlgebraSpec(n, a))
    verified(family, family.elements)  # raises on any failure
    assert sum(it.dim for it in family.items) == 1 << n


def sympy_degrees(n, a, **domain):
    """Sorted degrees of the irreducible factors of x^(2^n) - a."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    _, factors = sympy.factor_list(x ** (1 << n) - a, **domain)
    return sorted(f.as_poly(x).degree() for f, mult in factors for _ in range(mult))


def family_degrees(K, n, a):
    return sorted(it.dim for it in build(AlgebraSpec(n, a)).items)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_component_degrees_match_sympy_over_finite_fields(q):
    # an outside oracle: K_t<g> = K[x]/(x^(2^n) - a) splits as the
    # factorisation of x^(2^n) - a, one component per irreducible factor
    pytest.importorskip("sympy")
    K = parse_field(f"F:{q}")
    for n in range(5):
        for a in range(1, q):
            assert family_degrees(K, n, K.scalar(a)) == sympy_degrees(n, a, modulus=q)


@pytest.mark.parametrize("field_spec", ["Q", "QC:2", "QR:3"])
def test_component_degrees_match_sympy_over_number_fields(field_spec):
    sympy = pytest.importorskip("sympy")
    domain = {
        "Q": {},
        "QC:2": {"extension": sympy.I},
        "QR:3": {"extension": sympy.sqrt(2)},
    }[field_spec]
    K = parse_field(field_spec)
    for n in range(5):
        for a in (1, 2, -1, -4, 16, -64, 9, -3):
            assert family_degrees(K, n, K.scalar(a)) == sympy_degrees(n, a, **domain)
