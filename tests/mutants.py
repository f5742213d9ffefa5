"""One catalogue of wrong families, for every oracle.

A mutant is a named wrong statement of a built family (mutation
testing: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978), at one of three levels (``KINDS``):

* ``stream``: the elements an oracle reads (``streams``), each stated
  with the item it was formed from, in the family and alike in its core;
* ``constants``: what a case function states, changed alike in the
  family and its core: an item's (S, k) (``ITEM_KINDS``), the two index
  conventions of ``builder``'s docstring, a stated polynomial with a
  wrong term (``wrong_terms``), and the ambient constants pairing reads
  (``ambient_mutants``);
* ``decomposition``: b doubled, a wrong power of b where b enters
  (``raised_b_power``), and the family restated one level under its
  depth, (s - 1, b^2) (``under_deep``).

A ``Statement`` is all that the four oracles of ``verify`` read, and
``catalogue(family)`` gives every mutant of one family, each with its
kind and whether it states the same family (``Mutant.same``): the same
statement up to the order and labels of the items, k against sigma(k),
and ambient constants stated twice.
"""

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Optional

from cyclotwist.algebra import AlgebraElement, Poly
from cyclotwist.builder import (
    IdempotentFamily,
    _dispatch,
    _stated,
    ambient_constants,
    core_family,
)
from cyclotwist.classify import NEGATED, PLAIN, TYPE_B, classify
from cyclotwist.fields import eps, sigma, sigma_coords


@dataclass(frozen=True)
class Statement:
    """What the oracles read of a family: its items and decomposition,
    its elements in item order, its b-free core and the core's elements
    (None where the mutant has no counterpart in the core), and the
    ambient constants (S, k)."""

    family: IdempotentFamily
    elements: Callable
    core: IdempotentFamily
    core_elements: Optional[Callable]
    ambient: list


@dataclass(frozen=True)
class Mutant:
    kind: str
    statement: Statement
    same: bool  # states the same family as the one it mutates


def statement(family: IdempotentFamily) -> Statement:
    """The statement of ``family`` as ``verify`` reads it."""
    dec = family.decomposition
    core = core_family(family.spec.field, dec.form, dec.s)
    return Statement(family, family.elements, core, core.elements, ambient_constants(family))


# -- element streams -------------------------------------------------------------


def bumped(e, j):
    """``e`` with one more in its coordinate j: one coefficient changed."""
    ints = list(e.ints)
    ints[j] += 1
    return AlgebraElement(e.spec, ints, e.den)


def streams(spec, es):
    """(kind, i, elements, sources) of each stream mutant of ``es``, the
    elements of a family over ``spec`` in item order, at item i:
    element j of the mutant was formed from item ``sources[j]``."""
    one, g, zero = spec.one(), spec.gbar(), spec.zero()
    q, n = spec.field.q, len(es)
    every = list(range(n))
    for i, e in enumerate(es):
        rest = every[:i] + every[i + 1 :]
        others = es[:i] + es[i + 1 :]
        yield "dropped", i, others, rest
        yield "duplicated", i, es + [e], every + [i]
        yield "negated", i, others + [-e], rest + [i]
        yield "complemented", i, others + [one - e], rest + [i]
        if g * e != e:  # g*e = e on the component where g is 1
            yield "shifted", i, others + [g * e], rest + [i]
        # one more in the K-coordinate 1 of the top coefficient
        changed = bumped(e, len(e.ints) - spec.field.ambient_dim)
        yield "coefficient changed", i, es[:i] + [changed] + es[i + 1 :], every
        if i + 1 < n:
            merged = es[:i] + [e + es[i + 1]] + es[i + 2 :]
            sources = every[: i + 1] + every[i + 2 :]
            yield "merged", i, merged, sources
            # of the right count: cross_check rejects it on the zero alone
            yield "merged plus zero", i, merged + [zero], sources + [i + 1]
            # e_i + i*e_(i+1) has the coordinates of e_i in K
            plus = e + es[i + 1] * eps(spec.field, 2)
            yield "plus i times another", i, es[:i] + [plus] + es[i + 1 :], every
    if n >= 3:
        # running sums e0, e1, 1: idempotent, but e1 - e0 is not
        yield "telescoped", 0, [es[0], es[1] - es[0], es[0] + es[2]] + es[3:], every
    if q and n > q:
        # idempotents e0 + ej (j = 1..q) and e0 sum to 1, as (q + 1)*e0 = e0;
        # only running sums see that they overlap
        overlapping = [es[0] + f for f in es[1 : q + 1]] + [es[0]] + es[q + 1 :]
        yield "overlapping", 0, overlapping, every[1 : q + 1] + [0] + every[q + 1 :]


def sourced(family, sources):
    """``family`` stating item ``sources[j]`` for its element j."""
    return family._replace(items=tuple(family.items[j] for j in sources))


# -- constants -------------------------------------------------------------------


@dataclass(frozen=True)
class StatedItem:
    """A mutant's stand-in for an item: it states its ``dim`` and
    ``min_poly`` outright, as no constants (S, k) can."""

    label: tuple
    S: int
    k: object
    dim: int
    min_poly: Poly


def stand_in(item, **changes):
    """``item`` as a ``StatedItem``, with ``changes``."""
    stated = StatedItem(item.label, item.S, item.k, item.dim, item.min_poly)
    return replace(stated, **changes)


def _with_k(items, i, k):
    return items[:i] + (items[i]._replace(k=k),) + items[i + 1 :]


def _times_a_root(k):
    """k times the ambient field's primitive root of unity of top order."""
    return k * eps(k.owner, k.owner.root_level)


def _at_item(change):
    """``change`` of a tuple of items at item i, i < 0 counting from the end."""
    return lambda items, i: change(tuple(items), i % len(items))


# a change of one item's constants, at item i of a tuple of items, which
# the catalogue makes alike in a family and its core
ITEM_KINDS = {
    "item dropped": _at_item(lambda items, i: items[:i] + items[i + 1 :]),
    "item stated twice": _at_item(lambda items, i: items[: i + 1] + items[i:]),
    "k negated": _at_item(lambda items, i: _with_k(items, i, -items[i].k)),
    "k times a root of unity": _at_item(
        lambda items, i: _with_k(items, i, _times_a_root(items[i].k))
    ),
    # the partner's constant on one side of the pair: the same item
    "k to sigma(k)": _at_item(lambda items, i: _with_k(items, i, sigma(items[i].k))),
}


def index_variants(family):
    """(kind, change) of the rejected index conventions of ``builder``'s
    docstring that apply to ``family``: the plain high-depth family's
    double-indexed block from r = 1, not r = 0, and the negated
    family's single index from i = 1, not i = 0, each a change of a
    tuple of items that drops what the convention leaves out."""
    dec = family.decomposition
    if classify(family.spec.field).field_type == TYPE_B or not dec.s:
        return
    if dec.form == PLAIN and any(it.label[:1] == (0,) for it in family.items if len(it.label) == 2):
        yield "r = 0 block dropped", lambda items: tuple(
            it for it in items if len(it.label) == 1 or it.label[0]
        )
    if dec.form == NEGATED:
        yield "i = 0 item dropped", lambda items: tuple(it for it in items if it.label != (0,))


def wrong_terms(poly):
    """``poly`` with gamma negated, gamma times 4 and beta doubled (each
    change that is a change), for poly = x^(2S) + beta*x^S + gamma or
    x^S + gamma."""
    c = dict(poly.terms)
    S = poly.degree // 2
    changed = []
    if 0 in c:
        changed += [{0: -c[0]}, {0: 4 * c[0]}]
    if S in c and S != poly.degree:
        changed.append({S: 2 * c[S]})
    out = []
    for change in changed:
        p = Poly(tuple((k, v) for k, v in sorted({**c, **change}.items()) if v))
        if p != poly and p not in out:
            out.append(p)
    return out


def conj(K, k):
    """The involution of K on the coordinates of k, over k's own field."""
    return type(k)._make(k.owner, tuple(sigma_coords(K, k.ints)), k.den)


def first_orbit(family, ambient):
    """The first ambient orbit {(S, k), (S, sigma k)} with sigma k != k,
    and the ambient constants without it; None if every k is fixed."""
    K = family.spec.field
    S, k = next(((S, k) for S, k in ambient if conj(K, k) != k), (None, None))
    if k is None:
        return None
    orbit = [(S, k), (S, conj(K, k))]
    return orbit, [x for x in ambient if x not in orbit]


def ambient_mutants(family, ambient):
    """{kind: [ambient constants]} of the four ambient corruptions, on the
    first paired orbit {(S, k), (S, sigma k)}: dropped, replaced by the
    orbit of k^2, added again at another S, or replaced by the orbit of
    zeta^j * k, one for each root of unity zeta^j of the ambient field
    other than 1 and sigma(k) / k.  Empty when no orbit is paired."""
    found = first_orbit(family, ambient)
    if found is None:
        return {}
    K = family.spec.field
    orbit, rest = found
    S, k = orbit[0]
    other = S * 2 if S < family.spec.size else S // 2
    A = k.owner
    zetas = [A.zeta_pow(j) * k for j in range(1, 1 << A.level)]
    return {
        "ambient orbit dropped": [rest],
        "ambient constant squared": [rest + [(S, k * k), (S, conj(K, k * k))]],
        "ambient orbit at another S": [ambient + [(other, x) for _, x in orbit]],
        "ambient times a root of unity": [
            rest + [(S, z), (S, conj(K, z))] for z in zetas if z != conj(K, k)
        ],
    }


# -- the decomposition -----------------------------------------------------------


def raised_b_power(closed, b):
    """The expander's (label, r, k) with b^(2^(r+1)) taken for b^(2^r)
    at r >= 1: each such k times b^(2^r) more."""
    return [(label, r, k * b ** (1 << r) if r else k) for label, r, k in closed]


def b_doubled(family):
    """``family`` whose decomposition states 2b for b; its items are as built."""
    dec = family.decomposition
    return family._replace(decomposition=dec._replace(b=dec.b + dec.b))


def with_raised_b_power(family):
    """``family`` with ``raised_b_power`` on its items, whose r is read
    off S = 2^(n-s+r)."""
    spec, dec = family.spec, family.decomposition
    shift = spec.n - dec.s
    closed = [(it.label, (it.S >> shift).bit_length() - 1, it.k) for it in family.items]
    items = tuple(
        it._replace(k=k) for it, (_, _, k) in zip(family.items, raised_b_power(closed, dec.b))
    )
    return family._replace(items=items)


def under_deep(family):
    """The statement of a plain-form ``family`` of depth s >= 1 restated
    at depth s - 1 with b^2 for b: a = (b^2)^(2^(s-1)) holds, and the
    family and its core at s - 1 are the construction's, but its items
    are not primitive.  None for any other family."""
    dec = family.decomposition
    if dec.form != PLAIN or not dec.s:
        return None
    K, s = family.spec.field, dec.s - 1
    shallow = dec._replace(s=s, b=dec.b * dec.b, root=dec.root * dec.root)
    restated = _stated(family.spec, shallow, _dispatch(K, PLAIN, s))
    core = core_family(K, PLAIN, s)
    return Statement(
        restated, restated.elements, core, core.elements, ambient_constants(restated)
    )


# -- the catalogue ---------------------------------------------------------------

# every kind, by level, in the order of the kill matrix
KINDS = {
    **dict.fromkeys(
        [
            "dropped",
            "duplicated",
            "negated",
            "complemented",
            "shifted",
            "merged",
            "merged plus zero",
            "telescoped",
            "overlapping",
            "coefficient changed",
            "plus i times another",
        ],
        "stream",
    ),
    **dict.fromkeys(
        [
            *ITEM_KINDS,
            "r = 0 block dropped",
            "i = 0 item dropped",
            "wrong polynomial term",
            "ambient orbit dropped",
            "ambient constant squared",
            "ambient orbit at another S",
            "ambient times a root of unity",
        ],
        "constants",
    ),
    **dict.fromkeys(["b doubled", "wrong power of b", "under-deep"], "decomposition"),
}


def _orbit(k):
    return frozenset([(k.ints, k.den), (sigma(k).ints, sigma(k).den)])


def _key(st, streams):
    """What ``st`` states, up to the order and labels of its items, k
    against sigma(k) and ambient constants stated twice; and its
    elements, when ``streams``, which otherwise follow from its items."""
    dec = st.family.decomposition
    key = [
        Counter((it.S, _orbit(it.k), it.dim, it.min_poly) for it in fam.items)
        for fam in (st.family, st.core)
    ]
    key += [dec.s, dec.b, {(S, k.ints, k.den) for S, k in st.ambient}]
    if streams:
        for elements in (st.elements, st.core_elements):
            key.append(elements and Counter((e.ints, e.den) for e in elements()))
    return key


def catalogue(family):
    """Every mutant of ``family``: the stream kinds at each item, the
    item kinds and wrong polynomial terms at its first and last item,
    and every other kind that applies to it."""
    base = statement(family)
    core = base.core
    spec, es = family.spec, list(family.elements())
    core_streams = {
        (kind, i): (elements, sources)
        for kind, i, elements, sources in streams(core.spec, list(core.elements()))
    }
    with_streams = _key(base, True)
    for kind, i, elements, sources in streams(spec, es):
        at_core = core_streams.get((kind, i))
        core_elements = at_core and at_core[0].__iter__
        st = Statement(
            sourced(family, sources),
            elements.__iter__,
            sourced(core, sources),
            core_elements,
            base.ambient,
        )
        yield Mutant(kind, st, _key(st, True) == with_streams)

    plain = _key(base, False)

    def mutant(kind, st):
        return Mutant(kind, st, _key(st, False) == plain)

    def alike(change, stated=False):
        """The statement whose family and core items are ``change`` of
        their own, each level's elements built from them, or as built
        when the items are ``stated`` stand-ins."""
        fam = family._replace(items=change(family.items))
        cor = core._replace(items=change(core.items))
        if stated:
            return replace(base, family=fam, core=cor)
        return replace(base, family=fam, elements=fam.elements, core=cor, core_elements=cor.elements)

    ends = sorted({0, len(family.items) - 1})
    for kind, change in ITEM_KINDS.items():
        for i in ends:
            yield mutant(kind, alike(lambda items: change(items, i)))
    for kind, change in index_variants(family):
        yield mutant(kind, alike(change))
    for i in ends:
        for t in range(len(wrong_terms(family.items[i].min_poly))):

            def wrong_term(items, i=i, t=t):
                poly = wrong_terms(items[i].min_poly)[t]
                return items[:i] + (stand_in(items[i], min_poly=poly),) + items[i + 1 :]

            yield mutant("wrong polynomial term", alike(wrong_term, stated=True))
    for kind, ambients in ambient_mutants(family, base.ambient).items():
        for ambient in ambients:
            yield mutant(kind, replace(base, ambient=ambient))

    yield mutant("b doubled", replace(base, family=b_doubled(family)))
    raised = with_raised_b_power(family)
    if raised.items != family.items:
        yield mutant("wrong power of b", replace(base, family=raised, elements=raised.elements))
    restated = under_deep(family)
    if restated is not None:
        yield mutant("under-deep", restated)
