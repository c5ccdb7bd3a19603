"""Collection from the left against the rewriting oracle, the overlap
consistency proof against the exhaustive associativity audit, and the
gather-derived tables, element arithmetic, the table relation check and
homomorphism arithmetic against independent arithmetic."""

import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from pgroups import GroupHom, PcPresentation, catalog, direct_product
from pgroups.deriv import derivation_from_vector, derivation_space
from pgroups.errors import DEFAULT_CAPS, CapExceeded, InputError
from pgroups.fpmod import conjugation_module
from pgroups.pcgroup import (
    EXHAUSTIVE_AUDIT_ORDER,
    FULL_TABLE_ORDER,
    PRIME_LIMIT,
    identity_endo,
    quotient,
    respects_relations,
)
from pgroups.series import center, omega1

from .models import (
    commutator_exps,
    conjugate_exps,
    inverse_exps,
    multiply_exps,
    order_exps,
    power_exps,
    reference_collect,
    reference_overlaps,
    table_is_group,
    word_image_exps,
)
from .test_order81 import scaffold_grid

GROUPS = (
    catalog.default_catalog(3, max_order=729)
    + catalog.default_catalog(5, max_order=729)
    + [catalog.heisenberg(7)]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_collect_matches_reference_collector(data):
    G = data.draw(st.sampled_from(GROUPS), label="group")
    word = data.draw(
        st.lists(st.tuples(st.integers(0, G.n - 1), st.integers(0, 2 * G.p)), max_size=8),
        label="word",
    )
    assert G.collect(word) == reference_collect(G, word)


def test_collect_refused_above_the_enumeration_cap():
    """collect reads the generator tables, so it needs the group within
    the package's enumeration limit, as element arithmetic does; above it
    the refusal comes before any table is built."""
    G = catalog.parse_group_spec("elemab:3,13")  # order 1594323
    assert G.order > DEFAULT_CAPS.enumeration
    with pytest.raises(CapExceeded):
        G.collect([(1, 1), (0, 1)])
    assert "gen_tables" not in vars(G)
    with pytest.raises(InputError, match="out of range"):
        G.collect([(13, 1)])


def _consistent(check) -> bool:
    try:
        check()
        return True
    except InputError:
        return False


def _random_presentation(rng: random.Random, p: int, n: int) -> PcPresentation:
    density = rng.choice((0.15, 0.3, 0.5))

    def rhs(above):
        return tuple(
            rng.randrange(1, p) if k > above and rng.random() < density else 0 for k in range(n)
        )

    comms = []
    for j in range(n):
        for i in range(j):
            c = rhs(j)
            if any(c):
                comms.append(((j, i), c))
    return PcPresentation(p=p, power_rhs=tuple(rhs(i) for i in range(n)), comm_rhs=tuple(comms))


def test_overlaps_agree_with_exhaustive_on_scaffold_grid():
    verdicts = []
    for P in scaffold_grid():
        exhaustive = _consistent(P.audit)
        assert _consistent(P.check_overlaps) == exhaustive, P.name
        verdicts.append(exhaustive)
    assert len(verdicts) == 81
    assert 0 < sum(verdicts) < 81


@pytest.mark.parametrize("p, n, count", [(3, 4, 60), (3, 5, 40), (5, 3, 55)])
def test_overlaps_agree_with_exhaustive_on_random_presentations(p, n, count):
    rng = random.Random(1000 * p + n)
    verdicts = []
    for _ in range(count):
        P = _random_presentation(rng, p, n)
        assert P.order <= 3**5
        exhaustive = _consistent(P.audit)
        assert _consistent(P.check_overlaps) == exhaustive, P
        verdicts.append(exhaustive)
    # both verdicts occur, so the agreement is not vacuous
    assert 0 < sum(verdicts) < count


@pytest.mark.parametrize("p, n, count", [(3, 6, 40), (5, 4, 40), (7, 3, 40)])
def test_overlaps_above_exhaustive_order_match_reference_collector(p, n, count):
    """Above order 243, where the audit runs the overlap test, its verdict
    against the same overlap words collected by the rewriting collector."""
    rng = random.Random(100 * p + n)
    verdicts = []
    for _ in range(count):
        P = _random_presentation(rng, p, n)
        assert P.order > EXHAUSTIVE_AUDIT_ORDER
        reference = reference_overlaps(P)
        assert _consistent(P.check_overlaps) == reference, P
        verdicts.append(reference)
    assert 0 < sum(verdicts) < count


def test_audit_matches_brute_force_group_axioms():
    """Light's test on the pc generators gives the verdict of the full N^3
    associativity check plus the identity and inverse laws, on the
    scaffold grid, seeded random presentations and both catalogs to 243;
    the audit reports the n N^2 triples (x, g_i, y) it compared."""
    presentations = list(scaffold_grid())
    for p, n, count in [(3, 4, 120), (3, 5, 25), (5, 3, 120)]:
        rng = random.Random(7 * p + n)
        presentations += [_random_presentation(rng, p, n) for _ in range(count)]
    presentations += catalog.default_catalog(3, max_order=243)
    presentations += catalog.default_catalog(5, max_order=243)
    verdicts = []
    for P in presentations:
        assert P.order <= 3**5
        audited = _consistent(P.audit)
        assert audited == table_is_group(P.full_mult_table), P
        if audited:
            assert P.audit() == {"mode": "exhaustive", "triples": P.n * P.order**2, "order": P.order}
        verdicts.append(audited)
    assert 0 < sum(verdicts) < len(verdicts)


def test_overlap_audit_counts_and_rejection_above_exhaustive_order():
    D = catalog.parse_group_spec("d:3,3")
    n = D.n
    assert D.audit() == {
        "mode": "overlap",
        "triples": n * (n - 1) * (n - 2) // 6 + n * (n - 1) + n,
        "order": 729,
    }
    bad = next(P for P in scaffold_grid() if not _consistent(P.audit))
    P = direct_product(bad, catalog.cyclic(3, 2))
    assert P.order == 729
    with pytest.raises(InputError, match="inconsistent overlap"):
        P.audit()


def test_huge_primes_refused():
    with pytest.raises(InputError, match="too large"):
        PcPresentation(p=PRIME_LIMIT + 2, power_rhs=((0,),), comm_rhs=())
    with pytest.raises(InputError):
        PcPresentation(p=3215031751, power_rhs=((0,),), comm_rhs=())  # strong pseudoprime
    big = PcPresentation(p=10**18 + 3, power_rhs=((0,),), comm_rhs=())
    assert big.order == 10**18 + 3


def _word(exps):
    return [(k, e) for k, e in enumerate(exps) if e]


@pytest.mark.parametrize("G", GROUPS, ids=lambda G: G.name)
def test_derived_tables_match_independent_arithmetic(G):
    """The generator tables against the rewriting collector, and the
    gather-derived inverse, p-th power and order tables against symbolic
    arithmetic, for every element."""
    gen, inv, pw = G.gen_tables, G.inv_table, G.power_p_table
    for x, exps in enumerate(G.elements):
        for i in range(G.n):
            assert gen[i][x] == G.index_of(reference_collect(G, _word(exps) + [(i, 1)]))
        assert inv[x] == G.index_of(inverse_exps(G, exps))
        assert pw[x] == G.index_of(power_exps(G, exps, G.p))
    # read only once the power table is known to be right: it iterates it to 1
    orders = G.element_orders
    assert all(orders[x] == order_exps(G, exps) for x, exps in enumerate(G.elements))


def _symbolic_verdict(source, target, images) -> bool:
    return all(
        word_image_exps(target, images, lhs) == word_image_exps(target, images, rhs)
        for lhs, rhs in source.relators
    )


HOM_GROUPS = GROUPS + [catalog.parse_group_spec("d:3,3+cyclic:3,2")]


@functools.cache
def _projection(G):
    """The projection G -> G / Omega_1(Z(G)), or None when that quotient is
    trivial (G elementary abelian)."""
    N = omega1(G, center(G))
    return quotient(G, N)[1] if N.order < G.order else None


def _draw_images(data, G, pi, t):
    """Exponent tuples in pi's target of the images of G's pc generators:
    pi after conjugation by a random x (a homomorphism), the same with one
    image replaced by a random element, or n random elements."""
    H = pi.target
    element = st.integers(0, H.order - 1).map(lambda x: H.elements[x])
    kind = data.draw(st.sampled_from(["inner", "tampered", "random"]), label=f"kind {t}")
    if kind == "random":
        return data.draw(st.lists(element, min_size=G.n, max_size=G.n), label=f"images {t}")
    x = G.element(G.elements[data.draw(st.integers(0, G.order - 1), label=f"conjugator {t}")])
    images = [pi.apply(g.conj(x)).exps for g in G.gens]
    if kind == "tampered":
        images[data.draw(st.integers(0, G.n - 1), label=f"slot {t}")] = data.draw(element)
    return images


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_relation_check_by_tables_matches_symbolic(data):
    """The stacked relation check, row by row, against the rewriting
    collector: a stack of 1 to 8 image tuples that mixes homomorphisms,
    tampered homomorphisms and random tuples, so that both verdicts occur,
    on both sides of FULL_TABLE_ORDER. The target is G itself, or, for the
    source != target case, the quotient by Omega_1(Z(G))."""
    G = data.draw(st.sampled_from(HOM_GROUPS), label="group")
    pi = identity_endo(G)
    if _projection(G) is not None and data.draw(st.booleans(), label="quotient"):
        pi = _projection(G)
    H = pi.target
    event("source != target" if H != G else "source == target")
    k = data.draw(st.integers(1, 8), label="stack height")
    stack = [_draw_images(data, G, pi, t) for t in range(k)]
    mask = respects_relations(G, H, [[H.index_of(v) for v in images] for images in stack])
    assert mask.shape == (k,)
    for images, verdict in zip(stack, mask):
        event(f"respects relations: {bool(verdict)}")
        assert verdict == _symbolic_verdict(G, H, images)


def test_relation_check_above_full_table_order():
    G = catalog.parse_group_spec("d:3,3+cyclic:3,2")
    assert G.order > FULL_TABLE_ORDER
    images = list(G.gen_indices)
    # the cyclic factor has g_(n-1)^3 = g_n and g_n^3 = 1, so g_(n-1) -> g_n
    # breaks that power relation and no commutator relation
    broken = images[:-2] + images[-1:] * 2
    assert respects_relations(G, G, [images, broken]).tolist() == [True, False]


@functools.cache
def _centre_derivations(G):
    """The module Omega_1(Z(G)) and a basis of Der(G, Omega_1(Z(G)))."""
    M = conjugation_module(G, omega1(G, center(G)))
    return M, derivation_space(G, M).der_array


def _endomorphism_images(data, G, label):
    """Exponent tuples of g -> (g d(g))^x for a random derivation d into
    Omega_1(Z(G)) and a random x, by element arithmetic: a composite of two
    endomorphisms, and an automorphism or not as d falls."""
    M, rows = _centre_derivations(G)
    coeffs = data.draw(
        st.lists(st.integers(0, G.p - 1), min_size=len(rows), max_size=len(rows)), label=label
    )
    delta = derivation_from_vector(G, M, (np.array(coeffs, dtype=np.int64) @ rows) % G.p)
    x = G.element(G.elements[data.draw(st.integers(0, G.order - 1), label=f"{label} conjugator")])
    return [(g * M.realization.decode(delta.evaluate(g))).conj(x).exps for g in G.gens]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hom_apply_compose_power_match_symbolic(data):
    """GroupHom's table arithmetic against words of images collected by the
    rewriting collector, on both sides of FULL_TABLE_ORDER."""
    G = data.draw(st.sampled_from(HOM_GROUPS), label="group")
    outer, inner = (_endomorphism_images(data, G, label) for label in ("outer", "inner"))
    phi = GroupHom(G, G, [G.element(v) for v in outer])
    y = G.element(G.elements[data.draw(st.integers(0, G.order - 1), label="y")])
    assert phi.apply(y).exps == word_image_exps(G, outer, enumerate(y.exps))
    psi = GroupHom(G, G, [G.element(v) for v in inner])
    composite = [word_image_exps(G, outer, enumerate(v)) for v in inner]
    assert phi.compose(psi).images == tuple(G.element(v) for v in composite)
    k = data.draw(st.integers(0, G.p + 1), label="k")
    power = [g.exps for g in G.gens]
    for _ in range(k):
        power = [word_image_exps(G, outer, enumerate(v)) for v in power]
    assert phi.power(k).images == tuple(G.element(v) for v in power)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_element_arithmetic_matches_symbolic(data):
    """Element products, inverses, powers, conjugates, commutators and
    orders read the index tables; each against the rewriting collector's
    arithmetic, on both sides of FULL_TABLE_ORDER."""
    G = data.draw(st.sampled_from(HOM_GROUPS), label="group")
    element = st.integers(0, G.order - 1).map(lambda x: G.element(G.elements[x]))
    x, y = data.draw(element, label="x"), data.draw(element, label="y")
    k = data.draw(st.integers(-2 * G.p, 2 * G.p), label="k")
    assert (x * y).exps == multiply_exps(G, x.exps, y.exps)
    assert x.inverse().exps == inverse_exps(G, x.exps)
    assert (x**k).exps == power_exps(G, x.exps, k)
    assert x.conj(y).exps == conjugate_exps(G, x.exps, y.exps)
    assert x.comm(y).exps == commutator_exps(G, x.exps, y.exps)
    assert x.order() == order_exps(G, x.exps)


ABOVE_FULL_TABLE = [catalog.parse_group_spec(s) for s in ("d:3,3+cyclic:3,2", "wreath:5")]


def _block_widths(G):
    """Generators per product table: all n up to order 243, ceil(n/2) then
    floor(n/2) up to 4096, one each above."""
    if G.order <= EXHAUSTIVE_AUDIT_ORDER:
        return (G.n,)
    if G.order <= FULL_TABLE_ORDER:
        return ((G.n + 1) // 2, G.n // 2)
    return (1,) * G.n


def _check_blocks(G):
    """Each table has p^b columns for its block of b generators; its stride
    is p to the number of generators after the block."""
    widths = _block_widths(G)
    done = itertools.accumulate(widths)
    assert [t.shape for t, _ in G.product_tables] == [(G.order, G.p**b) for b in widths]
    assert [s for _, s in G.product_tables] == [G.p ** (G.n - d) for d in done]


@pytest.mark.parametrize("G", GROUPS + ABOVE_FULL_TABLE, ids=lambda G: G.name)
def test_product_tables_equal_the_full_table(G):
    """Products read one table per block of generators. Up to order 243 the
    one table is the dense table itself. Wherever a dense table can be
    built (here up to 729), the array and the scalar product give it entry
    for entry."""
    _check_blocks(G)
    if G.order <= EXHAUSTIVE_AUDIT_ORDER:
        assert G.product_tables[0][0] is G.full_mult_table
    if G.order > FULL_TABLE_ORDER:
        return
    every = np.arange(G.order)
    full = G.full_mult_table
    assert np.array_equal(G.mult_indices(every[:, None], every[None, :]), full)
    rng = np.random.default_rng(G.order)
    for a, b in rng.integers(0, G.order, size=(200, 2)):
        assert G.mult_index(int(a), int(b)) == full[a, b]


BLOCK_SYMBOLIC = [
    catalog.parse_group_spec(s) for s in ("extraspecial:3,3", "d:2,5+cyclic:5,2")
] + ABOVE_FULL_TABLE


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_products_match_symbolic(data):
    """Orders 2187 to 15625, where no dense table is built: the product
    through two half tables (up to 4096) and through one table per
    generator (above), against the rewriting collector, scalar and as
    arrays."""
    G = data.draw(st.sampled_from(BLOCK_SYMBOLIC), label="group")
    index = st.integers(0, G.order - 1)
    xs = data.draw(st.lists(index, min_size=1, max_size=4), label="x")
    ys = data.draw(st.lists(index, min_size=len(xs), max_size=len(xs)), label="y")
    want = [G.index_of(multiply_exps(G, G.exps_of(x), G.exps_of(y))) for x, y in zip(xs, ys)]
    assert [G.mult_index(x, y) for x, y in zip(xs, ys)] == want
    assert G.mult_indices(xs, ys).tolist() == want
    _check_blocks(G)


@pytest.mark.parametrize("spec", ["elemab:3,12", "heisenberg:97", "cyclic:997,2"])
def test_product_tables_refused_above_the_dense_table_size(spec):
    """Above order 4096 the tables take N p n entries, the fewest any block
    width allows. Where that exceeds FULL_TABLE_ORDER^2, the size of the
    largest dense table, the group is refused before any table is built,
    the generator tables included (cyclic:997,2 would ask for 7.4 GiB)."""
    G = catalog.parse_group_spec(spec)
    assert G.order <= DEFAULT_CAPS.enumeration
    with pytest.raises(CapExceeded) as refused:
        G.mult_index(0, 1)
    assert refused.value.size == G.order * G.p * G.n > FULL_TABLE_ORDER**2
    assert refused.value.cap == FULL_TABLE_ORDER**2
    assert "gen_tables" not in G.__dict__


def test_products_at_order_3125_build_no_full_table():
    """The first product on a fresh group of order 3125 builds two half
    tables, 3125 (5^3 + 5^2) int32 entries, about 1.79 MB, and not the
    37 MB dense table."""
    G = catalog.parse_group_spec("d:2,5+cyclic:5,2")
    assert (G.gen(0) * G.gen(1)).exps == multiply_exps(G, G.gen(0).exps, G.gen(1).exps)
    assert "full_mult_table" not in G.__dict__
    size = sum(t.nbytes for t, _ in G.product_tables)
    assert size == 3125 * (5**3 + 5**2) * 4
    assert size <= 2 * 2**20
