import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pgroups import (
    CapExceeded,
    InputError,
    PcPresentation,
    build_D,
    catalog,
    collect,
    enumerate_elements,
    presentation_from_dict,
    presentation_to_dict,
    quotient,
    subgroup_presentation,
)
from pgroups.oracle import find_isomorphism
from pgroups.pcgroup import closure_indices
from pgroups.series import center, frattini

from .models import HeisenbergModel, ModularP3Model, inverse_exps, multiply_exps, power_exps
from .test_order81 import scaffold_grid


def test_collect_identity_and_spec_words(H3):
    assert collect(H3, []).exps == (0, 0, 0)
    # b * a collects to a b c
    assert collect(H3, [(2, 1), (1, 1)]).exps == (1, 1, 1)
    assert collect(H3, [(1, 3)]).exps == (0, 0, 0)
    with pytest.raises(InputError):
        collect(H3, [(4, 1)])


def test_heisenberg_against_matrix_model(H3):
    """Every collected product agrees with the unitriangular matrix model.

    pc normal form a^x b^y c^z corresponds to the matrix triple (y, x, z):
    with [b, a] = c the collected c-exponent of a product picks up x2*y1,
    matching the model's a1*b2 under the swap."""
    model = HeisenbergModel(3)

    def to_model(exps):
        return (exps[1], exps[0], exps[2])

    def from_model(t):
        return (t[1], t[0], t[2])

    for x in model.elements():
        for y in model.elements():
            lhs = multiply_exps(H3, from_model(x), from_model(y))
            assert to_model(lhs) == model.mul(x, y)
    for x in model.elements():
        assert to_model(inverse_exps(H3, from_model(x))) == model.inv(x)


def test_modular_p3_against_affine_model(M27):
    """The order-27 exponent-9 group agrees with its affine model: a acts
    as x -> x + 1 and b as x -> 4x on Z/9."""
    model = ModularP3Model(3)
    a, b, t = (1, 0), (0, 1), (3, 0)

    def to_model(exps):
        out = (0, 0)
        for gen, e in zip((a, b, t), exps):
            for _ in range(e):
                out = model.mul(out, gen)
        return out

    images = {}
    for exps in M27.elements:
        images[exps] = to_model(exps)
    assert len(set(images.values())) == 27  # bijective
    for x in M27.elements:
        for y in M27.elements:
            assert images[multiply_exps(M27, x, y)] == model.mul(images[x], images[y])


def test_commutator_convention(H3):
    a, b, c = H3.gens
    assert b.comm(a).exps == (0, 0, 1)  # [b, a] = c
    assert a.comm(b) == c.inverse()
    # h^g = g^-1 h g
    assert a.conj(b) == b.inverse() * a * b


def test_element_laws_exhaustive(H3, M27):
    for G in (H3, M27):
        for x in enumerate_elements(G):
            assert (x * x.inverse()).is_identity
            assert (x ** G.order).is_identity


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_collect_is_multiplicative_random_words(data):
    G = catalog.heisenberg(3)
    word1 = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5)), max_size=6))
    word2 = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 5)), max_size=6))
    both = collect(G, word1 + word2)
    split = collect(G, word1) * collect(G, word2)
    assert both == split


def test_power_and_order(M27):
    a = M27.gen(0)
    assert a.order() == 9
    assert (a ** 3).exps == (0, 0, 1)
    assert (a ** -1) * a == M27.identity
    assert (a ** -4) == (a ** 4).inverse() == a ** 5  # order 9


def test_enumeration_cap():
    G = catalog.parse_group_spec("d:4,7")  # order 7^10
    with pytest.raises(CapExceeded):
        G.elements


def test_build_D_orders_and_exponent():
    D23 = build_D(2, 3)
    assert D23.order == 27
    D33 = build_D(3, 3)
    assert D33.order == 729
    D25 = build_D(2, 5)
    assert all(power_exps(D25, e, 5) == D25.identity_exps for e in D25.elements)
    with pytest.raises(InputError):
        build_D(1, 3)


def test_build_D_isomorphic_to_heisenberg(H3, D23):
    iso = find_isomorphism(D23, H3)
    assert iso is not None and iso.is_isomorphism


def test_audit_rejects_inconsistent_table():
    # [b, a] = b is not weighted; the constructor refuses it outright
    with pytest.raises(InputError):
        PcPresentation(
            p=3,
            power_rhs=((0, 0), (0, 0)),
            comm_rhs=(((1, 0), (0, 1)),),
        )


def test_quotient_rejects_non_normal(M27):
    # <b> has order 3 but is not normal in the modular group; quotient and
    # Subgroup.is_normal decide that by the same check
    from pgroups import center, subgroup_generated

    b = M27.gen(1)
    S = subgroup_generated(M27, [b])
    assert S.order == 3
    assert not S.is_normal and center(M27).is_normal
    with pytest.raises(InputError, match="not normal"):
        quotient(M27, S)


def test_non_subgroup_refused(H3):
    # {e, a} misses a^2
    for build in (quotient, subgroup_presentation):
        with pytest.raises(InputError, match="not a subgroup"):
            build(H3, [H3.identity, H3.gen(0)])


def test_quotient_by_trivial_is_isomorphic(H3):
    Q, proj = quotient(H3, [H3.identity])
    assert Q.order == H3.order
    assert proj.is_isomorphism


def test_quotient_heisenberg_by_center(H3):
    c = H3.gen(2)
    from pgroups import subgroup_generated

    N = subgroup_generated(H3, [c])
    Q, proj = quotient(H3, N)
    assert Q.order == 9
    assert Q.is_abelian
    assert all(power_exps(Q, e, 3) == Q.identity_exps for e in Q.elements)
    assert proj.is_surjective
    # kernel is exactly N
    ker = [x for x in enumerate_elements(H3) if proj.apply(x).is_identity]
    assert sorted(x.index for x in ker) == sorted(N.members)
    # projection is a homomorphism on all pairs
    for x in enumerate_elements(H3):
        for y in enumerate_elements(H3):
            assert proj.apply(x * y) == proj.apply(x) * proj.apply(y)


def test_quotient_D_by_frattini():
    from pgroups import frattini

    D = build_D(2, 3)
    Q, proj = quotient(D, frattini(D).members)
    assert Q.order == 9 and Q.is_abelian


def test_subgroup_presentation_roundtrip(M27):
    from pgroups import frattini

    phi = frattini(M27)
    S, embed = subgroup_presentation(M27, phi.members)
    assert S.order == phi.order
    assert embed.is_injective
    assert {embed.apply(x).index for x in enumerate_elements(S)} == set(phi.members)


# p = 3 and p = 5 to order 625, and two groups above the dense-table range
CLOSURE_GROUPS = (
    catalog.default_catalog(3, max_order=625)
    + catalog.default_catalog(5, max_order=625)
    + [catalog.parse_group_spec(s) for s in ("heisenberg:7", "d:3,3")]
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_closure_extends_the_closure_of_part_of_its_seed(data):
    """Started from the subgroup that a prefix of the seed generates, the
    closure reaches the subgroup the whole seed generates."""
    G = data.draw(st.sampled_from(CLOSURE_GROUPS), label="group")
    seed = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=4), label="seed")
    k = data.draw(st.integers(0, len(seed)), label="split")
    start = closure_indices(G, seed[:k])
    assert closure_indices(G, seed, start) == closure_indices(G, seed)


def test_tail_chain_is_an_index_range():
    """<g_i, ..., g_n> is the set of indices below p^(n-i), consistent
    presentation or not: quotients and subgroup presentations read their
    chain as these ranges."""
    for G in CLOSURE_GROUPS + list(scaffold_grid()):
        for i in range(G.n + 1):
            tail = closure_indices(G, G.gen_indices[i:])
            assert tail == frozenset(range(G.p ** (G.n - i))), (G.name, i)


def _zero_powers(n):
    return [[0] * n for _ in range(n)]


# (group, construction): the presentation's name, powers and commutators, and
# the generator images of the projection or embedding, as recorded when the
# chain was built by closing each tail subgroup
CHAIN_PINS = {
    ("heisenberg:3", "quotient Phi"): ("heisenberg:3/N", _zero_powers(2), {}, [3, 1, 0]),
    ("heisenberg:3", "quotient Z"): ("heisenberg:3/N", _zero_powers(2), {}, [3, 1, 0]),
    ("heisenberg:3", "subgroup Phi"): ("heisenberg:3|sub", [[0]], {}, [1]),
    ("wreath:3", "quotient Phi"): ("wreath:3/N", _zero_powers(2), {}, [3, 1, 0, 0]),
    ("wreath:3", "quotient Z"): ("wreath:3/N", _zero_powers(3), {"2,1": [0, 0, 1]}, [9, 3, 1, 0]),
    ("wreath:3", "subgroup Phi"): ("wreath:3|sub", _zero_powers(2), {}, [3, 1]),
    ("d:3,3", "quotient Phi"): ("d:3,3/N", _zero_powers(3), {}, [9, 3, 1, 0, 0, 0]),
    ("d:3,3", "quotient Z"): ("d:3,3/N", _zero_powers(3), {}, [9, 3, 1, 0, 0, 0]),
    ("d:3,3", "subgroup Phi"): ("d:3,3|sub", _zero_powers(3), {}, [9, 3, 1]),
    ("m:5,4", "quotient Phi"): ("m:5,4/N", _zero_powers(2), {}, [5, 1, 0, 0]),
    ("m:5,4", "quotient Z"): ("m:5,4/N", _zero_powers(2), {}, [5, 1, 0, 0]),
    ("m:5,4", "subgroup Phi"): ("m:5,4|sub", [[0, 1], [0, 0]], {}, [5, 1]),
    ("extraspecial:3,3", "quotient Phi"): (
        "extraspecial:3,3/N", _zero_powers(6), {}, [243, 81, 27, 9, 3, 1, 0]
    ),
    ("extraspecial:3,3", "quotient Z"): (
        "extraspecial:3,3/N", _zero_powers(6), {}, [243, 81, 27, 9, 3, 1, 0]
    ),
    ("extraspecial:3,3", "subgroup Phi"): ("extraspecial:3,3|sub", [[0]], {}, [1]),
}


@pytest.mark.parametrize("spec", list(dict.fromkeys(spec for spec, _ in CHAIN_PINS)))
def test_chain_builder_pins(spec):
    G = catalog.parse_group_spec(spec)
    built = {
        "quotient Phi": quotient(G, frattini(G)),
        "quotient Z": quotient(G, center(G)),
        "subgroup Phi": subgroup_presentation(G, frattini(G)),
    }
    for what, (P, hom) in built.items():
        name, powers, comms, images = CHAIN_PINS[spec, what]
        want = {"name": name, "p": G.p, "n": len(powers), "powers": powers, "commutators": comms}
        assert presentation_to_dict(P) == want, what
        assert list(hom.image_indices) == images, what


def test_json_roundtrip_all_catalog(small_catalog_p3, tmp_path):
    from pgroups import dump_presentation, load_presentation

    for G in small_catalog_p3:
        d = presentation_to_dict(G)
        G2 = presentation_from_dict(d)
        assert G2 == G
        path = tmp_path / "g.json"
        dump_presentation(G, path)
        assert load_presentation(path) == G


def test_presentation_from_dict_rejects_garbage():
    with pytest.raises(InputError):
        presentation_from_dict({"p": 3})
    with pytest.raises(InputError):
        presentation_from_dict(
            {"name": "x", "p": 4, "n": 1, "powers": [[0]], "commutators": {}}
        )
    with pytest.raises(InputError):
        presentation_from_dict(
            {"name": "x", "p": 3, "n": 2, "powers": [[0, 0], [0, 0]], "commutators": {"2,1": [1, 0]}}
        )


def test_audit_modes(H3):
    res = H3.audit()
    assert res["mode"] == "exhaustive"
    D33 = build_D(3, 3)
    assert D33.audit()["mode"] == "overlap"


def test_audit_holds_no_temporary_near_the_table():
    """Light's test runs a block of rows at a time: with the tables built,
    the audit of extraspecial:3 (order 243) traces below 128 KB, where two
    whole N^2 int32 temporaries took 554 KB."""
    G = catalog.parse_group_spec("extraspecial:3")
    first = G.audit()
    tracemalloc.start()
    try:
        again = G.audit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == again == {"mode": "exhaustive", "triples": 5 * 243 * 243, "order": 243}
    assert peak < 128 * 1024, peak


def test_audit_refuses_a_table_corrupted_only_in_its_last_rows():
    """Two entries swapped in each of the last three rows, away from the
    columns that the identity law, the closure and the inverse law read:
    only the last row block of Light's test sees them."""
    G = catalog.parse_group_spec("extraspecial:3")
    bad = G.full_mult_table.copy()
    N = G.order
    for x in range(N - 3, N):
        read = {0, int(G.inv_table[x]), *G.gen_indices}
        cols = [y for y in range(N) if y not in read][:2]
        bad[x, cols] = bad[x, cols[::-1]]
    fresh = catalog.parse_group_spec("extraspecial:3")
    vars(fresh)["full_mult_table"] = bad
    with pytest.raises(InputError, match="associativity failed"):
        fresh.audit()


def test_direct_product_structure(H3, C3):
    from pgroups import direct_product

    P = direct_product(H3, C3)
    assert P.order == 81
    assert P.audit()["mode"] == "exhaustive"
    # factors commute
    a = P.element((1, 0, 0, 0))
    u = P.element((0, 0, 0, 1))
    assert a * u == u * a
