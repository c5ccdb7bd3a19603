import pytest
from hypothesis import given, settings, strategies as st

from pgroups import (
    InputError,
    agemo,
    catalog,
    center,
    centralizer,
    frattini,
    frattini_via_maximals,
    gamma3_agemo,
    hypothesis_report,
    lower_central,
    make_subgroup,
    min_generators,
    normal_closure,
    omega1,
    refine_chain,
    subgroup_generated,
    trivial_subgroup,
    upper_central,
    whole_group,
)
from pgroups.pcgroup import closure_indices, greedy_closure, subgroup_witnesses
from pgroups.series import Subgroup, greedy_elementary_abelian_normal

# p = 3 and p = 5 to order 729, and two groups above the half-table range
SCAN_GROUPS = (
    catalog.default_catalog(3, max_order=729)
    + catalog.default_catalog(5, max_order=729)
    + [catalog.parse_group_spec(s) for s in ("d:3,3+cyclic:3,2", "wreath:5")]
)


def test_heisenberg_series(H3):
    z = center(H3)
    assert z.order == 3 and z.gens_json() == [[0, 0, 1]]
    assert frattini(H3).members == z.members
    assert lower_central(H3, 3).is_trivial
    assert agemo(H3).is_trivial
    assert gamma3_agemo(H3).is_trivial
    assert min_generators(H3) == 2


def test_m27_series(M27):
    phi = frattini(M27)
    assert phi.order == 3
    assert gamma3_agemo(M27).members == phi.members
    rep = hypothesis_report(M27)
    assert rep.powerful and rep.T == 0
    assert rep.center_cyclic


def test_abelian_reports(C9, C33):
    assert center(C9).order == 9
    assert lower_central(C9, 2).is_trivial
    assert hypothesis_report(C9).abelian
    assert "out of scope" in hypothesis_report(C9).to_dict()["note"]
    assert hypothesis_report(C33).center_rank == 2


def test_frattini_two_routes_agree(small_catalog_p3):
    for G in small_catalog_p3:
        assert frattini(G).members == frattini_via_maximals(G).members


def test_center_contained_in_centralizers(H3, M27, W3):
    for G in (H3, M27, W3):
        z = center(G)
        phi = frattini(G)
        assert z.members <= centralizer(G, phi).members
        assert centralizer(G, whole_group(G)).members == z.members


def test_central_series_monotone(W3):
    prev = None
    for i in range(1, 6):
        g = lower_central(W3, i)
        if prev is not None:
            assert g.members <= prev.members
        prev = g
    assert prev.is_trivial
    prev = trivial_subgroup(W3)
    for i in range(1, 5):
        z = upper_central(W3, i)
        assert prev.members <= z.members
        prev = z
    assert prev.order == W3.order


def test_omega1_requires_abelian(H3):
    with pytest.raises(InputError):
        omega1(H3, whole_group(H3))
    z = center(H3)
    assert omega1(H3, z).members == z.members


def test_subgroup_closure_audit(H3):
    """A member set that is not closed under inverses or products differs
    from the closure of its witnesses, and is refused for that."""
    from pgroups.series import Subgroup

    a, b = H3.gen(0).index, H3.gen(1).index
    with pytest.raises(InputError, match="do not generate"):
        Subgroup(H3, frozenset([0, a]), (a,))  # {e, a} lacks a^-1
    with pytest.raises(InputError, match="do not generate"):
        # inverse-closed, but a b is missing
        Subgroup(H3, frozenset([0, a, 2 * a, b, 2 * b]), (a, b))
    with pytest.raises(InputError):
        Subgroup(H3, frozenset([1, 2]), (1,))  # missing the identity


@pytest.mark.parametrize("G", SCAN_GROUPS, ids=lambda G: G.name)
def test_subgroup_without_witnesses_takes_the_greedy_ones(G):
    """Subgroup(G, members) takes exactly the witnesses of greedy_closure."""
    subgroups = (center(G), frattini(G), lower_central(G, 2), agemo(G), whole_group(G))
    for S in subgroups:
        built = Subgroup(G, S.members)
        assert built.gens == greedy_closure(G, S.members)[0]
        assert built == S


def test_subgroup_without_witnesses_refuses_a_non_subgroup(H3):
    a, b = H3.gen(0).index, H3.gen(1).index
    with pytest.raises(InputError, match="do not generate"):
        Subgroup(H3, frozenset([0, a]))  # lacks a^-1
    with pytest.raises(InputError, match="do not generate"):
        Subgroup(H3, frozenset([0, a, 2 * a, b, 2 * b]))  # lacks a b
    with pytest.raises(InputError, match="identity"):
        Subgroup(H3, frozenset([a, 2 * a]))


WITNESS_GROUPS = tuple(
    catalog.parse_group_spec(s)
    for s in ("heisenberg:3", "wreath:3", "extraspecial:3", "d:3,3", "m:5,4")
)


def test_witnesses_read_off_the_pc_series_are_the_greedy_ones():
    """On the subgroup closed from a random seed, subgroup_witnesses gives
    greedy_closure's witnesses in the same order and accepts the set; a
    random set of size p^k with the identity, and a subgroup with one
    member swapped for an outsider, are refused exactly when they are not
    closed, and Subgroup refuses them with the message it always gave."""
    verdicts = set()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def agrees(data):
        G = data.draw(st.sampled_from(WITNESS_GROUPS), label="group")
        element = st.integers(0, G.order - 1)
        seed = data.draw(st.lists(element, max_size=3), label="seed")
        H = closure_indices(G, seed)
        assert subgroup_witnesses(G, H) == (greedy_closure(G, H)[0], True)
        k = data.draw(st.integers(1, G.n - 1), label="k")
        others = st.sets(st.integers(1, G.order - 1), min_size=G.p**k - 1, max_size=G.p**k - 1)
        candidates = [frozenset(data.draw(others, label="random set")) | {0}]
        inside, outside = sorted(H - {0}), sorted(set(range(1, G.order)) - H)
        if inside and outside:
            drop = data.draw(st.sampled_from(inside), label="dropped")
            add = data.draw(st.sampled_from(outside), label="added")
            candidates.append(H - {drop} | {add})
        for S in candidates:
            closed = closure_indices(G, S) == S
            assert subgroup_witnesses(G, S)[1] == closed
            verdicts.add(closed)
            if not closed:
                with pytest.raises(InputError, match="^witnesses do not generate the member set$"):
                    Subgroup(G, S)

    agrees()
    assert False in verdicts


AGEMO_GROUPS = (
    catalog.default_catalog(3, max_order=729)
    + catalog.default_catalog(5, max_order=729)
    + [catalog.parse_group_spec(s) for s in ("cyclic:3,8", "cyclic:5,6")]
)


@pytest.mark.parametrize("G", AGEMO_GROUPS, ids=lambda G: G.name)
def test_agemo_is_the_closure_of_every_pth_power(G):
    powers = set(G.power_p_table.tolist())
    gp = agemo(G)
    assert gp.members == closure_indices(G, powers)
    assert gp.gens == greedy_closure(G, gp.members)[0]


def test_refine_chain_heisenberg(H3):
    ch = refine_chain(H3)
    assert ch.T == 1
    assert [l.order for l in ch.links] == [3, 1]
    assert all(l.is_normal for l in ch.links)


def test_refine_chain_powerful(M27):
    ch = refine_chain(M27)
    assert ch.T == 0 and len(ch.links) == 1


def test_refine_chain_D33():
    D33 = catalog.parse_group_spec("d:3,3")
    ch = refine_chain(D33)
    assert ch.T == 3
    for a, b in zip(ch.links, ch.links[1:]):
        assert a.order == 3 * b.order and b.members <= a.members


def test_refine_chain_deterministic(W3):
    ch1 = refine_chain.__wrapped__(W3)
    ch2 = refine_chain.__wrapped__(W3)
    assert [l.members for l in ch1.links] == [l.members for l in ch2.links]
    assert ch1.pivots == ch2.pivots


def test_hypothesis_heisenberg(H3):
    rep = hypothesis_report(H3)
    assert rep.center_cyclic
    # gamma3 G^p trivial: its centralizer is everything, so the main
    # hypothesis holds
    assert rep.main_hypothesis_holds
    assert not rep.cg_phi_in_phi and rep.cg_phi_witness is not None
    d = rep.to_dict()
    assert d["main_hypothesis_holds"] is True


def test_subgroup_generated_witnesses(H3):
    a = H3.gen(0)
    S = subgroup_generated(H3, [a])
    assert S.order == 3
    assert a.index in S.members


def test_series_memo_dies_with_its_group():
    """Series results are memoized on the group itself, so dropping the
    group frees it with its tables."""
    import gc
    import weakref

    from pgroups import construct_noninner

    G = catalog.parse_group_spec("wreath:3")
    construct_noninner(G)
    G.full_mult_table
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def _normal_closure_by_conj_index(G, seed):
    """Scalar reference: while some conjugate g^-1 x g of a member x by a pc
    generator g lies outside, add the least such to the seed and close."""
    gens, seed = [g.index for g in G.gens], list(seed)
    while True:
        current = closure_indices(G, seed)
        outside = {G.conj_index(x, g) for x in current for g in gens} - current
        if not outside:
            return current
        seed.append(min(outside))


@pytest.mark.parametrize("G", SCAN_GROUPS, ids=lambda G: G.name)
def test_normal_closure_matches_scalar_reference(G):
    """Seeds: each pc generator, the product of them all, and the
    commutators of pairs of pc generators (the seed of gamma_2)."""
    gens = [g.index for g in G.gens]
    seeds = [{g} for g in gens] + [{G.index_of((1,) * G.n)}]
    seeds.append({G.comm_index(a, b) for a in gens for b in gens})
    for seed in seeds:
        got = normal_closure(G, frozenset(seed))
        assert got.members == _normal_closure_by_conj_index(G, seed), seed
        assert got.is_normal


def _greedy_by_element_loop(G):
    """Scalar reference: every pass scans the indices in order and keeps an
    order-p x when x commutes with A's witnesses and <A, x> is elementary
    abelian and closed under conjugation by the pc generators."""
    pw = G.power_p_table
    A = make_subgroup(G, [x for x in center(G).members if pw[x] == 0])
    gens = [g.index for g in G.gens]
    changed = True
    while changed:
        changed = False
        for x in range(1, G.order):
            if x in A.members or int(G.element_orders[x]) != G.p:
                continue
            if any(G.mult_index(x, a) != G.mult_index(a, x) for a in A.gens):
                continue
            cand = closure_indices(G, A.gens + (x,))
            if any(pw[y] for y in cand):
                continue
            if any(G.conj_index(y, g) not in cand for y in cand for g in gens):
                continue
            A = make_subgroup(G, cand)
            changed = True
    return A


@pytest.mark.parametrize("G", SCAN_GROUPS, ids=lambda G: G.name)
def test_greedy_elementary_abelian_normal_matches_scalar_reference(G):
    A = greedy_elementary_abelian_normal(G)
    want = _greedy_by_element_loop(G)
    assert (A.members, A.gens) == (want.members, want.gens)
    assert omega1(G, center(G)).members <= A.members
