"""Empirical classification of the groups of order 81 and a conjecture
sweep over all of them.

Fifteen pairwise non-isomorphic consistent presentations are built (five
abelian, six of class two, four of maximal class); the maximal-class ones
come out of a parameter scan over the weighted scaffold
[g2,g1] = g3, [g3,g1] = g4 central. Every non-abelian one must agree
with the exhaustive oracle, and the maximal-class family resolves through
the constructive chain branch.
"""

import itertools
from collections import Counter

import pytest

from pgroups import (
    PcPresentation,
    catalog,
    center,
    frattini,
    lower_central,
    min_generators,
    omega1,
    verify_conjecture,
)
from pgroups.errors import InputError
from pgroups.oracle import find_isomorphism

Z4 = (0, 0, 0, 0)


def e4(i, c=1):
    v = [0, 0, 0, 0]
    v[i] = c
    return tuple(v)


def scaffold_grid():
    """All 81 presentations on the maximal-class scaffold, consistent or not."""
    for k, i, j, l in itertools.product(range(3), repeat=4):
        comms = [((1, 0), e4(2)), ((2, 0), e4(3))]
        if k:
            comms.append(((2, 1), e4(3, k)))
        yield PcPresentation(
            p=3,
            power_rhs=(e4(3, i), e4(3, j), e4(3, l), Z4),
            comm_rhs=tuple(sorted(comms)),
            name=f"mc:{k}{i}{j}{l}",
        )


def maximal_class_scan():
    """All consistent presentations on the maximal-class scaffold."""
    found = []
    for P in scaffold_grid():
        try:
            P.audit()
            found.append(P)
        except InputError:
            continue
    return found


def fingerprint(G):
    orders = Counter(int(o) for o in G.element_orders)
    z = center(G)
    z_rank = 0
    o = omega1(G, z).order
    while o > 1:
        o //= G.p
        z_rank += 1
    return (
        tuple(sorted(orders.items())),
        z.order,
        z_rank,
        frattini(G).order,
        lower_central(G, 2).order,
        lower_central(G, 3).order,
        min_generators(G),
    )


def dedupe(groups):
    buckets = {}
    for G in groups:
        buckets.setdefault(fingerprint(G), []).append(G)
    reps = []
    for ps in buckets.values():
        chosen = [ps[0]]
        for q in ps[1:]:
            if all(find_isomorphism(q, c) is None for c in chosen):
                chosen.append(q)
        reps.extend(chosen)
    return reps


@pytest.fixture(scope="module")
def all_eighty_one():
    abelian = [
        catalog.parse_group_spec(s)
        for s in (
            "cyclic:3,4",
            "cyclic:3,3+cyclic:3,1",
            "cyclic:3,2+cyclic:3,2",
            "cyclic:3,2+elemab:3,2",
            "elemab:3,4",
        )
    ]
    class_two = [
        catalog.parse_group_spec("m:3,4"),
        # C9 : C9 with b^-1 a b = a^4; pc generators b, a, a^3, b^3
        PcPresentation(
            p=3, power_rhs=(e4(3), e4(2), Z4, Z4), comm_rhs=(((1, 0), e4(2)),),
            name="c9-by-c9",
        ),
        # a of order 9, b of order 3, [b, a] a fresh central generator
        PcPresentation(
            p=3, power_rhs=(e4(3), Z4, Z4, Z4), comm_rhs=(((1, 0), e4(2)),),
            name="ext-c9xc3",
        ),
        # central product of C9 with the exponent-3 extraspecial group
        PcPresentation(
            p=3, power_rhs=(Z4, Z4, e4(3), Z4), comm_rhs=(((1, 0), e4(3)),),
            name="c9-cprod-heis",
        ),
        catalog.parse_group_spec("heisenberg:3+cyclic:3,1"),
        catalog.parse_group_spec("m:3+cyclic:3,1"),
    ]
    max_class = dedupe(maximal_class_scan())
    return abelian, class_two, max_class


def test_scaffold_scan_finds_four_types(all_eighty_one):
    _, _, max_class = all_eighty_one
    assert len(max_class) == 4
    # the split one is the wreath product
    W = catalog.wreath_cyclic(3)
    assert sum(1 for P in max_class if find_isomorphism(W, P) is not None) == 1


def test_fifteen_isomorphism_types(all_eighty_one):
    abelian, class_two, max_class = all_eighty_one
    groups = abelian + class_two + max_class
    assert all(G.order == 81 for G in groups)
    for G in groups:
        G.audit()
    fps = [fingerprint(G) for G in groups]
    # the enriched fingerprint separates everything at this order: no iso
    # searches needed for distinctness
    assert len(set(fps)) == len(groups) == 15


def test_all_five_order_27_types_in_catalog():
    """The default catalog contains every isomorphism type of order 27,
    and the verify report marks exactly the two non-abelian ones."""
    groups = [G for G in catalog.default_catalog(3) if G.order == 27]
    fps = {fingerprint(G) for G in groups}
    assert len(fps) == 5
    rows = verify_conjecture([G for G in groups if fingerprint(G) in fps])
    nonab = [r for r in rows if r["pipeline"] != "n/a (abelian)"]
    assert len({r["group"] for r in nonab}) >= 2
    assert all(r["oracle"] == "exists" for r in nonab)
    assert all(r["agree"] for r in rows)


def test_conjecture_sweep_order_81(all_eighty_one):
    abelian, class_two, max_class = all_eighty_one
    rows = verify_conjecture(class_two + max_class)
    assert all(r["agree"] for r in rows)
    assert all(r["oracle"] == "exists" for r in rows)
    # the maximal-class family resolves constructively
    for r in rows[len(class_two):]:
        assert r["pipeline"] == "Theorem 01 at i=0"
    abelian_rows = verify_conjecture(abelian)
    assert all(r["pipeline"] == "n/a (abelian)" for r in abelian_rows)
