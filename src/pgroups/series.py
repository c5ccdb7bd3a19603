"""Characteristic subgroups, centralizers, and the refined Frattini chain.

Subgroups are explicit closed element-index sets with generator witnesses,
which makes membership exact and O(1) at the orders this library targets.
The witnesses are read off the pc series, an induced pc sequence in the
sense of Holt, Eick and O'Brien, *Handbook of Computational Group Theory*
(2005), ch. 8: with G_i = <g_i, ..., g_n> the indices below p g_i, the
least member in each band G_i minus G_(i+1) that the subgroup meets,
smallest band first (`pcgroup.subgroup_witnesses`). The same bands decide
whether a member set is a subgroup, with no closure built. All operations
are pure functions of immutable inputs and are memoized per (group,
arguments) in a dict kept on the group object, so the results die with
the group.
"""

from __future__ import annotations

from functools import wraps
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import gflinalg as la
from .errors import Frozen, InputError
from .pcgroup import (
    Element,
    PcPresentation,
    closure_indices,
    conjugates,
    greedy_closure,
    is_normal_indices,
    subgroup_witnesses,
)


def _per_group(fn):
    """Memoize fn(G, *args) in a dict stored on G, as the table
    cached_propertys of PcPresentation are.

    The memo holds Subgroups, and each Subgroup's `parent` is G, so G, its
    tables and the memo form a reference cycle: dropping the last outside
    reference to G frees them only at the next full GC pass. A caller that
    is done with G breaks the cycle with `release_series(G)`, and then
    refcounting frees G as soon as it goes out of scope."""

    @wraps(fn)
    def memoized(G: PcPresentation, *args):
        memo = G.__dict__.setdefault("_series_memo", {})
        key = (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(G, *args)
        return memo[key]

    return memoized


def release_series(G: PcPresentation) -> None:
    """Drop G's series memo, which breaks the G -> memo -> Subgroup -> G
    cycle. Later series queries on G recompute their results."""
    G.__dict__.pop("_series_memo", None)


class Subgroup(Frozen):
    """Subgroup as a closed element-index set plus generator witnesses.

    Without witnesses, the band rule gives them: the least member in each
    band [g_i, p g_i) of the pc series that the set meets, smallest band
    first, which are the witnesses `greedy_closure` would pick. The set is
    then a subgroup exactly when it holds the identity, has p^|W| members
    and is closed under right multiplication by each witness
    (`subgroup_witnesses`, where the proof is). Given witnesses are
    checked by closing them. Either way a set that is not the subgroup its
    witnesses generate is refused."""

    def __init__(
        self, parent: PcPresentation, members: frozenset[int], gens: Sequence[int] | None = None
    ):
        if 0 not in members:
            raise InputError("subgroup must contain the identity")
        if gens is None:
            gens, generated = subgroup_witnesses(parent, members)
        else:
            for g in gens:
                if g not in members:
                    raise InputError("generator witness outside the subgroup")
            generated = closure_indices(parent, gens) == members
        if not generated:
            raise InputError("witnesses do not generate the member set")
        vars(self).update(parent=parent, members=members, gens=tuple(gens))

    def _key(self) -> tuple:
        return (self.parent, self.members, self.gens)

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, x) -> bool:
        if isinstance(x, Element):
            return x.index in self.members
        return int(x) in self.members

    def __le__(self, other: "Subgroup") -> bool:
        return self.members <= other.members

    def __lt__(self, other: "Subgroup") -> bool:
        return self.members < other.members

    @property
    def elements(self) -> list[Element]:
        return [
            Element(self.parent, self.parent.exps_of(i)) for i in sorted(self.members)
        ]

    @property
    def gen_elements(self) -> tuple[Element, ...]:
        return tuple(Element(self.parent, self.parent.exps_of(i)) for i in self.gens)

    @property
    def is_trivial(self) -> bool:
        return len(self.members) == 1

    @property
    def is_abelian(self) -> bool:
        """The generator witnesses commute pairwise."""
        G, gens = self.parent, self.gens
        return all(
            G.mult_index(x, y) == G.mult_index(y, x) for k, x in enumerate(gens) for y in gens[:k]
        )

    @property
    def is_normal(self) -> bool:
        return is_normal_indices(self.parent, self.members)

    @property
    def is_elementary_abelian(self) -> bool:
        if not self.is_abelian:
            return False
        return not self.parent.power_p_table[list(self.members)].any()

    def gens_json(self) -> list[list[int]]:
        return [list(self.parent.exps_of(g)) for g in self.gens]

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.name or 'G'})"


def make_subgroup(G: PcPresentation, members: Iterable[int]) -> Subgroup:
    """The subgroup on the given member indices (Python ints) and the
    identity, with the witnesses read off the pc series."""
    return Subgroup(G, frozenset(members) | {0})


def subgroup_generated(G: PcPresentation, seed: Iterable) -> Subgroup:
    idxs = []
    for s in seed:
        idxs.append(s.index if isinstance(s, Element) else int(s))
    return make_subgroup(G, closure_indices(G, idxs))


@_per_group
def trivial_subgroup(G: PcPresentation) -> Subgroup:
    return Subgroup(G, frozenset([0]), ())


@_per_group
def whole_group(G: PcPresentation) -> Subgroup:
    G._require_enumerable("subgroup computations")
    return make_subgroup(G, range(G.order))


def _centralizing(G: PcPresentation, gens: Iterable[int], xs: np.ndarray | None = None) -> list[int]:
    """Indices of the elements (of xs, all when None) that commute with
    every given element."""
    if xs is None:
        xs = np.arange(G.order)
    for g in gens:
        xs = xs[G.mult_indices(xs, g) == G.mult_indices(g, xs)]
    return xs.tolist()


@_per_group
def center(G: PcPresentation) -> Subgroup:
    G._require_enumerable("center")
    return make_subgroup(G, _centralizing(G, G.gen_indices))


@_per_group
def centralizer(G: PcPresentation, S: Subgroup) -> Subgroup:
    """C_G(S): elements commuting with every member (generators suffice)."""
    if S.parent != G:
        raise InputError("subgroup of a different group")
    if not S.gens:
        return whole_group(G)
    return make_subgroup(G, _centralizing(G, S.gens))


@_per_group
def normal_closure(G: PcPresentation, seed: frozenset[int]) -> Subgroup:
    """Close the seed, then add the conjugates of its generating witnesses
    by the pc generators, until the closure is normal."""
    current = closure_indices(G, seed)
    while not is_normal_indices(G, current):
        gens = subgroup_witnesses(G, current)[0]
        current = closure_indices(G, gens + tuple(conjugates(G, gens).ravel().tolist()), current)
    return make_subgroup(G, current)


@_per_group
def lower_central(G: PcPresentation, i: int) -> Subgroup:
    """gamma_i(G); gamma_1 = G, gamma_{k+1} = [gamma_k, G]."""
    if i < 1:
        raise InputError("lower central series starts at 1")
    if i == 1:
        return whole_group(G)
    prev = lower_central(G, i - 1)
    if prev.is_trivial:
        return prev
    seed = {G.comm_index(a, g) for a in prev.gens for g in G.gen_indices}
    return normal_closure(G, frozenset(seed))


@_per_group
def upper_central(G: PcPresentation, i: int) -> Subgroup:
    """Z_i(G); Z_0 = 1, Z_{k+1}/Z_k = Z(G/Z_k)."""
    if i < 0:
        raise InputError("upper central series starts at 0")
    if i == 0:
        return trivial_subgroup(G)
    prev = upper_central(G, i - 1)
    in_prev = np.zeros(G.order, dtype=bool)
    in_prev[list(prev.members)] = True
    inv = G.inv_table
    xs = np.arange(G.order)
    for g in G.gen_indices:
        # [x, g] = x^-1 g^-1 x g
        comm = G.mult_indices(G.mult_indices(G.mult_indices(inv[xs], inv[g]), xs), g)
        xs = xs[in_prev[comm]]
    return make_subgroup(G, xs.tolist())


@_per_group
def agemo(G: PcPresentation) -> Subgroup:
    """G^p, generated by all p-th powers."""
    G._require_enumerable("agemo")
    # the closure of the greedy witnesses of the p-th powers, not of the
    # powers themselves: each closure then starts from at most n seeds
    return make_subgroup(G, greedy_closure(G, set(G.power_p_table.tolist()))[1])


@_per_group
def frattini(G: PcPresentation) -> Subgroup:
    """Phi(G) = G^p [G, G]."""
    gp = agemo(G)
    g2 = lower_central(G, 2)
    return make_subgroup(G, closure_indices(G, gp.gens + g2.gens, g2.members))


@_per_group
def frattini_via_maximals(G: PcPresentation) -> Subgroup:
    """Independent route: intersection of all maximal subgroups, found as
    common kernels of the surjections onto C_p."""
    p = G.p
    # hom to C_p: values v_i on generators, constrained by exponent sums of relators
    rows = []
    for i in range(G.n):
        rows.append([e % p for e in G.power_rhs[i]])
    for (j, i), rhs in G.comm_rhs:
        rows.append([e % p for e in rhs])
    basis = la.nullspace(np.array(rows, dtype=np.int64), p)
    if basis.size == 0:
        return whole_group(G)
    mem = [
        x
        for x in range(G.order)
        if all(
            sum(int(v) * e for v, e in zip(row, G.elements[x])) % p == 0
            for row in basis
        )
    ]
    return make_subgroup(G, mem)


@_per_group
def omega1(G: PcPresentation, A: Subgroup) -> Subgroup:
    """Omega_1(A) for abelian A: elements of order dividing p."""
    if not A.is_abelian:
        raise InputError("omega1 is only provided for abelian subgroups")
    mem = np.fromiter(A.members, dtype=np.int64)
    return make_subgroup(G, mem[G.power_p_table[mem] == 0].tolist())


@_per_group
def gamma3_agemo(G: PcPresentation) -> Subgroup:
    """gamma_3(G) G^p."""
    g3 = lower_central(G, 3)
    gp = agemo(G)
    return make_subgroup(G, closure_indices(G, g3.gens + gp.gens, g3.members))


def min_generators(G: PcPresentation) -> int:
    """d(G) = log_p |G / Phi(G)|."""
    phi = frattini(G)
    quotient_order = G.order // phi.order
    d = 0
    while quotient_order > 1:
        quotient_order //= G.p
        d += 1
    return d


def subgroup_center(G: PcPresentation, S: Subgroup) -> Subgroup:
    """Z(S) = C_G(S) intersect S."""
    c = centralizer(G, S)
    return make_subgroup(G, c.members & S.members)


@_per_group
def greedy_elementary_abelian_normal(G: PcPresentation) -> Subgroup:
    """A (maximal under greedy extension) elementary abelian normal
    subgroup containing the p-torsion of the center. Deterministic: scans
    order-p elements in index order and keeps every extension that stays
    elementary abelian and normal."""
    A = omega1(G, center(G))
    order_p = np.flatnonzero(G.element_orders == G.p)
    changed = True
    while changed:
        changed, after = False, 0
        while after is not None:
            # A has grown at `after`: the rest of the pass scans the order-p
            # elements past it that commute with the new A
            xs = _centralizing(G, A.gens, order_p[order_p > after])
            after = None
            for x in xs:
                if x in A.members:
                    continue
                cand = closure_indices(G, A.gens + (x,), A.members)
                if G.power_p_table[list(cand)].any() or not is_normal_indices(G, cand):
                    continue
                A = make_subgroup(G, cand)
                changed, after = True, x
                break
    return A


class SubgroupChain:
    """Chain Phi(G) = P_0 >= P_1 >= ... >= P_T = gamma_3(G) G^p with
    index-p steps; pivots[i] is the element generating P_i over P_{i+1}."""

    def __init__(self, group: PcPresentation, links: tuple[Subgroup, ...], pivots: tuple[int, ...]):
        p = group.p
        for a, b in zip(links, links[1:]):
            if not b < a or a.order != p * b.order:
                raise InputError("chain steps must have index p")
        for link in links:
            if not link.is_normal:
                raise InputError("chain links must be normal in G")
        self.group, self.links, self.pivots = group, links, pivots

    @property
    def T(self) -> int:
        return len(self.links) - 1


@_per_group
def refine_chain(G: PcPresentation) -> SubgroupChain:
    """Refine Phi(G) over gamma_3(G) G^p into index-p normal steps.

    Deterministic length-T descent: at each step the pivot is the
    lexicographically smallest nontrivial coset representative of the
    current link over gamma_3(G) G^p, and the next link drops it.
    """
    phi = frattini(G)
    bottom = gamma3_agemo(G)
    if not bottom.members <= phi.members:
        raise InputError("gamma_3(G) G^p must lie inside Phi(G)")
    links = [phi]
    pivots = []
    current = phi
    while current.members != bottom.members:
        # greedy lex basis of current over bottom
        basis = greedy_closure(G, current.members, bottom.gens)[0]
        pivot = basis[0]
        nxt = make_subgroup(G, closure_indices(G, bottom.gens + basis[1:], bottom.members))
        links.append(nxt)
        pivots.append(pivot)
        current = nxt
    return SubgroupChain(G, tuple(links), tuple(pivots))


class HypothesisReport(NamedTuple):
    """Containment facts steering the non-inner construction, with witnesses
    (an element of the left side outside the right side) where containment
    fails."""

    group_name: str
    abelian: bool
    center_cyclic: bool
    center_rank: int
    powerful: bool
    T: int
    cg_phi_in_phi: bool
    cg_phi_witness: tuple[int, ...] | None
    omega1_center_in_bottom: bool
    omega1_center_witness: tuple[int, ...] | None
    cg_bottom_in_bottom: bool
    cg_bottom_witness: tuple[int, ...] | None
    cg_center_of_bottom_in_bottom: bool
    cg_center_of_bottom_witness: tuple[int, ...] | None

    @property
    def main_hypothesis_holds(self) -> bool:
        """Cyclic center and C_G(Z(gamma_3 G^p)) not inside gamma_3 G^p."""
        return self.center_cyclic and not self.cg_center_of_bottom_in_bottom

    def to_dict(self) -> dict:
        out = {
            "group": self.group_name,
            "abelian": self.abelian,
            "center_cyclic": self.center_cyclic,
            "center_rank": self.center_rank,
            "powerful": self.powerful,
            "T": self.T,
            "cg_phi_in_phi": self.cg_phi_in_phi,
            "omega1_center_in_gamma3gp": self.omega1_center_in_bottom,
            "cg_gamma3gp_in_gamma3gp": self.cg_bottom_in_bottom,
            "cg_z_gamma3gp_in_gamma3gp": self.cg_center_of_bottom_in_bottom,
            "main_hypothesis_holds": self.main_hypothesis_holds,
        }
        if self.abelian:
            out["note"] = "abelian: conjecture out of scope"
        for key, wit in (
            ("cg_phi_witness", self.cg_phi_witness),
            ("omega1_center_witness", self.omega1_center_witness),
            ("cg_gamma3gp_witness", self.cg_bottom_witness),
            ("cg_z_gamma3gp_witness", self.cg_center_of_bottom_witness),
        ):
            if wit is not None:
                out[key] = list(wit)
        return out


def _containment_witness(
    G: PcPresentation, left: Subgroup, right: Subgroup
) -> tuple[bool, tuple[int, ...] | None]:
    diff = left.members - right.members
    if not diff:
        return True, None
    return False, G.exps_of(min(diff))


@_per_group
def hypothesis_report(G: PcPresentation) -> HypothesisReport:
    z = center(G)
    abelian = z.order == G.order
    phi = frattini(G)
    bottom = gamma3_agemo(G)
    chain_T = 0
    t_order = phi.order // bottom.order
    while t_order > 1:
        t_order //= G.p
        chain_T += 1
    # rank of the (abelian) center
    z_omega = omega1(G, z)
    center_rank = 0
    o = z_omega.order
    while o > 1:
        o //= G.p
        center_rank += 1
    cg_phi_ok, cg_phi_wit = _containment_witness(G, centralizer(G, phi), phi)
    om_ok, om_wit = _containment_witness(G, z_omega, bottom)
    cgb_ok, cgb_wit = _containment_witness(G, centralizer(G, bottom), bottom)
    zb = subgroup_center(G, bottom)
    cgzb_ok, cgzb_wit = _containment_witness(G, centralizer(G, zb), bottom)
    return HypothesisReport(
        group_name=G.name,
        abelian=abelian,
        center_cyclic=center_rank <= 1,
        center_rank=center_rank,
        powerful=chain_T == 0,
        T=chain_T,
        cg_phi_in_phi=cg_phi_ok,
        cg_phi_witness=cg_phi_wit,
        omega1_center_in_bottom=om_ok,
        omega1_center_witness=om_wit,
        cg_bottom_in_bottom=cgb_ok,
        cg_bottom_witness=cgb_wit,
        cg_center_of_bottom_in_bottom=cgzb_ok,
        cg_center_of_bottom_witness=cgzb_wit,
    )
