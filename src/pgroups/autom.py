"""Derivation-induced endomorphisms, order and inner-ness tests, and the
construction pipeline for certified non-inner automorphisms of order p.

A derivation d into an abelian normal subgroup realized inside G induces
the endomorphism g -> g d(g). Certificates carry machine-checkable
evidence only: re-verification uses nothing but group arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import gflinalg as la
from .errors import DEFAULT_CAPS, Caps, InputError, OutOfScope, VerificationFailed
from .deriv import (
    Derivation,
    derivation_from_vector,
    derivation_space,
    vanishing_subspace,
)
from .fpmod import FpModule, conjugation_module
from .pcgroup import Element, GroupHom, PcPresentation, closure_indices, identity_endo
from .series import (
    Subgroup,
    center,
    greedy_elementary_abelian_normal,
    hypothesis_report,
    omega1,
    refine_chain,
    subgroup_center,
    trivial_subgroup,
)


def inner_of(x: Element) -> GroupHom:
    """Conjugation g -> x^-1 g x."""
    G = x.pres
    return GroupHom(G, G, tuple(g.conj(x) for g in G.gens))


def induce(delta: Derivation) -> GroupHom:
    """g -> g d(g) for a derivation into a module realized inside G."""
    M = delta.module
    if M.realization is None:
        raise InputError("inducing needs a module realized inside the group")
    G = delta.group
    imgs = []
    for i in range(G.n):
        g = G.gen(i)
        imgs.append(g * M.realization.decode(delta.evaluate(g)))
    return GroupHom(G, G, tuple(imgs))


def order_of(phi: GroupHom) -> int:
    """Least k >= 1 with phi^k = id, by direct iteration on image tuples."""
    if not phi.is_automorphism:
        raise InputError("order is defined for automorphisms")
    G = phi.source
    ident = identity_endo(G).image_indices
    cur = phi.image_indices
    k = 1
    bound = 8 * G.order
    while cur != ident:
        cur = tuple(phi.apply_index(c) for c in cur)
        k += 1
        if k > bound:
            raise InputError("order iteration exceeded bound")  # pragma: no cover
    return k


def order_via_formula(delta: Derivation, n: int) -> GroupHom:
    """phi^n computed from the binomial product formula
    phi^n(g) = prod_{i=0..n} (d^i(g))^C(n,i), d^0(g) = g."""
    M = delta.module
    if M.realization is None:
        raise InputError("formula evaluation needs a realized module")
    G = delta.group
    real = M.realization
    imgs = []
    for gi in range(G.n):
        g = G.gen(gi)
        acc = g ** math.comb(n, 0)
        val = delta.evaluate(g)  # d^1(g)
        for i in range(1, n + 1):
            term = real.decode(val)
            acc = acc * (term ** math.comb(n, i))
            if i < n:
                val = delta.evaluate(real.decode(val))
        imgs.append(acc)
    return GroupHom(G, G, tuple(imgs))


def order_of_fast(delta: Derivation, phi: GroupHom | None = None) -> int:
    """Order via the binomial formula at p-power exponents, cross-checked
    against iterated composition at each step."""
    if phi is None:
        phi = induce(delta)
    if phi.is_identity:
        return 1
    G = delta.group
    p = G.p
    n = p
    k = 1
    while True:
        by_formula = order_via_formula(delta, n)
        by_iteration = phi.power(n)
        if by_formula.image_indices != by_iteration.image_indices:
            raise VerificationFailed(
                "binomial order formula disagrees with iterated composition"
            )
        if by_formula.is_identity:
            return n
        n *= p
        k += 1
        if k > 12:
            raise InputError("order search exceeded bound")  # pragma: no cover


def is_inner(phi: GroupHom, caps: Caps = DEFAULT_CAPS):
    """Exhaustive conjugation scan. Returns (witness Element or None, number
    of candidates scanned)."""
    G = phi.source
    if G.order > caps.enumeration:
        raise InputError("inner scan above the enumeration cap")
    # candidates x with g^x = phi(g), narrowed one generator at a time
    xs = np.arange(G.order)
    for g, t in zip(G.gens, phi.image_indices):
        xs = xs[G.mult_indices(G.mult_indices(G.inv_table[xs], g.index), xs) == t]
    if xs.size:
        return Element(G, G.elements[xs[0]]), G.order
    return None, G.order


# -- certificates -----------------------------------------------------------------


@dataclass(frozen=True)
class NonInnerCertificate:
    """Automorphism of order p with re-checkable non-innerness evidence."""

    group_name: str
    path: str
    gen_images: tuple[tuple[int, ...], ...]
    order: int
    fixed_subgroup_gens: tuple[tuple[int, ...], ...]
    moved: tuple[int, ...]
    inner_scan_count: int
    evidence: tuple[tuple[str, str], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_name,
            "path": self.path,
            "gen_images": [list(v) for v in self.gen_images],
            "order": self.order,
            "fixed_subgroup": [list(v) for v in self.fixed_subgroup_gens],
            "moved": list(self.moved),
            "inner_scan": f"exhausted {self.inner_scan_count} candidates",
            "evidence": {k: v for k, v in self.evidence},
        }

    @staticmethod
    def from_json_dict(data: dict) -> "NonInnerCertificate":
        try:
            scan = data.get("inner_scan", "exhausted 0 candidates")
            count = int(str(scan).split()[1])
            return NonInnerCertificate(
                group_name=str(data["group"]),
                path=str(data["path"]),
                gen_images=tuple(tuple(int(v) for v in row) for row in data["gen_images"]),
                order=int(data["order"]),
                fixed_subgroup_gens=tuple(
                    tuple(int(v) for v in row) for row in data["fixed_subgroup"]
                ),
                moved=tuple(int(v) for v in data["moved"]),
                inner_scan_count=count,
                evidence=tuple(sorted((str(k), str(v)) for k, v in data.get("evidence", {}).items())),
            )
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise InputError(f"malformed certificate: {exc}") from exc


def verify_certificate(
    G: PcPresentation, cert: NonInnerCertificate, caps: Caps = DEFAULT_CAPS
) -> list[str]:
    """Re-check every claim by pure group arithmetic; returns the list of
    failures (empty means the certificate is valid)."""
    failures: list[str] = []
    p = G.p
    try:
        images = tuple(Element(G, tuple(int(v) % p for v in row)) for row in cert.gen_images)
    except Exception:
        return ["gen_images are not well-formed elements"]
    if len(images) != G.n:
        return ["wrong number of generator images"]
    try:
        phi = GroupHom(G, G, images)
    except InputError:
        return ["images do not define an endomorphism"]
    if not phi.is_automorphism:
        failures.append("images do not generate the group")
        return failures
    if cert.order != p:
        failures.append(f"claimed order {cert.order} is not p = {p}")
    if phi.is_identity:
        failures.append("map is the identity")
    if not phi.power(p).is_identity:
        failures.append("p-fold composition is not the identity")
    witness, scanned = is_inner(phi, caps)
    if witness is not None:
        failures.append(f"map is inner: conjugation by {witness.exps}")
    if scanned != G.order:
        failures.append("inner scan did not cover the group")  # pragma: no cover
    try:
        fixed_members = closure_indices(
            G, [G.index_of(tuple(int(v) % p for v in row)) for row in cert.fixed_subgroup_gens]
        )
    except Exception:
        failures.append("fixed_subgroup generators are malformed")
        fixed_members = frozenset([0])
    if any(phi.apply_index(x) != x for x in fixed_members):
        failures.append("claimed fixed subgroup is not fixed pointwise")
    try:
        moved_el = Element(G, tuple(int(v) % p for v in cert.moved))
        if phi.apply(moved_el) == moved_el:
            failures.append("claimed moved witness is fixed")
    except Exception:
        failures.append("moved witness is malformed")
    return failures


# -- the construction pipeline ------------------------------------------------------


PATH_STAGE = "Theorem 01 at i={i}"
PATH_POWERFUL = "oracle-fallback (powerful branch)"
PATH_CENTER = "oracle-fallback (center not cyclic)"
PATH_LEMMA_A1 = "oracle-fallback (Lemma a1)"
PATH_LEMMA_12 = "oracle-fallback (Lemma 12)"
PATH_HYP = "oracle-fallback (hypothesis fails)"
PATH_EXHAUSTED = "oracle-fallback (construction exhausted)"


@dataclass(frozen=True)
class PipelineReport:
    """Decision trail of construct_noninner."""

    group_name: str
    branch: str
    trail: tuple[str, ...]
    hypothesis: dict

    def to_dict(self) -> dict:
        return {
            "group": self.group_name,
            "branch": self.branch,
            "trail": list(self.trail),
            "hypothesis": self.hypothesis,
        }


def _certificate_from(
    G: PcPresentation,
    phi: GroupHom,
    path: str,
    fixed: Subgroup,
    moved: Element,
    caps: Caps,
    evidence: dict,
) -> NonInnerCertificate | None:
    """The certificate for a candidate map, if `verify_certificate` finds no
    failure in it; None otherwise (candidate rejected, not an error)."""
    cert = NonInnerCertificate(
        group_name=G.name,
        path=path,
        gen_images=tuple(img.exps for img in phi.images),
        order=G.p,
        fixed_subgroup_gens=tuple(g.exps for g in fixed.gen_elements),
        moved=moved.exps,
        inner_scan_count=G.order,
        evidence=tuple(sorted((str(k), str(v)) for k, v in evidence.items())),
    )
    return None if verify_certificate(G, cert, caps) else cert


def _iter_combos(rows: np.ndarray, p: int, limit: int):
    """Nonzero coefficient combinations of the rows, basis vectors first."""
    count = 0
    k = rows.shape[0]
    if k == 0:
        return
    import itertools as it

    for coeffs in it.product(range(p), repeat=k):
        if not any(coeffs):
            continue
        yield (np.array(coeffs, dtype=np.int64) @ rows) % p
        count += 1
        if count >= limit:
            return


def _inner_keys(M: FpModule) -> set[bytes]:
    """Generator-value vectors of the derivations into M whose induced map
    is inner, as int64 byte keys.

    g -> g d(g) is conjugation by x exactly when d(g_k) = [g_k, x] =
    g_k^-1 x^-1 g_k x for every pc generator g_k; so there is one key per x
    whose commutators with the generators all lie in the realized subgroup.
    """
    G = M.group
    coords = np.full((G.order, M.dim), -1, dtype=np.int64)
    for idx, vec in M.realization.encode_table:
        coords[idx] = vec
    xs = np.arange(G.order, dtype=np.int64)
    blocks = []
    for g in G.gens:
        g_inv_x_inv = G.mult_indices(G.inv_table[g.index], G.inv_table)
        blocks.append(coords[G.mult_indices(g_inv_x_inv, G.mult_indices(g.index, xs))])
    rows = np.concatenate(blocks, axis=1)
    return {row.tobytes() for row in rows[(rows >= 0).all(axis=1)]}


def _scan_classes(
    M: FpModule,
    reps: np.ndarray,
    limit: int,
    fixed: Subgroup,
    path: str,
    evidence: dict,
    caps: Caps,
) -> tuple[NonInnerCertificate | None, int]:
    """First certificate among the induced maps of the first `limit` nonzero
    combinations of the class representatives `reps` (rows: derivations
    into M as generator-value vectors), and how many combinations were
    tried.

    Combinations that induce an inner map are skipped before any map is
    built; `_certificate_from` would refuse each of them. A combination
    that sums to zero induces the identity, which is inner, so every
    combination left moves some pc generator; the moved witness is the
    first one (g d(g) != g exactly when d(g) != 0).
    """
    G = M.group
    # the cocycle relations are linear, so once every row satisfies them,
    # every combination does; each candidate is still checked below
    for row in reps:
        derivation_from_vector(G, M, row, check=True)
    inner = _inner_keys(M) if reps.shape[0] else set()
    tried = 0
    for tried, vec in enumerate(_iter_combos(reps, G.p, limit), 1):
        if vec.tobytes() in inner:
            continue
        delta = derivation_from_vector(G, M, vec, check=True)
        moved = next(g for g in G.gens if delta.evaluate(g).any())
        cert = _certificate_from(G, induce(delta), path, fixed, moved, caps, evidence)
        if cert is not None:
            return cert, tried
    return None, tried


def _targets(G: PcPresentation, hyp):
    """The branch table: (path, target A, subgroup to vanish on and fix,
    scan limit, evidence) in the order construct_noninner tries them.

    With a cyclic center and T > 0, stage i takes A = Omega_1(Z(P_i)) and
    the derivations vanishing on P_i. Then, under the label of the branch
    (or of the first failed containment), come Omega_1(Z(G)) and a maximal
    elementary abelian normal subgroup, with no vanishing condition. A
    generator, so each target is built only after the ones before it fail.
    """
    chain = refine_chain(G)
    if not hyp.center_cyclic:
        path = PATH_CENTER
    elif hyp.powerful:
        path = PATH_POWERFUL
    else:
        for i, P_i in enumerate(chain.links[:-1]):
            A = omega1(G, subgroup_center(G, P_i))
            yield PATH_STAGE.format(i=i), A, P_i, 400, {
                "method": "quotient-action class",
                "stage": str(i),
            }
        if not hyp.cg_phi_in_phi:
            path = PATH_LEMMA_A1
        elif not hyp.omega1_center_in_bottom:
            path = PATH_LEMMA_12
        elif not hyp.main_hypothesis_holds:
            path = PATH_HYP
        else:
            path = PATH_EXHAUSTED
    trivial = trivial_subgroup(G)
    A0 = omega1(G, center(G))
    yield path, A0, trivial, 800, {"method": "derivation scan over Omega_1(Z(G))"}
    A1 = greedy_elementary_abelian_normal(G)
    if A1.members != A0.members:
        label = "maximal elementary abelian normal"
        yield path, A1, trivial, 800, {"method": f"derivation scan over {label}"}


def construct_noninner(
    G: PcPresentation, caps: Caps = DEFAULT_CAPS
) -> tuple[NonInnerCertificate, PipelineReport]:
    """A verified order-p non-inner automorphism g -> g d(g), from the first
    target of the branch table (`_targets`) whose derivation classes modulo
    inner give one; exhaustive backtracking (under the oracle cap) when no
    target does. The trail has one line per target tried.
    """
    if G.order > caps.enumeration:
        raise InputError("group exceeds the enumeration cap")
    hyp = hypothesis_report(G)
    if hyp.abelian:
        raise OutOfScope("abelian group: out of scope for the conjecture")
    p = G.p
    trail: list[str] = []
    for path, A, K, limit, evidence in _targets(G, hyp):
        M = conjugation_module(G, A)
        space = derivation_space(G, M)
        van = vanishing_subspace(space, list(K.gen_elements))
        ider = la.intersect_rowspaces(space.ider_array, van, p) if van.size else van
        reps = la.complement_in(ider, van, p)
        cert, tried = _scan_classes(M, reps, limit, K, path, evidence, caps)
        if cert is not None:
            outcome = "certified"
        elif tried == p ** reps.shape[0] - 1:
            outcome = "exhausted"
        else:
            outcome = "limit reached"
        trail.append(
            f"{path}, {evidence['method']}: dim Der {van.shape[0]}, inner {ider.shape[0]}, "
            f"classes {reps.shape[0]}, tried {tried}, {outcome}"
        )
        if cert is not None:
            return cert, PipelineReport(G.name, path, tuple(trail), hyp.to_dict())
    # the last target carries the fallback label, which the search keeps
    from .oracle import find_noninner_order_p

    phi = find_noninner_order_p(G, caps)
    if phi is None:
        raise VerificationFailed(
            f"{G.name}: no non-inner automorphism of order p found by exhaustive search"
        )
    moved = next(g for g in G.gens if phi.apply(g) != g)
    evidence = {"method": "exhaustive backtracking search"}
    cert = _certificate_from(G, phi, path, trivial_subgroup(G), moved, caps, evidence)
    if cert is None:  # pragma: no cover
        raise VerificationFailed(f"{G.name}: backtracking result failed verification")
    trail.append(f"{path}, {evidence['method']}: certified")
    return cert, PipelineReport(G.name, path, tuple(trail), hyp.to_dict())
