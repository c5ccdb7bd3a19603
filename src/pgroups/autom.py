"""Derivation-induced endomorphisms, order and inner-ness tests, and the
construction pipeline for certified non-inner automorphisms of order p.

A derivation d into an abelian normal subgroup realized inside G induces
the endomorphism g -> g d(g). Certificates carry machine-checkable
evidence only: re-verification uses nothing but group arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import gflinalg as la
from .errors import DEFAULT_CAPS, Caps, InputError, OutOfScope, VerificationFailed
from .deriv import (
    Derivation,
    derivation_from_vector,
    derivation_space,
    derivation_values,
    satisfies_cocycle,
    vanishing_subspace,
)
from .fpmod import FpModule, conjugation_module
from .pcgroup import Element, GroupHom, PcPresentation
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
    images = G.mult_indices(G.mult_indices(G.inv_table[x.index], np.array(G.gen_indices)), x.index)
    return GroupHom._checked(G, G, images)


def induce(delta: Derivation) -> GroupHom:
    """g -> g d(g) for a derivation into a module realized inside G."""
    M = delta.module
    if M.realization is None:
        raise InputError("inducing needs a module realized inside the group")
    G = delta.group
    values = M.realization.element_indices(delta.gen_images)
    return GroupHom._checked(G, G, G.mult_indices(np.array(G.gen_indices), values))


def order_of(phi: GroupHom) -> int:
    """Least k >= 1 with phi^k = id, by direct iteration on image tuples."""
    if not phi.is_automorphism:
        raise InputError("order is defined for automorphisms")
    G = phi.source
    ident = G.gen_indices
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
    against iterated composition at each step.

    Each phi^(p^k) is the p-th power of the one before, so once a p-power
    repeats without being the identity, the powers cycle and the order of
    phi is not a power of p: that raises InputError."""
    if phi is None:
        phi = induce(delta)
    if phi.is_identity:
        return 1
    G = delta.group
    p = G.p
    n = p
    by_iteration = phi
    seen = {phi.image_indices}
    while True:
        by_iteration = by_iteration.power(p)
        if by_iteration.image_indices in seen:  # the identity is never in seen
            raise InputError("the order of the map is not a power of p")
        seen.add(by_iteration.image_indices)
        by_formula = order_via_formula(delta, n)
        if by_formula.image_indices != by_iteration.image_indices:
            raise VerificationFailed(
                "binomial order formula disagrees with iterated composition"
            )
        if by_formula.is_identity:
            return n
        n *= p


def is_inner(phi: GroupHom, caps: Caps = DEFAULT_CAPS):
    """Exhaustive conjugation scan. Returns (witness Element or None, number
    of candidates scanned)."""
    G = phi.source
    if G.order > caps.enumeration:
        raise InputError("inner scan above the enumeration cap")
    # candidates x with g^x = phi(g), narrowed one generator at a time
    xs = np.arange(G.order)
    for g, t in zip(G.gen_indices, phi.image_indices):
        xs = xs[G.mult_indices(G.mult_indices(G.inv_table[xs], g), xs) == t]
    if xs.size:
        return Element(G, G.exps_of(xs[0])), G.order
    return None, G.order


# -- certificates -----------------------------------------------------------------


class NonInnerCertificate(NamedTuple):
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
        if not isinstance(data, dict):
            raise InputError("malformed certificate: expected a JSON object")
        evidence = data.get("evidence", {})
        if not isinstance(evidence, dict):
            raise InputError("malformed certificate: evidence must be an object")
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
                evidence=tuple(sorted((str(k), str(v)) for k, v in evidence.items())),
            )
        except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
            raise InputError(f"malformed certificate: {exc}") from exc


def verify_certificate(
    G: PcPresentation, cert: NonInnerCertificate, caps: Caps = DEFAULT_CAPS
) -> list[str]:
    """Re-check every claim by pure group arithmetic; returns the list of
    failures (empty means the certificate is valid)."""
    failures: list[str] = []
    p = G.p
    # exponent rows are refused unless they have n entries in 0..p-1, not
    # reduced: an out-of-range digit would read as another element's index
    try:
        images = [Element(G, tuple(int(v) for v in row)).index for row in cert.gen_images]
    except (InputError, TypeError, ValueError):
        return ["gen_images are not well-formed elements"]
    if len(images) != G.n:
        return ["wrong number of generator images"]
    try:
        phi = GroupHom._checked(G, G, images)
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
        fixed = [Element(G, tuple(int(v) for v in row)).index for row in cert.fixed_subgroup_gens]
    except (InputError, TypeError, ValueError):
        failures.append("fixed_subgroup generators are malformed")
        fixed = []
    # phi is a homomorphism, so it fixes the subgroup that the claimed
    # generators generate pointwise exactly when it fixes each generator
    if any(phi.apply_index(g) != g for g in fixed):
        failures.append("claimed fixed subgroup is not fixed pointwise")
    try:
        moved = Element(G, tuple(int(v) for v in cert.moved)).index
        if phi.apply_index(moved) == moved:
            failures.append("claimed moved witness is fixed")
    except (InputError, TypeError, ValueError):
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


class PipelineReport(NamedTuple):
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
    moved: int,
    caps: Caps,
    evidence: dict,
) -> NonInnerCertificate:
    """The certificate for a map that is known to qualify and moves the
    element with index `moved`, proved by `verify_certificate`; raises
    VerificationFailed if it finds a failure."""
    cert = NonInnerCertificate(
        group_name=G.name,
        path=path,
        gen_images=tuple(G.exps_of(i) for i in phi.image_indices),
        order=G.p,
        fixed_subgroup_gens=tuple(G.exps_of(g) for g in fixed.gens),
        moved=G.exps_of(moved),
        inner_scan_count=G.order,
        evidence=tuple(sorted((str(k), str(v)) for k, v in evidence.items())),
    )
    failures = verify_certificate(G, cert, caps)
    if failures:
        raise VerificationFailed(f"{G.name}: {path} candidate failed: " + "; ".join(failures))
    return cert


def _coefficients(k: int, p: int, limit: int) -> np.ndarray:
    """The first `limit` nonzero coefficient vectors over GF(p) of length k,
    in itertools.product order: row t - 1 holds the k base-p digits of t."""
    t = np.arange(1, min(limit, p**k - 1) + 1, dtype=np.int64)
    digits = np.zeros((len(t), k), dtype=np.int64)
    for j in reversed(range(k)):
        t, digits[:, j] = np.divmod(t, p)
    return digits


def _inner_keys(M: FpModule) -> set[bytes]:
    """Generator-value vectors of the derivations into M whose induced map
    is inner, as int64 byte keys.

    g -> g d(g) is conjugation by x exactly when d(g_k) = [g_k, x] =
    g_k^-1 x^-1 g_k x for every pc generator g_k; so there is one key per x
    whose commutators with the generators all lie in the realized subgroup.
    """
    G = M.group
    gens = np.array(G.gen_indices)
    xs = np.arange(G.order, dtype=np.int64)[:, None]
    g_inv_x_inv = G.mult_indices(G.inv_table[gens], G.inv_table[xs])
    comms = G.mult_indices(g_inv_x_inv, G.mult_indices(gens, xs))
    rows = M.realization.coords[comms].reshape(G.order, -1)
    return {row.tobytes() for row in rows[(rows >= 0).all(axis=1)]}


def _order_p_screen(
    M: FpModule, reps: np.ndarray, coeffs: np.ndarray, vecs: np.ndarray
) -> np.ndarray:
    """Whether each combination `coeffs @ reps` of derivations, with
    generator-value vectors `vecs`, induces an automorphism of order
    dividing p.

    The realized subgroup A is elementary abelian and acts trivially on
    itself, so d restricted to A is a linear map L on M, with rows d(a_j)
    for the realization basis a_j. With phi(g) = g d(g), the binomial
    formula gives phi^p(g) = g d^p(g) = g d(g) L^(p-1): the terms with
    0 < i < p vanish mod p. So phi^p = 1, which also makes phi bijective,
    exactly when D L^(p-1) = 0 for D with rows d(g_k). Both D and L are
    linear in the combination, so they are batched over all of them.
    """
    p = M.p
    L_rep = derivation_values(M, reps, [a.exps for a in M.realization.basis])
    L = np.einsum("tr,rij->tij", coeffs, L_rep) % p
    D = vecs.reshape(len(vecs), M.group.n, M.dim)
    for _ in range(p - 1):
        D = (D @ L) % p
    return ~D.any(axis=(1, 2))


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

    The combinations are screened in chunks of 1, 2, 4, ... up to the
    first chunk that holds a survivor, before any map is built: those that
    induce an inner map by their keys (`_inner_keys`), then those whose map
    is not an automorphism of order p by the linear test of
    `_order_p_screen`. Both screens are exact, and a combination that sums
    to zero induces the identity, which is inner. So the first survivor is
    a certificate: its map is non-inner of order p, fixes `fixed` (the
    derivations vanish on it) and moves the first pc generator with
    d(g) != 0. `verify_certificate` still proves it, and a failure there
    raises VerificationFailed.
    """
    G, p = M.group, M.p
    # the cocycle relations are linear, so once every row satisfies them,
    # every combination does; the certificate is still checked below
    if not satisfies_cocycle(M, la.asmod(reps, p).reshape(len(reps), G.n, M.dim)).all():
        raise InputError("generator images violate the cocycle relations")
    if not len(reps):
        return None, 0
    coeffs = _coefficients(len(reps), p, limit)
    inner = _inner_keys(M)
    start, size = 0, 1
    while start < len(coeffs):
        chunk = coeffs[start : start + size]
        vecs = (chunk @ reps) % p
        keep = np.array([vec.tobytes() not in inner for vec in vecs], dtype=bool)
        if keep.any():
            keep[keep] = _order_p_screen(M, reps, chunk[keep], vecs[keep])
        if keep.any():
            first = int(np.argmax(keep))
            delta = derivation_from_vector(G, M, vecs[first], check=True)
            moved = G.gen_indices[int(np.argmax(vecs[first].reshape(G.n, M.dim).any(axis=1)))]
            cert = _certificate_from(G, induce(delta), path, fixed, moved, caps, evidence)
            return cert, start + first + 1
        start, size = start + size, 2 * size
    return None, len(coeffs)


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
        ider = la.intersect_rowspaces(space.ider_array, van, p)
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
    moved = next(g for g, img in zip(G.gen_indices, phi.image_indices) if img != g)
    evidence = {"method": "exhaustive backtracking search"}
    cert = _certificate_from(G, phi, path, trivial_subgroup(G), moved, caps, evidence)
    trail.append(f"{path}, {evidence['method']}: certified")
    return cert, PipelineReport(G.name, path, tuple(trail), hyp.to_dict())
