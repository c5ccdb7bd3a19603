"""Independent brute-force ground truth.

Automorphisms are enumerated by backtracking over generator images in
reverse pc order, so every relation among already-assigned generators can
prune immediately; each level tests all its candidates in one call to the
package's relator program. A map is inner when its generator images are
those of a conjugation by some x. Derivations are enumerated by filtering
all generator image tuples through the cocycle conditions. Neither route
shares solver logic with the linear-algebra side.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .autom import construct_noninner, order_of
from .errors import CapExceeded, Caps, DEFAULT_CAPS, OutOfScope, VerificationFailed
from .fpmod import FpModule
from .pcgroup import GroupHom, PcPresentation, respects_relations
from .series import center, release_series

# Max number of candidate image tuples the brute-force derivation oracle scans.
DERIVATION_BRUTEFORCE_LIMIT = 10**7


def _iter_homomorphism_images(G: PcPresentation, H: PcPresentation) -> Iterator[tuple[int, ...]]:
    """Backtracking over image index tuples, assigned from g_n down to g_1,
    depth first.

    The candidate images of g_k are the elements of H whose order divides
    that of g_k, with g_k's own image first when G == H, so that
    near-identity maps appear early. At level k all candidates are tested
    at once against every relation supported on generators >= k (the power
    relation of g_k and the commutators [g_j, g_k], j > k, are the new
    ones), and the search descends into the survivors in candidate order."""
    orders = H.element_orders
    candidates = []
    for own in G.gen_indices:
        fits = np.flatnonzero(G.element_orders[own] % orders == 0)
        candidates.append(np.concatenate([[own], fits[fits != own]]) if G == H else fits)
    images = np.zeros(G.n, dtype=np.int64)

    def descend(k: int) -> Iterator[tuple[int, ...]]:
        if k < 0:
            yield tuple(images.tolist())
            return
        stack = np.repeat(images[None], len(candidates[k]), axis=0)
        stack[:, k] = candidates[k]
        for x in candidates[k][respects_relations(G, H, stack, lowest=k)]:
            images[k] = x
            yield from descend(k - 1)

    try:
        yield from descend(G.n - 1)
    finally:
        # descend calls itself through this closure cell; clearing it breaks
        # the cycle, so the tables it holds go when the search ends instead
        # of at the next cyclic collection.
        descend = None


def _inner_tuples(G: PcPresentation) -> set[tuple[int, ...]]:
    """Generator-image tuples of the inner automorphisms g -> x^-1 g x, one
    row per x in G, from one (|G|, n) gather."""
    xs = np.arange(G.order)[:, None]
    conj = G.mult_indices(G.mult_indices(G.inv_table[xs], np.array(G.gen_indices)), xs)
    return set(map(tuple, conj.tolist()))


class AutEnumeration(NamedTuple):
    """Complete list of automorphisms with an order histogram."""

    group: PcPresentation
    automorphisms: tuple[GroupHom, ...]
    inner_count: int
    order_histogram: tuple[tuple[int, int], ...]

    @property
    def total(self) -> int:
        return len(self.automorphisms)

    def to_dict(self) -> dict:
        return {
            "group": self.group.name,
            "total": self.total,
            "inner": self.inner_count,
            "order_histogram": {str(k): v for k, v in self.order_histogram},
        }


def enumerate_automorphisms(
    G: PcPresentation, caps: Caps = DEFAULT_CAPS, spot_check_seed: int = 0
) -> AutEnumeration:
    """All automorphisms by relator-pruned backtracking, duplicate-free:
    the candidates of each level are distinct, so the leaves are."""
    if G.order > caps.oracle:
        raise CapExceeded("automorphism enumeration", G.order, caps.oracle)
    homs = (GroupHom._composite(G, G, idxs) for idxs in _iter_homomorphism_images(G, G))
    autos = [a for a in homs if a.is_automorphism]
    # the backtracking's own relator checks are re-proved, all tuples at once
    if not respects_relations(G, G, [a.image_indices for a in autos]).all():
        raise VerificationFailed("backtracking returned images that break a relation")
    z = center(G)
    inner = G.order // z.order
    hist: dict[int, int] = {}
    for a in autos:
        k = order_of(a)
        hist[k] = hist.get(k, 0) + 1
    if hist.get(1, 0) != 1:
        raise VerificationFailed("identity automorphism not found exactly once")
    inner_tuples = _inner_tuples(G)
    if sum(1 for a in autos if a.image_indices in inner_tuples) != inner:
        raise VerificationFailed("inner automorphism count mismatch")
    # closure spot check
    rng = random.Random(spot_check_seed)
    keys = {a.image_indices for a in autos}
    for _ in range(min(100, len(autos) ** 2)):
        a, b = rng.choice(autos), rng.choice(autos)
        c = a.compose(b)
        if c.image_indices not in keys:
            raise VerificationFailed("composition left the enumerated set")
    return AutEnumeration(
        group=G,
        automorphisms=tuple(autos),
        inner_count=inner,
        order_histogram=tuple(sorted(hist.items())),
    )


def find_noninner_order_p(G: PcPresentation, caps: Caps = DEFAULT_CAPS) -> GroupHom | None:
    """First non-inner automorphism of order p found by the backtracking
    enumeration; None only when the search exhausts every automorphism.

    The backtracking has tested every relation of each leaf it yields, so
    the leaves are built unchecked, and only the map returned is proved a
    homomorphism again."""
    if G.order > caps.oracle:
        raise CapExceeded("automorphism search", G.order, caps.oracle)
    p = G.p
    inner_tuples = _inner_tuples(G)
    for idxs in _iter_homomorphism_images(G, G):
        phi = GroupHom._composite(G, G, idxs)
        if not phi.is_automorphism or phi.is_identity:
            continue
        if phi.power(p).is_identity and idxs not in inner_tuples:
            return GroupHom._checked(G, G, idxs)
    return None


def find_isomorphism(G: PcPresentation, H: PcPresentation):
    """Backtracking isomorphism search; a GroupHom or None."""
    if G.order != H.order or G.p != H.p:
        return None
    for idxs in _iter_homomorphism_images(G, H):
        phi = GroupHom._checked(G, H, idxs)
        if phi.is_isomorphism:
            return phi
    return None


def enumerate_derivations_bruteforce(
    G: PcPresentation, M: FpModule
) -> set[tuple[tuple[int, ...], ...]]:
    """All generator-image tuples satisfying every relation, by filtering
    the full p^(n*dim) candidate space through the cocycle law."""
    p = G.p
    m = M.dim
    total = p ** (G.n * m)
    if total > DERIVATION_BRUTEFORCE_LIMIT:
        raise CapExceeded("derivation brute force", total, DERIVATION_BRUTEFORCE_LIMIT)
    mats = M.mats
    relators = G.relators

    def eval_word(images, word):
        val = np.zeros(m, dtype=np.int64)
        for g, e in word:
            for _ in range(e):
                val = (val @ mats[g] + images[g]) % p
        return val

    vectors = [np.array(v, dtype=np.int64) for v in itertools.product(range(p), repeat=m)]
    out: set[tuple[tuple[int, ...], ...]] = set()
    for combo in itertools.product(vectors, repeat=G.n):
        ok = True
        for lhs, rhs in relators:
            if not np.array_equal(eval_word(combo, lhs), eval_word(combo, rhs)):
                ok = False
                break
        if ok:
            out.add(tuple(tuple(int(x) for x in v) for v in combo))
    return out


def verify_conjecture(
    groups: Iterable[PcPresentation], caps: Caps = DEFAULT_CAPS
) -> list[dict]:
    """Per-group agreement report between the exhaustive oracle and the
    construction pipeline. The oracle is skipped above its cap and on
    abelian groups; a disagreement shows up as agree=False (the CLI treats
    any such row as a fatal verification failure).

    `groups` may be any iterable, and is read one group at a time. Each
    group's series memo is released when its row is done, on every path,
    so a group that the caller no longer holds is freed by refcounting
    before the next one is built."""
    rows: list[dict] = []
    for G in groups:
        try:
            rows.append(_verify_row(G, caps))
        finally:
            release_series(G)
    return rows


def _verify_row(G: PcPresentation, caps: Caps) -> dict:
    row: dict = {"group": G.name, "order": G.order}
    if G.order > caps.enumeration:
        row.update({"oracle": "skipped", "pipeline": "skipped (cap)", "agree": True})
        return row
    if G.is_abelian:
        row.update({"oracle": "skipped", "pipeline": "n/a (abelian)", "agree": True})
        return row
    try:
        # construct_noninner returns only a certificate that
        # verify_certificate has proved, and raises VerificationFailed else
        cert, _ = construct_noninner(G, caps)
        pipeline_ok = True
        row["pipeline"] = cert.path
    except OutOfScope as exc:  # pragma: no cover
        pipeline_ok = False
        row["pipeline"] = f"error: {exc}"
    if G.order > caps.oracle:
        row["oracle"] = "skipped"
        row["agree"] = bool(pipeline_ok)
    else:
        phi = find_noninner_order_p(G, caps)
        row["oracle"] = "exists" if phi is not None else "none"
        row["agree"] = bool(pipeline_ok and phi is not None)
    return row
