"""Derivation spaces, inner derivations and H^1: the cocycle evaluator,
the solver, and the subspace of derivations vanishing on given elements.
The H^1 of a quotient action, restriction images and twisted extensions
build on these in `lattice`.

A derivation d: G -> M satisfies d(xy) = d(x)^y + d(y) (module written
additively, right action). It is determined by its generator images; the
space Der(G, M) is the nullspace of the linear system obtained by
expanding each defining relation with the cocycle rule. Inner derivations
are d_m(g) = m^g - m.

Following the usual identification, "Der(G/N, M)" for N acting trivially
on M means the subspace of Der(G, M) vanishing on N (the image of
inflation, which is injective).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import gflinalg as la
from .errors import CapExceeded, InputError
from .fpmod import FpModule, relator_differences, sides_per_chunk, word_values
from .pcgroup import FULL_TABLE_ORDER, Element, PcPresentation, spell_words


def derivation_values(M: FpModule, rows: np.ndarray, xs: Sequence[Sequence[int]]) -> np.ndarray:
    """values[t, j] = d_t(x_j), shape (k, len(xs), dim), for the k
    derivations into M with generator-value rows `rows` and the elements
    with exponent tuples xs: the normal forms spelled as words, one
    `word_values` call per chunk of them."""
    images = np.asarray(rows).reshape(len(rows), M.group.n, M.dim)
    letters = spell_words([enumerate(exps) for exps in xs], M.group.n)
    step = sides_per_chunk(M, len(images))
    # at least one chunk, so that no elements give shape (k, 0, dim)
    chunks = [letters[a : a + step] for a in range(0, max(len(letters), 1), step)]
    return np.concatenate([word_values(M, images, chunk) for chunk in chunks], axis=1)


def satisfies_cocycle(M: FpModule, images: np.ndarray) -> np.ndarray:
    """Whether each stack images[t] of generator values (shape (k, n, dim))
    respects every defining relation of M's group under the cocycle rule,
    that is, defines a derivation into M."""
    ok = np.ones(len(images), dtype=bool)
    for diff in relator_differences(M, images):
        ok &= ~diff.any(axis=(1, 2))
        if not ok.any():
            break
    return ok


class Derivation:
    """Derivation determined by one module vector per pc generator:
    gen_images is a read-only (n, dim) array, reduced mod p. With check
    (the default) images that break a cocycle relation are refused; the
    flag is not stored."""

    def __init__(self, group: PcPresentation, module: FpModule, gen_images, check: bool = True):
        self.group, self.module = group, module
        if module.group != group:
            raise InputError("module is over a different group")
        if len(gen_images) != group.n:
            raise InputError("need one image per pc generator")
        for v in gen_images:
            if len(v) != module.dim:
                raise InputError("image vector has wrong dimension")
        self.gen_images = la.asmod(gen_images, module.p).reshape(group.n, module.dim)
        self.gen_images.setflags(write=False)
        if check and not self.satisfies_relations():
            raise InputError("generator images violate the cocycle relations")

    def __reduce__(self):
        # the images were checked, or built valid, when the derivation was made
        return Derivation, (self.group, self.module, self.gen_images, False)

    def satisfies_relations(self) -> bool:
        return bool(satisfies_cocycle(self.module, self.gen_images[None])[0])

    def evaluate(self, x: Element) -> np.ndarray:
        if x.pres != self.group:
            raise InputError("element from a different group")
        return derivation_values(self.module, self.gen_images[None], [x.exps])[0, 0]

    def __repr__(self):
        return f"Derivation({tuple(map(tuple, self.gen_images.tolist()))})"


def derivation_from_vector(G: PcPresentation, M: FpModule, vec, check: bool = False) -> Derivation:
    return Derivation(G, M, np.reshape(vec, (G.n, M.dim)), check=check)


# -- the solver ---------------------------------------------------------------


class CohomologySpace:
    """Der(G, M) with its inner subspace and chosen H^1 representatives.

    Each basis is a read-only array of flattened image vectors, one row per
    basis element: der_array spans Der, ider_array spans Ider, and h1_array
    holds coset representatives extending Ider."""

    def __init__(self, group: PcPresentation, module: FpModule, der_array, ider_array, h1_array):
        for a in (der_array, ider_array, h1_array):
            a.setflags(write=False)
        self.group, self.module = group, module
        self.der_array, self.ider_array, self.h1_array = der_array, ider_array, h1_array

    def __reduce__(self):
        arrays = (self.der_array, self.ider_array, self.h1_array)
        return CohomologySpace, (self.group, self.module, *arrays)

    @property
    def der_dim(self) -> int:
        return len(self.der_array)

    @property
    def ider_dim(self) -> int:
        return len(self.ider_array)

    @property
    def h1_dim(self) -> int:
        return len(self.h1_array)

    @property
    def der_basis(self) -> tuple[Derivation, ...]:
        return tuple(
            derivation_from_vector(self.group, self.module, row) for row in self.der_array
        )

    def span_iter(self):
        """All derivations in the span of the basis (small spaces only)."""
        for coeffs in itertools.product(range(self.module.p), repeat=self.der_dim):
            vec = np.array(coeffs, dtype=np.int64) @ self.der_array
            yield derivation_from_vector(self.group, self.module, vec)


def require_system_fits(G: PcPresentation, dim: int) -> None:
    """Refuse Der(G, M) for a module of dimension dim when its dense system,
    (n*dim) x (relators*dim) entries, exceeds the largest dense product
    table (FULL_TABLE_ORDER^2 entries): checked before anything is built."""
    entries = G.n * dim * len(G.relators) * dim
    if entries > FULL_TABLE_ORDER**2:
        raise CapExceeded("derivation system", entries, FULL_TABLE_ORDER**2)


def derivation_space(G: PcPresentation, M: FpModule) -> CohomologySpace:
    """Solve for Der(G, M), Ider(G, M) and echelonized H^1 representatives.

    d(word) is linear in the generator values, so the cocycle recurrence run
    on the n*dim unit stack gives, in row t, d(word) for the value e_t: the
    two sides of each relator give one column block of the system that the
    flattened generator values of a derivation solve. Row k of Ider is
    d_(e_k), that is e_k (A_g - I) over the generators g."""
    if M.group != G:
        raise InputError("module is over a different group")
    require_system_fits(G, M.dim)
    p, nd = M.p, G.n * M.dim
    units = la.eye(nd).reshape(nd, G.n, M.dim)
    system = np.hstack([diff.reshape(nd, -1) for diff in relator_differences(M, units)])
    del units  # not held through the elimination
    der = la.row_basis(la.left_nullspace(system, p), p)
    ider = la.row_basis(np.hstack([(A - la.eye(M.dim)) % p for A in M.mats]), p)
    return CohomologySpace(G, M, der, ider, la.complement_in(ider, der, p))


def vanishing_subspace(space: CohomologySpace, elements: Sequence[Element]) -> np.ndarray:
    """Rows spanning {d in Der : d(x) = 0 for the given elements} (and hence
    on the subgroup they generate)."""
    if not elements or not space.der_dim:
        return space.der_array
    p = space.module.p
    values = derivation_values(space.module, space.der_array, [x.exps for x in elements])
    coeff = la.left_nullspace(values.reshape(len(values), -1), p)
    if coeff.size == 0:
        return la.zeros((0, space.der_array.shape[1]))
    return la.row_basis((coeff @ space.der_array) % p, p)
