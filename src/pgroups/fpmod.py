"""GF(p)-module calculus for p-group actions.

An FpModule is a right module: row vectors over GF(p), one invertible
action matrix per pc generator of the acting group, v -> v @ A. Modules
realized inside a group (an elementary abelian normal subgroup acted on
by conjugation) additionally carry a realization for moving between
vectors and group elements.

Words act on a module through one relator program, `word_values`: the
cocycle rule on padded letter rows, batched over the rows. The relation
checks of modules and derivations and the derivation solver feed it
whole relators in memory-bounded chunks (`relator_differences`).

Fixed points, filtrations and submodule search are in `lattice`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from . import gflinalg as la
from .errors import CapExceeded, Frozen, InputError
from .pcgroup import (
    FULL_TABLE_ORDER,
    Element,
    GroupHom,
    PcPresentation,
    conjugates,
    subgroup_witnesses,
)
from .series import Subgroup, make_subgroup

# Max dimension of a constructed module (a regular module or one read from a
# file).
MODULE_DIM_LIMIT = 2**10


class ModuleRealization(Frozen):
    """Identification of a module with an elementary abelian normal subgroup.

    basis[k] is the group element realizing the k-th basis vector, and
    span[t] (a read-only int64 array) is the index of b_1^c_1 ... b_m^c_m,
    where t reads the coordinates c in base p (itertools.product order).
    """

    def __init__(self, subgroup: Subgroup, basis: tuple[Element, ...], span):
        span = np.array(span, dtype=np.int64)
        span.setflags(write=False)
        vars(self).update(subgroup=subgroup, basis=basis, span=span)

    def _key(self) -> tuple:
        return (self.subgroup, self.basis, self.span.tobytes())

    def __reduce__(self):
        return ModuleRealization, (self.subgroup, self.basis, self.span)

    @cached_property
    def coords(self) -> np.ndarray:
        """coords[x] = coordinates of the element with index x, -1 outside."""
        G = self.subgroup.parent
        out = np.full((G.order, len(self.basis)), -1, dtype=np.int64)
        t = np.arange(len(self.span))
        for k in reversed(range(len(self.basis))):
            t, out[self.span, k] = np.divmod(t, G.p)
        out.setflags(write=False)
        return out

    def element_indices(self, vecs) -> np.ndarray:
        """Index of the element realizing each vector (the last axis holds
        the coordinates, read mod p)."""
        G = self.subgroup.parent
        weights = G.p ** np.arange(len(self.basis) - 1, -1, -1)
        return self.span[la.asmod(vecs, G.p) @ weights]

    def decode(self, vec: Sequence[int]) -> Element:
        G = self.subgroup.parent
        return Element(G, G.exps_of(self.element_indices(vec)))


class FpModule(Frozen):
    """Finite-dimensional right GF(p)(L)-module given by generator matrices:
    mats is a read-only (n, dim, dim) int64 array, reduced mod p.

    With check (the default) a singular matrix or a broken group relation is
    refused; the constructors below whose matrices are invertible and satisfy
    the relations by construction pass check=False. The flag is not stored:
    a module is its group, matrices and realization."""

    def __init__(
        self,
        group: PcPresentation,
        action,  # one (dim x dim) matrix per pc generator, nested sequences or an array
        realization: ModuleRealization | None = None,
        check: bool = True,
    ):
        if len(action) != group.n:
            raise InputError("need one action matrix per pc generator")
        try:
            mats = np.asarray(action, dtype=np.int64) % group.p
        except ValueError as exc:  # ragged
            raise InputError("action matrices must be square of equal size") from exc
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or not mats.shape[1]:  # dim 0 too
            raise InputError("action matrices must be square of equal size")
        mats.setflags(write=False)
        vars(self).update(group=group, mats=mats, realization=realization)
        if check:
            if not all(la.det_nonzero(m, self.p) for m in mats):
                raise InputError("action matrix is singular")
            if not self.relations_hold():
                raise InputError("action matrices violate the group relations")

    def _key(self) -> tuple:
        return (self.group, self.mats.shape, self.mats.tobytes(), self.realization)

    def __reduce__(self):
        # the matrices were checked, or built valid, when the module was made
        return FpModule, (self.group, self.mats, self.realization, False)

    @property
    def p(self) -> int:
        return self.group.p

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def relations_hold(self) -> bool:
        """Whether the matrices satisfy every defining relation of the
        group. The inner derivations of the unit vectors, d_t(g) = e_t (A_g -
        I), take the value e_t (A_w - I) on a word w, so both sides of a
        relator agree for every t exactly when their matrices do."""
        inner = ((self.mats - la.eye(self.dim)) % self.p).transpose(1, 0, 2)
        return not any(diff.any() for diff in relator_differences(self, inner))

    def _word_matrix(self, word) -> np.ndarray:
        acc = la.eye(self.dim)
        for g, e in word:
            m = self.mats[g] if e == 1 else la.mat_pow(self.mats[g], e, self.p)
            acc = (acc @ m) % self.p
        return acc

    def action_of(self, x: Element) -> np.ndarray:
        """Matrix of the element's right action (product along the normal form)."""
        if x.pres != self.group:
            raise InputError("element from a different group")
        return self._word_matrix((g, e) for g, e in enumerate(x.exps) if e)

    def __repr__(self):
        return f"FpModule(dim={self.dim} over {self.group.name or 'G'})"


def word_values(M: FpModule, images: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """values[t, s] = d_t(w_s), shape (k, sides, dim), where d_t is the
    derivation with generator values images[t] (a (k, n, dim) stack) and
    w_s the word that row s of `letters` spells. The rows are spelled as
    `PcPresentation.relator_letters` spells the relator sides, one letter
    per unit of exponent, padded at the end with the letter n, which stands
    for the identity matrix and the value 0.

    The cocycle rule d(x g) = d(x)^g + d(g) runs on every side and every
    stack at once, one batched product per letter position. A padding
    letter leaves a value as it is, so each position multiplies only the
    sides that still have a letter there, and the run stops after the
    longest side."""
    p, n = M.p, M.group.n
    gen_values = images.transpose(1, 0, 2)
    val = la.zeros((len(letters), len(images), M.dim))
    for column in np.asarray(letters).T:
        live = np.flatnonzero(column < n)
        if not live.size:
            break
        g = column[live]
        val[live] = (val[live] @ M.mats[g] + gen_values[g]) % p
    return val.transpose(1, 0, 2)


def sides_per_chunk(M: FpModule, stacks: int) -> int:
    """How many words `word_values` takes at once for `stacks` stacks of
    generator values: a chunk's values and gathered matrices, (stacks +
    dim) dim entries per word, stay within FULL_TABLE_ORDER entries, and a
    chunk holds at least one relator."""
    return max(2, FULL_TABLE_ORDER // ((stacks + M.dim) * M.dim))


def relator_differences(M: FpModule, images: np.ndarray):
    """Yield (d_t(lhs) - d_t(rhs)) mod p for the derivations d_t with
    generator values images[t] and the defining relations of M's group,
    shape (k, relators, dim), one chunk of whole relators at a time and
    in the order of `relators`: one `word_values` call per chunk."""
    lhs_letters, rhs_letters = np.split(M.group.relator_letters, 2)
    step = sides_per_chunk(M, len(images)) // 2
    for a in range(0, len(lhs_letters), step):
        lhs = lhs_letters[a : a + step]
        values = word_values(M, images, np.concatenate([lhs, rhs_letters[a : a + step]]))
        yield (values[:, : len(lhs)] - values[:, len(lhs) :]) % M.p


class Submodule:
    """Action-stable subspace of a module: basis_array is a read-only (k,
    dim) int64 array of echelonized rows."""

    def __init__(self, module: FpModule, basis_array):
        b = la.asmod(basis_array, module.p).reshape(-1, module.dim)
        b.setflags(write=False)
        self.module, self.basis_array = module, b
        if b.size == 0:
            return
        p = module.p
        r0 = la.rank(b, p)
        for m in module.mats:
            if la.rank(np.vstack([b, (b @ m) % p]), p) != r0:
                raise InputError("subspace is not action-stable")

    def __reduce__(self):
        return Submodule, (self.module, self.basis_array)

    @property
    def dim(self) -> int:
        return len(self.basis_array)

    def __repr__(self):
        return f"Submodule(dim={self.dim} of dim={self.module.dim})"


# -- constructors ---------------------------------------------------------------


def trivial_module(L: PcPresentation, dim: int = 1) -> FpModule:
    return FpModule(L, [la.eye(dim)] * L.n, check=False)


def regular_module(L: PcPresentation) -> FpModule:
    """Right regular module GF(p)(L): basis vector k is the element of
    index k, and the generators act by right translation."""
    if L.order > MODULE_DIM_LIMIT:
        raise CapExceeded("regular module dimension", L.order, MODULE_DIM_LIMIT)
    N = L.order
    mats = la.zeros((L.n, N, N))
    mats[np.arange(L.n)[:, None], np.arange(N), L.gen_tables] = 1
    return FpModule(L, mats, check=False)


def _span(G: PcPresentation, basis: Sequence[Element]) -> np.ndarray:
    """span[t] = index of b_1^c_1 ... b_m^c_m, where t reads the coordinate
    tuple c over GF(p) in base p: one broadcast product per basis element."""
    span = np.zeros(1, dtype=np.int64)
    for b in basis:
        powers = [0]
        for _ in range(1, G.p):
            powers.append(G.mult_index(powers[-1], b.index))
        span = G.mult_indices(span[:, None], np.array(powers)[None, :]).reshape(-1)
    return span


def conjugation_module(G: PcPresentation, A: Subgroup) -> FpModule:
    """Elementary abelian normal subgroup A as a G-module via conjugation,
    with a realization mapping vectors back to group elements."""
    if A.parent != G:
        raise InputError("subgroup belongs to a different group")
    if not A.is_normal:
        raise InputError("conjugation module needs a normal subgroup")
    if not A.is_elementary_abelian:
        raise InputError("conjugation module needs an elementary abelian subgroup")
    if A.is_trivial:
        raise InputError("trivial subgroup carries no useful module")
    basis_idx = subgroup_witnesses(G, A.members)[0]
    basis = tuple(Element(G, G.exps_of(i)) for i in basis_idx)
    span = _span(G, basis)
    if len(set(span.tolist())) != A.order:
        raise InputError("basis does not coordinatize the subgroup")  # pragma: no cover
    realization = ModuleRealization(subgroup=A, basis=basis, span=span)
    # row k of generator i's matrix: coordinates of b_k^(g_i)
    mats = realization.coords[conjugates(G, basis_idx)].transpose(1, 0, 2)
    return FpModule(G, mats, realization=realization)


def pullback_module(M: FpModule, pi: GroupHom) -> FpModule:
    """View a module over pi's target as a module over pi's source."""
    if M.group != pi.target:
        raise InputError("module is not over the hom's target")
    mats = [M.action_of(img) for img in pi.images]
    return FpModule(pi.source, mats, check=False)


def restrict_module(M: FpModule, embed: GroupHom) -> FpModule:
    """Module over a subgroup presentation via its embedding hom."""
    return pullback_module(M, embed)


def submodule_as_module(M: FpModule, S: Submodule) -> tuple[FpModule, np.ndarray]:
    """S with the induced action in its own coordinates. Returns (module,
    inclusion matrix rows: new basis written in ambient coordinates)."""
    b = S.basis_array
    p = M.p
    mats = []
    for m in M.mats:
        imgs = (b @ m) % p
        coeffs = la.solve_right_many(b, imgs, p)
        if coeffs is None:
            raise InputError("subspace not action-stable")  # pragma: no cover
        mats.append(coeffs)
    realization = None
    if M.realization is not None:
        sub_basis = tuple(M.realization.decode(row) for row in b)
        span = _span(M.group, sub_basis)
        realization = ModuleRealization(make_subgroup(M.group, span.tolist()), sub_basis, span)
    return FpModule(M.group, mats, realization=realization, check=False), b


def quotient_module(M: FpModule, S: Submodule) -> tuple[FpModule, np.ndarray]:
    """M/S with a projection matrix (dim x quotient_dim)."""
    p = M.p
    b = S.basis_array
    full = la.eye(M.dim)
    comp = la.complement_in(b, full, p)
    # projection: express e_k as (sub part) + (comp part); send to comp coords
    inv = la.mat_inverse(np.vstack([b, comp]), p)
    if inv is None:
        raise InputError("internal: basis completion is singular")  # pragma: no cover
    proj = inv[:, b.shape[0] :]  # (dim, qdim)
    return FpModule(M.group, (comp @ M.mats % p) @ proj, check=False), proj


def twist_extend_raw(M: FpModule, tau_images) -> FpModule:
    """M + <c> with c^g = c - tau(g), tau given by per-generator vectors.

    Linear extension: (h | k) -> (h @ A - k tau(g) | k). The cocycle
    condition on tau is the caller's responsibility (the relator check in
    the constructor still guards the result)."""
    d = M.dim
    big = la.zeros((M.group.n, d + 1, d + 1))
    big[:, :d, :d] = M.mats
    big[:, d, d] = 1
    for i in range(M.group.n):
        t = la.asmod(tau_images[i], M.p).reshape(-1)
        if t.shape[0] != d:
            raise InputError("twist vector has wrong dimension")
        big[i, d, :d] = -t
    return FpModule(M.group, big, check=True)
