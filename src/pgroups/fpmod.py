"""GF(p)-module calculus for p-group actions.

An FpModule is a right module: row vectors over GF(p), one invertible
action matrix per pc generator of the acting group, v -> v @ A. Modules
realized inside a group (an elementary abelian normal subgroup acted on
by conjugation) additionally carry a realization for moving between
vectors and group elements.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import gflinalg as la
from .errors import CapExceeded, Frozen, InputError
from .pcgroup import Element, GroupHom, PcPresentation, conjugates, greedy_closure
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
        for lhs, rhs in self.group.relators:
            if not np.array_equal(self._word_matrix(lhs), self._word_matrix(rhs)):
                return False
        return True

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


def _echelon_submodule(M: FpModule, rows) -> Submodule:
    return Submodule(M, la.row_basis(rows, M.p))


class Filtration(NamedTuple):
    """Increasing socle-style layers (and radical layers when applicable)."""

    module: FpModule
    layers: tuple[Submodule, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(l.dim for l in self.layers)


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
    basis_idx = greedy_closure(G, A.members)[0]
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
        realization = ModuleRealization(make_subgroup(M.group, span), sub_basis, span)
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


# -- fixed points and filtrations -------------------------------------------------


def fixed_points(M: FpModule, H: Subgroup | None = None) -> Submodule:
    """C_M(H), the common fixed subspace under the listed subgroup (all of L
    when H is None)."""
    p = M.p
    if H is None:
        mats = list(M.mats)
    else:
        if H.parent != M.group:
            raise InputError("subgroup of a different group")
        mats = [M.action_of(g) for g in H.gen_elements]
    if not mats:
        return _echelon_submodule(M, la.eye(M.dim))
    stacked = np.hstack([(m - la.eye(M.dim)) % p for m in mats])
    basis = la.left_nullspace(stacked, p)
    return _echelon_submodule(M, basis)


def socle_filtration(M: FpModule) -> Filtration:
    """Increasing layers K_1 <= K_2 <= ...: K_1 is the fixed subspace and
    K_{i+1} is the preimage of the fixed subspace of M/K_i. Terminates at M
    since p-group actions are unipotent."""
    p = M.p
    layers = []
    current = fixed_points(M)
    layers.append(current)
    guard = 0
    while current.dim < M.dim:
        guard += 1
        if guard > M.dim + 1:
            raise InputError("socle filtration did not terminate")  # pragma: no cover
        Q, proj = quotient_module(M, current)
        fp_q = fixed_points(Q)
        if fp_q.dim == 0:
            raise InputError("non-unipotent action: no fixed points in quotient")
        pre = la.preimage_of_rowspace(proj, fp_q.basis_array, p)
        nxt_rows = np.vstack([current.basis_array, pre]) if current.dim else pre
        nxt = _echelon_submodule(M, nxt_rows)
        if nxt.dim == current.dim:
            raise InputError("socle filtration stalled")  # pragma: no cover
        layers.append(nxt)
        current = nxt
    return Filtration(M, tuple(layers))


def socle_layer(M: FpModule, i: int) -> Submodule:
    """K_i (1-indexed); K_i = M for i beyond the filtration length."""
    filt = socle_filtration(M)
    if i <= 0:
        return _echelon_submodule(M, la.zeros((0, M.dim)))
    if i > len(filt.layers):
        return filt.layers[-1]
    return filt.layers[i - 1]


def submodule_closure(M: FpModule, rows) -> Submodule:
    """Smallest submodule containing the given row vectors."""
    p = M.p
    basis = la.row_basis(rows, p)
    changed = True
    while changed and basis.size:
        changed = False
        for m in M.mats:
            imgs = (basis @ m) % p
            new = np.vstack([basis, imgs])
            nb = la.row_basis(new, p)
            if nb.shape[0] > basis.shape[0]:
                basis = nb
                changed = True
    return _echelon_submodule(M, basis)


def radical_series(M: FpModule) -> Filtration:
    """Descending layers M >= MJ >= MJ^2 >= ... >= 0, J the augmentation
    ideal of the acting group algebra. For the regular module these are the
    radical powers J^i themselves."""
    p = M.p
    layers = [_echelon_submodule(M, la.eye(M.dim))]
    current = layers[0]
    while current.dim > 0:
        rows = []
        for m in M.mats:
            rows.append((current.basis_array @ ((m - la.eye(M.dim)) % p)) % p)
        stacked = np.vstack(rows) if rows else la.zeros((0, M.dim))
        nxt = submodule_closure(M, stacked)
        if nxt.dim >= current.dim and current.dim > 0:
            raise InputError("radical series stalled: action not unipotent")
        layers.append(nxt)
        current = nxt
    return Filtration(M, tuple(layers))


def annihilator_of_radical_power(M: FpModule, i: int) -> Submodule:
    """{v in M : v a = 0 for all a in J^i}, computed from an explicit spanning
    set of the i-th radical power of the group algebra (regular module)."""
    R = regular_module(M.group)
    rad = radical_series(R).layers  # layer i is J^i as a subspace of GF(p)(L)
    if i >= len(rad):
        return _echelon_submodule(M, la.eye(M.dim))
    p = M.p
    ops = []
    for row in rad[i].basis_array:
        op = la.zeros((M.dim, M.dim))
        for xi, c in enumerate(row):
            if c:
                x = Element(M.group, M.group.elements[xi])
                op = (op + int(c) * M.action_of(x)) % p
        ops.append(op)
    if not ops:
        return _echelon_submodule(M, la.eye(M.dim))
    stacked = np.hstack(ops)
    return _echelon_submodule(M, la.left_nullspace(stacked, p))


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


def norm_operator(M: FpModule) -> np.ndarray:
    """Sum over all group elements of their action matrices. The element
    g_1^e_1 ... g_n^e_n acts by A_1^e_1 ... A_n^e_n, so the sum is the
    product over i of I + A_i + ... + A_i^(p-1): n (p - 1) products."""
    p = M.p
    total = la.eye(M.dim)
    for A in M.mats:
        # Horner: total (I + A + ... + A^(p-1))
        acc = total
        for _ in range(p - 1):
            acc = (acc @ A + total) % p
        total = acc
    return total


# -- submodule enumeration and isomorphism ----------------------------------------


def minimal_submodules_above(M: FpModule, S: Submodule) -> list[Submodule]:
    """Submodules covering S: preimages of the lines in the fixed subspace
    of M/S."""
    p = M.p
    Q, proj = quotient_module(M, S)
    fp_q = fixed_points(Q)
    out = []
    seen = set()
    for coeffs in itertools.product(range(p), repeat=fp_q.dim):
        if not any(coeffs):
            continue
        line = (np.array(coeffs, dtype=np.int64) @ fp_q.basis_array) % p
        key = la.row_basis(line, p).tobytes()
        if key in seen:
            continue
        seen.add(key)
        pre = la.preimage_of_rowspace(proj, line.reshape(1, -1), p)
        rows = np.vstack([S.basis_array, pre]) if S.dim else pre
        out.append(_echelon_submodule(M, rows))
    return out


def submodules_of_dim(M: FpModule, dim: int) -> list[Submodule]:
    """All submodules of the given dimension (BFS over covering steps)."""
    start = _echelon_submodule(M, la.zeros((0, M.dim)))
    level = {b"": start}
    for _ in range(dim):
        nxt: dict[bytes, Submodule] = {}
        for sub in level.values():
            for cover in minimal_submodules_above(M, sub):
                nxt[cover.basis_array.tobytes()] = cover
        level = nxt
    return list(level.values())


def maximal_submodules(M: FpModule) -> list[Submodule]:
    """Maximal submodules: preimages of the hyperplanes of M / MJ."""
    p = M.p
    rad = radical_series(M).layers[1]
    Q, proj = quotient_module(M, rad)
    out = []
    seen = set()
    qd = Q.dim
    if qd == 0:
        return []
    for functional in itertools.product(range(p), repeat=qd):
        if not any(functional):
            continue
        func = np.array(functional, dtype=np.int64).reshape(qd, 1)
        hyper = la.left_nullspace(func, p)  # vectors v with v @ func = 0
        pre = la.preimage_of_rowspace(proj, hyper, p)
        sub = _echelon_submodule(M, np.vstack([rad.basis_array, pre]))
        key = sub.basis_array.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(sub)
    return out


def module_isomorphism(A: FpModule, B: FpModule, seed: int = 0):
    """Invertible intertwiner X with A_i X = X B_i for all generators, or None.

    X maps A-coordinates to B-coordinates (row convention: v_A -> v_A @ X).
    """
    if A.group != B.group or A.dim != B.dim:
        return None
    p = A.p
    d = A.dim
    if socle_filtration(A).dims != socle_filtration(B).dims:
        return None
    # linear conditions on X (d x d unknowns, flattened row by row):
    # vec(A_i X - X B_i) = (A_i (x) I - I (x) B_i^T) vec(X) = 0
    eye = la.eye(d)
    rows = [(np.kron(Am, eye) - np.kron(eye, Bm.T)) % p for Am, Bm in zip(A.mats, B.mats)]
    sols = la.nullspace(np.vstack(rows), p)
    if sols.size == 0:
        return None
    t = sols.shape[0]
    if p ** t <= 100_000:
        combos = itertools.product(range(p), repeat=t)
        for coeffs in combos:
            if not any(coeffs):
                continue
            X = (np.array(coeffs, dtype=np.int64) @ sols).reshape(d, d) % p
            if la.det_nonzero(X, p):
                return X
        return None
    rng = np.random.default_rng(seed)
    for _ in range(20_000):
        coeffs = rng.integers(0, p, size=t)
        X = (coeffs @ sols).reshape(d, d) % p
        if la.det_nonzero(X, p):
            return X
    return None


def submodule_embedding_count(
    L: PcPresentation,
    M: FpModule,
    max_dim: int = 6,
    max_order: int = 27,
) -> int:
    """Number of submodules of the regular module GF(p)(L) isomorphic to M
    (brute-force search, small inputs only)."""
    if M.dim > max_dim:
        raise CapExceeded("submodule search dimension", M.dim, max_dim)
    if L.order > max_order:
        raise CapExceeded("submodule search group order", L.order, max_order)
    R = regular_module(L)
    count = 0
    for sub in submodules_of_dim(R, M.dim):
        candidate, _ = submodule_as_module(R, sub)
        if module_isomorphism(candidate, M) is not None:
            count += 1
    return count
