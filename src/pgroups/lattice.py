"""The submodule lattice and the theta-tower toolkit: fixed points, socle
and radical filtrations, norm operators, submodule enumeration and module
isomorphism; derivations with prescribed values, the H^1 of a quotient
action, restriction images, and iterated twisted extensions.

No CLI command reaches these, so they live apart from the modules every
call compiles: the package imports this module on first use of one of its
names (`pgroups.fixed_points`, or `from pgroups.lattice import ...`).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

import numpy as np

from . import gflinalg as la
from .deriv import (
    CohomologySpace,
    Derivation,
    derivation_from_vector,
    derivation_space,
    derivation_values,
    vanishing_subspace,
)
from .errors import CapExceeded, InputError
from .fpmod import (
    FpModule,
    Submodule,
    quotient_module,
    regular_module,
    submodule_as_module,
    twist_extend_raw,
)
from .pcgroup import Element, PcPresentation
from .series import Subgroup, frattini


def _echelon_submodule(M: FpModule, rows) -> Submodule:
    return Submodule(M, la.row_basis(rows, M.p))


class Filtration(NamedTuple):
    """Increasing socle-style layers (and radical layers when applicable)."""

    module: FpModule
    layers: tuple[Submodule, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(l.dim for l in self.layers)


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


# -- derivations with prescribed values, quotient actions, restrictions -------


def derivation_with_values(
    space: CohomologySpace, pairs: Sequence[tuple[Element, Sequence[int]]]
) -> Derivation | None:
    """A derivation in the computed span taking the prescribed values, or
    None; values on non-minimal pc generators follow from the relations."""
    p = space.module.p
    if not space.der_dim:
        return None
    values = derivation_values(space.module, space.der_array, [x.exps for x, _ in pairs])
    rows = values.reshape(len(values), -1)
    target = np.concatenate([la.asmod(v, p).reshape(-1) for _, v in pairs])
    coeffs = la.solve_right(rows, target, p)
    if coeffs is None:
        return None
    vec = (coeffs @ space.der_array) % p
    return derivation_from_vector(space.group, space.module, vec, check=True)


def quotient_h1_dims(
    G: PcPresentation, M: FpModule, N: Subgroup | Sequence[Element] | None
) -> tuple[int, int, int]:
    """(der, ider, h1) for the G/N-action reading of (G, M): derivations
    vanishing on N, inner derivations by N-fixed vectors."""
    space = derivation_space(G, M)
    p = M.p
    if N is None:
        gens: list[Element] = []
    else:
        gens = list(N.gen_elements) if isinstance(N, Subgroup) else list(N)
    van = vanishing_subspace(space, gens)
    ider_dim = la.intersect_rowspaces(space.ider_array, van, p).shape[0]
    return van.shape[0], ider_dim, van.shape[0] - ider_dim


def restriction_image_dim(space: CohomologySpace, H: Subgroup) -> int:
    """Dimension of the image of Der(G, M) under restriction to H (a
    restriction is determined by its values on generators of H)."""
    if not H.gens or not space.der_dim:
        return 0
    values = derivation_values(space.module, space.der_array, [H.parent.exps_of(g) for g in H.gens])
    return la.rank(values.reshape(len(values), -1), space.module.p)


# -- twisted extensions ------------------------------------------------------------


def twist_extend(M: FpModule, tau: Derivation) -> FpModule:
    """One-dimensional extension K = M + <c> with c^g = c - tau(g).

    The action is the linear extension (k c + h)^g = k c + h^g - k tau(g);
    at k = 1 this is the defining formula. tau must be a derivation into M
    (validated)."""
    if tau.module != M:
        raise InputError("twisting derivation must take values in the module")
    if not tau.satisfies_relations():
        raise InputError("twist by a non-derivation")
    return twist_extend_raw(M, tau.gen_images)


def theta_cr_build(
    L: PcPresentation, K: FpModule, H: Subgroup
) -> tuple[FpModule, tuple[Derivation, ...]]:
    """Iterated twist extension of a CR module by an echelon basis of
    Der(L/H, K) modulo Der(L/Phi(L), K); the number of new coordinates is
    log_p |Phi(L) / H|.

    K must be given as an L-module on which Phi(L) acts trivially and must
    be CR with respect to the Frattini-quotient action."""
    phi = frattini(L)
    if not (H.members <= phi.members):
        raise InputError("H must lie inside the Frattini subgroup")
    for g in phi.gen_elements:
        if not np.array_equal(K.action_of(g), la.eye(K.dim)):
            raise InputError("Frattini subgroup must act trivially on K")
    der_q, ider_q, h1_q = quotient_h1_dims(L, K, phi)
    fixed_dim = fixed_points(K).dim
    if not (fixed_dim == 1 and h1_q <= 1):
        raise InputError("K is not CR for the Frattini-quotient action")
    s = 0
    o = phi.order // H.order
    while o > 1:
        o //= L.p
        s += 1
    space = derivation_space(L, K)
    van_H = vanishing_subspace(space, list(H.gen_elements))
    van_phi = vanishing_subspace(space, list(phi.gen_elements))
    reps = la.complement_in(van_phi, van_H, L.p)
    if reps.shape[0] != s:
        raise InputError(
            f"twist basis extraction failed: expected {s} classes, got {reps.shape[0]}"
        )
    taus = tuple(derivation_from_vector(L, K, row) for row in reps)
    current = K
    lifted: list[Derivation] = []
    for t in taus:
        # re-express tau inside the enlarged module (pad with zeros)
        pad = np.pad(t.gen_images, ((0, 0), (0, current.dim - K.dim)))
        tau_cur = Derivation(L, current, pad, check=True)
        lifted.append(tau_cur)
        current = twist_extend(current, tau_cur)
    return current, tuple(taus)
