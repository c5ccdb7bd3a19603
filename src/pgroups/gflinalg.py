"""Exact dense linear algebra over GF(p).

Everything works on numpy int64 arrays with entries reduced mod p.
Vectors are rows; maps act on the right (v @ A), matching the
exponent-style right action used throughout the library.
"""

from __future__ import annotations

import numpy as np


def asmod(a, p: int) -> np.ndarray:
    """A new C-ordered int64 array holding a mod p: one copy, reduced in
    place."""
    m = np.array(a, dtype=np.int64, order="C")
    m %= p
    return m


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.int64)


def rref(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns).

    Each pivot eliminates only where it reaches: the rows nonzero in its
    column, from that column on. The pivot row is zero left of its pivot.
    The elimination runs in place on the one reduced copy of `a`."""
    m = asmod(a, p)
    if m.ndim != 2:
        m = m.reshape(1, -1)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r, c:] = (m[r, c:] * pow(int(m[r, c]), -1, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        # the guard skips the fancy-index copy, which costs more than it
        # saves on the many small eliminations with nothing to clear
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(col[hit], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(a, p: int) -> int:
    return rref(a, p)[0].shape[0]


def nullspace(a, p: int) -> np.ndarray:
    """Basis (rows) of {x : x @ a^T = 0}, i.e. right-kernel of rows-as-equations.

    `a` has one equation per row acting on column index space; returns
    vectors v with a @ v = 0, laid out as rows.
    """
    m = np.asarray(a)
    if m.ndim != 2:
        m = m.reshape(1, -1)
    red, pivots = rref(m, p)  # rref reduces its own copy
    is_free = np.ones(m.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    # row k: 1 at the k-th free column, minus that column of red at the pivots
    basis = zeros((len(free), m.shape[1]))
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red[:, free].T % p
    return basis


def left_nullspace(a, p: int) -> np.ndarray:
    """Basis (rows) of {x : x @ a = 0}."""
    return nullspace(np.asarray(a).T, p)


def row_basis(a, p: int) -> np.ndarray:
    return rref(a, p)[0]


def in_rowspace(v, basis, p: int) -> bool:
    b = asmod(basis, p)
    if b.size == 0:
        return not np.any(asmod(v, p))
    stacked = np.vstack([b, asmod(v, p).reshape(1, -1)])
    return rank(stacked, p) == rank(b, p)


def solve_right(a, b, p: int):
    """One solution x of x @ a = b, or None. a: (k, n); b, x row vectors."""
    out = solve_right_many(a, asmod(b, p).reshape(1, -1), p)
    return None if out is None else out[0]


def solve_right_many(a, bs, p: int):
    """Solutions X with X @ a = bs, all right-hand-side rows in one
    elimination. Returns an (r, k) array or None if any row is
    inconsistent."""
    m = asmod(a, p)
    rhs = asmod(bs, p)
    if rhs.ndim != 2:
        rhs = rhs.reshape(1, -1)
    k, n = m.shape
    r = rhs.shape[0]
    if rhs.shape[1] != n:
        raise ValueError("shape mismatch in solve_right_many")
    aug = np.hstack([m.T, rhs.T])  # (n, k+r)
    red, pivots = rref(aug, p)
    xs = zeros((r, k))
    for ri, pc in enumerate(pivots):
        if pc >= k:
            return None  # some right-hand side is inconsistent
        xs[:, pc] = red[ri, k:]
    return xs


def complement_in(sub, amb, p: int) -> np.ndarray:
    """Rows of `amb` extending a basis of rowspace(sub) to rowspace(amb).

    Assumes rowspace(sub) <= rowspace(amb). Deterministic: scans amb rows
    in order and keeps those enlarging the span. A row enlarges the span of
    sub and the rows before it exactly when it is a pivot column of the
    transposed stack [sub; amb].
    """
    sub, amb = asmod(sub, p), asmod(amb, p)
    _, pivots = rref(np.vstack([sub, amb]).T, p)
    return amb[[c - len(sub) for c in pivots if c >= len(sub)]]


def intersect_rowspaces(a, b, p: int) -> np.ndarray:
    """Basis of rowspace(a) & rowspace(b)."""
    a = row_basis(a, p)
    b = row_basis(b, p)
    if a.size == 0 or b.size == 0:
        return zeros((0, a.shape[1]))
    # (alpha|beta) @ [[a],[-b]] = 0 gives alpha @ a = beta @ b.
    combos = left_nullspace(np.vstack([a, (-b) % p]), p)
    return row_basis((combos[:, : len(a)] @ a) % p, p)


def preimage_of_rowspace(mat, sub, p: int) -> np.ndarray:
    """Basis of {x : x @ mat in rowspace(sub)}."""
    mat = asmod(mat, p)
    sub = row_basis(sub, p)
    k = mat.shape[0]
    if sub.size == 0:
        return left_nullspace(mat, p)
    stacked = np.vstack([mat, (-sub) % p])
    combos = left_nullspace(stacked, p)
    if combos.size == 0:
        return zeros((0, k))
    return row_basis(combos[:, :k], p)


def mat_inverse(a, p: int):
    """Inverse of a square matrix mod p, or None if singular."""
    m = asmod(a, p)
    n = m.shape[0]
    aug = np.hstack([m, eye(n)])
    red, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        return None
    return red[:, n:]


def det_nonzero(a, p: int) -> bool:
    m = asmod(a, p)
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]


def mat_pow(a, k: int, p: int) -> np.ndarray:
    m = asmod(a, p)
    acc = eye(m.shape[0])
    while k:
        if k & 1:
            acc = (acc @ m) % p
        m = (m @ m) % p
        k >>= 1
    return acc
