import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import pgroups.gflinalg as la

from .models import reference_complement, reference_nullspace, reference_rref

PRIMES = [3, 5, 7]


@st.composite
def matrices(draw, p):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_idempotent_and_rank(p, data):
    m = data.draw(matrices(p))
    red, piv = la.rref(m, p)
    assert red.shape[0] == len(piv) == la.rank(m, p)
    if red.size:
        red2, piv2 = la.rref(red, p)
        assert np.array_equal(red2, red) and piv2 == piv


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rref_matches_scalar_reference(p, data):
    """Rows and pivots equal the scalar Gauss-Jordan elimination's on empty,
    one-row, wide and tall inputs, random or of lower rank than their
    shape allows (combinations of a few random rows)."""
    rows = data.draw(st.integers(0, 9), label="rows")
    cols = data.draw(st.integers(1, 9), label="cols")
    entry = st.integers(0, p - 1)
    if data.draw(st.booleans(), label="deficient"):
        k = data.draw(st.integers(0, max(min(rows, cols) - 1, 0)), label="rank bound")
        basis = np.array(data.draw(st.lists(entry, min_size=k * cols, max_size=k * cols)))
        coeffs = np.array(data.draw(st.lists(entry, min_size=rows * k, max_size=rows * k)))
        m = (coeffs.reshape(rows, k) @ basis.reshape(k, cols)) % p
    else:
        m = np.array(data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))
    m = m.astype(np.int64).reshape(rows, cols)
    event("empty" if rows == 0 else "one row" if rows == 1 else "wide" if cols > rows else "square or tall")
    red, piv = la.rref(m, p)
    want_rows, want_piv = reference_rref(m.tolist(), p)
    assert red.shape == (len(want_rows), cols)
    assert red.tolist() == want_rows and piv == want_piv


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nullspace_annihilates(p, data):
    """The basis is the scalar reference's, row for row, and the input is
    left as it was."""
    m = data.draw(matrices(p))
    before = m.copy()
    ns = la.nullspace(m, p)
    assert ns.shape[0] == m.shape[1] - la.rank(m, p)
    for v in ns:
        assert not ((m @ v) % p).any()
    assert ns.tolist() == reference_nullspace(m.tolist(), p)
    assert np.array_equal(m, before)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_left_nullspace(p, data):
    m = data.draw(matrices(p))
    ns = la.left_nullspace(m, p)
    for v in ns:
        assert not ((v @ m) % p).any()
    assert ns.tolist() == reference_nullspace(m.T.tolist(), p)


def test_solve_right_consistent_and_inconsistent():
    a = np.array([[1, 2, 0], [0, 1, 1]])
    x = np.array([2, 1])
    b = (x @ a) % 3
    got = la.solve_right(a, b, 3)
    assert got is not None and np.array_equal((got @ a) % 3, b)
    assert la.solve_right(np.array([[1, 0, 0]]), np.array([0, 1, 0]), 3) is None


def test_complement_and_intersection():
    p = 3
    a = np.array([[1, 0, 0], [0, 1, 0]])
    sub = np.array([[1, 1, 0]])
    comp = la.complement_in(sub, a, p)
    assert comp.shape[0] == 1
    stacked = np.vstack([sub, comp])
    assert la.rank(stacked, p) == 2
    b = np.array([[0, 1, 0], [0, 0, 1]])
    inter = la.intersect_rowspaces(a, b, p)
    assert inter.shape[0] == 1
    assert la.in_rowspace(inter[0], a, p) and la.in_rowspace(inter[0], b, p)
    # an empty side, or a trivial intersection, keeps the column count
    empty = la.zeros((0, 3))
    for x, y in [(a, empty), (empty, b), (empty, empty), (sub, b)]:
        assert la.intersect_rowspaces(x, y, p).shape == (0, 3)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_complement_in_matches_greedy_reference(p, data):
    """complement_in keeps the same amb rows, in the same order, as the
    scalar greedy scan; amb may repeat rows, and sub lies in its span."""
    width = data.draw(st.integers(1, 6), label="width")
    row = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
    pool = data.draw(st.lists(row, min_size=1, max_size=6), label="pool")
    k = data.draw(st.integers(0, 6), label="amb rows")
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k), label="amb")
    amb = np.array(rows, dtype=np.int64).reshape(k, width)
    s = data.draw(st.integers(0, 4), label="sub rows")
    coeffs = st.lists(st.integers(0, p - 1), min_size=s * k, max_size=s * k)
    combos = np.array(data.draw(coeffs, label="sub"), dtype=np.int64).reshape(s, k)
    sub = (combos @ amb) % p
    comp = la.complement_in(sub, amb, p)
    assert comp.shape[1] == width
    assert comp.tolist() == reference_complement(sub, amb, p)


def test_preimage_of_rowspace():
    p = 3
    mat = np.array([[1, 0], [0, 1], [1, 1]])  # map F3^3 -> F3^2
    sub = np.array([[1, 0]])
    pre = la.preimage_of_rowspace(mat, sub, p)
    assert pre.shape[0] == 2
    for v in pre:
        assert la.in_rowspace((v @ mat) % p, sub, p)


def test_mat_inverse_and_pow():
    p = 5
    m = np.array([[1, 2], [0, 1]])
    inv = la.mat_inverse(m, p)
    assert np.array_equal((m @ inv) % p, la.eye(2))
    assert np.array_equal(la.mat_pow(m, 5, p), la.eye(2))
    assert la.mat_inverse(np.array([[1, 2], [2, 4]]), p) is None
