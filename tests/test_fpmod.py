import itertools
import pickle

import numpy as np
import pytest

import pgroups.gflinalg as la
from pgroups import (
    CapExceeded,
    InputError,
    annihilator_of_radical_power,
    catalog,
    center,
    conjugation_module,
    fixed_points,
    frattini,
    maximal_submodules,
    module_isomorphism,
    norm_operator,
    omega1,
    pullback_module,
    quotient,
    quotient_module,
    radical_series,
    regular_module,
    socle_filtration,
    socle_layer,
    submodule_as_module,
    submodule_embedding_count,
    submodules_of_dim,
    trivial_module,
    whole_group,
)
from pgroups.fpmod import FpModule
from pgroups.series import greedy_elementary_abelian_normal

from .test_series import SCAN_GROUPS


def test_regular_module_basics(C3, C33):
    R = regular_module(C3)
    assert R.dim == 3
    fp = fixed_points(R)
    assert fp.dim == 1
    assert tuple(fp.basis_array[0]) == (1, 1, 1)  # the norm vector
    R2 = regular_module(C33)
    assert R2.dim == 9 and fixed_points(R2).dim == 1


def test_regular_module_cap():
    G = catalog.parse_group_spec("d:3,5")  # order 5^6
    with pytest.raises(CapExceeded):
        regular_module(G)


def test_action_matrices_satisfy_relations(H3):
    R = regular_module(H3)
    assert R.relations_hold()
    bad = [[list(r) for r in np.array(m)] for m in R.mats]
    bad[0][0][0] = (bad[0][0][0] + 1) % 3  # no longer a permutation action
    with pytest.raises(InputError):
        from pgroups.fpmod import FpModule

        FpModule(H3, tuple(tuple(tuple(r) for r in m) for m in bad))


@pytest.mark.parametrize(
    "action, message",
    [
        ([[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0]]], "square of equal size"),
        ([[[1, 0, 0], [0, 1, 0]]] * 3, "square of equal size"),
        ([[[1, 0], [0, 1]]] * 2, "one action matrix per pc generator"),
    ],
    ids=["ragged", "non-square", "one-matrix-short"],
)
def test_module_constructor_refuses_malformed_action(H3, action, message):
    with pytest.raises(InputError, match=message):
        FpModule(H3, action)


def test_module_constructor_refuses_singular_matrix(H3):
    """A singular generator matrix is refused when check is on (the default),
    before the relators are tried."""
    action = [[[1, 0], [0, 1]], [[1, 1], [1, 1]], [[1, 0], [0, 1]]]
    with pytest.raises(InputError, match="singular"):
        FpModule(H3, action)


def test_regular_module_skips_determinant_checks(H3, monkeypatch):
    """regular_module's permutation matrices are invertible by construction,
    so building it with check=False runs no determinant."""
    calls = []

    def counted(m, p):
        calls.append(m)
        return True

    monkeypatch.setattr(la, "det_nonzero", counted)
    R = regular_module(H3)
    assert R.dim == 27 and calls == []
    FpModule(H3, R.mats)
    assert len(calls) == H3.n


def test_module_arrays_are_read_only_and_survive_pickle(H3):
    """Writing into a module's matrices, a submodule's basis or a
    realization's span raises, before and after a pickle round trip, and
    each value comes back equal."""
    M = conjugation_module(H3, greedy_elementary_abelian_normal(H3))
    S = fixed_points(M)
    real = M.realization
    M2, S2, real2 = pickle.loads(pickle.dumps((M, S, real)))
    assert M2 == M and real2 == real and M2.realization == real
    assert S2.module == M and np.array_equal(S2.basis_array, S.basis_array)
    for arr in (M.mats, S.basis_array, real.span, M2.mats, S2.basis_array, real2.span):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 2


def test_fixed_points_of_trivial_subgroup(C33):
    R = regular_module(C33)
    from pgroups import trivial_subgroup

    assert fixed_points(R, trivial_subgroup(C33)).dim == R.dim


def test_socle_and_radical_c3(C3):
    R = regular_module(C3)
    assert socle_filtration(R).dims == (1, 2, 3)
    assert [l.dim for l in radical_series(R).layers] == [3, 2, 1, 0]


def test_socle_and_radical_c33(C33):
    R = regular_module(C33)
    assert socle_filtration(R).dims[:2] == (1, 3)  # K2 has dim d + 1 = 3
    rads = [l.dim for l in radical_series(R).layers]
    assert rads[0] == 9 and rads[-1] == 0
    # nilpotency degree of J is at most (p-1) n + 1
    assert len(rads) - 1 <= (3 - 1) * 2 + 1


def test_trivial_module_filtration(C33):
    T = trivial_module(C33, 2)
    assert socle_filtration(T).dims == (2,)


def test_annihilators_align_with_socle(C3, C33):
    for L in (C3, C33):
        R = regular_module(L)
        for i in (1, 2, 3):
            ann = annihilator_of_radical_power(R, i)
            soc = socle_layer(R, i)
            assert np.array_equal(ann.basis_array, soc.basis_array)


def test_radical_products_contained(C33):
    """J^a J^b is inside J^(a+b) (checked via spanning products)."""
    R = regular_module(C33)
    layers = radical_series(R).layers
    p = 3
    for a in (1, 2):
        for b in (1, 2):
            if a + b >= len(layers):
                continue
            target = layers[a + b]
            for u in layers[a].basis_array:
                # right-multiplying a J^a vector by (g - 1) lands in J^(a+1)
                for m in R.mats:
                    v = (u @ ((m - la.eye(R.dim)) % p)) % p
                    assert target.module is R  # sanity
                    if b == 1:
                        assert la.in_rowspace(v, layers[a + 1].basis_array, p)


def test_fixed_points_nonzero_for_unipotent(H3):
    R = regular_module(H3)
    assert fixed_points(R).dim >= 1


def test_norm_operator(C3, C33):
    for L in (C3, C33):
        R = regular_module(L)
        N = norm_operator(R)
        assert la.rank(N, 3) == 1
        onto_fixed = la.in_rowspace(N[0], fixed_points(R).basis_array, 3)
        assert onto_fixed


NORM_MODULES = [("conjugation", s) for s in ("heisenberg:3", "wreath:3", "m:3", "d:2,5", "extraspecial:3")]
NORM_MODULES += [
    ("regular", s)
    for s in ("cyclic:3,2", "elemab:3,2", "heisenberg:3", "m:3", "m:3,4", "wreath:3", "cyclic:5,2", "elemab:5,2")
]


@pytest.mark.parametrize("kind, spec", NORM_MODULES, ids=lambda x: x)
def test_norm_operator_sums_every_action(kind, spec):
    """The product formula against the sum of action_of over all elements,
    on the conjugation module of the greedy elementary abelian normal
    subgroup and on regular modules up to order 81."""
    G = catalog.parse_group_spec(spec)
    if kind == "regular":
        M = regular_module(G)
    else:
        M = conjugation_module(G, greedy_elementary_abelian_normal(G))
    total = sum(M.action_of(G.element(x)) for x in G.elements) % G.p
    assert np.array_equal(norm_operator(M), total)


def test_quotient_module_dims(C33):
    R = regular_module(C33)
    K1 = socle_layer(R, 1)
    Q, proj = quotient_module(R, K1)
    assert Q.dim == 8
    assert fixed_points(Q).dim == 2


@pytest.mark.parametrize("G", SCAN_GROUPS, ids=lambda G: G.name)
def test_conjugation_module_realization(G):
    """On Omega_1(Z(G)) and the greedy elementary abelian normal subgroup:
    decode inverts coords on every member, coords are -1 on the rest, and
    span lists the products of basis powers in itertools.product order."""
    for A in (omega1(G, center(G)), greedy_elementary_abelian_normal(G)):
        real = conjugation_module(G, A).realization
        for x in A.elements:
            assert real.decode(real.coords[x.index]) == x
        outside = sorted(set(range(G.order)) - A.members)
        assert (real.coords[outside] == -1).all()
        span = []
        for coeffs in itertools.product(range(G.p), repeat=len(real.basis)):
            el = G.identity
            for b, c in zip(real.basis, coeffs):
                el = el * b**c
            span.append(el.index)
        assert real.span.tolist() == span
    if not whole_group(G).is_elementary_abelian:
        with pytest.raises(InputError):
            conjugation_module(G, whole_group(G))


def test_pullback_module(H3):
    phi = frattini(H3)
    Q, proj = quotient(H3, phi.members)
    K = pullback_module(regular_module(Q), proj)
    assert K.dim == 9
    # Frattini subgroup acts trivially on the pullback
    for g in phi.gen_elements:
        assert np.array_equal(K.action_of(g), la.eye(9))


def test_submodule_enumeration_uniserial(C3):
    R = regular_module(C3)
    assert [len(submodules_of_dim(R, k)) for k in range(4)] == [1, 1, 1, 1]


def test_module_isomorphism_reflexive(C33):
    R = regular_module(C33)
    X = module_isomorphism(R, R)
    assert X is not None and la.det_nonzero(X, 3)
    T1 = trivial_module(C33, 1)
    assert module_isomorphism(R, T1) is None


def jordan_module(G, k):
    """Dimension 2: pc generator k acts by [[1, 1], [0, 1]], the others
    trivially (valid whenever g_k is not a product of commutators and
    p-th powers, as for g_1 of every group here)."""
    J, I = ((1, 1), (0, 1)), ((1, 0), (0, 1))
    return FpModule(G, tuple(J if i == k else I for i in range(G.n)))


@pytest.mark.parametrize(
    "spec,module",
    [
        ("cyclic:3,1", "regular"),
        ("elemab:3,2", "regular"),
        ("heisenberg:3", "jordan"),
        ("heisenberg:5", "ea"),
    ],
)
def test_module_isomorphism_of_a_change_of_basis(spec, module):
    """B_g = X0^-1 A_g X0 for a random invertible X0: the returned X is
    invertible and intertwines, A_g X = X B_g for every generator g."""
    G = catalog.parse_group_spec(spec)
    A = {
        "regular": regular_module,
        "jordan": lambda G: jordan_module(G, 0),
        "ea": lambda G: conjugation_module(G, greedy_elementary_abelian_normal(G)),
    }[module](G)
    p, d = A.p, A.dim
    rng = np.random.default_rng(d)
    X0 = rng.integers(0, p, (d, d))
    while not la.det_nonzero(X0, p):
        X0 = rng.integers(0, p, (d, d))
    inv = la.mat_inverse(X0, p)
    B = FpModule(G, tuple(tuple(map(tuple, (inv @ m @ X0 % p).tolist())) for m in A.mats))
    assert any(not np.array_equal(a, b) for a, b in zip(A.mats, B.mats))
    X = module_isomorphism(A, B)
    assert X is not None and la.det_nonzero(X, p)
    for a, b in zip(A.mats, B.mats):
        assert np.array_equal(a @ X % p, X @ b % p)


def test_module_isomorphism_none_for_non_isomorphic(H3):
    # trivial against non-trivial: the socle dimensions differ
    assert module_isomorphism(trivial_module(H3, 2), jordan_module(H3, 0)) is None
    # the same socle dimensions, (1, 2), but different kernels: only the
    # intertwiner system tells them apart
    E = catalog.parse_group_spec("elemab:3,2")
    A, B = jordan_module(E, 0), jordan_module(E, 1)
    assert socle_filtration(A).dims == socle_filtration(B).dims
    assert module_isomorphism(A, B) is None


def test_embedding_counts(C3, C33):
    R3 = regular_module(C3)
    K2, _ = submodule_as_module(R3, socle_layer(R3, 2))
    assert submodule_embedding_count(C3, K2) == 1
    R33 = regular_module(C33)
    K2b, _ = submodule_as_module(R33, socle_layer(R33, 2))
    assert K2b.dim == 3
    assert submodule_embedding_count(C33, K2b) == 1
    assert submodule_embedding_count(C33, trivial_module(C33)) == 1


def test_embedding_count_caps(C33):
    with pytest.raises(CapExceeded):
        submodule_embedding_count(C33, regular_module(C33))  # dim 9 > 6


def test_maximal_submodules(C3, C33):
    # group algebras are local: the augmentation ideal is the unique
    # maximal submodule
    R = regular_module(C3)
    maxes = maximal_submodules(R)
    assert len(maxes) == 1 and maxes[0].dim == 2
    R2 = regular_module(C33)
    maxes2 = maximal_submodules(R2)
    assert len(maxes2) == 1 and maxes2[0].dim == 8
    # a module with 2-dimensional head has (p^2-1)/(p-1) maximal submodules
    T2 = trivial_module(C33, 2)
    assert len(maximal_submodules(T2)) == 4
