import itertools
import pickle

import numpy as np
import pytest

import pgroups.gflinalg as la
from pgroups import autom
from pgroups import deriv as deriv_mod
from pgroups import (
    Derivation,
    InputError,
    catalog,
    center,
    conjugation_module,
    derivation_space,
    derivation_with_values,
    enumerate_elements,
    fixed_points,
    frattini,
    omega1,
    pullback_module,
    quotient,
    quotient_h1_dims,
    regular_module,
    restriction_image_dim,
    theta_cr_build,
    trivial_module,
    trivial_subgroup,
    twist_extend,
    vanishing_subspace,
)
from pgroups.oracle import enumerate_derivations_bruteforce
from pgroups.series import hypothesis_report

from .test_fpmod import jordan_module


def center_module(G):
    return conjugation_module(G, omega1(G, center(G)))


def test_dims_c3_trivial(C3):
    sp = derivation_space(C3, trivial_module(C3))
    assert (sp.der_dim, sp.ider_dim, sp.h1_dim) == (1, 0, 1)


def test_dims_heisenberg_center(H3):
    sp = derivation_space(H3, center_module(H3))
    assert (sp.der_dim, sp.ider_dim, sp.h1_dim) == (2, 0, 2)


def test_ider_dimension_formula(H3, C33):
    for G, M in [
        (H3, regular_module(H3)),
        (C33, regular_module(C33)),
        (H3, center_module(H3)),
    ]:
        sp = derivation_space(G, M)
        assert sp.ider_dim == M.dim - fixed_points(M).dim
        assert sp.h1_dim == sp.der_dim - sp.ider_dim >= 0


def test_inner_derivation_vanishes_iff_fixed(C3):
    """d_m(g) = m^g - m, with generator values m (A_g - I), is zero exactly
    when m is fixed, and lies in the Ider that derivation_space solves for."""
    R = regular_module(C3)
    ider = derivation_space(C3, R).ider_array

    def inner(m):
        return Derivation(C3, R, [(np.array(m) @ A - m) % 3 for A in R.mats])

    assert not inner([1, 1, 1]).gen_images.any()
    assert not inner([0, 0, 0]).gen_images.any()
    d = inner([1, 0, 0])
    assert d.gen_images.any() and la.in_rowspace(d.gen_images.reshape(-1), ider, 3)
    x = C3.gen(0) ** 2
    m = np.array([1, 0, 0])
    assert np.array_equal(d.evaluate(x), (m @ R.action_of(x) - m) % 3)


def test_cocycle_identity_exhaustive(H3):
    M = center_module(H3)
    sp = derivation_space(H3, M)
    els = enumerate_elements(H3)
    for d in sp.der_basis:
        assert not d.evaluate(H3.identity).any()
        for x in els:
            for y in els:
                lhs = d.evaluate(x * y)
                rhs = (d.evaluate(x) @ M.action_of(y) + d.evaluate(y)) % 3
                assert np.array_equal(lhs, rhs)


def test_derivation_rejects_non_cocycle(H3):
    M = center_module(H3)
    # c is a commutator: any derivation kills it; image c -> 1 is invalid
    with pytest.raises(InputError):
        Derivation(H3, M, ((0,), (0,), (1,)))


# (group, k): the k-th target of the branch table on every non-abelian group
# of default_catalog(3, 81) and default_catalog(5, 125) whose brute-force
# space, p^(n dim) generator-value tuples, has at most 15625 entries
PIPELINE_TARGETS = [
    ("heisenberg:3", 0), ("heisenberg:3", 1), ("heisenberg:3", 2),
    ("m:3", 0), ("m:3", 1),
    ("d:2,3", 0), ("d:2,3", 1), ("d:2,3", 2),
    ("heisenberg:3+cyclic:3,1", 0),
    ("m:3+cyclic:3,1", 0),
    ("m:3,4", 0), ("m:3,4", 1),
    ("wreath:3", 0), ("wreath:3", 1),
    ("heisenberg:5", 0), ("heisenberg:5", 1), ("heisenberg:5", 2),
    ("m:5", 0), ("m:5", 1),
    ("d:2,5", 0), ("d:2,5", 1), ("d:2,5", 2),
]
BRUTEFORCE_LIMIT = 15625


def _target_module(G, k):
    A = next(itertools.islice(autom._targets(G, hypothesis_report(G)), k, None))[1]
    return conjugation_module(G, A)


def test_pipeline_targets_are_every_small_target():
    want = []
    for G in [*catalog.default_catalog(3, 81), *catalog.default_catalog(5, 125)]:
        hyp = hypothesis_report(G)
        if hyp.abelian:
            continue
        for k, (_, A, _, _, _) in enumerate(autom._targets(G, hyp)):
            if G.p ** (G.n * conjugation_module(G, A).dim) <= BRUTEFORCE_LIMIT:
                want.append((G.name, k))
    assert want == PIPELINE_TARGETS


@pytest.mark.parametrize(
    "spec,module", [("heisenberg:3", "center"), ("cyclic:3,2", "trivial"), *PIPELINE_TARGETS]
)
def test_solver_matches_bruteforce_smoke(spec, module):
    """The solved Der(G, M) spans exactly the generator-value tuples that
    the oracle's own cocycle walk accepts; on the pipeline's targets too,
    ten of which have dimension 2."""
    G = catalog.parse_group_spec(spec)
    if module == "center":
        M = center_module(G)
    elif module == "trivial":
        M = trivial_module(G)
    else:
        M = _target_module(G, module)
    assert G.p ** (G.n * M.dim) <= BRUTEFORCE_LIMIT
    sp = derivation_space(G, M)
    solver = {tuple(tuple(int(v) for v in row) for row in d.gen_images) for d in sp.span_iter()}
    brute = enumerate_derivations_bruteforce(G, M)
    assert solver == brute


def test_unpickling_runs_no_checks(H3, monkeypatch):
    """A module and a derivation were checked, or built valid, when they
    were made, so unpickling them repeats no determinant or cocycle check."""
    M = jordan_module(H3, 0)
    d = derivation_space(H3, M).der_basis[2]

    def refuse(*args):
        raise AssertionError("a check ran on unpickling")

    monkeypatch.setattr(la, "det_nonzero", refuse)
    monkeypatch.setattr(deriv_mod, "satisfies_cocycle", refuse)
    M2, d2 = pickle.loads(pickle.dumps((M, d)))
    assert M2 == M and d2.module == M
    assert np.array_equal(d2.gen_images, d.gen_images)


def test_derivation_arrays_are_read_only(H3):
    M = jordan_module(H3, 0)
    sp = derivation_space(H3, M)
    assert (sp.der_dim, sp.ider_dim, sp.h1_dim) == (4, 1, 3)
    d0 = sp.der_basis[0]
    sp2, d2 = pickle.loads(pickle.dumps((sp, d0)))
    assert sp2.module == M and d2.module == M
    for a, b in [(sp.der_array, sp2.der_array), (sp.ider_array, sp2.ider_array),
                 (sp.h1_array, sp2.h1_array), (d0.gen_images, d2.gen_images)]:
        assert np.array_equal(a, b)
        for arr in (a, b):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
    # the constructor keeps its own copy, reduced mod p
    imgs = np.array([[4, 0], [0, 0], [0, 0]])
    d = Derivation(H3, M, imgs)
    imgs[0, 0] = 2
    assert d.gen_images.tolist() == [[1, 0], [0, 0], [0, 0]]


def test_hom_formula_on_frattini_quotients():
    for d, p in [(2, 3), (3, 3), (2, 5)]:
        D = catalog.parse_group_spec(f"d:{d},{p}")
        Q, _ = quotient(D, frattini(D).members)
        sp = derivation_space(Q, trivial_module(Q))
        assert sp.h1_dim == d


def test_inflate_is_injective_and_vanishes(H3):
    """The derivations of G/Z pulled back along the projection, with values
    d(proj(g_k)), are derivations of G that vanish on Z; they are
    independent and span the subspace vanishing on Z, the reading of
    Der(G/Z, M) that quotient_h1_dims uses."""
    Z = omega1(H3, center(H3))
    Q, proj = quotient(H3, Z.members)
    spQ = derivation_space(Q, trivial_module(Q))
    M = pullback_module(trivial_module(Q), proj)
    inflated = [
        Derivation(H3, M, [dd.evaluate(img) for img in proj.images]) for dd in spQ.der_basis
    ]
    assert all(not d.evaluate(z).any() for d in inflated for z in Z.gen_elements)
    rows = np.array([d.gen_images.reshape(-1) for d in inflated])
    assert la.rank(rows, 3) == len(inflated)  # injective
    van = vanishing_subspace(derivation_space(H3, M), list(Z.gen_elements))
    assert van.shape[0] == len(inflated)
    assert all(la.in_rowspace(row, van, 3) for row in rows)


def test_only_zero_vanishes_on_the_whole_group(H3):
    """N = G: only the zero derivation vanishes on every element."""
    M = center_module(H3)
    sp = derivation_space(H3, M)
    van = vanishing_subspace(sp, list(enumerate_elements(H3)))
    assert van.shape[0] == 0


def test_restrict_and_image_dims(D23):
    # the rank-2 class-2 group with the hom-twisted 3-dim module
    S = trivial_module(D23)
    d1 = Derivation(D23, S, ((1,), (0,), (0,)))
    A1 = twist_extend(S, d1)
    d2 = Derivation(D23, A1, ((0, 0), (1, 0), (0, 0)))
    A = twist_extend(A1, d2)
    assert fixed_points(A).dim == 1
    spA = derivation_space(D23, A)
    # any assignment on the two minimal generators extends to a derivation
    assert spA.der_dim == 2 * A.dim
    phi = frattini(D23)
    # restriction image hits all of Hom(Phi, S): dimension log_p |Phi| = 1
    assert restriction_image_dim(spA, phi) == 1
    # the explicit commutator-dual derivation: y1 -> r2, y2 -> 0 forces
    # the value at [y1, y2] to be -a
    y1, y2 = D23.gen(0), D23.gen(1)
    dc = derivation_with_values(spA, [(y1, (0, 0, 1)), (y2, (0, 0, 0))])
    assert dc is not None
    val = dc.evaluate(y1.comm(y2))
    assert tuple(val) == (2, 0, 0)
    # values of every derivation on the central Frattini land in C_A(D)
    fixed = fixed_points(A).basis_array
    for dd in spA.der_basis:
        assert all(la.in_rowspace(dd.evaluate(y), fixed, 3) for y in phi.gen_elements)


def test_quotient_h1_dims_match_quotient_presentation(H3):
    """Vanishing-subspace dims equal dims computed over the quotient group."""
    Z = omega1(H3, center(H3))
    M = center_module(H3)
    der_v, ider_v, h1_v = quotient_h1_dims(H3, M, Z)
    Q, proj = quotient(H3, Z.members)
    spQ = derivation_space(Q, trivial_module(Q))
    assert (der_v, ider_v, h1_v) == (spQ.der_dim, spQ.ider_dim, spQ.h1_dim)


def test_twist_extend_zero_and_inner(C3):
    R = regular_module(C3)
    zero = Derivation(C3, R, ((0, 0, 0),))
    K0 = twist_extend(R, zero)
    assert K0.dim == 4
    # submodule R and trivial quotient
    sub = la.zeros((3, 4))
    sub[:, :3] = la.eye(3)
    from pgroups.fpmod import Submodule, quotient_module

    S = Submodule(K0, tuple(tuple(int(v) for v in r) for r in sub))
    Q, _ = quotient_module(K0, S)
    assert Q.dim == 1 and np.array_equal(Q.mats[0], la.eye(1))
    # twisting by an inner derivation is isomorphic to the split case
    from pgroups import module_isomorphism

    m = np.array([1, 0, 0])
    dm = Derivation(C3, R, [(m @ A - m) % 3 for A in R.mats])
    Kt = twist_extend(R, dm)
    assert module_isomorphism(Kt, K0) is not None


def test_twist_rejects_wrong_module(C3, C33):
    R = regular_module(C3)
    d = Derivation(C3, trivial_module(C3), ((1,),))
    with pytest.raises(InputError):
        twist_extend(R, d)


def test_theta_build_dims(D23):
    phi = frattini(D23)
    Q, proj = quotient(D23, phi.members)
    K = pullback_module(regular_module(Q), proj)
    M, taus = theta_cr_build(D23, K, trivial_subgroup(D23))
    assert M.dim == K.dim + 1 and len(taus) == 1
    M0, taus0 = theta_cr_build(D23, K, phi)
    assert M0.dim == K.dim and not taus0


def test_theta_build_rejects_non_cr(D23):
    phi = frattini(D23)
    bad = trivial_module(D23, 2)  # fixed dim 2: not CR
    with pytest.raises(InputError):
        theta_cr_build(D23, bad, trivial_subgroup(D23))
