import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pgroups import (
    DEFAULT_CAPS,
    CapExceeded,
    Derivation,
    GroupHom,
    InputError,
    NonInnerCertificate,
    OutOfScope,
    catalog,
    center,
    conjugation_module,
    construct_noninner,
    derivation_space,
    derivation_with_values,
    identity_endo,
    induce,
    is_inner,
    omega1,
    order_of,
    verify_certificate,
)
import pgroups.gflinalg as la
from pgroups import autom
from pgroups.deriv import derivation_from_vector, satisfies_cocycle, vanishing_subspace
from pgroups.pcgroup import PcPresentation
from pgroups.series import hypothesis_report

from .models import reference_certificate_holds, reference_collect


def center_module(G):
    return conjugation_module(G, omega1(G, center(G)))


def test_endo_validation(H3):
    a, b, c = H3.gens
    # [image(b), image(a)] must equal image(c): (a, b, e) violates it
    with pytest.raises(InputError):
        GroupHom(H3, H3, (a, b, H3.identity))
    # (a, a, e) is a genuine collapse endomorphism ([a, a] = 1)
    collapse = GroupHom(H3, H3, (a, a, H3.identity))
    assert not collapse.is_automorphism
    e = H3.identity
    assert not GroupHom(H3, H3, (e, e, e)).is_automorphism
    assert identity_endo(H3).is_automorphism
    # one image per generator, from Elements or indices: twice the identity
    # images would pass the relation check as two rows of a stack
    with pytest.raises(InputError):
        GroupHom(H3, H3, (a, b))
    with pytest.raises(InputError):
        GroupHom._checked(H3, H3, H3.gen_indices * 2)


def test_induce_zero_is_identity(H3):
    M = center_module(H3)
    sp = derivation_space(H3, M)
    zero = derivation_from_vector(H3, M, np.zeros(3, dtype=np.int64))
    assert induce(zero).is_identity


def test_induce_spec_map(H3):
    """delta: a -> c, b -> 0 induces (a -> ac, b -> b), an order-3
    automorphism; for an extraspecial group every such central map is inner
    (conjugation by a power of b)."""
    M = center_module(H3)
    sp = derivation_space(H3, M)
    d = derivation_with_values(sp, [(H3.gen(0), (1,)), (H3.gen(1), (0,))])
    psi = induce(d)
    a, b, c = H3.gens
    assert psi.images == (a * c, b, c)
    assert psi.is_automorphism
    assert order_of(psi) == 3
    witness, scanned = is_inner(psi)
    assert scanned == 27
    assert witness is not None and psi.images == tuple(g.conj(witness) for g in H3.gens)


def test_inner_derivation_induces_conjugation(H3, M27):
    """induce(d_m) equals conjugation by m^-1 (with d_m(g) = m^g - m, the
    rows m (A_g - I) that derivation_space spans Ider with)."""
    for G in (H3, M27):
        M = center_module(G)
        for m_el in omega1(G, center(G)).elements:
            m = M.realization.coords[m_el.index]
            dm = Derivation(G, M, [(m @ A - m) % G.p for A in M.mats], check=False)
            conj = tuple(g.conj(m_el.inverse()) for g in G.gens)
            assert induce(dm).images == conj


def test_is_inner_identity_witness(H3):
    w, _ = is_inner(identity_endo(H3))
    assert w is not None and w.is_identity


def test_request_cap_refusals_are_cap_exceeded(H3):
    """A request cap below the order refuses the inner scan and the
    construction as every other cap does: CapExceeded, exit 2 on the CLI."""
    caps = DEFAULT_CAPS._replace(enumeration=26)
    with pytest.raises(CapExceeded) as scan:
        is_inner(identity_endo(H3), caps)
    with pytest.raises(CapExceeded) as construction:
        construct_noninner(H3, caps)
    assert (scan.value.what, scan.value.size, scan.value.cap) == ("inner scan", 27, 26)
    assert construction.value.what == "noninner construction"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
CERT_KEYS = (
    "group", "path", "gen_images", "order", "fixed_subgroup", "moved", "inner_scan", "evidence"
)


@settings(deadline=None)
@given(
    st.one_of(
        JSON_VALUES,
        st.fixed_dictionaries({}, optional={k: JSON_VALUES for k in CERT_KEYS}),
    )
)
def test_certificate_loader_returns_or_raises_input_error(data):
    """Any JSON value, or any object over the certificate's keys, loads or
    is refused with InputError."""
    try:
        NonInnerCertificate.from_json_dict(data)
    except InputError:
        pass


def test_certificate_loader_refuses_non_object_evidence(H3):
    good = construct_noninner(H3)[0].to_json_dict()
    for evidence in (5, [], "method"):
        with pytest.raises(InputError, match="evidence must be an object"):
            NonInnerCertificate.from_json_dict({**good, "evidence": evidence})


def test_noninner_certificate_builds_no_element_list():
    """The pipeline and its certificate JSON on wreath:5 (order 15625) turn
    indices into exponents one at a time, never through G.elements."""
    G = catalog.parse_group_spec("wreath:5")
    cert, _ = construct_noninner(G)
    assert json.loads(json.dumps(cert.to_json_dict()))["group"] == "wreath:5"
    assert "elements" not in G.__dict__


def test_certificate_roundtrip_and_verify(H3):
    cert, report = construct_noninner(H3)
    assert verify_certificate(H3, cert) == []
    d = cert.to_json_dict()
    cert2 = NonInnerCertificate.from_json_dict(d)
    assert cert2 == cert
    assert verify_certificate(H3, cert2) == []


def test_pipeline_branches(H3, M27, W3):
    cert_h, rep_h = construct_noninner(H3)
    assert cert_h.path.startswith("oracle-fallback")
    assert "Lemma a1" in cert_h.path
    cert_m, rep_m = construct_noninner(M27)
    assert "powerful" in cert_m.path
    cert_w, rep_w = construct_noninner(W3)
    assert cert_w.path == "Theorem 01 at i=0"
    assert rep_w.hypothesis["center_cyclic"] is True


def test_pipeline_center_not_cyclic():
    G = catalog.parse_group_spec("heisenberg:3+cyclic:3,1")
    cert, report = construct_noninner(G)
    assert "center not cyclic" in cert.path
    assert verify_certificate(G, cert) == []


def test_pipeline_abelian_rejected(C9):
    with pytest.raises(OutOfScope):
        construct_noninner(C9)


def test_constructive_certificate_fixes_claimed_subgroup(W3):
    cert, report = construct_noninner(W3)
    G = W3
    phi = GroupHom(G, G, tuple(G.element(v) for v in cert.gen_images))
    from pgroups.pcgroup import closure_indices

    fixed = closure_indices(G, [G.index_of(v) for v in cert.fixed_subgroup_gens])
    for x in fixed:
        el = G.element(G.elements[x])
        assert phi.apply(el) == el
    moved = G.element(cert.moved)
    assert phi.apply(moved) != moved


@pytest.mark.parametrize("spec", ["wreath:5", "extraspecial:3,4"])
def test_pipeline_makes_few_scalar_products(spec, monkeypatch):
    """construct_noninner and one verify_certificate read whole subgroups
    through array gathers: the scalar products left are per generator and
    per relator, fewer than 2,000 on these groups of order 15625 and 19683.
    A conj_index or Element loop over the members of a subgroup makes tens
    of thousands here."""
    G = catalog.parse_group_spec(spec)
    scalar = PcPresentation.mult_index
    calls = 0

    def counting(self, a, b):
        nonlocal calls
        calls += 1
        return scalar(self, a, b)

    monkeypatch.setattr(PcPresentation, "mult_index", counting)
    cert, _ = construct_noninner(G)
    assert verify_certificate(G, cert) == []
    assert calls < 2000, calls


def _mutate(cert: NonInnerCertificate, kind: str, G) -> NonInnerCertificate:
    if kind == "forced_image_bump":
        # the image of the last pc generator is forced by the relations of
        # the earlier images; any change breaks the endomorphism check
        rows = [list(r) for r in cert.gen_images]
        rows[-1][-1] = (rows[-1][-1] + 1) % G.p
        return cert._replace(gen_images=tuple(tuple(r) for r in rows))
    if kind == "forced_image_bump2":
        rows = [list(r) for r in cert.gen_images]
        rows[-1][-1] = (rows[-1][-1] + 2) % G.p
        return cert._replace(gen_images=tuple(tuple(r) for r in rows))
    if kind == "images_inner":
        x = G.gen(0)
        return cert._replace(gen_images=tuple(g.conj(x).exps for g in G.gens))
    if kind == "images_identity":
        return cert._replace(gen_images=tuple(g.exps for g in G.gens))
    if kind == "images_collapse":
        return cert._replace(gen_images=tuple(G.identity_exps for _ in range(G.n)))
    if kind == "order_one":
        return cert._replace(order=1)
    if kind == "order_psquared":
        return cert._replace(order=G.p * G.p)
    if kind == "fixed_subgroup_moved":
        return cert._replace(fixed_subgroup_gens=(cert.moved,))
    if kind == "fixed_subgroup_short_row":
        # read as a shorter base-p number, the row would name another element
        return cert._replace(fixed_subgroup_gens=((0,) * (G.n - 1),))
    if kind == "moved_witness_identity":
        return cert._replace(moved=(0,) * G.n)
    if kind == "images_malformed":
        return cert._replace(gen_images=cert.gen_images[:-1])
    # digits outside 0..p-1 name the same element mod p, and another index
    # read in base p: refused either way, not reduced
    if kind == "image_digit_plus_p":
        rows = [list(r) for r in cert.gen_images]
        rows[0][0] += G.p
        return cert._replace(gen_images=tuple(tuple(r) for r in rows))
    if kind == "image_digit_minus_p":
        rows = [list(r) for r in cert.gen_images]
        rows[1][1] -= G.p
        return cert._replace(gen_images=tuple(tuple(r) for r in rows))
    if kind == "moved_digit_plus_p":
        return cert._replace(moved=(cert.moved[0] + G.p,) + cert.moved[1:])
    raise AssertionError(kind)


MUTATION_KINDS = [
    "forced_image_bump",
    "forced_image_bump2",
    "images_inner",
    "images_identity",
    "images_collapse",
    "order_one",
    "order_psquared",
    "fixed_subgroup_moved",
    "fixed_subgroup_short_row",
    "moved_witness_identity",
    "images_malformed",
    "image_digit_plus_p",
    "image_digit_minus_p",
    "moved_digit_plus_p",
]


def test_certificate_mutations_all_caught(H3, M27):
    """Every mutation kind is caught at order 27 and in each product range:
    the dense table (243), two half tables (729) and one table per
    generator (6561)."""
    groups = [H3, M27] + [
        catalog.parse_group_spec(s) for s in ("extraspecial:3", "d:3,3", "d:3,3+cyclic:3,2")
    ]
    caught = 0
    for G in groups:
        cert, _ = construct_noninner(G)
        assert verify_certificate(G, cert) == []
        for kind in MUTATION_KINDS:
            mutated = _mutate(cert, kind, G)
            assert mutated != cert
            failures = verify_certificate(G, mutated)
            assert failures, f"mutation {kind} on {G.name} was not caught"
            caught += 1
    assert caught == len(groups) * len(MUTATION_KINDS)
    # one tampered image that breaks a power relation and no other (M27
    # has exponent p^2; in H3 every element satisfies x^p = 1)
    cert, _ = construct_noninner(M27)
    mutated = _break_only_a_power_relation(cert, M27)
    assert verify_certificate(M27, mutated) == ["images do not define an endomorphism"]


@functools.cache
def _certified(spec):
    G = catalog.parse_group_spec(spec)
    return G, construct_noninner(G)[0]


def test_verify_certificate_agrees_with_a_scalar_recheck_under_edits():
    """verify_certificate accepts a certificate, after random edits to image
    digits, the order, fixed_subgroup rows and the moved witness, exactly
    when the scalar re-check of tests/models.py does."""
    verdicts = set()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def agrees(data):
        G, cert = _certified(data.draw(st.sampled_from(["heisenberg:3", "m:3"]), label="group"))
        p, n = G.p, G.n
        # mostly in range, sometimes one step outside 0..p-1
        digit = st.sampled_from(list(range(p)) * 3 + [-1, p])
        row = st.lists(digit, min_size=n, max_size=n).map(tuple)
        images = [list(r) for r in cert.gen_images]
        fixed, moved, order = list(cert.fixed_subgroup_gens), cert.moved, cert.order
        kinds = st.lists(st.sampled_from(["image", "order", "fixed", "moved"]), min_size=1, max_size=3)
        for kind in data.draw(kinds, label="edits"):
            if kind == "image":
                k, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
                images[k][j] = data.draw(digit)
            elif kind == "order":
                order = data.draw(st.sampled_from([0, 1, p, p * p, -p]))
            elif kind == "fixed":
                t = data.draw(st.integers(0, len(fixed)))
                fixed[t : t + 1] = [data.draw(row)]
            else:
                moved = data.draw(row)
        edited = cert._replace(
            gen_images=tuple(map(tuple, images)),
            order=order,
            fixed_subgroup_gens=tuple(fixed),
            moved=moved,
        )
        verdict = verify_certificate(G, edited) == []
        assert verdict == reference_certificate_holds(G, edited.gen_images, order, fixed, moved)
        verdicts.add(verdict)

    agrees()
    assert verdicts == {True, False}


def _reference_image(G, images, word):
    letters = []
    for g, e in word:
        letters += [(k, c) for k, c in enumerate(images[g]) if c] * e
    return reference_collect(G, letters)


def _break_only_a_power_relation(cert, G):
    """First single-image change, in generator then index order, after which
    every commutator relation still holds and some power relation fails,
    judged by the rewriting collector."""
    relators = G.relators
    powers, comms = relators[: G.n], relators[G.n :]

    def holds(images, pairs):
        return all(
            _reference_image(G, images, l) == _reference_image(G, images, r) for l, r in pairs
        )

    for k in range(G.n):
        for y in G.elements:
            images = list(cert.gen_images)
            if images[k] == y:
                continue
            images[k] = y
            if holds(images, comms) and not holds(images, powers):
                return cert._replace(gen_images=tuple(images))
    raise AssertionError("no image breaks only a power relation")


SCREEN_GROUPS = (
    catalog.default_catalog(3, max_order=729)
    + catalog.default_catalog(5, max_order=729)
    + [catalog.heisenberg(7)]
)


@functools.cache
def _pipeline_run():
    """The pipeline on every nonabelian group of SCREEN_GROUPS: each class
    scan it runs as (module, representatives, limit), how many maps it
    induced, and its certificates."""
    scans, induced = [], []
    scan, real_induce = autom._scan_classes, autom.induce

    def recording(M, reps, limit, *args):
        scans.append((M, reps, limit))
        return scan(M, reps, limit, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autom, "_scan_classes", recording)
        mp.setattr(autom, "induce", lambda delta: induced.append(delta) or real_induce(delta))
        certs = [construct_noninner(G)[0] for G in SCREEN_GROUPS if not G.is_abelian]
    return scans, len(induced), certs


def test_inner_screen_is_exact():
    """A combination's generator-value key is among the inner keys exactly
    when the map it induces is conjugation by some element; and every inner
    key is a derivation that induces a conjugation."""
    verdicts = {True: 0, False: 0}
    for M, reps, limit in _pipeline_run()[0]:
        G = M.group
        keys = autom._inner_keys(M)
        for key in keys:
            vec = np.frombuffer(key, dtype=np.int64)
            witness, _ = is_inner(induce(derivation_from_vector(G, M, vec, check=True)))
            assert witness is not None, (G.name, vec)
        for vec in autom._coefficients(reps.shape[0], G.p, limit) @ reps % G.p:
            witness, _ = is_inner(induce(derivation_from_vector(G, M, vec, check=True)))
            screened = vec.tobytes() in keys
            assert screened == (witness is not None), (G.name, vec)
            verdicts[screened] += 1
    assert verdicts[True] and verdicts[False], verdicts


@functools.cache
def _branch_targets():
    """(module, basis of the derivations vanishing on the subgroup to fix)
    for every target in the branch table of every nonabelian group of
    SCREEN_GROUPS, whether the pipeline reaches it or not."""
    targets = []
    for G in SCREEN_GROUPS:
        if G.is_abelian:
            continue
        for _, A, K, _, _ in autom._targets(G, hypothesis_report(G)):
            M = conjugation_module(G, A)
            basis = vanishing_subspace(derivation_space(G, M), list(K.gen_elements))
            if basis.shape[0]:
                targets.append((M, basis))
    return tuple(targets)


def test_batched_cocycle_check_matches_one_row_check():
    """satisfies_cocycle on a stack of rows gives each row the verdict of
    the one-row Derivation.satisfies_relations, and of membership in the
    solved Der(G, M), on every target. The rows are drawn as combinations
    of the Der basis and as arbitrary vectors, so both verdicts occur."""
    verdicts = set()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def batched_matches(data):
        M, _ = data.draw(st.sampled_from(_branch_targets()), label="target")
        G, p = M.group, M.p
        der = derivation_space(G, M).der_array
        width = G.n * M.dim

        def digits(k):
            return st.lists(st.integers(0, p - 1), min_size=k, max_size=k)

        row = st.one_of(
            digits(der.shape[0]).map(lambda c: np.array(c, dtype=np.int64) @ der % p),
            digits(width).map(lambda v: np.array(v, dtype=np.int64)),
        )
        rows = np.array(data.draw(st.lists(row, min_size=1, max_size=8), label="rows"))
        batched = satisfies_cocycle(M, rows.reshape(len(rows), G.n, M.dim))
        assert batched.shape == (len(rows),)
        for verdict, vec in zip(batched, rows):
            assert verdict == derivation_from_vector(G, M, vec).satisfies_relations()
            assert verdict == la.in_rowspace(vec, der, p)
            verdicts.add(bool(verdict))

    batched_matches()
    assert verdicts == {True, False}


def test_order_p_screen_is_exact():
    """The linear screen passes a derivation d exactly when g -> g d(g) is
    an automorphism of order p, on batches of random combinations over
    every target: phi is bijective, phi^p = 1 and phi != 1."""
    verdicts = set()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def screen_is_exact(data):
        M, basis = data.draw(st.sampled_from(_branch_targets()), label="target")
        G, p = M.group, M.p
        coeffs = st.lists(st.integers(0, p - 1), min_size=len(basis), max_size=len(basis))
        batch = data.draw(st.lists(coeffs.filter(any), min_size=1, max_size=10), label="batch")
        c = np.array(batch, dtype=np.int64)
        vecs = c @ basis % p
        for coeff, vec, screened in zip(batch, vecs, autom._order_p_screen(M, basis, c, vecs)):
            delta = derivation_from_vector(G, M, vec, check=True)
            phi = induce(delta)
            order_p = phi.is_automorphism and phi.power(p).is_identity and not phi.is_identity
            assert screened == order_p, (G.name, coeff)
            verdicts.add(bool(screened))

    screen_is_exact()
    assert verdicts == {True, False}


def test_scan_builds_one_map_per_certificate():
    """After both screens the first surviving combination is a certificate,
    so the scans induce exactly one map per certificate they give."""
    _, induced, certs = _pipeline_run()
    from_scans = [c for c in certs if dict(c.evidence)["method"] != "exhaustive backtracking search"]
    assert certs and induced == len(from_scans)


@pytest.mark.parametrize("spec, most", [("extraspecial:3", 2), ("heisenberg:7", 50)])
def test_screen_skips_inner_candidates(monkeypatch, spec, most):
    """Inner combinations are screened out before any map is built: the
    unscreened scans built 163 and 145 candidate maps here."""
    G = catalog.parse_group_spec(spec)
    built = []
    real = autom.induce
    monkeypatch.setattr(autom, "induce", lambda delta: built.append(delta) or real(delta))
    cert, _ = construct_noninner(G)
    assert verify_certificate(G, cert) == []
    assert 1 <= len(built) <= most


def test_scan_refuses_a_row_that_is_not_a_derivation(H3):
    """Each representative row is checked against the cocycle relations once,
    so a bad row is refused even when its combinations are never reached."""
    from pgroups.series import trivial_subgroup

    M = center_module(H3)
    sp = derivation_space(H3, M)
    bad = next(
        vec
        for vec in autom._coefficients(H3.n * M.dim, H3.p, 10**6)
        if not derivation_from_vector(H3, M, vec).satisfies_relations()
    )
    reps = np.vstack([bad, sp.der_array])
    with pytest.raises(InputError):
        autom._scan_classes(M, reps, 1, trivial_subgroup(H3), "test", {}, DEFAULT_CAPS)


def test_trail_has_one_line_per_target_in_table_order(H3):
    """Stage 0, then Omega_1(Z(G)) and the maximal elementary abelian
    normal target under the dispatched label, each with its outcome."""
    _, report = construct_noninner(H3)
    assert report.trail == (
        "Theorem 01 at i=0, quotient-action class: "
        "dim Der 2, inner 0, classes 2, tried 8, exhausted",
        "oracle-fallback (Lemma a1), derivation scan over Omega_1(Z(G)): "
        "dim Der 2, inner 0, classes 2, tried 8, exhausted",
        "oracle-fallback (Lemma a1), derivation scan over maximal elementary abelian normal: "
        "dim Der 4, inner 1, classes 3, tried 9, certified",
    )


def test_scan_reports_combinations_tried(H3):
    """Every class of the central target of H3 induces an inner map, so a
    scan tries min(limit, p^k - 1) combinations and certifies nothing."""
    from pgroups import gflinalg as la
    from pgroups.series import trivial_subgroup

    M = center_module(H3)
    sp = derivation_space(H3, M)
    reps = la.complement_in(sp.ider_array, sp.der_array, H3.p)
    args = (trivial_subgroup(H3), "test", {}, DEFAULT_CAPS)
    assert autom._scan_classes(M, reps, 1, *args) == (None, 1)
    assert autom._scan_classes(M, reps, 800, *args) == (None, H3.p ** reps.shape[0] - 1)


def test_backtracking_fallback_when_no_target_certifies(monkeypatch, H3):
    """With every target scan empty, the certificate comes from the
    exhaustive backtracking search under the dispatched label, and is one of
    the oracle's non-inner automorphisms of order p."""
    from pgroups.oracle import enumerate_automorphisms

    monkeypatch.setattr(autom, "_scan_classes", lambda *args: (None, 0))
    cert, report = construct_noninner(H3)
    assert cert.path == "oracle-fallback (Lemma a1)"
    assert dict(cert.evidence) == {"method": "exhaustive backtracking search"}
    assert report.trail[-1] == "oracle-fallback (Lemma a1), exhaustive backtracking search: certified"
    assert verify_certificate(H3, cert) == []
    noninner_p = {
        tuple(i.index for i in a.images)
        for a in enumerate_automorphisms(H3).automorphisms
        if order_of(a) == H3.p and is_inner(a)[0] is None
    }
    assert tuple(H3.index_of(v) for v in cert.gen_images) in noninner_p


def test_backtracking_fallback_refused_above_the_oracle_cap(monkeypatch):
    from pgroups import CapExceeded

    G = catalog.heisenberg(7)
    assert G.order > DEFAULT_CAPS.oracle
    monkeypatch.setattr(autom, "_scan_classes", lambda *args: (None, 0))
    with pytest.raises(CapExceeded):
        construct_noninner(G)
