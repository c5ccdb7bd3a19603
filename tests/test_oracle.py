import pytest

from pgroups import (
    CapExceeded,
    Caps,
    catalog,
    center,
    conjugation_module,
    derivation_space,
    enumerate_automorphisms,
    enumerate_derivations_bruteforce,
    find_isomorphism,
    find_noninner_order_p,
    omega1,
    trivial_module,
    verify_conjecture,
)


def test_cyclic_aut_count(C3, C9):
    assert enumerate_automorphisms(C3).total == 2
    assert enumerate_automorphisms(C9).total == 6  # units of Z/9


def test_elemab_aut_count(C33):
    enum = enumerate_automorphisms(C33)
    assert enum.total == 48  # |GL(2,3)| = (9-1)(9-3)
    assert enum.inner_count == 1


def test_heisenberg_aut_count(H3):
    enum = enumerate_automorphisms(H3)
    assert enum.total == 432
    assert enum.inner_count == 27 // 3
    assert dict(enum.order_histogram)[1] == 1


def test_enumeration_cap():
    G = catalog.parse_group_spec("d:3,3")  # 729 > oracle cap
    with pytest.raises(CapExceeded):
        enumerate_automorphisms(G)


def test_find_noninner_exists(H3, M27):
    for G in (H3, M27):
        phi = find_noninner_order_p(G)
        assert phi is not None
        assert phi.power(3).is_identity and not phi.is_identity
        from pgroups import is_inner

        assert is_inner(phi)[0] is None


def test_find_noninner_exhausts_on_abelian(C3):
    # C3 has only the identity and inversion; neither is non-inner of
    # order 3, so the search honestly exhausts
    assert find_noninner_order_p(C3) is None


def test_derivation_bruteforce_counts(C3, H3):
    assert len(enumerate_derivations_bruteforce(C3, trivial_module(C3))) == 3
    M = conjugation_module(H3, omega1(H3, center(H3)))
    assert len(enumerate_derivations_bruteforce(H3, M)) == 9


def test_derivation_bruteforce_cap(C33):
    # 3^(2 * 8) = 43,046,721 candidate tuples, above the 10^7 limit: refused
    # before any enumeration
    with pytest.raises(CapExceeded):
        enumerate_derivations_bruteforce(C33, trivial_module(C33, 8))


def test_solver_equals_bruteforce_many_instances():
    """Exact set equality on a spread of (G, M) pairs, |G| <= 81, dim <= 3."""
    instances = _solver_oracle_instances()
    assert len(instances) >= 12
    for G, M, label in instances:
        space = derivation_space(G, M)
        solver = {
            tuple(tuple(int(v) for v in row) for row in d.gen_images)
            for d in space.span_iter()
        }
        brute = enumerate_derivations_bruteforce(G, M)
        assert solver == brute, label


def _solver_oracle_instances():
    from pgroups import (
        frattini,
        pullback_module,
        quotient,
        regular_module,
        socle_layer,
        submodule_as_module,
    )

    C3 = catalog.cyclic(3, 1)
    C9 = catalog.cyclic(3, 2)
    C33 = catalog.elementary_abelian(3, 2)
    H3 = catalog.heisenberg(3)
    M27 = catalog.modular_p3(3)
    W3 = catalog.wreath_cyclic(3)
    HC = catalog.parse_group_spec("heisenberg:3+cyclic:3,1")

    out = []

    def add(G, M, label):
        out.append((G, M, label))

    add(C3, trivial_module(C3), "C3 trivial")
    add(C3, regular_module(C3), "C3 regular")
    R3 = regular_module(C3)
    K2, _ = submodule_as_module(R3, socle_layer(R3, 2))
    add(C3, K2, "C3 K2")
    add(C9, trivial_module(C9), "C9 trivial")
    from pgroups import subgroup_generated

    Q9, pr9 = quotient(C9, subgroup_generated(C9, [C9.element((0, 1))]))
    add(C9, pullback_module(regular_module(Q9), pr9), "C9 pulled regular")
    add(C33, trivial_module(C33, 2), "C33 trivial^2")
    R33 = regular_module(C33)
    K2b, _ = submodule_as_module(R33, socle_layer(R33, 2))
    add(C33, K2b, "C33 K2")
    add(H3, conjugation_module(H3, omega1(H3, center(H3))), "H3 center")
    add(H3, trivial_module(H3, 2), "H3 trivial^2")
    QH, prH = quotient(H3, frattini(H3).members)
    RQ = regular_module(QH)
    K2h, _ = submodule_as_module(RQ, socle_layer(RQ, 2))
    add(H3, pullback_module(K2h, prH), "H3 pulled K2")
    add(M27, conjugation_module(M27, omega1(M27, center(M27))), "M27 center")
    add(M27, trivial_module(M27), "M27 trivial")
    add(W3, conjugation_module(W3, omega1(W3, center(W3))), "W3 center")
    add(HC, conjugation_module(HC, omega1(HC, center(HC))), "H3xC3 center")
    return out


def test_pipeline_certificate_in_oracle_noninner_set(H3, W3):
    """The emitted map is one of the oracle's non-inner order-p
    automorphisms, for both a fallback branch and the constructive one."""
    from pgroups import construct_noninner, is_inner, order_of

    for G in (H3, W3):
        enum = enumerate_automorphisms(G)
        cert, _ = construct_noninner(G)
        key = tuple(G.index_of(v) for v in cert.gen_images)
        noninner_p = {
            tuple(i.index for i in a.images)
            for a in enum.automorphisms
            if order_of(a) == G.p and is_inner(a)[0] is None
        }
        assert key in noninner_p


def test_find_isomorphism_positive_and_negative(H3, M27, D23):
    iso = find_isomorphism(D23, H3)
    assert iso is not None and iso.is_isomorphism
    assert find_isomorphism(H3, M27) is None


def test_verify_conjecture_rows(small_catalog_p3):
    rows = verify_conjecture(small_catalog_p3)
    assert all(r["agree"] for r in rows)
    by_name = {r["group"]: r for r in rows}
    assert by_name["cyclic:3,1"]["pipeline"] == "n/a (abelian)"
    assert by_name["heisenberg:3"]["oracle"] == "exists"
    assert by_name["wreath:3"]["pipeline"] == "Theorem 01 at i=0"


def test_verify_rows_prove_each_certificate_once(monkeypatch):
    """construct_noninner proves its certificate (one exhaustive inner
    scan) and the row reports it without a second proof; an abelian row is
    read off the presentation and builds no table."""
    from pgroups import autom

    scans = []
    is_inner = autom.is_inner

    def counted(phi, caps):
        scans.append(phi)
        return is_inner(phi, caps)

    monkeypatch.setattr(autom, "is_inner", counted)
    abelian, H3 = catalog.parse_group_spec("elemab:3,2"), catalog.parse_group_spec("heisenberg:3")
    rows = verify_conjecture([abelian, H3])
    assert rows[0]["pipeline"] == "n/a (abelian)" and rows[1]["oracle"] == "exists"
    assert all(r["agree"] for r in rows) and len(scans) == 1
    assert "gen_tables" not in vars(abelian)


def test_find_noninner_proves_only_the_map_it_returns(monkeypatch, W3):
    """The backtracking has checked every relation of each leaf; only the
    map returned goes through GroupHom._checked."""
    from pgroups import GroupHom

    checked = []
    proving = GroupHom._checked.__func__

    def counted(cls, source, target, image_indices):
        checked.append(tuple(image_indices))
        return proving(cls, source, target, checked[-1])

    monkeypatch.setattr(GroupHom, "_checked", classmethod(counted))
    phi = find_noninner_order_p(W3)
    assert checked == [phi.image_indices]


def test_verify_conjecture_empty():
    assert verify_conjecture([]) == []


def test_verify_conjecture_skips_above_cap():
    G = catalog.parse_group_spec("d:3,3")
    rows = verify_conjecture([G])
    assert rows[0]["oracle"] == "skipped"
    assert rows[0]["agree"]


def test_verify_conjecture_releases_each_group():
    """With the cyclic GC off, every group fed to verify_conjecture is freed
    by refcounting once its row is done, on the abelian path too."""
    import gc
    import weakref

    specs = [G.name for G in catalog.default_catalog(5, 625)]
    refs = []

    def groups():
        for spec in specs:
            G = catalog.parse_group_spec(spec)
            refs.append(weakref.ref(G))
            yield G

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows = verify_conjecture(groups())
        alive = [spec for spec, ref in zip(specs, refs) if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    assert len(rows) == len(refs) == 12
    assert any(r["pipeline"] == "n/a (abelian)" for r in rows)
    assert alive == []


def test_backtracking_above_243_reads_no_dense_table():
    """Past the default oracle cap the backtracker multiplies through the
    half tables of mult_indices, so it builds no dense table and no element
    list."""
    G = catalog.parse_group_spec("heisenberg:7")
    assert G.order > Caps().oracle
    assert find_isomorphism(G, G).is_identity
    assert "full_mult_table" not in G.__dict__
    assert "elements" not in G.__dict__


def test_backtracking_frees_its_table_without_the_cycle_collector():
    """Whether the search runs out (enumeration) or stops at its first hit
    (isomorphism), the dense table it read dies with the group, so verify
    holds no earlier group's table while the next one runs."""
    import gc
    import weakref

    from pgroups.series import release_series

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = []
        for search in (enumerate_automorphisms, lambda G: find_isomorphism(G, G)):
            G = catalog.parse_group_spec("heisenberg:3")
            refs.append(weakref.ref(G.full_mult_table))
            assert search(G)
            release_series(G)  # the center memo, as verify_conjecture does
            del G
        alive = [ref() is not None for ref in refs]
    finally:
        if was_enabled:
            gc.enable()
    assert alive == [False, False]


@pytest.mark.parametrize(
    "source, target",
    [
        ("heisenberg:3", None),
        ("m:3", None),
        ("d:2,3", None),
        ("elemab:3,2", None),
        ("wreath:3", None),
        ("m:3,4", None),
        ("d:2,3", "heisenberg:3"),
        ("heisenberg:3", "m:3"),
    ],
)
def test_backtracking_matches_the_scalar_reference(source, target):
    """The batched backtracker yields the homomorphism tuples of the scalar
    reference in tests/models.py, in the same order and once each."""
    from pgroups.oracle import _iter_homomorphism_images

    from .models import reference_homomorphism_images

    G = catalog.parse_group_spec(source)
    H = G if target is None else catalog.parse_group_spec(target)
    got = list(_iter_homomorphism_images(G, H))
    assert got == reference_homomorphism_images(G, H)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("p, max_order", [(5, 625), (7, 2401)])
def test_oracle_agrees_above_its_default_cap(p, max_order):
    """With the oracle cap raised to the catalog's largest order, the oracle
    finds a non-inner automorphism of order p on every non-abelian row, and
    the pipeline agrees on each."""
    rows = verify_conjecture(catalog.default_catalog(p, max_order), Caps(oracle=max_order))
    nonabelian = [r for r in rows if r["pipeline"] != "n/a (abelian)"]
    assert len(nonabelian) == 6
    assert all(r["oracle"] == "exists" and r["agree"] for r in nonabelian)


def test_inner_tuples_are_the_inner_automorphisms(small_catalog_p3, H3, W3):
    """One conjugation tuple per coset of the center, and membership is the
    verdict of the library's inner scan on every automorphism."""
    from pgroups import is_inner
    from pgroups.oracle import _inner_tuples

    for G in small_catalog_p3:
        assert len(_inner_tuples(G)) == G.order // center(G).order, G.name
    for G in (H3, W3):
        inner = _inner_tuples(G)
        for a in enumerate_automorphisms(G).automorphisms:
            assert (a.image_indices in inner) == (is_inner(a)[0] is not None)
