"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime. Expected values are exact; no tolerances are deferred.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from pgroups import (
    Caps,
    catalog,
    center,
    conjugation_module,
    construct_noninner,
    derivation_space,
    enumerate_derivations_bruteforce,
    frattini,
    gamma3_agemo,
    induce,
    omega1,
    order_of,
    pullback_module,
    quotient,
    quotient_h1_dims,
    regular_module,
    socle_layer,
    submodule_as_module,
    submodule_embedding_count,
    trivial_module,
    verify_certificate,
)
from pgroups import autom
from pgroups.cli import main
from pgroups.deriv import derivation_from_vector
from pgroups.series import greedy_elementary_abelian_normal

from .test_autom import MUTATION_KINDS, _mutate
from .test_oracle import _solver_oracle_instances


def _report(num: int, label: str, t0: float):
    print(f"[criterion {num:02d}] {label}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_criterion_01_arithmetic_soundness():
    t0 = time.perf_counter()
    groups = [
        G
        for p in (3, 5)
        for G in catalog.default_catalog(p, max_order=3**5)
    ]
    assert groups
    for G in groups:
        res = G.audit()
        assert res["mode"] == "exhaustive"
        inv = G.inv_table
        for x in range(G.order):
            assert G.mult_index(x, int(inv[x])) == 0
            assert G.mult_index(int(inv[x]), x) == 0
    _report(1, f"exhaustive associativity + inverse laws on {len(groups)} groups", t0)


def test_criterion_02_solver_vs_bruteforce():
    t0 = time.perf_counter()
    instances = _solver_oracle_instances()
    assert len(instances) >= 12
    for G, M, label in instances:
        assert G.order <= 81 and M.dim <= 3, label
        space = derivation_space(G, M)
        solver = {
            tuple(tuple(int(v) for v in row) for row in d.gen_images)
            for d in space.span_iter()
        }
        brute = enumerate_derivations_bruteforce(G, M)
        assert solver == brute, label
    _report(2, f"derivation solver == brute force on {len(instances)} instances", t0)


def test_criterion_03_hom_dimension_formula():
    t0 = time.perf_counter()
    for d, p in [(2, 3), (3, 3), (2, 5)]:
        D = catalog.parse_group_spec(f"d:{d},{p}")
        Q, _ = quotient(D, frattini(D).members)
        space = derivation_space(Q, trivial_module(Q))
        assert space.h1_dim == d, (d, p)
    _report(3, "hom-space dimension equals the rank on all three instances", t0)


def test_criterion_04_frattini_step_identity():
    t0 = time.perf_counter()
    D = catalog.parse_group_spec("d:2,3")
    phi = frattini(D)
    Q, proj = quotient(D, phi.members)
    K = pullback_module(regular_module(Q), proj)
    assert K.dim == 9
    space = derivation_space(D, K)
    _, _, h_quot = quotient_h1_dims(D, K, phi)
    assert space.h1_dim == h_quot + 1
    _report(4, "H1 gains exactly one dimension across the Frattini step", t0)


def test_criterion_05_bottom_step_identity():
    t0 = time.perf_counter()
    for spec in ("d:2,3", "heisenberg:3"):
        G = catalog.parse_group_spec(spec)
        phi = frattini(G)
        bottom = gamma3_agemo(G)
        Q, proj = quotient(G, phi.members)
        K = pullback_module(regular_module(Q), proj)
        T = round(math.log(phi.order // bottom.order, G.p))
        _, _, h_bot = quotient_h1_dims(G, K, bottom)
        _, _, h_phi = quotient_h1_dims(G, K, phi)
        assert h_bot - h_phi == T, spec
    _report(5, "H1 drop across the bottom quotient equals log_p of the index", t0)


def test_criterion_06_order_formula_agreement():
    t0 = time.perf_counter()
    rng = random.Random(20240809)
    specs = [
        "heisenberg:3",
        "m:3",
        "elemab:3,2",
        "elemab:3,3",
        "wreath:3",
        "heisenberg:3+cyclic:3,1",
        "cyclic:9,1",
        "heisenberg:5",
    ]
    verdicts = []
    for spec in specs:
        G = catalog.parse_group_spec(spec)
        # both targets of the pipeline's final scans
        targets = (omega1(G, center(G)), greedy_elementary_abelian_normal(G))
        for A in {A.members: A for A in targets}.values():
            M = conjugation_module(G, A)
            basis = derivation_space(G, M).der_array
            for _ in range(30):
                coeffs = np.array([rng.randrange(G.p) for _ in range(len(basis))], dtype=np.int64)
                if not coeffs.any():
                    continue
                vec = coeffs @ basis % G.p
                screened = autom._order_p_screen(M, basis, coeffs[None], vec[None])[0]
                phi_map = induce(derivation_from_vector(G, M, vec, check=True))
                assert screened == (phi_map.is_automorphism and order_of(phi_map) == G.p), spec
                verdicts.append(bool(screened))
    assert len(verdicts) >= 100 and set(verdicts) == {True, False}
    _report(6, f"linear order-p screen agrees with iteration on {len(verdicts)} maps", t0)


def test_criterion_07_free_module_acyclicity():
    t0 = time.perf_counter()
    for spec in ("cyclic:3,1", "elemab:3,2", "heisenberg:3"):
        L = catalog.parse_group_spec(spec)
        space = derivation_space(L, regular_module(L))
        assert space.h1_dim == 0, spec
    _report(7, "regular modules have vanishing H1 on all three groups", t0)


def test_criterion_08_unique_submodule_counts():
    t0 = time.perf_counter()
    for spec in ("cyclic:3,1", "elemab:3,2"):
        L = catalog.parse_group_spec(spec)
        R = regular_module(L)
        K2, _ = submodule_as_module(R, socle_layer(R, 2))
        assert submodule_embedding_count(L, K2) == 1, spec
    _report(8, "second socle layers embed uniquely into the regular module", t0)


def test_criterion_09_end_to_end_pipeline(capsys):
    t0 = time.perf_counter()
    # certified non-inner automorphisms for every non-abelian catalog group
    # of order p^3 and p^4, p in {3, 5}
    for p in (3, 5):
        groups = [
            G
            for G in catalog.default_catalog(p)
            if G.order in (p**3, p**4) and center(G).order != G.order
        ]
        assert len(groups) >= 5
        for G in groups:
            cert, report = construct_noninner(G)
            assert verify_certificate(G, cert) == [], G.name
            assert cert.order == p
            if G.name == f"m:{p}":  # the powerful order-p^3 group
                assert cert.path.startswith("oracle-fallback"), G.name
    # full catalog agreement against the exhaustive oracle up to order 243
    for p in (3, 5):
        code = main(["verify", "--all", "--p", str(p), "--max-order", "243"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["all_agree"] is True
        for row in payload["rows"]:
            if row["oracle"] not in ("skipped",):
                assert row["agree"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _report(9, "pipeline certificates + oracle agreement across both primes", t0)


def test_criterion_10_certificate_integrity():
    t0 = time.perf_counter()
    caught = 0
    for spec in ("heisenberg:3", "m:3"):
        G = catalog.parse_group_spec(spec)
        cert, _ = construct_noninner(G)
        assert verify_certificate(G, cert) == []
        for kind in MUTATION_KINDS:
            mutated = _mutate(cert, kind, G)
            assert mutated != cert
            assert verify_certificate(G, mutated), (spec, kind)
            caught += 1
    assert caught >= 10
    # the CLI guard turns a failing re-check into exit code 5
    import pgroups.cli as cli_mod
    from pgroups.errors import VerificationFailed

    G = catalog.heisenberg(3)
    cert, _ = construct_noninner(G)
    bad = cert._replace(order=1)
    with pytest.raises(VerificationFailed):
        cli_mod.emit_certificate(G, bad, pretty=False, caps=Caps())
    original = cli_mod.construct_noninner
    try:
        cli_mod.construct_noninner = lambda g, caps: (bad, None)
        assert main(["noninner", "--group", "heisenberg:3"]) == 5
    finally:
        cli_mod.construct_noninner = original
    _report(10, f"{caught} certificate mutations caught; exit-5 path verified", t0)
