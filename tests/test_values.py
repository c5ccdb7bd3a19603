"""The library's value classes are plain classes: no module of pgroups
defines a dataclass or imports `dataclasses`, and the immutable values
compare, hash, refuse assignment and pickle by value."""

import dataclasses
import importlib
import inspect
import json
import operator
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgroups
from pgroups import (
    Derivation,
    FpModule,
    catalog,
    center,
    conjugation_module,
    construct_noninner,
    derivation_space,
    dump_presentation,
    load_presentation,
    omega1,
    regular_module,
    trivial_module,
)
from pgroups.errors import Caps
from pgroups.pcgroup import Element
from pgroups.series import make_subgroup

MODULES = (
    "errors", "pcgroup", "catalog", "gflinalg", "series", "fpmod", "deriv", "autom", "oracle",
    "cli", "lattice", "presentations",
)


def test_no_class_in_pgroups_is_a_dataclass():
    classes = []
    for name in MODULES:
        mod = importlib.import_module(f"pgroups.{name}")
        classes += [c for _, c in inspect.getmembers(mod, inspect.isclass) if c.__module__ == mod.__name__]
    assert len(classes) >= 16
    assert not [c for c in classes if dataclasses.is_dataclass(c)]


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(pgroups.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pgroups.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Run in a fresh interpreter: pytest and Hypothesis may have loaded numpy.ma,
# and the tests load pgroups.lattice and pgroups.presentations.
_FIRST_IMPORTS = """
import contextlib, io, json, sys
import pgroups.cli as cli
before = set(sys.modules)
for key in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*key.split(), "--seed", "1"]) == 0, key
lazy = [m for m in ("numpy.ma", "numpy.random", "numpy.fft", "numpy.polynomial") if m in sys.modules]
package = sorted(m for m in before if m.startswith("pgroups."))
print(json.dumps([sorted(set(sys.modules) - before), lazy, package]))
"""


@pytest.fixture(scope="module")
def first_imports():
    """(modules the seven benchmark calls, the keys of
    perfbench/golden.json, import after `import pgroups.cli`; numpy's lazy
    submodules loaded by then; the pgroups modules `import pgroups.cli`
    loads), from one fresh process."""
    root = Path(pgroups.__file__).parents[2]
    calls = list(json.loads((root / "perfbench" / "golden.json").read_text()))
    assert len(calls) == 7
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PGROUP_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_IMPORTS, json.dumps(calls)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_calls_import_no_lazy_numpy_submodule(first_imports):
    """The benchmark calls import nothing beyond what argparse loads, and
    none of numpy's lazily loaded submodules: the first np.unique call, for
    one, imports numpy.ma, a cost every call would pay."""
    first, lazy, _ = first_imports
    assert set(first) <= {"locale", "_locale"}, first
    assert lazy == [], lazy


def test_the_cli_compiles_only_the_core(first_imports):
    """`import pgroups.cli` loads the eight modules that
    perfbench/traced_cli.py wraps, and the benchmark calls load neither
    toolkit that loads on first use."""
    first, _, package = first_imports
    traced = {"catalog", "pcgroup", "series", "fpmod", "deriv", "gflinalg", "autom", "oracle"}
    assert {f"pgroups.{m}" for m in traced} <= set(package), package
    for lazy in ("pgroups.lattice", "pgroups.presentations"):
        assert lazy not in package and lazy not in first


# What `from pgroups import *` bound before the lattice toolkit and the
# derived presentations moved to modules that load on first use.
PUBLIC = [
    "AutEnumeration", "CapExceeded", "Caps", "CohomologySpace", "DEFAULT_CAPS",
    "Derivation", "Element", "Filtration", "FpModule", "GroupHom", "HypothesisReport",
    "InputError", "ModuleRealization", "NonInnerCertificate", "OutOfScope",
    "PGroupError", "PcPresentation", "PipelineReport", "Subgroup", "SubgroupChain",
    "Submodule", "VerificationFailed", "agemo", "annihilator_of_radical_power", "autom",
    "build_D", "catalog", "center", "centralizer", "collect", "conjugation_module",
    "construct_noninner", "cyclic", "default_catalog", "deriv", "derivation_space",
    "derivation_with_values", "direct_product", "dump_presentation",
    "elementary_abelian", "enumerate_automorphisms", "enumerate_derivations_bruteforce",
    "enumerate_elements", "errors", "find_isomorphism", "find_noninner_order_p",
    "fixed_points", "fpmod", "frattini", "frattini_via_maximals", "gamma3_agemo",
    "gflinalg", "heisenberg", "hypothesis_report", "identity_endo", "induce",
    "is_inner", "load_presentation", "lower_central", "make_subgroup",
    "maximal_submodules", "min_generators", "modular_p3", "module_isomorphism",
    "norm_operator", "normal_closure", "omega1", "oracle", "order_of",
    "parse_group_spec", "pcgroup", "presentation_from_dict", "presentation_to_dict",
    "pullback_module", "quotient", "quotient_h1_dims", "quotient_module",
    "radical_series", "refine_chain", "regular_module", "restriction_image_dim",
    "series", "socle_filtration", "socle_layer", "subgroup_center",
    "subgroup_generated", "subgroup_presentation", "submodule_as_module",
    "submodule_closure", "submodule_embedding_count", "submodules_of_dim",
    "theta_cr_build", "trivial_module", "trivial_subgroup", "twist_extend",
    "upper_central", "vanishing_subspace", "verify_certificate", "verify_conjecture",
    "whole_group", "wreath_cyclic",
]
MOVED = {
    "lattice": (
        "Filtration", "annihilator_of_radical_power", "fixed_points", "maximal_submodules",
        "module_isomorphism", "norm_operator", "radical_series", "socle_filtration",
        "socle_layer", "submodule_closure", "submodule_embedding_count", "submodules_of_dim",
        "derivation_with_values", "quotient_h1_dims", "restriction_image_dim",
        "theta_cr_build", "twist_extend",
    ),
    "presentations": (
        "dump_presentation", "load_presentation", "presentation_from_dict",
        "presentation_to_dict", "quotient", "subgroup_presentation",
    ),
}


def test_star_import_binds_the_same_public_names():
    namespace: dict = {}
    exec("from pgroups import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


@pytest.mark.parametrize("module, name", [(m, n) for m, names in MOVED.items() for n in names])
def test_moved_names_resolve_from_the_package_and_their_module(module, name):
    value = getattr(importlib.import_module(f"pgroups.{module}"), name)
    assert getattr(pgroups, name) is value and value.__module__ == f"pgroups.{module}"


def _values():
    """(value, an equal value built separately, a different value, a field
    to assign), by class name."""
    G, G2 = catalog.heisenberg(3), catalog.heisenberg(3)
    other = catalog.wreath_cyclic(3)
    z = center(G)
    cert, _ = construct_noninner(G)
    cert2, _ = construct_noninner(G2)
    return {
        "PcPresentation": (G, G2, other, "p"),
        "Element": (G.gen(0), Element(G2, (1, 0, 0)), G.gen(1), "exps"),
        "Subgroup": (z, make_subgroup(G2, z.members), make_subgroup(G, range(G.order)), "members"),
        "FpModule": (
            conjugation_module(G, omega1(G, z)),
            conjugation_module(G2, omega1(G2, center(G2))),
            conjugation_module(other, omega1(other, center(other))),
            "mats",
        ),
        # no check flag is stored: the checked module equals the unchecked one
        "FpModule-checked": (
            regular_module(G),
            FpModule(G2, regular_module(G2).mats),
            regular_module(other),
            "mats",
        ),
        "Caps": (Caps(), Caps(enumeration=10**6), Caps(enumeration=27), "oracle"),
        "NonInnerCertificate": (cert, cert2, cert._replace(order=1), "order"),
    }


VALUES = _values()


@pytest.mark.parametrize("value, equal, different, field", list(VALUES.values()), ids=list(VALUES))
def test_value_semantics(value, equal, different, field):
    assert value is not equal
    assert value == equal and hash(value) == hash(equal)
    assert value != different
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(different, field))
    field_equal = np.array_equal if isinstance(getattr(value, field), np.ndarray) else operator.eq
    assert field_equal(getattr(value, field), getattr(equal, field))
    assert pickle.loads(pickle.dumps(value)) == value


def test_a_presentation_is_its_data(tmp_path):
    """A presentation holds no cap: built by its builder, from its spec or
    from its dumped file, it is the same value, and so are its centers."""
    G = catalog.heisenberg(3)
    assert G._key() == (G.p, G.power_rhs, G.comm_rhs, G.name)
    path = tmp_path / "heisenberg3.json"
    dump_presentation(G, path)
    for H in (catalog.parse_group_spec("heisenberg:3"), load_presentation(path)):
        assert H == G and hash(H) == hash(G)
        assert center(H) == center(G)


def test_derivations_into_equal_modules_add():
    """Derivations into the trivial module, built with and without the
    checks, add: the two modules are one value."""
    G = catalog.heisenberg(3)
    T, T2 = trivial_module(G), FpModule(G, trivial_module(G).mats)
    d = derivation_space(G, T).der_basis[0]
    d2 = derivation_space(G, T2).der_basis[0]
    assert T == T2 and d2.module == d.module
    total = Derivation(G, d.module, d.gen_images + d2.gen_images)
    assert total.gen_images.tolist() == (2 * d.gen_images % G.p).tolist()
