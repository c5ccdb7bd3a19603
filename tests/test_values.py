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
from pgroups import catalog, center, conjugation_module, construct_noninner, omega1
from pgroups.errors import Caps
from pgroups.pcgroup import Element
from pgroups.series import make_subgroup

MODULES = ("errors", "pcgroup", "catalog", "gflinalg", "series", "fpmod", "deriv", "autom", "oracle", "cli")


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


# Run in a fresh interpreter: pytest and Hypothesis may have loaded numpy.ma.
_FIRST_IMPORTS = """
import contextlib, io, json, sys
import pgroups.cli as cli
before = set(sys.modules)
for key in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*key.split(), "--seed", "1"]) == 0, key
lazy = [m for m in ("numpy.ma", "numpy.random", "numpy.fft", "numpy.polynomial") if m in sys.modules]
print(json.dumps([sorted(set(sys.modules) - before), lazy]))
"""


def test_benchmark_calls_import_no_lazy_numpy_submodule():
    """The seven benchmark calls (the keys of perfbench/golden.json), run in
    one process after `import pgroups.cli`, import nothing beyond what
    argparse loads, and none of numpy's lazily loaded submodules: the first
    np.unique call, for one, imports numpy.ma, a cost every call would pay."""
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
    first, lazy = json.loads(proc.stdout)
    assert set(first) <= {"locale", "_locale"}, first
    assert lazy == [], lazy


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
