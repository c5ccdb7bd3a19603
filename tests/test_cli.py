import contextlib
import copy
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

import pgroups
from pgroups.cli import _resolve_module, main
from pgroups import (
    PGroupError,
    catalog,
    dump_presentation,
    presentation_from_dict,
    presentation_to_dict,
)

from .models import reference_overlaps
from .test_collection import _random_presentation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    payload = json.loads(out) if out.strip() else None
    return code, payload


def _fresh_process(*args, timeout=30, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=str(Path(pgroups.__file__).parents[1]))
    env.pop("PGROUP_CAP", None)
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )


def test_series_heisenberg(capsys):
    code, payload = run_cli(capsys, "series", "--group", "heisenberg:3")
    assert code == 0
    assert payload["T"] == 1
    assert payload["order"] == 27
    assert payload["center_cyclic"] is True


def test_series_d23_frattini_order(capsys):
    code, payload = run_cli(capsys, "series", "--group", "d:2,3")
    assert code == 0
    assert payload["frattini_order"] == 3


def test_series_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(capsys, "series", "--file", str(bad))
    assert code == 3


def test_series_wrong_table_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "p": 3, "n": 1, "powers": [[1]]}))
    code, _ = run_cli(capsys, "series", "--file", str(bad))
    assert code == 3


@pytest.mark.parametrize(
    "commutators", [1.5, {"2,1": 5}], ids=["commutators-not-an-object", "entry-not-a-list"]
)
def test_series_malformed_commutators_exit3(tmp_path, capsys, commutators):
    data = {"name": "x", "p": 3, "n": 2, "powers": [[0, 0], [0, 0]], "commutators": commutators}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run_cli(capsys, "series", "--file", str(bad))
    assert code == 3


def _set(data, path, value):
    *outer, last = path
    for key in outer:
        data = data[key]
    data[last] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("p",), 3.7),
        (("n",), 3.9),
        (("commutators", "2,1", 2), 1.5),
        (("commutators", "2,1", 2), True),
        (("p",), "3"),
        (("powers", 0, 0), "0"),
    ],
    ids=["float-p", "float-n", "float-exponent", "bool-exponent", "string-p", "string-exponent"],
)
def test_series_file_non_integer_exit3(tmp_path, capsys, path, value):
    """Each file would load as heisenberg:3 if numbers were truncated or parsed."""
    data = pgroups.presentation_to_dict(catalog.heisenberg(3))
    _set(data, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run_cli(capsys, "series", "--file", str(bad))
    assert code == 3


def test_series_file_roundtrip(tmp_path, capsys):
    G = catalog.heisenberg(3)
    path = tmp_path / "h3.json"
    dump_presentation(G, path)
    code, payload = run_cli(capsys, "series", "--file", str(path))
    assert code == 0 and payload["order"] == 27 and payload["T"] == 1


def test_h1_examples(capsys):
    code, payload = run_cli(capsys, "h1", "--group", "d:2,3", "--module", "trivial")
    assert code == 0 and payload["h1_dim"] == 2
    code, payload = run_cli(capsys, "h1", "--group", "cyclic:3,1", "--module", "regular")
    assert code == 0 and payload["h1_dim"] == 0
    assert payload["der_dim"] == 2 and payload["ider_dim"] == 2
    code, payload = run_cli(capsys, "h1", "--group", "heisenberg:3", "--module", "center")
    assert code == 0 and payload["h1_dim"] == 2


def test_h1_module_file(tmp_path, capsys):
    # 1-dim trivial module given explicitly
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({"dim": 1, "action": {"1": [1], "2": [1], "3": [1]}}))
    code, payload = run_cli(
        capsys, "h1", "--group", "heisenberg:3", "--module", f"file:{path}"
    )
    assert code == 0 and payload["h1_dim"] == 2


def test_h1_module_file_invalid_action(tmp_path, capsys):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps({"dim": 1, "action": {"1": [0]}}))
    code, _ = run_cli(capsys, "h1", "--group", "heisenberg:3", "--module", f"file:{path}")
    assert code == 3


@pytest.mark.parametrize(
    "module, code",
    [
        ({"dim": 1, "action": 5}, 3),
        ({"dim": 1, "action": {"9": [1]}}, 3),
        # above fpmod.MODULE_DIM_LIMIT (1024): refused before any matrix is built
        ({"dim": 1025, "action": {"1": [0]}}, 2),
    ],
    ids=["action-not-an-object", "unknown-generator", "dim-over-cap"],
)
def test_h1_module_file_refused(tmp_path, capsys, module, code):
    path = tmp_path / "mod.json"
    path.write_text(json.dumps(module))
    got, _ = run_cli(capsys, "h1", "--group", "heisenberg:3", "--module", f"file:{path}")
    assert got == code


@pytest.mark.parametrize(
    "path, value",
    [
        (("dim",), 1.5),
        (("dim",), True),
        (("dim",), "1"),
        (("action", "1", 0), 1.0),
        (("action", "1", 0), True),
        (("action", "1", 0), "1"),
    ],
    ids=["float-dim", "bool-dim", "string-dim", "float-entry", "bool-entry", "string-entry"],
)
def test_h1_module_file_non_integer_exit3(tmp_path, capsys, path, value):
    """Each file would load as the trivial module if numbers were truncated or parsed."""
    module = {"dim": 1, "action": {"1": [1], "2": [1], "3": [1]}}
    _set(module, path, value)
    bad = tmp_path / "mod.json"
    bad.write_text(json.dumps(module))
    code, _ = run_cli(capsys, "h1", "--group", "heisenberg:3", "--module", f"file:{bad}")
    assert code == 3


def test_h1_omega1zp_module(capsys):
    code, payload = run_cli(
        capsys, "h1", "--group", "wreath:3", "--module", "omega1zp:0"
    )
    assert code == 0
    assert payload["module_dim"] >= 1
    code, _ = run_cli(capsys, "h1", "--group", "wreath:3", "--module", "omega1zp:9")
    assert code == 3
    code, _ = run_cli(capsys, "h1", "--group", "wreath:3", "--module", "bogus")
    assert code == 3


def test_derivations_basis(capsys):
    code, payload = run_cli(
        capsys, "derivations", "--group", "heisenberg:3", "--module", "center"
    )
    assert code == 0
    assert payload["der_dim"] == 2
    assert len(payload["der_basis"]) == 2
    assert all(len(d["gen_images"]) == 3 for d in payload["der_basis"])


def test_noninner_heisenberg(capsys):
    code, payload = run_cli(capsys, "noninner", "--group", "heisenberg:3")
    assert code == 0
    assert payload["order"] == 3
    assert payload["path"].startswith("oracle-fallback")
    assert payload["inner_scan"] == "exhausted 27 candidates"


def test_noninner_trail_goes_to_stderr_only(capsys):
    """--trail writes the pipeline report to stderr as one JSON line and
    leaves stdout byte for byte as it is without the flag."""
    assert main(["noninner", "--group", "heisenberg:3"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert main(["noninner", "--group", "heisenberg:3", "--trail"]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out
    assert traced.err.endswith("\n") and traced.err.count("\n") == 1
    report = json.loads(traced.err)
    assert report["group"] == "heisenberg:3"
    assert report["branch"] == json.loads(plain.out)["path"]
    assert report["trail"][-1].endswith("tried 9, certified")
    assert report["hypothesis"]["center_cyclic"] is True


def test_noninner_constructive_branch(capsys):
    code, payload = run_cli(capsys, "noninner", "--group", "wreath:3")
    assert code == 0
    assert payload["path"] == "Theorem 01 at i=0"
    assert payload["order"] == 3


def test_noninner_powerful_fallback(capsys):
    code, payload = run_cli(capsys, "noninner", "--group", "m:3")
    assert code == 0
    assert "powerful" in payload["path"]


def test_noninner_abelian_exit4(capsys):
    code, _ = run_cli(capsys, "noninner", "--group", "cyclic:9,1")
    assert code == 4


def test_cap_exit2(capsys):
    code, _ = run_cli(capsys, "series", "--group", "d:4,7")
    assert code == 2


def test_huge_prime_file_refused_quickly(tmp_path):
    """p = 10^18 + 3 is prime; the order check must refuse it (cap, exit 2)
    without any trial division up to sqrt(p)."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "big", "p": 10**18 + 3, "n": 1, "powers": [[0]]}))
    proc = _fresh_process("-m", "pgroups.cli", "series", "--file", str(path), timeout=2)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["kind"] == "cap"


def test_oversized_product_tables_refused_on_load():
    """cyclic:997,2 is within the enumeration cap, but its product tables
    would take 997^3 * 2 int32 entries (7.4 GiB). Loading the group for any
    command refuses it before they are built (cap, exit 2)."""
    proc = _fresh_process("-m", "pgroups.cli", "series", "--group", "cyclic:997,2", timeout=5)
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {
        "error": "product tables: size 1982053946 exceeds cap 16777216",
        "kind": "cap",
    }


@pytest.mark.parametrize(
    "argv",
    [["h1", "--group", "d:3,3"], ["derivations", "--group", "cyclic:3,6"]],
    ids=["h1-d33", "derivations-cyclic36"],
)
def test_regular_module_derivation_system_refused_quickly(argv):
    """Der(G, GF(p)G) at order 729 would be a dense (6 * 729) x (21 * 729)
    system, 67.0M entries; it is refused before the regular module is built
    (cap, exit 2)."""
    proc = _fresh_process("-m", "pgroups.cli", *argv, "--module", "regular", timeout=5)
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {
        "error": "derivation system: size 66961566 exceeds cap 16777216",
        "kind": "cap",
    }


@pytest.mark.parametrize("spec", ["cyclic:1000000000000000003", "cyclic:3,100000000"])
def test_huge_cyclic_spec_refused_quickly(spec):
    """The spec's order is checked against the cap before m^k is computed,
    m is factored or any presentation is built (cap, exit 2)."""
    proc = _fresh_process("-m", "pgroups.cli", "series", "--group", spec, timeout=2)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["kind"] == "cap"


def test_cap_flag_and_env(capsys, monkeypatch):
    code, _ = run_cli(capsys, "series", "--group", "heisenberg:3", "--cap", "10")
    assert code == 2
    monkeypatch.setenv("PGROUP_CAP", "10")
    code, _ = run_cli(capsys, "series", "--group", "heisenberg:3")
    assert code == 2
    monkeypatch.setenv("PGROUP_CAP", "not-a-number")
    code, _ = run_cli(capsys, "series", "--group", "heisenberg:3")
    assert code == 3


def test_bad_group_spec_exit3(capsys):
    code, _ = run_cli(capsys, "series", "--group", "nonsense:1,2")
    assert code == 3
    code, _ = run_cli(capsys, "series", "--group", "cyclic:6,1")
    assert code == 3
    code, _ = run_cli(capsys, "h1")
    assert code == 3


@pytest.mark.parametrize("argv", [("series", "--bogus"), ("verify", "--all", "--p", "x"), ()])
def test_usage_errors_exit3_with_a_json_error(capsys, argv):
    """A usage error is malformed input (exit 3, JSON on stderr), not a cap
    refusal (exit 2)."""
    assert main(list(argv)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "input" and err["error"].startswith("pgroups")


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0 and "usage: pgroups" in capsys.readouterr().out


@pytest.mark.parametrize("p", [0, 1, 4, 15, -3])
def test_verify_catalog_refuses_a_p_that_is_not_an_odd_prime(capsys, p):
    """The refusal names the --p given, not a spec the catalog built from it."""
    code = main(["verify", "--all", f"--p={p}"])
    err = json.loads(capsys.readouterr().err)
    assert code == 3 and err["error"].endswith(f"got {p}"), err


def test_verify_small_catalog(capsys):
    code, payload = run_cli(
        capsys, "verify", "--all", "--p", "3", "--max-order", "81"
    )
    assert code == 0
    assert payload["all_agree"] is True
    rows = {r["group"]: r for r in payload["rows"]}
    assert rows["heisenberg:3"]["oracle"] == "exists"
    assert rows["cyclic:3,1"]["pipeline"] == "n/a (abelian)"


def test_verify_explicit_groups(capsys):
    code, payload = run_cli(
        capsys, "verify", "--group", "heisenberg:3;m:3", "--p", "3"
    )
    assert code == 0 and len(payload["rows"]) == 2


@pytest.mark.parametrize(
    "specs, jobs, p",
    [("heisenberg:5;wreath:5", "1", 5), ("heisenberg:5;wreath:5", "2", 5), ("heisenberg:3;m:5", "1", None)],
)
def test_verify_group_prints_the_groups_prime(capsys, specs, jobs, p):
    """With --group, "p" is the prime the rows' groups share, not the --p
    default, and null when they mix primes."""
    code, payload = run_cli(capsys, "verify", "--group", specs, "--jobs", jobs)
    assert code == 0 and payload["all_agree"] is True
    assert payload["p"] == p and len(payload["rows"]) == 2


def test_verify_jobs_parallel(capsys):
    code, payload = run_cli(
        capsys, "verify", "--all", "--p", "3", "--max-order", "27", "--jobs", "2"
    )
    assert code == 0 and payload["all_agree"] is True


def test_verify_rows_same_for_one_and_two_jobs(capsys):
    argv = ("verify", "--all", "--p", "3", "--max-order", "81")
    code1, serial = run_cli(capsys, *argv, "--jobs", "1")
    code2, parallel = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert serial["rows"] == parallel["rows"] and len(serial["rows"]) == 13


@pytest.mark.parametrize(
    "jobs, cores, workers",
    [("100000", 4, 3), ("2", 4, 2), ("100000", 2, 2), ("100000", 1, None), ("1", 4, None)],
)
def test_verify_pool_has_at_most_one_worker_per_row_and_core(
    capsys, monkeypatch, jobs, cores, workers
):
    """The pool forks all its workers at its first submit, so --jobs is cut
    to the row count and the core count, and one worker runs the rows in
    this process. The pool here is a stand-in that records its size and
    maps in-process: no worker is started."""
    import concurrent.futures

    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    argv = ("verify", "--group", "heisenberg:3;m:3;cyclic:3,2", "--jobs", jobs)
    code, payload = run_cli(capsys, *argv)
    assert code == 0 and len(payload["rows"]) == 3
    assert made == ([] if workers is None else [workers])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_cap_refusal_same_for_any_jobs(capsys, jobs):
    """A refusal raised while a row's group is parsed, here by a spec that
    every cap refuses, reaches the parent as exit 2 from a --jobs worker
    too."""
    argv = ("verify", "--group", "cyclic:3,100000000", "--cap", "20", "--jobs", jobs)
    code, payload = run_cli(capsys, *argv)
    assert code == 2 and payload is None


# one spec of every kind; "file" stands for a file: spec of m:3,4
CAP_SPECS = [
    "cyclic:3,3", "elemab:3,3", "heisenberg:3", "m:3", "d:2,3", "wreath:3",
    "extraspecial:3", "heisenberg:3+cyclic:3,1", "file",
]


def _spec_and_order(spec, tmp_path):
    if spec == "file":
        path = tmp_path / "m34.json"
        dump_presentation(catalog.parse_group_spec("m:3,4"), path)
        spec = f"file:{path}"
    return spec, catalog.parse_group_spec(spec).order


@pytest.mark.parametrize("spec", CAP_SPECS)
def test_cap_read_on_load_for_every_spec_kind(capsys, tmp_path, spec):
    """--cap refuses a group above it when the group is loaded, whatever
    the spec kind: exit 2 one below the order, exit 0 at it."""
    spec, order = _spec_and_order(spec, tmp_path)
    code = main(["series", "--group", spec, "--cap", str(order - 1)])
    assert code == 2 and json.loads(capsys.readouterr().err)["kind"] == "cap"
    code, payload = run_cli(capsys, "series", "--group", spec, "--cap", str(order))
    assert code == 0 and payload["order"] == order


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("spec", CAP_SPECS)
def test_verify_skips_rows_above_the_cap_for_every_spec_kind(capsys, tmp_path, spec, jobs):
    """verify reads the cap per row: a group above it gives one
    "skipped (cap)" row and exit 0, whatever the spec kind."""
    spec, order = _spec_and_order(spec, tmp_path)
    argv = ("verify", "--group", spec, "--cap", str(order - 1), "--jobs", jobs)
    code, payload = run_cli(capsys, *argv)
    assert code == 0 and payload["all_agree"] is True
    [row] = payload["rows"]
    assert (row["order"], row["pipeline"]) == (order, "skipped (cap)")


def test_verify_jobs_with_explicit_specs(capsys):
    code, payload = run_cli(
        capsys,
        "verify",
        "--group",
        "heisenberg:3+cyclic:3,1;m:3",
        "--jobs",
        "2",
    )
    assert code == 0 and payload["all_agree"] is True
    assert len(payload["rows"]) == 2
    # rows come back in submission order
    assert payload["rows"][0]["group"] == "heisenberg:3+cyclic:3,1"


def test_run_freezes_the_heap_before_main(monkeypatch):
    """The console-script entry point freezes the import-time heap, so the
    collections at interpreter exit skip it; main runs after the freeze."""
    import pgroups.cli as cli_mod

    monkeypatch.setattr(cli_mod, "main", gc.get_freeze_count)
    try:
        with pytest.raises(SystemExit) as exc:
            cli_mod.run()
        assert exc.value.code > 0
    finally:
        gc.unfreeze()


def test_library_leaves_the_collector_alone(capsys):
    """Importing the package and calling main freeze nothing: only the entry
    point does."""
    before = gc.get_freeze_count()
    code, _ = run_cli(capsys, "noninner", "--group", "heisenberg:3")
    assert code == 0 and gc.get_freeze_count() == before
    proc = _fresh_process("-c", "import gc, pgroups.cli; print(gc.get_freeze_count())")
    assert proc.returncode == 0 and proc.stdout == "0\n"


def test_package_and_cli_entry_points_print_the_same():
    argv = ("noninner", "--group", "wreath:3", "--seed", "1")
    package = _fresh_process("-m", "pgroups", *argv)
    cli = _fresh_process("-m", "pgroups.cli", *argv)
    assert package.returncode == cli.returncode == 0
    assert package.stdout == cli.stdout and json.loads(cli.stdout)["order"] == 3


@pytest.mark.parametrize("argv", [
    ("series", "--group", "heisenberg:3"),  # fits the buffer: fails at the flush
    ("derivations", "--group", "heisenberg:3", "--module", "regular", "--pretty"),  # 30 KB
])
def test_closed_stdout_pipe_ends_the_call_without_a_traceback(argv):
    """`pgroups ... | head -c 0`: the reader has closed the pipe before the
    call writes. The call exits 1 and prints nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_process("-m", "pgroups", *argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1 and proc.stderr == "", proc.stderr


_NO_SORT_KERNELS = """
import runpy
import numpy

def refuse(name):
    def call(*args, **kwargs):
        raise AssertionError(f"numpy.{name} called")
    return call

for name in ("argsort", "sort", "unique", "lexsort", "einsum"):
    setattr(numpy, name, refuse(name))
runpy.run_module("pgroups", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [
    ("noninner", "--group", "heisenberg:3"),
    ("noninner", "--group", "wreath:3"),
    ("noninner", "--group", "extraspecial:3"),
    ("noninner", "--group", "heisenberg:7"),
    ("noninner", "--group", "d:3,3"),
    ("verify", "--all", "--p", "3"),
])
def test_calls_touch_no_sort_or_einsum_kernel(argv):
    """A call's RSS counts the library code pages it touches first; the
    first numpy sort in a process maps about 256 KB of sort kernels. So
    the benchmark's calls invert tables by a scatter and form products by
    matmul, and run to the end without any of those functions."""
    proc = _fresh_process("-c", _NO_SORT_KERNELS, *argv, "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)


def test_entry_point_rows_same_for_one_and_two_jobs():
    """Through the entry point the worker pool forks after the freeze; its
    rows must equal the serial run's."""
    argv = ("-m", "pgroups", "verify", "--all", "--p", "3", "--max-order", "243")
    serial = _fresh_process(*argv, "--jobs", "1")
    parallel = _fresh_process(*argv, "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    rows = json.loads(serial.stdout)["rows"]
    assert json.loads(parallel.stdout)["rows"] == rows and len(rows) == 16


def test_oracle_aut_counts(capsys):
    code, payload = run_cli(capsys, "oracle-aut", "--group", "elemab:3,2")
    assert code == 0
    assert payload["total"] == 48 and payload["inner"] == 1
    code, _ = run_cli(capsys, "oracle-aut", "--group", "d:3,3")
    assert code == 2  # above the oracle cap


def test_pretty_flag(capsys):
    code, _ = run_cli(capsys, "series", "--group", "cyclic:3,1", "--pretty")
    assert code == 0


def test_tampered_certificate_exit5(capsys):
    """The emit guard refuses certificates that fail re-verification."""
    from pgroups import construct_noninner
    from pgroups.cli import emit_certificate
    from pgroups.errors import Caps, VerificationFailed

    G = catalog.heisenberg(3)
    cert, _ = construct_noninner(G)
    bad = cert._replace(order=1)
    with pytest.raises(VerificationFailed):
        emit_certificate(G, bad, pretty=False, caps=Caps())
    # through main(): simulate by monkeypatching construct_noninner
    import pgroups.cli as cli_mod

    original = cli_mod.construct_noninner
    try:
        cli_mod.construct_noninner = lambda g, caps: (bad, None)
        code = main(["noninner", "--group", "heisenberg:3"])
        assert code == 5
    finally:
        cli_mod.construct_noninner = original


def _field_paths(tree, path=()):
    """Every field below the root of a JSON tree, as a key path."""
    if isinstance(tree, dict):
        items = tree.items()
    else:
        items = enumerate(tree) if isinstance(tree, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


@st.composite
def _one_field_mutation(draw, tree):
    """A deep copy of `tree` with one field deleted, given a value of another
    JSON type, set to a huge or negative int, or, for a list, shortened or
    lengthened."""
    tree = copy.deepcopy(tree)
    *head, last = draw(st.sampled_from(list(_field_paths(tree))))
    parent = tree
    for key in head:
        parent = parent[key]
    value = parent[last]
    kinds = ["delete", "type", "int"] + (["shorten", "lengthen"] if isinstance(value, list) else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "delete":
        del parent[last]
    elif kind == "type":
        others = [v for v in (None, True, 1.5, "1", [], {}) if type(v) is not type(value)]
        parent[last] = draw(st.sampled_from(others))
    elif kind == "int":
        parent[last] = draw(st.sampled_from([-1, -(10**30), 2**63, 10**30]))
    elif kind == "shorten":
        value[len(value) // 2 :] = []
    else:
        value.append(value[-1] if value else 0)
    return tree


_PRESENTATIONS = [
    presentation_to_dict(catalog.parse_group_spec(spec)) for spec in ("heisenberg:3", "wreath:3")
]
# g_1 acts unipotently, g_2 and g_3 trivially: a module for heisenberg:3
_MODULE = {"dim": 2, "action": {"1": [1, 1, 0, 1], "2": [1, 0, 0, 1], "3": [1, 0, 0, 1]}}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PRESENTATIONS).flatmap(_one_field_mutation))
def test_presentation_loader_raises_only_library_errors(data):
    try:
        presentation_from_dict(data)
    except PGroupError:
        pass


@settings(max_examples=200, deadline=None)
@given(_one_field_mutation(_MODULE))
@example({"dim": 2, "action": {"1": [-(10**30), 1, 0, 1], "2": [1, 0, 0, 1], "3": [1, 0, 0, 1]}})
def test_module_file_loader_raises_only_library_errors(module):
    """An action entry beyond int64 used to leak numpy's OverflowError; the
    loader now reads entries mod p."""
    G = catalog.parse_group_spec("heisenberg:3")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mod.json"
        path.write_text(json.dumps(module))
        try:
            _resolve_module(G, f"file:{path}")
        except PGroupError:
            pass


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from([(3, 6), (5, 4), (7, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_series_on_random_presentations_exits_by_the_reference_overlaps(family, seed):
    """Above order 243 the loader proves a file consistent by the overlap
    test: `series` exits 0 exactly when the overlap words agree under the
    rewriting collector, and 3 with kind "input" otherwise."""
    P = _random_presentation(random.Random(seed), *family)
    consistent = reference_overlaps(P)
    event(f"consistent: {consistent}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pres.json"
        dump_presentation(P, path)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["series", "--file", str(path)])
    if consistent:
        assert code == 0, stderr.getvalue()
        assert json.loads(stdout.getvalue())["order"] == P.order
    else:
        assert code == 3
        assert json.loads(stderr.getvalue())["kind"] == "input"
