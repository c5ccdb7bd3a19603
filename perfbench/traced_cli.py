"""Run one pgroups CLI call in this process, with timing wrappers installed
from outside on the library's public callables.

    PYTHONPATH=src python3 perfbench/traced_cli.py noninner --group d:3,3 --seed 1

The call goes through ``pgroups.cli.main`` unchanged, so the library runs
the same functions in the same order as ``python -m pgroups.cli``. Prints
one JSON object: the CLI's exit code and stdout, the time to import
``pgroups.cli``, and per-layer self times and counts.

A span's self time is its duration minus the time of the spans nested in
it, so the layers partition the call: for example ``autom.construct_noninner_s``
excludes the table builds, series queries and derivation spaces it
triggers, as if their caches had been warm.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from time import perf_counter

# span name -> (module, attribute) of the callables it times
TIMED = {
    "catalog.parse_s": [("catalog", "parse_group_spec"), ("catalog", "default_catalog")],
    "series.hypothesis_report_s": [("series", "hypothesis_report")],
    "series.refine_chain_s": [("series", "refine_chain")],
    "series.queries_s": [("series", name) for name in (
        "trivial_subgroup", "whole_group", "center", "centralizer", "normal_closure",
        "lower_central", "upper_central", "agemo", "frattini", "frattini_via_maximals",
        "omega1", "gamma3_agemo", "min_generators", "subgroup_center",
        "greedy_elementary_abelian_normal",
    )],
    "fpmod.module_build_s": [("fpmod", name) for name in (
        "trivial_module", "regular_module", "conjugation_module", "pullback_module",
        "restrict_module", "submodule_as_module", "quotient_module", "twist_extend_raw",
    )],
    "deriv.derivation_space_s": [("deriv", "derivation_space")],
    "gflinalg.rref_s": [("gflinalg", "rref")],
    "autom.construct_noninner_s": [("autom", "construct_noninner")],
    "autom.verify_certificate_s": [("autom", "verify_certificate")],
    "oracle.find_noninner_s": [("oracle", "find_noninner_order_p")],
}
# Counted calls, by span name, for the timed callables above.
CALL_COUNTS = {
    "deriv.derivation_space_s": "deriv.solves",
    "gflinalg.rref_s": "gflinalg.rref_calls",
    "autom.construct_noninner_s": "autom.certificates",
}
# Counted only: these run too often, or too briefly, for a span each.
COUNTED = {
    "autom.candidates": ("autom", "induce"),
    "autom.inner_scans": ("autom", "is_inner"),
}
TABLES = ("gen_tables", "inv_table", "power_p_table", "full_mult_table")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self._children: list[float] = []  # nested span time, per open span

    def timed(self, name, fn, count=None, after=None):
        children, self_s, counts = self._children, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - children.pop()
                if children:
                    children[-1] += dur
                else:
                    self.top_level_s += dur
            if count:
                counts[count] += 1
            if after:
                after(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Replace each callable everywhere pgroups refers to it, so that
        ``from .x import f`` bindings see the wrapper too."""
        mods = {name: sys.modules[f"pgroups.{name}"] for name in (
            "catalog", "pcgroup", "series", "fpmod", "deriv", "gflinalg", "autom", "oracle")}
        swap = {}
        for span, targets in TIMED.items():
            for mod, attr in targets:
                fn = getattr(mods[mod], attr)
                swap[id(fn)] = self.timed(span, fn, count=CALL_COUNTS.get(span))
        for name, (mod, attr) in COUNTED.items():
            fn = getattr(mods[mod], attr)
            swap[id(fn)] = self.counted(name, fn)
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "pgroups"]:
            for attr, value in list(vars(mod).items()):
                if id(value) in swap:
                    setattr(mod, attr, swap[id(value)])

        cls = mods["pcgroup"].PcPresentation
        cls.collect = self.counted("pcgroup.collect_calls", cls.collect)

        def triples(report):
            self.counts["pcgroup.audit_triples"] += report["triples"]

        cls.audit = self.timed("pcgroup.audit_s", cls.audit, after=triples)

        def table_bytes(table):
            self.counts["pcgroup.table_bytes"] += table.nbytes

        for attr in TABLES:
            prop = cls.__dict__[attr]
            prop.func = self.timed(f"pcgroup.{attr}_s", prop.func, after=table_bytes)


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    from pgroups import cli

    startup_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    t1 = perf_counter()
    with redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code if isinstance(exc.code, int) else 1
    call_s = perf_counter() - t1
    self_s = dict(tracer.self_s)
    self_s["cli.self_s"] = call_s - tracer.top_level_s
    json.dump(
        {
            "exit": code,
            "stdout": out.getvalue(),
            "startup_s": startup_s,
            "call_s": call_s,
            "self_s": self_s,
            "counts": dict(tracer.counts),
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
