"""End-to-end benchmark of the pgroups CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is a fixed list of
``python -m pgroups.cli`` calls, run one after another by a single client
(a closed loop). Every call gets a fresh interpreter, so the per-process
``lru_cache``s in ``series.py`` never carry work over from one call to the
next, and one thread. The workload seed is passed to every call as
``--seed`` and shuffles the call order within a pass; the program sees only
the generated argv.

``--trace 0`` repeats shuffled passes for ``--seconds`` and prints the
end-to-end metrics. Each call runs twice, back to back: on the program in
``src/`` and on the copy of it pinned in ``perfbench/pinned/``. The host's
speed drifts by a quarter and more over minutes, so the time metrics are
ratios of the two, which that drift divides out of.
``--trace 1`` alternates two untraced passes with two passes through
``traced_cli.py``, which wraps the library's public callables from outside,
and prints the per-layer metrics. Every output is checked in both modes.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with the per-call samples and the
machine's details goes to ``perfbench/results/``. See README.md for the
workloads, the metrics and what is left out.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
# The program as it was when the benchmark was added; never edited.
PINNED_SRC = BENCH_DIR / "pinned"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())

# A run must end within 180 s; calls still pending at this point fail.
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 9
TRACED_PASSES = 2


class Call(NamedTuple):
    args: str
    check: str  # "cert" or "verify"
    expect: int = 0  # row count for "verify"


WORKLOADS = {
    # Consistency audit and symbolic collection in pcgroup dominate;
    # p = 3 and 7, cyclic and non-cyclic centers, Theorem 01 and fallbacks.
    "noninner-ladder": (
        Call("noninner --group heisenberg:3", "cert"),
        Call("noninner --group wreath:3", "cert"),
        Call("noninner --group extraspecial:3", "cert"),
        Call("noninner --group heisenberg:7", "cert"),
        Call("noninner --group d:3,3", "cert"),
    ),
    # No audit: construct_noninner, tables, series, derivation spaces and
    # the oracle cross-check.
    "verify-catalog": (
        Call("verify --all --p 3 --jobs 1", "verify", 17),
        Call("verify --all --p 5 --max-order 625 --jobs 1", "verify", 12),
    ),
}

E2E_UNITS = {
    "setup_s": "s", "wall_rel": "ratio", "cpu_rel": "ratio", "op_p50_rel": "ratio",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}
TIME_SPANS = (
    "cli.self_s", "catalog.parse_s", "pcgroup.audit_s", "pcgroup.gen_tables_s",
    "pcgroup.inv_table_s", "pcgroup.power_p_table_s", "pcgroup.full_mult_table_s",
    "series.hypothesis_report_s", "series.refine_chain_s", "series.queries_s",
    "fpmod.module_build_s", "deriv.derivation_space_s", "gflinalg.rref_s",
    "autom.construct_noninner_s", "autom.verify_certificate_s", "oracle.find_noninner_s",
)
COUNTS = {
    "pcgroup.collect_calls": "count", "pcgroup.audit_triples": "count",
    "pcgroup.table_bytes": "bytes", "deriv.solves": "count",
    "gflinalg.rref_calls": "count", "autom.candidates": "count",
    "autom.inner_scans": "count",
}


def child_env(src: Path = ROOT / "src") -> dict:
    env = dict(os.environ)
    env.pop("PGROUP_CAP", None)
    env.update(
        PYTHONPATH=str(src),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Sample(NamedTuple):
    call: str
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(label: str, argv: list[str], env: dict, deadline: float) -> Sample:
    """Run one child to completion: wall time from spawn to reap, and the
    child's own CPU time and max RSS from wait4. Killed at the deadline, or
    when this process is interrupted."""
    budget = deadline - time.monotonic()
    if budget <= 0:
        return Sample(label, -1, 0.0, 0.0, 0.0, "", "run deadline reached")
    with tempfile.TemporaryFile(dir=RESULTS_DIR) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(budget, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-2000:]
    return Sample(
        label,
        code,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out.decode("utf-8", "replace"),
        stderr,
    )


def check_payload(call: Call, exit_code: int, text: str) -> str | None:
    """The failure, if any. Certificates are checked later against a
    freshly parsed group, in check_certs.py."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not isinstance(data, dict):
        return "stdout is not a JSON object"
    if call.check == "verify":
        rows = data.get("rows", [])
        if data.get("all_agree") is not True:
            return "all_agree is not true"
        if len(rows) != call.expect:
            return f"{len(rows)} rows, expected {call.expect}"
    return None


def check_certificates(certs: dict[str, str], env: dict, deadline: float) -> dict[str, list[str]]:
    """Failures per certificate payload, from one checker process."""
    if not certs:
        return {}
    jobs = [[spec, text] for text, spec in certs.items()]
    argv = [sys.executable, str(BENCH_DIR / "check_certs.py"), json.dumps(jobs)]
    sample = spawn("check_certs", argv, env, deadline)
    if sample.exit != 0:
        return {text: [f"certificate checker exited {sample.exit}"] for text in certs}
    verdicts = json.loads(sample.stdout)
    return {text: verdict for (_, text), verdict in zip(jobs, verdicts)}


def group_of(call: Call) -> str:
    words = call.args.split()
    return words[words.index("--group") + 1]


class Pass(NamedTuple):
    wall_s: float
    samples: list[Sample]  # fewer than the calls if the pass was cut short
    traces: list[dict]  # per call, traced passes only
    pinned: list[Sample]  # the same calls on the pinned program, if run


def run_pass(
    calls: list[Call], seed: int, env: dict, deadline: float, traced: bool,
    pinned_env: dict | None = None, flip: bool = False, fits=lambda call: True,
) -> Pass:
    """Run the calls in order, stopping at the first one that ``fits``
    rejects. With ``pinned_env`` each call also runs on the pinned program,
    alternately just before and just after."""
    samples, traces, pinned = [], [], []
    t0 = time.perf_counter()
    for i, call in enumerate(calls):
        if not fits(call):
            break
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py")]
        else:
            argv = [sys.executable, "-m", "pgroups.cli"]
        argv += call.args.split() + ["--seed", str(seed)]
        pinned_first = (i + flip) % 2 == 1
        if pinned_env and pinned_first:
            pinned.append(spawn(call.args, argv, pinned_env, deadline))
        sample = spawn(call.args, argv, env, deadline)
        if pinned_env and not pinned_first:
            pinned.append(spawn(call.args, argv, pinned_env, deadline))
        if traced:
            try:
                trace = json.loads(sample.stdout)
                sample = sample._replace(exit=trace["exit"], stdout=trace["stdout"])
            except (json.JSONDecodeError, KeyError):
                trace = {}
                sample = sample._replace(exit=sample.exit or -1)
            traces.append(trace)
        samples.append(sample)
    return Pass(time.perf_counter() - t0, samples, traces, pinned)


IMPORT_CLI = [sys.executable, "-c", "import pgroups.cli"]


def measure_setup(env: dict, deadline: float) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES):
        s = spawn("setup", IMPORT_CLI, env, deadline)
        if s.exit != 0:
            raise SystemExit(f"import pgroups.cli failed (exit {s.exit})")
        out.append(s.wall_s)
    return out


def layer_totals(p: Pass) -> dict[str, float]:
    """Per-layer sums over one traced pass."""
    tot = {name: 0.0 for name in TIME_SPANS}
    tot.update({name: 0 for name in COUNTS})
    tot["cli.startup_s"] = 0.0
    certificates = 0
    for trace in p.traces:
        for name, v in trace.get("self_s", {}).items():
            tot[name] += v
        for name, v in trace.get("counts", {}).items():
            if name == "autom.certificates":
                certificates += v
            else:
                tot[name] += v
        tot["cli.startup_s"] += trace.get("startup_s", 0.0)
    cand = tot["autom.candidates"]
    tot["autom.cert_yield"] = certificates / cand if cand else 0.0
    return tot


def run_timed(
    calls: list[Call], rng: random.Random, seconds: float, seed: int, env: dict,
    pinned_env: dict, deadline: float,
) -> list[Pass]:
    """Shuffled passes of call pairs for ``seconds``. The first pass runs
    whole; after it, a pair starts only if its median time so far still
    fits, so the last pass may be cut short and a slow commit makes fewer
    calls, not a longer run."""
    end = time.perf_counter() + seconds
    passes: list[Pass] = []

    def fits(call: Call) -> bool:
        past = [s.wall_s + q.wall_s for p in passes
                for s, q in zip(p.samples, p.pinned) if s.call == call.args]
        return time.perf_counter() + statistics.median(past) <= end

    while not passes or (len(passes[-1].samples) == len(calls) and time.perf_counter() < end):
        order = rng.sample(calls, len(calls))
        passes.append(run_pass(order, seed, env, deadline, traced=False,
                               pinned_env=pinned_env, flip=len(passes) % 2 == 1,
                               fits=fits if passes else lambda call: True))
    if not passes[-1].samples:
        passes.pop()
    return passes


def check_outputs(passes: list[Pass], env: dict, deadline: float):
    """(attempted, failed, problems) over every call of the run. The pinned
    program's calls count in neither, but must exit 0."""
    by_args = {c.args: c for calls in WORKLOADS.values() for c in calls}
    checked = []  # (sample, call, failure)
    certs: dict[str, str] = {}  # certificate payload -> group spec
    for p in passes:
        for s in p.samples:
            call = by_args[s.call]
            failure = check_payload(call, s.exit, s.stdout)
            if failure is None and call.check == "cert":
                certs[s.stdout] = group_of(call)
            checked.append((s, call, failure))
    verdicts = check_certificates(certs, env, deadline)
    failed = 0
    problems: list[str] = []
    for s, call, failure in checked:
        if failure is None and call.check == "cert" and verdicts[s.stdout]:
            failure = "certificate: " + "; ".join(verdicts[s.stdout])
        if failure is not None:
            failed += 1
            problems.append(f"{call.args}: {failure} {s.stderr.strip()}".strip())
    problems += [f"pinned {q.call}: exit code {q.exit} {q.stderr.strip()}".strip()
                 for p in passes for q in p.pinned if q.exit != 0]
    return len(checked), failed, problems


def e2e_metrics(passes: list[Pass], setup: list[float], ok_frac: float):
    """Time metrics are program / pinned ratios. A pass is priced at the sum
    of each call's median over the run, those of a pass cut short too.
    ``op_p50_rel`` is the median ratio of a call pair, so each call weighs
    alike. There is no tail metric: with under 20 calls a run, no
    percentile above the median has 10 samples beyond it."""
    pairs = [(s, q) for p in passes for s, q in zip(p.samples, p.pinned)]
    by_call: dict[str, list[tuple[Sample, Sample]]] = {}
    for s, q in pairs:
        by_call.setdefault(s.call, []).append((s, q))

    def medians(side: int, field: str) -> dict[str, float]:
        return {k: statistics.median(getattr(pair[side], field) for pair in v)
                for k, v in by_call.items()}

    wall, wall_pinned = medians(0, "wall_s"), medians(1, "wall_s")
    cpu, cpu_pinned = medians(0, "cpu_s"), medians(1, "cpu_s")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_rel": sum(wall.values()) / sum(wall_pinned.values()),
        "cpu_rel": sum(cpu.values()) / sum(cpu_pinned.values()),
        "op_p50_rel": statistics.median(s.wall_s / q.wall_s for s, q in pairs),
        "peak_rss_mb": max(s.rss_mb for s, _ in pairs),
        "ok_frac": ok_frac,
    }
    extra = {
        "pass_s": sum(wall.values()), "pinned_pass_s": sum(wall_pinned.values()),
        "call_median_s": wall, "pinned_call_median_s": wall_pinned,
        "pairs": len(pairs), "passes": len(passes), "setup_samples_s": setup,
    }
    return metrics, extra


def layer_metrics(untraced: list[Pass], traced: list[Pass], problems: list[str]):
    """Times averaged over the traced passes; counts, which a fresh process
    per call makes repeat exactly, from the first (a mismatch is a problem)."""
    totals = [layer_totals(p) for p in traced]
    for name in COUNTS:
        if len({t[name] for t in totals}) != 1:
            problems.append(f"traced passes disagree on {name}: {[t[name] for t in totals]}")
    metrics = {
        k: statistics.fmean(t[k] for t in totals) if k.endswith("_s") else totals[0][k]
        for k in totals[0]
    }
    traced_wall = statistics.fmean(p.wall_s for p in traced)
    metrics["trace.pass_s"] = traced_wall
    untraced_wall = statistics.fmean(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    units = {k: "s" if k.endswith("_s") else COUNTS.get(k, "ratio") for k in metrics}
    return metrics, units, {"untraced_pass_s": untraced_wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # reaps the child

    for src in (ROOT / "src", PINNED_SRC):
        if not (src / "pgroups" / "cli.py").is_file():
            print(f"no pgroups sources under {src}", file=sys.stderr)
            return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    env, pinned_env = child_env(), child_env(PINNED_SRC)
    load_start = os.getloadavg()
    calls = list(WORKLOADS[args.workload])
    rng = random.Random(args.seed)
    for warm_env in (env, pinned_env):  # bytecode and file caches
        spawn("warm-up", IMPORT_CLI, warm_env, deadline)

    passes: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []
    if args.trace:
        order = rng.sample(calls, len(calls))
        for _ in range(TRACED_PASSES):  # alternated, so drift hits both alike
            passes.append(run_pass(order, args.seed, env, deadline, traced=False))
            traced.append(run_pass(order, args.seed, env, deadline, traced=True))
    else:
        setup = measure_setup(env, deadline)
        passes = run_timed(calls, rng, args.seconds, args.seed, env, pinned_env, deadline)

    attempted, failed, problems = check_outputs(passes + traced, env, deadline)
    changed = sum(s.stdout != GOLDEN.get(s.call) for s in passes[0].samples)
    if args.trace:
        metrics, units, extra = layer_metrics(passes, traced, problems)
        metrics["cli.outputs_changed"] = changed
        units["cli.outputs_changed"] = "count"
    else:
        metrics, extra = e2e_metrics(passes, setup, (attempted - failed) / attempted)
        units = E2E_UNITS
        extra["outputs_changed"] = changed

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "problems": problems,
        "extra": extra,
        "passes": [
            {"wall_s": p.wall_s, "traced": i >= len(passes),
             "calls": [s._asdict() for s in p.samples], "traces": p.traces,
             "pinned": [q._asdict() for q in p.pinned]}
            for i, p in enumerate(passes + traced)
        ],
        "result": result,
    }
    out_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))

    for problem in problems:
        print(f"FAIL {problem}")
    for k, v in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {units[k]}")
    if not args.trace:
        print(f"{args.workload} {extra['pairs']} call pairs in {extra['passes']} passes; "
              f"one pass takes {extra['pass_s']:.4g} s, {extra['pinned_pass_s']:.4g} s "
              f"pinned")
    print(f"{args.workload} outputs changed from the recorded ones: {changed}")
    print(f"result file: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
