"""Command-line surface. JSON on stdout, one object per invocation.

Commands: series, h1, derivations, noninner, verify, oracle-aut.
Exit codes: 0 ok, 2 cap exceeded, 3 malformed input (a usage error
included), 4 out-of-scope input, 5 internal verification failure (a
certificate failed its re-check).
The PGROUP_CAP environment variable (or --cap) lowers the enumeration cap;
neither it nor the oracle cap is ever raised above its default. The cap is
read where a request enters: a group above it is refused when it is loaded
(exit 2), and a `verify` row above it reads "skipped (cap)".
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

import numpy as np

from . import gflinalg as la
from .autom import construct_noninner, verify_certificate
from .catalog import default_catalog, parse_group_spec
from .deriv import derivation_space, require_system_fits
from .errors import (
    CapExceeded,
    Caps,
    DEFAULT_CAPS,
    InputError,
    OutOfScope,
    PGroupError,
    VerificationFailed,
    json_int,
)
from .fpmod import MODULE_DIM_LIMIT, FpModule, conjugation_module, regular_module, trivial_module
from .oracle import enumerate_automorphisms, verify_conjecture
from .pcgroup import PcPresentation
from .series import (
    agemo,
    center,
    frattini,
    gamma3_agemo,
    hypothesis_report,
    lower_central,
    min_generators,
    omega1,
    refine_chain,
    subgroup_center,
    upper_central,
)


def _build_caps(args) -> Caps:
    cap = DEFAULT_CAPS.enumeration
    env = os.environ.get("PGROUP_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise InputError(f"bad PGROUP_CAP value {env!r}") from exc
    if getattr(args, "cap", None) is not None:
        cap = args.cap
    return DEFAULT_CAPS._replace(
        enumeration=min(DEFAULT_CAPS.enumeration, cap), oracle=min(DEFAULT_CAPS.oracle, cap)
    )


def _load_group(args, caps: Caps) -> PcPresentation:
    if getattr(args, "file", None):
        from .presentations import load_presentation

        pres = load_presentation(args.file)
    elif getattr(args, "group", None):
        pres = parse_group_spec(args.group)
    else:
        raise InputError("need --group or --file")
    if pres.order > caps.enumeration:
        raise CapExceeded("group order", pres.order, caps.enumeration)
    pres.audit()
    return pres


def _module_from_dict(G: PcPresentation, data: dict) -> FpModule:
    try:
        dim = json_int(data["dim"], "dim")
        action = data.get("action", {})
        if dim > MODULE_DIM_LIMIT:
            raise CapExceeded("module dimension", dim, MODULE_DIM_LIMIT)
        if not isinstance(action, dict):
            raise InputError("module action must be an object keyed by generator")
        unknown = set(action) - {str(i + 1) for i in range(G.n)}
        if unknown:
            raise InputError(f"action for unknown generators {sorted(unknown)}")
        mats = np.array([la.eye(dim)] * G.n)
        for i in range(G.n):
            raw = action.get(str(i + 1))
            if raw is None:
                continue
            # entries are read mod p, so any int a JSON file holds fits int64
            flat = [json_int(v, "action entry") % G.p for v in raw]
            if len(flat) != dim * dim:
                raise InputError(f"action for generator {i + 1} has wrong size")
            mats[i] = np.reshape(flat, (dim, dim))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed module data: {exc}") from exc
    return FpModule(G, mats)


def _resolve_module(G: PcPresentation, spec: str) -> FpModule:
    spec = (spec or "trivial").strip()
    if spec == "trivial":
        return trivial_module(G)
    if spec == "center":
        return conjugation_module(G, omega1(G, center(G)))
    if spec == "regular":
        require_system_fits(G, G.order)
        return regular_module(G)
    if spec.startswith("omega1zp:"):
        try:
            i = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad module spec {spec!r}") from exc
        chain = refine_chain(G)
        if not 0 <= i <= chain.T:
            raise InputError(f"chain index {i} out of range (T = {chain.T})")
        P_i = chain.links[i]
        if P_i.is_trivial:
            raise InputError("requested chain link is trivial")
        return conjugation_module(G, omega1(G, subgroup_center(G, P_i)))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read module file: {exc}") from exc
        return _module_from_dict(G, data)
    raise InputError(f"unknown module spec {spec!r}")


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True))


def _subgroup_payload(S) -> dict:
    return {"order": S.order, "gens": S.gens_json()}


def cmd_series(args) -> int:
    caps = _build_caps(args)
    G = _load_group(args, caps)
    z = center(G)
    phi = frattini(G)
    bottom = gamma3_agemo(G)
    chain = refine_chain(G)
    gammas = []
    i = 1
    while True:
        g = lower_central(G, i)
        gammas.append(g.order)
        if g.is_trivial or (i > 1 and g.order == gammas[-2]):
            break
        i += 1
    zs = []
    i = 1
    while True:
        zi = upper_central(G, i)
        zs.append(zi.order)
        if zi.order == G.order or (i > 1 and zi.order == zs[-2]):
            break
        i += 1
    payload = {
        "group": G.name,
        "p": G.p,
        "n": G.n,
        "order": G.order,
        "d": min_generators(G),
        "center": _subgroup_payload(z),
        "center_cyclic": hypothesis_report(G).center_cyclic,
        "frattini": _subgroup_payload(phi),
        "frattini_order": phi.order,
        "agemo_order": agemo(G).order,
        "lower_central_orders": gammas,
        "upper_central_orders": zs,
        "gamma3_agemo_order": bottom.order,
        "T": chain.T,
        "chain": [_subgroup_payload(s) for s in chain.links],
        "hypothesis": hypothesis_report(G).to_dict(),
    }
    _emit(payload, args.pretty)
    return 0


def _derivation_space_payload(args):
    """The solved Der(G, M) of a request, with the payload that h1 and
    derivations share."""
    caps = _build_caps(args)
    G = _load_group(args, caps)
    M = _resolve_module(G, args.module)
    space = derivation_space(G, M)
    return space, {
        "group": G.name,
        "module": args.module or "trivial",
        "module_dim": M.dim,
        "der_dim": space.der_dim,
        "ider_dim": space.ider_dim,
        "h1_dim": space.h1_dim,
    }


def cmd_h1(args) -> int:
    _emit(_derivation_space_payload(args)[1], args.pretty)
    return 0


def cmd_derivations(args) -> int:
    space, payload = _derivation_space_payload(args)
    payload["der_basis"] = [
        {"gen_images": [list(map(int, row)) for row in d.gen_images]} for d in space.der_basis
    ]
    _emit(payload, args.pretty)
    return 0


def emit_certificate(G: PcPresentation, cert, pretty: bool, caps: Caps) -> int:
    """Re-verify before printing; a failing certificate is an internal error
    (exit 5) because construct_noninner only returns verified ones."""
    failures = verify_certificate(G, cert, caps)
    if failures:
        raise VerificationFailed("; ".join(failures))
    _emit(cert.to_json_dict(), pretty)
    return 0


def cmd_noninner(args) -> int:
    caps = _build_caps(args)
    G = _load_group(args, caps)
    cert, report = construct_noninner(G, caps)
    if args.trail:
        print(json.dumps(report.to_dict()), file=sys.stderr)
    return emit_certificate(G, cert, args.pretty, caps)


def _verify_spec(spec: str, caps: Caps) -> tuple[int, dict]:
    """One verify row with its group's prime: parse the group, compute its
    row and let it go."""
    G = parse_group_spec(spec)
    return G.p, verify_conjecture([G], caps)[0]


def cmd_verify(args) -> int:
    caps = _build_caps(args)
    if args.all:
        # catalog names are canonical specs
        specs = [g.name for g in default_catalog(args.p, args.max_order)]
    elif args.group:
        specs = [s for s in args.group.split(";") if s.strip()]
    else:
        raise InputError("verify needs --all or --group")
    row = functools.partial(_verify_spec, caps=caps)
    # the pool forks all its workers at its first submit, so it gets no more
    # than there are rows and cores
    workers = min(args.jobs or 1, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(row, specs))
    else:
        results = list(map(row, specs))
    rows = [r for _, r in results]
    # the catalog's prime, or the one prime the given groups share (None if they mix)
    primes = {p for p, _ in results}
    p = args.p if args.all else (primes.pop() if len(primes) == 1 else None)
    payload = {"p": p, "rows": rows, "all_agree": all(r["agree"] for r in rows)}
    _emit(payload, args.pretty)
    if not payload["all_agree"]:
        raise VerificationFailed("oracle/pipeline disagreement")
    return 0


def cmd_oracle_aut(args) -> int:
    caps = _build_caps(args)
    G = _load_group(args, caps)
    enum = enumerate_automorphisms(G, caps, spot_check_seed=args.seed or 0)
    _emit(enum.to_dict(), args.pretty)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: it raises InputError, which main
    reports as JSON with exit 3, where argparse would print plain text and
    exit 2, the code of a cap refusal. The subcommand parsers are built by
    this class too."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pgroups",
        description="Finite p-group computations: series, H^1, and certified "
        "non-inner automorphisms of order p.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, module=False):
        sp.add_argument("--group", help="group spec (see catalog grammar)")
        sp.add_argument("--file", help="pc-presentation JSON file")
        sp.add_argument("--cap", type=int, help="lower the enumeration cap (at most 10^6)")
        sp.add_argument("--pretty", action="store_true", help="indent JSON output")
        sp.add_argument("--seed", type=int, default=0, help="seed for the oracle-aut spot check")
        if module:
            sp.add_argument(
                "--module",
                default="trivial",
                help="trivial | center | regular | omega1zp:i | file:PATH",
            )

    sp = sub.add_parser("series", help="characteristic subgroups, chain, hypotheses")
    common(sp)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("h1", help="Der/Ider/H1 dimensions")
    common(sp, module=True)
    sp.set_defaults(func=cmd_h1)

    sp = sub.add_parser("derivations", help="derivation space basis")
    common(sp, module=True)
    sp.set_defaults(func=cmd_derivations)

    sp = sub.add_parser("noninner", help="construct a certified non-inner automorphism")
    common(sp)
    sp.add_argument(
        "--trail", action="store_true", help="write the pipeline trail to stderr as one JSON line"
    )
    sp.set_defaults(func=cmd_noninner)

    sp = sub.add_parser("verify", help="oracle vs pipeline agreement report")
    sp.add_argument("--all", action="store_true", help="run the default catalog")
    sp.add_argument("--p", type=int, default=3, help="prime for the catalog")
    sp.add_argument("--max-order", type=int, default=None)
    sp.add_argument("--group", help="semicolon-separated group specs")
    sp.add_argument(
        "--jobs", type=int, default=1, help="parallel workers, at most one per row and per core"
    )
    sp.add_argument("--cap", type=int, help="lower the enumeration cap (at most 10^6)")
    sp.add_argument("--pretty", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle-aut", help="exhaustive automorphism enumeration")
    common(sp)
    sp.set_defaults(func=cmd_oracle_aut)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except CapExceeded as exc:
        print(json.dumps({"error": str(exc), "kind": "cap"}), file=sys.stderr)
        return 2
    except OutOfScope as exc:
        print(json.dumps({"error": str(exc), "kind": "out-of-scope"}), file=sys.stderr)
        return 4
    except VerificationFailed as exc:
        print(json.dumps({"error": str(exc), "kind": "verification"}), file=sys.stderr)
        return 5
    except (InputError, PGroupError) as exc:
        print(json.dumps({"error": str(exc), "kind": "input"}), file=sys.stderr)
        return 3


def run() -> None:
    """The console-script entry point. Freezing the import-time heap moves
    numpy's and the package's objects into the collector's permanent
    generation, so the collections at interpreter exit skip them. Only the
    entry point does this: importing the package or calling main leaves the
    collector as it was.

    A reader that closes the pipe early (`pgroups ... | head -c 100`) ends
    the call with exit code 1 and no traceback: stdout is pointed at
    os.devnull, so the flush at interpreter exit does not fail again (the
    recipe in the documentation of the `signal` module)."""
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
