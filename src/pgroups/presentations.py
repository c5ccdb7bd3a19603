"""Presentations derived from a group, and the presentation file format:
quotients by a normal subgroup and subgroup presentations, each returned
with its hom, and the JSON form that `file:` specs and `--file` read.

Only library callers, `file:` specs and `--file` reach these, so they live
apart from the modules every call compiles: the package, `catalog` and the
CLI import this module on first use.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .errors import InputError, json_int
from .pcgroup import (
    Element,
    GroupHom,
    PcPresentation,
    is_normal_indices,
    subgroup_witnesses,
)


def _require_subgroup(pres: PcPresentation, members: frozenset[int]):
    if not subgroup_witnesses(pres, members)[1]:
        raise InputError("set is not a subgroup")


def _presentation_from_chain(pres: PcPresentation, canon, members, name: str):
    """Weighted pc presentation of a group carried on parent indices: the
    sorted `members`, multiplied by the parent's tables and brought back by
    `canon` (the coset representatives of a quotient, or range(|G|) for a
    subgroup).

    Its chain is the parent's tail chain <g_i, ..., g_n>, the indices below
    p^(n-i), so each level of it is a prefix of the members. The chain jumps
    at g_i when a member lies in [g_i, p g_i); the least one generates the
    jump, and a member lies below the jump exactly when it is below g_i.

    Returns (presentation, the generators' indices, normal_form on members)."""
    members = np.asarray(members)
    chosen, below = [], []
    for g in pres.gen_indices:
        jump = members[(members >= g) & (members < pres.p * g)]
        if jump.size:
            chosen.append(int(jump[0]))
            below.append(g)
    inv_chosen = [canon[pres.inv_table[u]] for u in chosen]

    def normal_form(t) -> tuple[int, ...]:
        exps = []
        for u_inv, g in zip(inv_chosen, below):
            e = 0
            while t >= g:
                t = canon[pres.mult_index(u_inv, t)]
                e += 1
            exps.append(e)
        return tuple(exps)

    powers = tuple(normal_form(canon[pres.power_p_table[u]]) for u in chosen)
    comms = []
    for l, ul in enumerate(chosen):
        for k, uk in enumerate(chosen[:l]):
            nf = normal_form(canon[pres.comm_index(ul, uk)])
            if any(nf):
                comms.append(((l, k), nf))
    return PcPresentation(pres.p, powers, tuple(comms), name), chosen, normal_form


def quotient(pres: PcPresentation, normal_members: Iterable) -> tuple[PcPresentation, GroupHom]:
    """Quotient by a normal subgroup, returned with the projection hom.

    `normal_members` is a Subgroup, an iterable of Elements, or an iterable
    of exponent tuples. Raises InputError if the set is not a normal subgroup.
    """
    pres._require_enumerable("quotient")
    members = _member_indices(pres, normal_members)
    _require_subgroup(pres, members)
    if not is_normal_indices(pres, members):
        raise InputError("subgroup is not normal")
    if len(members) == pres.order:
        raise InputError("quotient is trivial; nothing to present")
    # canonical coset representative: minimal index in x * N
    every = np.arange(pres.order)
    rep = every
    for m in members:
        rep = np.minimum(rep, pres.mult_indices(every, m))
    qname = f"{pres.name}/N" if pres.name else "quotient"
    qpres, _, normal_form = _presentation_from_chain(pres, rep.tolist(), np.unique(rep), qname)
    images = (qpres.index_of(normal_form(rep[g])) for g in pres.gen_indices)
    proj = GroupHom._checked(pres, qpres, images)
    if proj.image_size != qpres.order:
        raise InputError("projection is not surjective")  # pragma: no cover
    return qpres, proj


def subgroup_presentation(pres: PcPresentation, members: Iterable) -> tuple[PcPresentation, GroupHom]:
    """Pc presentation of a subgroup plus the embedding hom into the parent."""
    pres._require_enumerable("subgroup presentation")
    mem = _member_indices(pres, members)
    _require_subgroup(pres, mem)
    if len(mem) == 1:
        raise InputError("trivial subgroup has no pc presentation here")
    sname = f"{pres.name}|sub" if pres.name else "subgroup"
    spres, chosen, _ = _presentation_from_chain(pres, range(pres.order), sorted(mem), sname)
    return spres, GroupHom._checked(spres, pres, chosen)


def _member_indices(pres: PcPresentation, members: Iterable) -> frozenset[int]:
    out = set()
    if hasattr(members, "members"):
        members = members.members  # Subgroup duck-typing
    for m in members:
        if isinstance(m, Element):
            if m.pres != pres:
                raise InputError("member from wrong presentation")
            out.add(m.index)
        elif isinstance(m, (int, np.integer)):
            out.add(int(m))
        else:
            out.add(pres.index_of(tuple(m)))
    return frozenset(out)


# -- JSON serialization ---------------------------------------------------------


def presentation_to_dict(pres: PcPresentation) -> dict:
    comms = {}
    for (j, i), rhs in pres.comm_rhs:
        comms[f"{j + 1},{i + 1}"] = list(rhs)
    return {
        "name": pres.name,
        "p": pres.p,
        "n": pres.n,
        "powers": [list(r) for r in pres.power_rhs],
        "commutators": comms,
    }


def presentation_from_dict(data: dict) -> PcPresentation:
    try:
        p = json_int(data["p"], "p")
        n = json_int(data["n"], "n")
        name = str(data.get("name", ""))
        powers = [tuple(json_int(e, "exponent") for e in row) for row in data["powers"]]
        raw_comms = data.get("commutators", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed presentation data: {exc}") from exc
    if len(powers) != n:
        raise InputError("powers table has wrong length")
    if not isinstance(raw_comms, dict):
        raise InputError("commutators must be an object keyed by \"j,i\"")
    comms = []
    for key, rhs in raw_comms.items():
        try:
            j_s, i_s = key.split(",")
            j, i = int(j_s) - 1, int(i_s) - 1
            vec = tuple(json_int(e, "exponent") for e in rhs)
        except (ValueError, TypeError, AttributeError) as exc:
            raise InputError(f"malformed commutator entry {key!r}") from exc
        comms.append(((j, i), vec))
    try:
        return PcPresentation(
            p=p,
            power_rhs=tuple(powers),
            comm_rhs=tuple(sorted(comms)),
            name=name,
        )
    except InputError:
        raise
    except Exception as exc:  # defensive: any constructor failure is an input error
        raise InputError(str(exc)) from exc


def load_presentation(path) -> PcPresentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read presentation file: {exc}") from exc
    return presentation_from_dict(data)


def dump_presentation(pres: PcPresentation, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_dict(pres), fh, indent=2, sort_keys=True)
        fh.write("\n")
