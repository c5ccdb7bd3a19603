"""Built-in group builders, the group-spec grammar, and the default
verification catalog.

Group specs (CLI and library):
    cyclic:m[,k]      cyclic group of order m^k (m^k must be a power of p)
    elemab:p,k        elementary abelian (C_p)^k
    heisenberg:p      extraspecial p^(1+2) of exponent p
    m:p               the non-abelian group of order p^3 and exponent p^2
    d:d,p             rank-d exponent-p class-2 group (order p^(d+d(d-1)/2))
    wreath:p          C_p wr C_p (maximal class, order p^(p+1))
    file:PATH         pc-presentation JSON file
    A+B               direct product of specs A and B
"""

from __future__ import annotations

from .errors import DEFAULT_CAPS, CapExceeded, InputError
from .pcgroup import (
    PcPresentation,
    _is_odd_prime,
    build_D,
    direct_product,
    load_presentation,
)


def _zero(n: int) -> tuple[int, ...]:
    return (0,) * n


def cyclic(p: int, k: int, name: str | None = None) -> PcPresentation:
    """C_{p^k} with pc generators g_i = g^(p^(i-1))."""
    if k < 1:
        raise InputError("cyclic group needs k >= 1")
    powers = []
    for i in range(k):
        rhs = [0] * k
        if i + 1 < k:
            rhs[i + 1] = 1
        powers.append(tuple(rhs))
    return PcPresentation(
        p=p, power_rhs=tuple(powers), comm_rhs=(), name=name or f"cyclic:{p},{k}"
    )


def elementary_abelian(p: int, k: int, name: str | None = None) -> PcPresentation:
    if k < 1:
        raise InputError("elementary abelian group needs k >= 1")
    return PcPresentation(
        p=p,
        power_rhs=tuple(_zero(k) for _ in range(k)),
        comm_rhs=(),
        name=name or f"elemab:{p},{k}",
    )


def heisenberg(p: int, name: str | None = None) -> PcPresentation:
    """Extraspecial p^(1+2) of exponent p: [b, a] = c central."""
    return PcPresentation(
        p=p,
        power_rhs=(_zero(3), _zero(3), _zero(3)),
        comm_rhs=(((1, 0), (0, 0, 1)),),
        name=name or f"heisenberg:{p}",
    )


def modular_p3(p: int, name: str | None = None) -> PcPresentation:
    """The non-abelian group of order p^3 with exponent p^2:
    a^(p^2) = 1, b^p = 1, [a, b] = a^p. Pc generators a, b, t = a^p."""
    return modular_group(p, 3, name=name)


def modular_group(p: int, k: int, name: str | None = None) -> PcPresentation:
    """The modular group of order p^k (k >= 3): a of order p^(k-1), b of
    order p, [a, b] = a^(p^(k-2)). Pc generators a, b, a^p, ..., a^(p^(k-2))."""
    if k < 3:
        raise InputError("modular group needs k >= 3")
    n = k
    powers = []
    row = [0] * n
    row[2] = 1
    powers.append(tuple(row))  # a^p = g3
    powers.append(_zero(n))  # b^p = 1
    for i in range(2, n):
        row = [0] * n
        if i + 1 < n:
            row[i + 1] = 1
        powers.append(tuple(row))
    comm = [0] * n
    comm[n - 1] = p - 1  # [b, a] = a^(-p^(k-2))
    return PcPresentation(
        p=p,
        power_rhs=tuple(powers),
        comm_rhs=(((1, 0), tuple(comm)),),
        name=name or f"m:{p},{k}",
    )


def extraspecial_exp_p(p: int, m: int = 2, name: str | None = None) -> PcPresentation:
    """Extraspecial group of order p^(2m+1) and exponent p: pairs
    (a_i, b_i) with [b_i, a_i] = z, z central."""
    if m < 1:
        raise InputError("extraspecial group needs m >= 1")
    n = 2 * m + 1
    comms = []
    for i in range(m):
        rhs = [0] * n
        rhs[n - 1] = 1
        comms.append(((2 * i + 1, 2 * i), tuple(rhs)))
    return PcPresentation(
        p=p,
        power_rhs=tuple(_zero(n) for _ in range(n)),
        comm_rhs=tuple(sorted(comms)),
        name=name or f"extraspecial:{p},{m}",
    )


def wreath_cyclic(p: int, name: str | None = None) -> PcPresentation:
    """C_p wr C_p: top generator t cycling a rank-p elementary abelian base;
    pc generators t, v_0, ..., v_(p-1) with [v_k, t] = v_(k+1)."""
    n = p + 1
    comms = []
    for k in range(p - 1):
        rhs = [0] * n
        rhs[k + 2] = 1
        comms.append(((k + 1, 0), tuple(rhs)))
    return PcPresentation(
        p=p,
        power_rhs=tuple(_zero(n) for _ in range(n)),
        comm_rhs=tuple(sorted(comms)),
        name=name or f"wreath:{p}",
    )


def _iroot(m: int, a: int) -> int:
    """Largest q with q^a <= m, by Newton's method from above."""
    q = 1 << -(-m.bit_length() // a)
    while True:
        nxt = ((a - 1) * q + m // q ** (a - 1)) // a
        if nxt >= q:
            return q
        q = nxt


def _prime_power(m: int) -> tuple[int, int]:
    """(q, a) with m = q^a and q prime. Only the a-th root for the true a
    is prime, so the first exact prime root found is the answer."""
    for a in range(1, m.bit_length()):
        q = _iroot(m, a)
        if q ** a == m and (q == 2 or _is_odd_prime(q)):
            return q, a
    raise InputError(f"{m} is not a prime power")


def _cyclic_from_spec(m: int, k: int, spec: str) -> PcPresentation:
    """C_{m^k}, refused by the package's enumeration limit before m^k or
    the presentation is built."""
    if m < 2 or k < 1:
        raise InputError(f"bad cyclic spec {spec!r}")
    cap = DEFAULT_CAPS.enumeration
    # m^k >= 2^((bits - 1) k), so past this bound it exceeds the cap for sure
    if k * (m.bit_length() - 1) > cap.bit_length():
        raise CapExceeded("group order", f"{m}^{k}" if k > 1 else m, cap)
    if m**k > cap:
        raise CapExceeded("group order", m**k, cap)
    q, a = _prime_power(m)
    return cyclic(q, a * k, name=spec)


def parse_group_spec(spec: str) -> PcPresentation:
    spec = spec.strip()
    if not spec:
        raise InputError("empty group spec")
    if "+" in spec:
        parts = [parse_group_spec(s) for s in spec.split("+")]
        out = parts[0]
        for nxt in parts[1:]:
            out = direct_product(out, nxt)
        return out
    if ":" not in spec:
        raise InputError(f"bad group spec {spec!r}")
    kind, _, args = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "file":
        return load_presentation(args)
    try:
        nums = [int(a) for a in args.split(",")] if args else []
    except ValueError as exc:
        raise InputError(f"bad group spec {spec!r}: {exc}") from exc
    if kind == "cyclic":
        if len(nums) == 1:
            m, k = nums[0], 1
        elif len(nums) == 2:
            m, k = nums
        else:
            raise InputError("cyclic spec takes one or two numbers")
        return _cyclic_from_spec(m, k, spec)
    if kind == "elemab":
        if len(nums) != 2:
            raise InputError("elemab spec takes p,k")
        return elementary_abelian(nums[0], nums[1], name=spec)
    if kind == "heisenberg":
        if len(nums) != 1:
            raise InputError("heisenberg spec takes p")
        return heisenberg(nums[0], name=spec)
    if kind == "m":
        if len(nums) == 1:
            return modular_p3(nums[0], name=spec)
        if len(nums) == 2:
            return modular_group(nums[0], nums[1], name=spec)
        raise InputError("m spec takes p or p,k")
    if kind == "extraspecial":
        if len(nums) == 1:
            return extraspecial_exp_p(nums[0], 2, name=spec)
        if len(nums) == 2:
            return extraspecial_exp_p(nums[0], nums[1], name=spec)
        raise InputError("extraspecial spec takes p or p,m")
    if kind == "d":
        if len(nums) != 2:
            raise InputError("d spec takes d,p")
        pres = build_D(nums[0], nums[1], name=spec)
        return pres
    if kind == "wreath":
        if len(nums) != 1:
            raise InputError("wreath spec takes p")
        return wreath_cyclic(nums[0], name=spec)
    raise InputError(f"unknown group kind {kind!r}")


def default_catalog(p: int, max_order: int | None = None) -> list[PcPresentation]:
    """The named groups exercised by `verify`: abelian controls plus every
    non-abelian builder at p^3 and p^4, a p^5 product, and the rank-2/3
    class-2 groups."""
    specs = [
        f"cyclic:{p},1",
        f"cyclic:{p},2",
        f"cyclic:{p},3",
        f"elemab:{p},2",
        f"elemab:{p},3",
        f"cyclic:{p},2+cyclic:{p},1",
        f"heisenberg:{p}",
        f"m:{p}",
        f"d:2,{p}",
        f"heisenberg:{p}+cyclic:{p},1",
        f"m:{p}+cyclic:{p},1",
        f"heisenberg:{p}+elemab:{p},2",
        f"heisenberg:{p}+cyclic:{p},2",
        f"m:{p},4",
        f"d:3,{p}",
    ]
    if p == 3:
        specs.append(f"wreath:{p}")
        specs.append(f"extraspecial:{p}")
    groups = [parse_group_spec(s) for s in specs]
    if max_order is not None:
        groups = [g for g in groups if g.order <= max_order]
    return groups
