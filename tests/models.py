"""Independent concrete models used as test oracles.

These never touch the library: Heisenberg groups are modelled by
unitriangular matrices, the modular group of order p^3 by affine maps on
Z/p^2, and `reference_collect` is a separate syllable-rewriting collector
that reads only the relations of a presentation. The symbolic element
arithmetic below (products, inverses, powers, conjugates, commutators,
orders and images of words) is built on `reference_collect` alone; the
library's collector and its index tables are checked against it.
`reference_certificate_holds` re-checks every claim of a non-inner
certificate on that arithmetic, the reference for `verify_certificate`.
`table_is_group` decides the group axioms of a multiplication table by
brute force over all N^3 triples, the reference for the consistency audit.
`reference_overlaps` is the overlap test on `reference_collect`, the
reference for the consistency proof above order 243.
`reference_homomorphism_images` is a scalar backtracking search for
homomorphisms through a table built by `multiply_exps`, the reference for
the oracle's search. `reference_rref` is a scalar Gauss-Jordan
elimination, the reference for `gflinalg.rref`. `reference_complement` is
the scalar greedy scan that `gflinalg.complement_in` reads from one
elimination, on the rank of `reference_rref`.
"""

from __future__ import annotations

import itertools

import numpy as np

class HeisenbergModel:
    """Unitriangular 3x3 matrices over Z/p: rows (a, b, c) encode
    [[1,a,c],[0,1,b],[0,0,1]]."""

    def __init__(self, p: int):
        self.p = p

    def mat(self, a: int, b: int, c: int) -> tuple:
        return (a % self.p, b % self.p, c % self.p)

    def mul(self, x: tuple, y: tuple) -> tuple:
        a1, b1, c1 = x
        a2, b2, c2 = y
        return ((a1 + a2) % self.p, (b1 + b2) % self.p, (c1 + c2 + a1 * b2) % self.p)

    def inv(self, x: tuple) -> tuple:
        a, b, c = x
        return ((-a) % self.p, (-b) % self.p, (a * b - c) % self.p)

    def elements(self):
        return [
            (a, b, c)
            for a in range(self.p)
            for b in range(self.p)
            for c in range(self.p)
        ]

    def table(self) -> dict:
        els = self.elements()
        return {(x, y): self.mul(x, y) for x in els for y in els}


class ModularP3Model:
    """The order-p^3 group of exponent p^2 as affine maps x -> u x + v on
    Z/p^2 with u = 1 mod p: pairs (v, k) act by x -> (1 + k p) x + v."""

    def __init__(self, p: int):
        self.p = p
        self.q = p * p

    def mul(self, x: tuple, y: tuple) -> tuple:
        # (v1,k1) then (v2,k2): composite x -> u2 (u1 x + v1) + v2
        v1, k1 = x
        v2, k2 = y
        u2 = 1 + k2 * self.p
        return ((u2 * v1 + v2) % self.q, (k1 + k2) % self.p)

    def inv(self, x: tuple) -> tuple:
        v, k = x
        u = 1 + k * self.p
        uinv = pow(u, -1, self.q)
        return ((-uinv * v) % self.q, (-k) % self.p)

    def elements(self):
        return [(v, k) for v in range(self.q) for k in range(self.p)]


def reference_collect(pres, word) -> tuple:
    """Normal form of a word of 0-based (generator, exponent >= 0) pairs by
    plain rewriting: merge equal neighbours, then apply the leftmost power
    relation g^p = power_rhs[g] or swap g_j^a g_i^b (j > i) to
    g_j^(a-1) g_i g_j [g_j, g_i] g_i^(b-1), rescanning after every step."""
    p = pres.p
    sylls = [[g, e] for g, e in word if e]
    while True:
        merged = []
        for g, e in sylls:
            if merged and merged[-1][0] == g:
                merged[-1][1] += e
            else:
                merged.append([g, e])
        sylls = merged
        action = None
        for t, (g, e) in enumerate(sylls):
            if e >= p:
                action = ("power", t)
                break
            if t + 1 < len(sylls) and sylls[t + 1][0] < g:
                action = ("swap", t)
                break
        if action is None:
            break
        kind, t = action
        if kind == "power":
            g, e = sylls[t]
            q, r = divmod(e, p)
            repl = [[g, r]] if r else []
            power = [[k, c] for k, c in enumerate(pres.power_rhs[g]) if c]
            for _ in range(q):
                repl.extend([k, c] for k, c in power)
            sylls[t : t + 1] = repl
        else:
            (j, a), (i, b) = sylls[t], sylls[t + 1]
            repl = [[j, a - 1]] if a > 1 else []
            repl += [[i, 1], [j, 1]]
            repl.extend([k, c] for k, c in enumerate(pres.comm(j, i)) if c)
            if b > 1:
                repl.append([i, b - 1])
            sylls[t : t + 2] = repl
    exps = [0] * pres.n
    for g, e in sylls:
        exps[g] = e
    return tuple(exps)


def _word(exps) -> list:
    return [(k, e) for k, e in enumerate(exps) if e]


def reference_overlaps(pres) -> bool:
    """Whether the presentation passes the overlap test (Sims, *Computation
    with Finitely Presented Groups*, ch. 9): both sides of every overlap
    word below give one normal form, each bracket collected by
    `reference_collect`, and g^p read as its power relation.

        (g_k g_j) g_i = g_k (g_j g_i)           k > j > i
        (g_j^p) g_i = g_j^(p-1) (g_j g_i)       j > i
        (g_j g_i^(p-1)) g_i = g_j (g_i^p)       j > i
        (g_i^p) g_i = g_i (g_i^p)."""
    n, p = pres.n, pres.p

    def nf(*words) -> list:
        """The normal form of the concatenated words, as a word."""
        return _word(reference_collect(pres, [letter for w in words for letter in w]))

    power = [_word(rhs) for rhs in pres.power_rhs]
    for i in range(n):
        gi = [(i, 1)]
        sides = [(nf(power[i], gi), nf(gi, power[i]))]
        for j in range(i + 1, n):
            gj = [(j, 1)]
            gji = nf(gj, gi)
            sides.append((nf(power[j], gi), nf([(j, p - 1)], gji)))
            sides.append((nf(nf(gj, [(i, p - 1)]), gi), nf(gj, power[i])))
            for k in range(j + 1, n):
                gk = [(k, 1)]
                sides.append((nf(nf(gk, gj), gi), nf(gk, gji)))
        if any(lhs != rhs for lhs, rhs in sides):
            return False
    return True


def multiply_exps(pres, x, y) -> tuple:
    return reference_collect(pres, _word(x) + _word(y))


def inverse_exps(pres, x) -> tuple:
    """Greedy: right-multiplying by g_i^a never disturbs exponents below i,
    so the letters g_i^a that reduce x to the identity spell x^-1."""
    acc, word = tuple(x), []
    for i in range(pres.n):
        a = (-acc[i]) % pres.p
        if a:
            word.append((i, a))
            acc = reference_collect(pres, _word(acc) + [(i, a)])
    return reference_collect(pres, word)


def power_exps(pres, x, k: int) -> tuple:
    """x^k by |k| plain products; a negative k powers the inverse."""
    base = tuple(x) if k >= 0 else inverse_exps(pres, x)
    acc = (0,) * pres.n
    for _ in range(abs(k)):
        acc = multiply_exps(pres, acc, base)
    return acc


def conjugate_exps(pres, h, g) -> tuple:
    """h^g = g^-1 h g."""
    return reference_collect(pres, _word(inverse_exps(pres, g)) + _word(h) + _word(g))


def commutator_exps(pres, x, y) -> tuple:
    """[x, y] = x^-1 y^-1 x y."""
    inverses = _word(inverse_exps(pres, x)) + _word(inverse_exps(pres, y))
    return reference_collect(pres, inverses + _word(x) + _word(y))


def order_exps(pres, x) -> int:
    k = 1
    while any(x):
        x = power_exps(pres, x, pres.p)
        k *= pres.p
    return k


def word_image_exps(pres, images, word) -> tuple:
    """Normal form of the image of a word of (letter, exponent) pairs when
    letter k goes to the element with exponent tuple images[k]: the images
    are spelled out letter by letter and collected by `reference_collect`."""
    spelled = []
    for g, e in word:
        for _ in range(e):
            spelled.extend((k, c) for k, c in enumerate(images[g]) if c)
    return reference_collect(pres, spelled)


def reference_certificate_holds(pres, gen_images, order, fixed_rows, moved) -> bool:
    """Whether every claim of a non-inner certificate holds, by scalar
    arithmetic on `reference_collect`. Each row must be n digits in
    0..p-1. The images must satisfy g_i^p = power_rhs[i] and
    g_j g_i = g_i g_j [g_j, g_i] (j > i), so that they define an
    endomorphism phi. phi must be bijective on all p^n elements, not the
    identity, with phi^p = 1, and no element x may give g^x = phi(g) on
    every generator. The claimed order must be p. phi must fix every
    claimed fixed row and move the claimed moved element."""
    p, n = pres.p, pres.n

    def well_formed(row) -> bool:
        return len(row) == n and all(0 <= v < p for v in row)

    if len(gen_images) != n or not all(map(well_formed, gen_images)):
        return False
    images = [tuple(row) for row in gen_images]

    def image(word) -> tuple:
        return word_image_exps(pres, images, word)

    for i in range(n):
        if image([(i, p)]) != image(_word(pres.power_rhs[i])):
            return False
        for j in range(i + 1, n):
            if image([(j, 1), (i, 1)]) != image([(i, 1), (j, 1)] + _word(pres.comm(j, i))):
                return False
    elements = list(itertools.product(range(p), repeat=n))
    phi = {x: image(_word(x)) for x in elements}
    if len(set(phi.values())) != len(elements):
        return False
    gens = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    if images == gens:
        return False
    for g in gens:
        y = g
        for _ in range(p):
            y = phi[y]
        if y != g:
            return False
    if any(all(conjugate_exps(pres, g, x) == phi[g] for g in gens) for x in elements):
        return False
    if not all(map(well_formed, fixed_rows)) or any(phi[tuple(r)] != tuple(r) for r in fixed_rows):
        return False
    return well_formed(moved) and phi[tuple(moved)] != tuple(moved) and order == p


def table_is_group(table: np.ndarray, block: int = 16) -> bool:
    """Whether an N x N index table (x, y) -> xy is a group with identity 0:
    (xy)z = x(yz) for every triple, compared `block` rows of x at a time so
    that no N^3 array is built, 0 x = x 0 = x, and every row holds 0."""
    t = np.asarray(table)
    N = t.shape[0]
    for lo in range(0, N, block):
        rows = t[lo : lo + block]
        # t[rows][x, y, z] = (xy)z; rows[:, t][x, y, z] = x(yz)
        if not np.array_equal(t[rows], rows[:, t]):
            return False
    every = np.arange(N)
    if not (np.array_equal(t[0], every) and np.array_equal(t[:, 0], every)):
        return False
    return bool((t == 0).any(axis=1).all())


def reference_homomorphism_images(G, H) -> list:
    """Every tuple of H element indices that sends the pc generators of G
    to a homomorphism, in the order of a scalar depth-first backtracking.

    Element indices read the exponents in base p, g_1 most significant. The
    images are assigned from g_n down to g_1; the candidates for g_k are the
    elements whose order divides that of g_k, with g_k's own index first
    when G is H. A candidate for g_k is kept when g_k^p and every [g_j, g_k],
    j > k, map to the images of their right-hand sides; the search descends
    into each kept candidate before it tries the next one."""
    p, n = G.p, G.n
    elements = list(itertools.product(range(H.p), repeat=H.n))
    index = {x: t for t, x in enumerate(elements)}
    table = [[index[multiply_exps(H, x, y)] for y in elements] for x in elements]
    inverse = [row.index(0) for row in table]

    def order(x: int) -> int:
        k, acc = 1, x
        while acc:
            acc, k = table[acc][x], k + 1
        return k

    def spelled(exps) -> list:
        return [g for g, e in enumerate(exps) for _ in range(e)]

    def image(images, letters) -> int:
        acc = 0
        for g in letters:
            acc = table[acc][images[g]]
        return acc

    def power_p(x: int) -> int:
        acc = 0
        for _ in range(p):
            acc = table[acc][x]
        return acc

    power_rhs = [spelled(G.power_rhs[k]) for k in range(n)]
    comm_rhs = {(j, k): spelled(G.comm(j, k)) for j in range(n) for k in range(j)}
    orders = [order(x) for x in range(len(elements))]
    candidates = []
    for k in range(n):
        own_order = order_exps(G, tuple(int(i == k) for i in range(n)))
        own = p ** (n - 1 - k)
        fits = [x for x in range(len(elements)) if own_order % orders[x] == 0]
        candidates.append([own] + [x for x in fits if x != own] if G is H else fits)
    images = [0] * n
    out = []

    def descend(k: int) -> None:
        if k < 0:
            out.append(tuple(images))
            return
        for x in candidates[k]:
            images[k] = x
            if power_p(x) != image(images, power_rhs[k]):
                continue
            comms = (
                table[table[inverse[images[j]]][inverse[x]]][table[images[j]][x]]
                == image(images, comm_rhs[j, k])
                for j in range(k + 1, n)
            )
            if all(comms):
                descend(k - 1)

    descend(n - 1)
    return out


def reference_rref(rows, p: int) -> tuple[list, list]:
    """Reduced row echelon form over GF(p) of integer rows, by scalar
    Gauss-Jordan elimination: the nonzero rows and the pivot columns."""
    m = [[int(v) % p for v in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def reference_rank(rows, p: int) -> int:
    """Rank over GF(p) of integer rows: the row count of `reference_rref`."""
    return len(reference_rref(rows, p)[0])


def reference_complement(sub, amb, p: int) -> list:
    """The rows of amb, reduced mod p and in order, that each raise the rank
    of the rows of sub and the amb rows kept before them."""
    span = [list(row) for row in sub]
    kept = []
    for row in amb:
        if reference_rank(span + [list(row)], p) > reference_rank(span, p):
            span.append(list(row))
            kept.append([int(v) % p for v in row])
    return kept
