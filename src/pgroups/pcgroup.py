"""Finite p-group arithmetic on weighted power-commutator presentations.

A presentation has pc generators g1..gn over an odd prime p, power
relations g_i^p = (word supported on indices > i) and commutator
relations [g_j, g_i] = (word supported on indices > j) for j > i.
Every element has a unique normal form g1^e1 ... gn^en, 0 <= e_i < p,
carried as an exponent tuple.

Conventions, fixed once and used everywhere:
    h^g = g^-1 h g          (conjugation)
    [x, y] = x^-1 y^-1 x y  (commutator)

Collection has one implementation, `gen_tables`, the right multiplication
of every element by each pc generator. Element arithmetic, `collect` and
the overlap consistency proof read it or the tables built from it (an
element's index is its exponent tuple read in base p), so they need the
group within the package's enumeration limit, `DEFAULT_CAPS.enumeration`,
and raise CapExceeded above it. A presentation holds only its defining
data: a caller's lower cap is checked where the caller's request enters
(the CLI's group load, `verify`'s rows), not stored here.

Presentations and elements are immutable; lazily built lookup tables are
idempotent caches, so sharing across threads is safe.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, DEFAULT_CAPS, Frozen, InputError

Word = Sequence[tuple[int, int]]

# Up to this order the audit proves the full table associative by Light's
# test on the n pc generator columns (n N^2 products, compared a block of
# rows at a time); above it the overlap test proves consistency.
EXHAUSTIVE_AUDIT_ORDER = 3**5
# The full |G| x |G| table is built on request up to this order.
FULL_TABLE_ORDER = 4096


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); larger p are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_odd_prime(p: int) -> bool:
    """Deterministic for p < PRIME_LIMIT."""
    if p < 3 or p % 2 == 0:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def spell_words(words: Iterable[Word], pad: int) -> np.ndarray:
    """One row per word of (generator, exponent) pairs, one letter per unit
    of exponent, padded at the end to one length with the letter `pad`."""
    spelled = [[g for g, e in word for _ in range(e)] for word in words]
    width = max(map(len, spelled), default=0)
    rows = [side + [pad] * (width - len(side)) for side in spelled]
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


class PcPresentation(Frozen):
    """Weighted power-commutator presentation of a group of order p^n.

    power_rhs[i] is the exponent vector of g_i^p; commutators are stored
    as a sorted tuple of ((j, i), exponent vector) entries with j > i
    (0-based), omitted pairs commute.
    """

    def __init__(
        self,
        p: int,
        power_rhs: tuple[tuple[int, ...], ...],
        comm_rhs: tuple[tuple[tuple[int, int], tuple[int, ...]], ...],
        name: str = "",
    ):
        vars(self).update(p=p, power_rhs=power_rhs, comm_rhs=comm_rhs, name=name)
        if p >= PRIME_LIMIT:
            raise InputError(f"p = {p} is too large: primes are decided below {PRIME_LIMIT}")
        if not _is_odd_prime(p):
            raise InputError(f"p must be an odd prime, got {p}")
        n = len(power_rhs)
        if n == 0:
            raise InputError("need at least one generator")
        for i, rhs in enumerate(power_rhs):
            self._check_rhs(rhs, strictly_above=i, what=f"power_rhs[{i}]")
        seen = set()
        for (j, i), rhs in comm_rhs:
            if not (0 <= i < j < n):
                raise InputError(f"bad commutator key ({j},{i})")
            if (j, i) in seen:
                raise InputError(f"duplicate commutator key ({j},{i})")
            seen.add((j, i))
            self._check_rhs(rhs, strictly_above=j, what=f"comm_rhs[{j},{i}]")

    def _key(self) -> tuple:
        return (self.p, self.power_rhs, self.comm_rhs, self.name)

    def __reduce__(self):
        # pickled by its defining fields: the tables and the series memo are
        # rebuilt on demand
        return PcPresentation, self._key()

    def _check_rhs(self, rhs: tuple[int, ...], strictly_above: int, what: str):
        if len(rhs) != self.n:
            raise InputError(f"{what}: wrong length {len(rhs)}")
        for k, e in enumerate(rhs):
            if not 0 <= e < self.p:
                raise InputError(f"{what}: exponent {e} out of range")
            if e and k <= strictly_above:
                raise InputError(f"{what}: support at index {k} violates weighting")

    # -- basic data ---------------------------------------------------------

    @cached_property
    def n(self) -> int:
        return len(self.power_rhs)

    @cached_property
    def order(self) -> int:
        return self.p ** self.n

    @cached_property
    def _comm_dict(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(self.comm_rhs)

    def comm(self, j: int, i: int) -> tuple[int, ...]:
        """Normal form of [g_j, g_i] for j > i."""
        return self._comm_dict.get((j, i), (0,) * self.n)

    @cached_property
    def relators(self) -> tuple[tuple[Word, Word], ...]:
        """Defining relations as (left word, right word) pairs over 0-based
        letters. Power: g_i^p = power_rhs[i]. Commutator (stated
        inverse-free): g_j g_i = g_i g_j [g_j, g_i]."""

        def word(exps):
            return tuple((k, e) for k, e in enumerate(exps) if e)

        powers = [(((i, self.p),), word(rhs)) for i, rhs in enumerate(self.power_rhs)]
        comms = [(((j, 1), (i, 1)), ((i, 1), (j, 1)) + word(self.comm(j, i)))
                 for j in range(self.n) for i in range(j)]
        return tuple(powers + comms)

    @cached_property
    def relator_letters(self) -> np.ndarray:
        """The relator program: row s spells relator side s one letter per
        unit of exponent, the left sides of `relators` first and then the
        right sides, padded to one length with the letter n, which stands
        for the identity."""
        lhs, rhs = zip(*self.relators)
        letters = spell_words(lhs + rhs, self.n)
        letters.setflags(write=False)
        return letters

    @property
    def identity_exps(self) -> tuple[int, ...]:
        return (0,) * self.n

    @property
    def identity(self) -> "Element":
        return Element(self, self.identity_exps)

    def gen(self, i: int) -> "Element":
        if not 0 <= i < self.n:
            raise InputError(f"generator index {i} out of range")
        exps = [0] * self.n
        exps[i] = 1
        return Element(self, tuple(exps))

    @property
    def gens(self) -> tuple["Element", ...]:
        return tuple(self.gen(i) for i in range(self.n))

    @cached_property
    def gen_indices(self) -> tuple[int, ...]:
        """Index of each pc generator: g_i has index p^(n-1-i)."""
        return tuple(self.p ** (self.n - 1 - i) for i in range(self.n))

    def element(self, exps: Sequence[int]) -> "Element":
        return Element(self, tuple(int(e) % self.p for e in exps))

    # -- enumeration and tables ---------------------------------------------

    def _require_enumerable(self, what: str = "enumeration"):
        if self.order > DEFAULT_CAPS.enumeration:
            raise CapExceeded(what, self.order, DEFAULT_CAPS.enumeration)

    @cached_property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        """All p^n exponent tuples in lexicographic order."""
        self._require_enumerable()
        return tuple(itertools.product(range(self.p), repeat=self.n))

    def index_of(self, exps: Sequence[int]) -> int:
        # lex index is positional base-p; avoids building the dict eagerly
        idx = 0
        for e in exps:
            idx = idx * self.p + e
        return idx

    def exps_of(self, idx: int) -> tuple[int, ...]:
        """Exponent tuple of the element with index idx: its base-p digits,
        the inverse of index_of."""
        idx = int(idx)
        exps = []
        for _ in range(self.n):
            idx, e = divmod(idx, self.p)
            exps.append(e)
        return tuple(reversed(exps))

    def collect(self, word: Word) -> tuple[int, ...]:
        """Normal form of a word of (generator index, exponent >= 0) pairs.

        Collection from the left: each letter in turn right-multiplies the
        normal form of the word before it, one gen_tables entry per letter,
        so it needs the group within the enumeration cap."""
        for g, e in word:
            if not 0 <= g < self.n:
                raise InputError(f"generator index {g} out of range")
            if e < 0:
                raise InputError("collection takes non-negative exponents")
        tabs = self.gen_tables
        x = 0
        for g, e in word:
            for _ in range(e):
                x = tabs.item(g, x)
        return self.exps_of(x)

    @cached_property
    def gen_tables(self) -> np.ndarray:
        """gen_tables[i][x] = index of (element x) * g_i: the collector, for
        every element at once.

        Built from g_n down to g_1 by gathers through the rows already
        built: for x = head * g_i^e * t with t in <g_(i+1), ..., g_n> (the
        indices below w), x g_i = head * g_i^(e+1) * t^(g_i), where
        g_i^p = power_rhs[i]. The inverse, p-th power and product tables
        are derived from these."""
        self._require_enumerable()
        p, n = self.p, self.n
        tabs = np.zeros((n, self.order), dtype=np.int64)
        x = np.arange(self.order, dtype=np.int64)
        for i in reversed(range(n)):
            w = p ** (n - 1 - i)
            sub = np.arange(w, dtype=np.int64)
            # right multiplication of the subgroup by each
            # g_j^(g_i) = g_j [g_j, g_i], j > i: the commutator lies above j
            conj = []
            for j in range(i + 1, n):
                perm = tabs[j][sub]
                for k, e in enumerate(self.comm(j, i)):
                    for _ in range(e):
                        perm = tabs[k][perm]
                conj.append(perm)
            # tau[t] = t^(g_i) = (g_(i+1)^(g_i))^(t_(i+1)) ... (g_n^(g_i))^(t_n)
            zero = np.zeros(w, dtype=np.int64)
            tau = self._right_multiply(zero, zip(conj, self._exponent_columns(sub)[i + 1 :]))
            # carry[t] = power_rhs[i] * t^(g_i), for e = p - 1
            carry = self._right_multiply(
                zero + self.index_of(self.power_rhs[i]),
                zip(tabs[i + 1 :], self._exponent_columns(tau)[i + 1 :]),
            )
            e, t = (x // w) % p, x % w
            head = x - e * w - t
            tabs[i] = np.where(e + 1 < p, head + (e + 1) * w + tau[t], head + carry[t])
        tabs.setflags(write=False)
        return tabs

    def _exponent_columns(self, idx: np.ndarray) -> list[np.ndarray]:
        """cols[k][t] = exponent of g_k in the element with index idx[t]."""
        return [(idx // self.p ** (self.n - 1 - k)) % self.p for k in range(self.n)]

    def _right_multiply(self, cur: np.ndarray, steps) -> np.ndarray:
        """Right-multiply every cur[x] by a word that depends on x: for each
        (table, exps) step in turn, map cur[x] through the permutation
        `table` exps[x] times. One masked gather per exponent value."""
        cur = cur.copy()
        for table, exps in steps:
            for r in range(1, self.p):
                m = exps >= r
                cur[m] = table[cur[m]]
        return cur

    def mult_index(self, a: int, b: int) -> int:
        *head, (last, _) = self.product_tables
        for table, s in head:
            h, b = divmod(b, s)
            a = table.item(a, h)
        return last.item(a, b)

    def mult_indices(self, a, b) -> np.ndarray:
        """Elementwise products a[t] * b[t] of index arrays (broadcast), one
        gather per product table. The last block has s = 1: its digits are
        what is left of b."""
        *head, (last, _) = self.product_tables
        for table, s in head:
            h, b = np.divmod(b, s)
            a = table[a, h]
        return last[a, b]

    @cached_property
    def inv_table(self) -> np.ndarray:
        """inv_table[x] = index of x^-1 = g_n^-e_n ... g_1^-e_1, built from
        the identity by the inverse permutations of the generator tables,
        all inverted by one scatter: undo[k, tabs[k, x]] = x."""
        tabs = self.gen_tables
        undo = np.empty_like(tabs)
        undo[np.arange(self.n)[:, None], tabs] = np.arange(self.order)
        cols = self._exponent_columns(np.arange(self.order, dtype=np.int64))
        steps = [(undo[k], cols[k]) for k in reversed(range(self.n))]
        inv = self._right_multiply(np.zeros(self.order, dtype=np.int64), steps)
        inv.setflags(write=False)
        return inv

    def conj_index(self, h: int, g: int) -> int:
        gi = int(self.inv_table[g])
        return self.mult_index(self.mult_index(gi, h), g)

    def comm_index(self, x: int, y: int) -> int:
        xi = int(self.inv_table[x])
        yi = int(self.inv_table[y])
        return self.mult_index(self.mult_index(self.mult_index(xi, yi), x), y)

    @cached_property
    def power_p_table(self) -> np.ndarray:
        """power_p_table[x] = index of (element x)^p: every element
        right-multiplied by itself p - 1 times through the generator tables."""
        tabs = self.gen_tables
        table = np.arange(self.order, dtype=np.int64)
        steps = list(zip(tabs, self._exponent_columns(table)))
        for _ in range(self.p - 1):
            table = self._right_multiply(table, steps)
        table.setflags(write=False)
        return table

    @cached_property
    def element_orders(self) -> np.ndarray:
        pw = self.power_p_table
        orders = np.ones(self.order, dtype=np.int64)
        cur = np.arange(self.order, dtype=np.int64)
        while cur.any():
            orders[cur != 0] *= self.p
            cur = pw[cur]
        orders.setflags(write=False)
        return orders

    def _word_table(self, lo: int, hi: int) -> np.ndarray:
        """table[x, h] = index of x * g_lo^e_lo ... g_(hi-1)^e_(hi-1), where
        h reads the exponents e in base p, g_lo most significant.

        Built in slabs from g_(hi-1) up: the columns h < w spell the words
        in the generators after g_k, and x g_k^e t = (x g_k^e) t, so the
        slab of columns e w + t is the block of columns t < w gathered at
        the rows x g_k^e."""
        N, p = self.order, self.p
        table = np.empty((N, p ** (hi - lo)), dtype=np.int32)
        table[:, 0] = np.arange(N)
        w = 1
        for k in reversed(range(lo, hi)):
            rows = np.arange(N)
            for e in range(1, p):
                rows = self.gen_tables[k][rows]
                table[:, e * w : (e + 1) * w] = table[rows, :w]
            w *= p
        table.setflags(write=False)
        return table

    @cached_property
    def full_mult_table(self) -> np.ndarray:
        """Dense |G| x |G| index multiplication table (small groups only)."""
        self._require_enumerable("multiplication table")
        if self.order > FULL_TABLE_ORDER:
            raise CapExceeded("multiplication table", self.order, FULL_TABLE_ORDER)
        return self._word_table(0, self.n)

    @cached_property
    def product_tables(self) -> tuple[tuple[np.ndarray, int], ...]:
        """(table, s) per block of consecutive pc generators g_lo..g_(hi-1):
        table = _word_table(lo, hi) and s = p^(n-hi). Once y is reduced mod
        p^(n-lo), its digits in that block are h = y // s, so x y is one
        gather per block, first block first: x = table[x, h], y = y mod s.

        The block width b follows from N = p^n:
          N <= EXHAUSTIVE_AUDIT_ORDER: one block, the full table itself,
            which the audit reads anyway (N^2 entries);
          N <= FULL_TABLE_ORDER: b = ceil(n/2), two half tables of
            N (p^ceil(n/2) + p^floor(n/2)) entries in all;
          above: b = 1, one table x -> x g_k^e per generator, N p n entries
            in all, p/2 times the size of gen_tables.
        No block width needs fewer entries than b = 1, so when N p n exceeds
        FULL_TABLE_ORDER^2, the size of the largest dense table, the group
        is refused (CapExceeded) before anything is allocated."""
        N, n = self.order, self.n
        if N <= EXHAUSTIVE_AUDIT_ORDER:
            return ((self.full_mult_table, 1),)
        b = (n + 1) // 2 if N <= FULL_TABLE_ORDER else 1
        blocks = [(lo, min(lo + b, n)) for lo in range(0, n, b)]
        entries = sum(N * self.p ** (hi - lo) for lo, hi in blocks)
        if entries > FULL_TABLE_ORDER**2:
            raise CapExceeded("product tables", entries, FULL_TABLE_ORDER**2)
        return tuple((self._word_table(lo, hi), self.p ** (n - hi)) for lo, hi in blocks)

    @cached_property
    def is_abelian(self) -> bool:
        z = self.identity_exps
        return all(self.comm(j, i) == z for j in range(self.n) for i in range(j))

    # -- consistency audit ----------------------------------------------------

    def check_overlaps(self) -> int:
        """Prove consistency by the overlap test (Sims, *Computation with
        Finitely Presented Groups*, ch. 9): each overlap word below must
        collect to the same normal form both ways,

            (g_k g_j) g_i = g_k (g_j g_i)           k > j > i
            (g_j^p) g_i = g_j^(p-1) (g_j g_i)       j > i
            (g_j g_i^(p-1)) g_i = g_j (g_i^p)       j > i
            (g_i^p) g_i = g_i (g_i^p).

        Each bracket is a product of two normal forms, read from the product
        tables. Raises InputError on the first failure; returns the number
        of overlaps checked."""
        n, p = self.n, self.p
        mul = self.mult_index
        gen = self.gen_indices
        power = [self.index_of(rhs) for rhs in self.power_rhs]
        checked = 0
        for i in range(n):
            gi = gen[i]
            pairs = [(mul(power[i], gi), mul(gi, power[i]))]
            for j in range(i + 1, n):
                gj = gen[j]
                gji = mul(gj, gi)
                # (p - 1) gen[j] is the index of g_j^(p-1)
                pairs.append((mul(power[j], gi), mul((p - 1) * gj, gji)))
                pairs.append((mul(mul(gj, (p - 1) * gi), gi), mul(gj, power[i])))
                for k in range(j + 1, n):
                    gk = gen[k]
                    pairs.append((mul(mul(gk, gj), gi), mul(gk, gji)))
            for lhs, rhs in pairs:
                if lhs != rhs:
                    raise InputError(f"{self.name or 'presentation'}: inconsistent overlap")
            checked += len(pairs)
        return checked

    def audit(self) -> dict:
        """Consistency check plus identity/inverse laws.

        Up to order 3^5 the full table is proved associative by Light's test
        (Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2):
        the set of t with (x t) y = x (t y) for all x, y is closed under
        products, so once the pc generators lie in it and generate the whole
        table, it is everything. That compares the n generator columns,
        n N^2 triples (x, g_i, y), instead of all N^3, in blocks of rows x
        of about 4096 entries each, so no temporary is near N^2. Above 3^5
        the overlap test proves consistency. Raises InputError on any
        failure; returns a summary dict."""
        self._require_enumerable("consistency audit")
        N = self.order
        every = np.arange(N)
        if not (
            np.array_equal(self.mult_indices(0, every), every)
            and np.array_equal(self.mult_indices(every, 0), every)
        ):
            raise InputError("identity law failed")
        if N <= EXHAUSTIVE_AUDIT_ORDER:
            t = self.full_mult_table
            gens = self.gen_indices
            if len(closure_indices(self, gens)) != N:
                raise InputError(f"{self.name or 'presentation'}: generators do not span the table")
            mode, checked = "exhaustive", 0
            rows = max(1, 4096 // N)
            # over the rows x of block b: t[b[:, a]][x, y] = (x a) y and
            # b[:, t[a]][x, y] = x (a y)
            for a in gens:
                ta = t[a]
                for lo in range(0, N, rows):
                    b = t[lo : lo + rows]
                    if (t.take(b[:, a], axis=0) != b.take(ta, axis=1)).any():
                        raise InputError(f"{self.name or 'presentation'}: associativity failed")
                checked += N * N
        else:
            mode, checked = "overlap", self.check_overlaps()
        if self.mult_indices(every, self.inv_table).any():
            raise InputError("inverse law failed")
        return {"mode": mode, "triples": checked, "order": N}

    def __repr__(self):
        return f"PcPresentation({self.name or 'unnamed'}, p={self.p}, n={self.n})"


class Element(Frozen):
    """Group element in normal form, immutable."""

    def __init__(self, pres: PcPresentation, exps: tuple[int, ...]):
        if len(exps) != pres.n:
            raise InputError("exponent vector has wrong length")
        if min(exps) < 0 or max(exps) >= pres.p:
            raise InputError("exponents out of range")
        vars(self).update(pres=pres, exps=exps)

    def _key(self) -> tuple:
        return (self.pres, self.exps)

    def _same(self, other: "Element"):
        if self.pres != other.pres:
            raise InputError("elements from different presentations")

    def _at(self, idx) -> "Element":
        return Element(self.pres, self.pres.exps_of(int(idx)))

    def __mul__(self, other: "Element") -> "Element":
        self._same(other)
        return self._at(self.pres.mult_index(self.index, other.index))

    def inverse(self) -> "Element":
        return self._at(self.pres.inv_table[self.index])

    def __pow__(self, k: int) -> "Element":
        pres = self.pres
        base = self.index if k >= 0 else int(pres.inv_table[self.index])
        acc, k = 0, abs(k)
        while k:
            if k & 1:
                acc = pres.mult_index(acc, base)
            base = pres.mult_index(base, base)
            k >>= 1
        return self._at(acc)

    def conj(self, g: "Element") -> "Element":
        """self^g = g^-1 self g."""
        self._same(g)
        return self._at(self.pres.conj_index(self.index, g.index))

    def comm(self, other: "Element") -> "Element":
        self._same(other)
        return self._at(self.pres.comm_index(self.index, other.index))

    @property
    def is_identity(self) -> bool:
        return not any(self.exps)

    def order(self) -> int:
        return int(self.pres.element_orders[self.index])

    @property
    def index(self) -> int:
        return self.pres.index_of(self.exps)

    def __repr__(self):
        return f"Element{self.exps}"


def collect(pres: PcPresentation, word: Word) -> Element:
    """Collect a free word of 1-based (generator, exponent) pairs to its
    normal form."""
    shifted = [(g - 1, e) for g, e in word]
    for g, _ in shifted:
        if not 0 <= g < pres.n:
            raise InputError(f"generator index {g + 1} out of range")
    return Element(pres, pres.collect(shifted))


def enumerate_elements(pres: PcPresentation) -> list[Element]:
    return [Element(pres, e) for e in pres.elements]


# -- homomorphisms ------------------------------------------------------------


def respects_relations(
    source: PcPresentation, target: PcPresentation, images, lowest: int = 0
) -> np.ndarray:
    """Whether each row of `images`, a (k, n) stack of target indices that
    sends source generator i to images[t, i], respects every defining
    relation of the source whose letters are all >= `lowest`: a k-long
    mask. Those relations never read images[:, :lowest]. All relator sides
    of all rows are evaluated at once, one `mult_indices` gather per letter
    position of `relator_letters`; the padding letter n reads index 0, the
    identity."""
    images = np.asarray(images, dtype=np.int64).reshape(-1, source.n)
    padded = np.concatenate([images, np.zeros((len(images), 1), dtype=np.int64)], axis=1)
    lhs, rhs = np.split(source.relator_letters, 2)
    keep = np.minimum(lhs.min(axis=1), rhs.min(axis=1)) >= lowest
    letters = np.concatenate([lhs[keep], rhs[keep]])
    acc = np.zeros((len(images), len(letters)), dtype=np.int64)
    for column in letters.T:
        acc = target.mult_indices(acc, padded[:, column])
    half = len(letters) // 2
    return (acc[:, :half] == acc[:, half:]).all(axis=1)


class GroupHom(Frozen):
    """Homomorphism given by the images of the source pc generators, kept
    as target element indices; an endomorphism has source == target.

    The constructor takes the images as Elements, `_checked` takes indices;
    both check every defining relation of the source. `compose` and `power`
    skip that check: a composite of homomorphisms is one."""

    def __init__(self, source: PcPresentation, target: PcPresentation, images: Sequence[Element]):
        if any(img.pres != target for img in images):
            raise InputError("image lies in the wrong presentation")
        vars(self).update(vars(GroupHom._checked(source, target, (i.index for i in images))))

    @classmethod
    def _checked(cls, source: PcPresentation, target: PcPresentation, image_indices) -> "GroupHom":
        """The map sending source generator i to the target element with
        index image_indices[i], once it respects every defining relation."""
        hom = cls._composite(source, target, image_indices)
        if len(hom.image_indices) != source.n:
            raise InputError("need one image per source generator")
        if not respects_relations(source, target, [hom.image_indices])[0]:
            raise InputError("generator images do not respect the relations")
        return hom

    @classmethod
    def _composite(cls, source: PcPresentation, target: PcPresentation, image_indices) -> "GroupHom":
        """A map known to be a homomorphism, built without the check."""
        hom = object.__new__(cls)
        vars(hom).update(source=source, target=target, image_indices=tuple(map(int, image_indices)))
        return hom

    def _key(self) -> tuple:
        return (self.source, self.target, self.image_indices)

    @property
    def images(self) -> tuple[Element, ...]:
        return tuple(Element(self.target, self.target.exps_of(i)) for i in self.image_indices)

    def apply(self, x: Element) -> Element:
        if x.pres != self.source:
            raise InputError("element not in the source group")
        return Element(self.target, self.target.exps_of(self.apply_index(x.index)))

    def apply_index(self, x: int) -> int:
        """Index of the image of the source element with index x."""
        acc = 0
        for img, e in zip(self.image_indices, self.source.exps_of(x)):
            for _ in range(e):
                acc = self.target.mult_index(acc, img)
        return acc

    def __call__(self, x: Element) -> Element:
        return self.apply(x)

    @cached_property
    def image_size(self) -> int:
        return len(closure_indices(self.target, self.image_indices))

    @property
    def is_surjective(self) -> bool:
        return self.image_size == self.target.order

    @property
    def is_injective(self) -> bool:
        return self.image_size == self.source.order

    @property
    def is_isomorphism(self) -> bool:
        return self.is_injective and self.is_surjective

    @property
    def is_automorphism(self) -> bool:
        return self.source == self.target and self.is_isomorphism

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.image_indices == self.source.gen_indices

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner: x -> self(inner(x))."""
        if inner.target != self.source:
            raise InputError("composition mismatch")
        return GroupHom._composite(
            inner.source, self.target, (self.apply_index(i) for i in inner.image_indices)
        )

    def power(self, k: int) -> "GroupHom":
        """The k-fold composite of an endomorphism with itself, k >= 0."""
        result = identity_endo(self.source)
        base = self
        while k:
            if k & 1:
                result = result.compose(base)
            base = base.compose(base)
            k >>= 1
        return result


def identity_endo(G: PcPresentation) -> GroupHom:
    return GroupHom._composite(G, G, G.gen_indices)


# -- builders -----------------------------------------------------------------


def build_D(d: int, p: int, name: str | None = None) -> PcPresentation:
    """Rank-d exponent-p class-2 group: generators y1..yd plus the central
    commutators [y_j, y_i] (i < j); order p^(d + d(d-1)/2)."""
    if d < 2:
        raise InputError("build_D needs rank d >= 2")
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    n = d + len(pairs)
    pos = {pair: d + k for k, pair in enumerate(pairs)}
    zero = (0,) * n
    powers = tuple(zero for _ in range(n))
    comms = []
    for (i, j), idx in pos.items():
        rhs = [0] * n
        rhs[idx] = 1
        comms.append(((j, i), tuple(rhs)))
    return PcPresentation(
        p=p,
        power_rhs=powers,
        comm_rhs=tuple(sorted(comms)),
        name=name or f"d:{d},{p}",
    )


def direct_product(a: PcPresentation, b: PcPresentation, name: str | None = None) -> PcPresentation:
    if a.p != b.p:
        raise InputError("direct product needs matching primes")
    n = a.n + b.n
    zero_tail = (0,) * b.n
    zero_head = (0,) * a.n
    powers = [rhs + zero_tail for rhs in a.power_rhs]
    powers += [zero_head + rhs for rhs in b.power_rhs]
    comms = [((j, i), rhs + zero_tail) for (j, i), rhs in a.comm_rhs]
    comms += [((j + a.n, i + a.n), zero_head + rhs) for (j, i), rhs in b.comm_rhs]
    return PcPresentation(
        p=a.p,
        power_rhs=tuple(powers),
        comm_rhs=tuple(sorted(comms)),
        name=name or f"{a.name}+{b.name}",
    )


# -- quotients and subgroup presentations --------------------------------------


def closure_indices(
    pres: PcPresentation, seed: Iterable[int], start: Iterable[int] = (0,)
) -> frozenset[int]:
    """Subgroup generated by the given element indices: breadth-first from
    the members of `start`, each layer right-multiplied by every seed
    element at once. `start` is a subgroup generated by some of the seed
    (by default the trivial one), which the search extends."""
    gens = sorted({int(s) for s in seed})
    if not gens:
        return frozenset([0])
    pres._require_enumerable("subgroup closure")
    member = np.zeros(pres.order, dtype=bool)
    member[list(start)] = True
    member[gens] = True
    frontier = np.flatnonzero(member)
    row = np.array(gens)[None, :]
    while frontier.size:
        before = member.copy()
        member[pres.mult_indices(frontier[:, None], row)] = True
        frontier = np.flatnonzero(member & ~before)
    return frozenset(np.flatnonzero(member).tolist())


def conjugates(pres: PcPresentation, members: Iterable[int]) -> np.ndarray:
    """conj[k, i] = index of g_i^-1 x g_i for the k-th given index x: every
    member conjugated by every pc generator, one gather per product."""
    mem = np.fromiter(members, dtype=np.int64)
    gens = np.array(pres.gen_indices)
    return pres.mult_indices(pres.mult_indices(pres.inv_table[gens], mem[:, None]), gens)


def is_normal_indices(pres: PcPresentation, members: frozenset[int]) -> bool:
    """Whether a subgroup, given by its member indices, is normal: every
    conjugate of a member by a pc generator stays inside."""
    inside = np.zeros(pres.order, dtype=bool)
    inside[list(members)] = True
    return bool(inside[conjugates(pres, members)].all())


def greedy_closure(
    pres: PcPresentation, members: Iterable[int], base: Sequence[int] = ()
) -> tuple[tuple[int, ...], frozenset[int]]:
    """Deterministic small generating set of the members over the subgroup
    generated by `base`, with the closure it reaches: greedy scan in index
    order. Each witness lies outside the closure of the base and the
    witnesses before it, so there are at most n, and each closure extends
    the one before. The closure holds every member, and it equals the
    members exactly when they form a subgroup containing the base."""
    gens: list[int] = []
    have = closure_indices(pres, base)
    for x in sorted(members):
        if x not in have:
            gens.append(x)
            have = closure_indices(pres, (*base, *gens), have)
            if have == members:
                break
    return tuple(gens), have


def subgroup_witnesses(
    pres: PcPresentation, members: Iterable[int]
) -> tuple[tuple[int, ...], bool]:
    """The witnesses of a member set S read off the pc series, and whether
    S is the subgroup they generate: no closure is built.

    With g_i the index p^(n-1-i) of the i-th pc generator and G_i =
    <g_i, ..., g_n> the indices below p g_i, the band [g_i, p g_i) is
    G_i minus G_(i+1). W is the least member of S in each band that S
    meets, smallest band first.

    When S = H is a subgroup, W is what `greedy_closure` picks, in the same
    order: each H meet G_i over H meet G_(i+1) has order 1 or p, since
    G_(i+1) has index p in G_i, and H meet G_i is the prefix of the sorted
    members below p g_i. So once the scan has closed H meet G_(i+1), its
    next member w outside the closure is the least one past it, in the
    band of some level j <= i with no member between, and <H meet G_(j+1),
    w> = H meet G_j. Hence |H| = p^|W|.

    The test: S is the subgroup W generates iff 0 is in S, |S| = p^|W| and
    S w lies in S for each w in W. If so, S <W> = S, and 0 in S gives <W>
    inside S. <W> meets each of the |W| levels of W in a step of index p,
    so |<W>| >= p^|W| = |S|, and <W> = S. The converse is the count above.
    The cost is one mask scan and one product gather per witness. An empty
    S, or one with a member outside 0..|G|-1, is no subgroup."""
    mem = np.fromiter(members, dtype=np.int64)
    if not mem.size or mem.min() < 0 or mem.max() >= pres.order:
        return (), False
    inside = np.zeros(pres.order, dtype=bool)
    inside[mem] = True
    mem = np.flatnonzero(inside)
    bands = np.array(pres.gen_indices[::-1], dtype=np.int64)
    first = mem[np.minimum(np.searchsorted(mem, bands), mem.size - 1)]
    witnesses = tuple(first[(first >= bands) & (first < pres.p * bands)].tolist())
    ok = bool(inside[0]) and mem.size == pres.p ** len(witnesses)
    return witnesses, ok and all(inside[pres.mult_indices(mem, w)].all() for w in witnesses)
