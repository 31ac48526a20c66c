"""Exact finite-group arithmetic on full multiplication tables.

Groups are dense objects: an order-n group is an n x n table of element
indices with table[g][h] = g*h.  Everything downstream (conjugacy,
centralizers, subgroups, homomorphism enumeration) is a finite, fully
checkable computation over that table.

Element index encodings are part of the external contract:
  * cyclic groups: residues 0..n-1, table[a][b] = a+b mod n;
  * direct products: row-major, (a, b) -> a*|B| + b;
  * symmetric/alternating groups: lexicographic one-line notation.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundError",
    "FiniteGroup",
    "GroupHom",
    "ConjugacyClassData",
    "make_cyclic",
    "make_trivial",
    "direct_product",
    "make_symmetric",
    "make_alternating",
    "conjugacy_classes",
    "centralizer",
    "center",
    "subgroup",
    "generating_sequence",
    "enumerate_homomorphisms",
    "group_from_json",
    "load_group",
    "parse_group_spec",
]

# Homomorphism enumeration bound on the source group's order.
FULL_CHECK_ORDER = 512
# Homomorphisms `enumerate_homomorphisms` may return: its list holds one
# `GroupHom` per homomorphism, about 280 bytes each at |G| = 16.
MAX_HOMS = 1 << 20
# Hard memory guard: an order-10000 table is 200 MB; S8 (40320) would
# need ~3.3 GB and is rejected outright.
MAX_TABLE_ORDER = 10000
# dtype of every table entry and element index array: the constructors'
# sums stay below 2 * MAX_TABLE_ORDER, which it holds without wrapping
_INDEX = np.int16
# Cells of the largest temporary that a pass over table rows or the
# homomorphism enumeration builds at once: no temporary grows with the
# table or with the number of candidates
_BLOCK_CELLS = 1 << 18


class BoundError(ValueError):
    """An input past a size bound (table order, permutation degree, modulus,
    a cochain degree's order bound), refused before it is allocated."""


class FiniteGroup:
    """A finite group given by a full multiplication table.

    The table is validated on construction: two-sided identity, two-sided
    inverses, and associativity, which is exact at every order: Light's
    test checks (gh)k = g(hk) for all h, k at each g of a generating set
    (two elements where `_reached` shows a pair generates), which decides it
    for every g; only a failing table goes on to the greedy
    `generating_sequence`, whose scan names the first failing triple.  A
    group table is Latin, so the Latin check runs only on a table that
    fails one of these or has more than log2 n greedy generators, and
    refuses it if not Latin.
    """

    def __init__(self, table, label: str | None = None,
                 cyclic_factors: tuple[int, ...] | None = None):
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError(f"table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n == 0:
            raise ValueError("empty table")
        _check_table_order(n)
        # checked before the cast to _INDEX, which would truncate or wrap
        if table.dtype.kind not in "iu":
            raise ValueError(
                f"table entries must be integers, got dtype {table.dtype}")
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table entries out of range")
        self.table = np.ascontiguousarray(table, dtype=_INDEX)
        self.order = n
        self.label = label if label is not None else f"order{n}"
        self.cyclic_factors = cyclic_factors
        self.relabeling: np.ndarray | None = None  # set by load_group
        self._cache: dict[str, object] = {}
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self):
        T = self.table
        n = self.order
        ar = np.arange(n, dtype=_INDEX)
        # a two-sided identity e has e*0 = 0, so only those rows are tried
        ident = next((int(e) for e in np.nonzero(T[:, 0] == 0)[0]
                      if np.array_equal(T[e], ar)
                      and np.array_equal(T[:, e], ar)), None)
        if ident is None:
            self._refuse("table has no two-sided identity")
        self.identity = ident
        # rows need not be Latin: take any e in each row, check both sides
        b = max(1, _BLOCK_CELLS // n)  # rows per block
        inv = np.concatenate([np.argmax(T[a:a + b] == ident, axis=1)
                              for a in range(0, n, b)]).astype(_INDEX)
        if not ((T[ar, inv] == ident).all() and (T[inv, ar] == ident).all()):
            self._refuse("table has an element without a two-sided inverse")
        self.inverse = inv
        def light(g):
            # (gh)k against g(hk) over all h, k, in blocks of rows h
            Tg = T[g]
            return (np.take(T, Tg[a:a + b], axis=0) != np.take(Tg, T[a:a + b])
                    for a in range(0, n, b))

        cert = _failure_certificate(self, light)
        if cert is not None:
            self._refuse("associativity fails at ({},{},{})".format(*cert))

    def _refuse(self, problem: str | None = None):
        """Raise "not a Latin square" if the table is not one, else problem."""
        T = self.table
        ar = np.arange(self.order, dtype=_INDEX)
        if not ((np.sort(T, axis=1) == ar).all()
                and (np.sort(T, axis=0) == ar[:, None]).all()):
            raise ValueError("table is not a Latin square")
        if problem is not None:
            raise ValueError(problem)

    # -- basics --------------------------------------------------------

    def _check_index(self, *elements) -> None:
        """Refuse an element index outside range(n), naming the first;
        numpy would read a negative one from the end."""
        for g in elements:
            if not 0 <= g < self.order:
                raise ValueError(f"element index {g} out of range")

    def mul(self, g: int, h: int) -> int:
        self._check_index(g, h)
        return int(self.table[g, h])

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, one prime of n at a time.

        For p^a exactly dividing n, g^(n/p^a) has order the p-part of
        ord(g) (Lagrange), found by taking p-th powers until every element
        reaches e: O(log n) table gathers per prime.
        """
        if "orders" not in self._cache:
            n = self.order
            orders = np.ones(n, dtype=np.int64)
            for p in _prime_factors(n):
                m = n
                while m % p == 0:
                    m //= p
                cur = self._power(np.arange(n), m)
                while (live := cur != self.identity).any():
                    orders[live] *= p
                    cur = self._power(cur, p)
            self._cache["orders"] = orders
        return self._cache["orders"]

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = int(np.lcm.reduce(self.element_orders()))
        return self._cache["exponent"]

    def power(self, g: int, k: int) -> int:
        """g**k for any integer k, reduced mod ord(g)."""
        self._check_index(g)
        return int(self._power(np.array(g), k % int(self.element_orders()[g])))

    def _power(self, x: np.ndarray, k: int) -> np.ndarray:
        """x**k elementwise, k >= 0, by square-and-multiply on the table."""
        T = self.table
        acc = np.full(np.shape(x), self.identity, dtype=_INDEX)
        while k:
            if k & 1:
                acc = T[acc, x]
            k >>= 1
            if k:
                x = T[x, x]
        return acc

    def power_table(self, upto: int) -> np.ndarray:
        """P[g, k] = g**k for 0 <= k < upto."""
        n = self.order
        P = np.empty((n, upto), dtype=_INDEX)
        P[:, 0] = self.identity
        ar = np.arange(n)
        for k in range(1, upto):
            P[:, k] = self.table[P[:, k - 1], ar]
        return P

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise, which decides it: the
        elements commuting with a given set form a subgroup."""
        gens = generating_sequence(self)
        block = self.table[np.ix_(gens, gens)]
        return bool(np.array_equal(block, block.T))

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


@dataclass(eq=False)
class ConjugacyClassData:
    """Orbit partition of a group under conjugation."""
    class_of: np.ndarray        # element -> class index
    representatives: np.ndarray  # class index -> minimal element index
    class_sizes: np.ndarray

    @property
    def count(self) -> int:
        return len(self.representatives)


class GroupHom:
    """A verified homomorphism given by its full image array."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        self.source = source
        self.target = target
        images = np.asarray(images)
        if images.shape != (source.order,):
            raise ValueError("images array has wrong length")
        # checked before the cast to _INDEX, which would wrap
        if (images.dtype.kind not in "iu" or images.min() < 0
                or images.max() >= target.order):
            raise ValueError(
                f"images must be integers in range(0, {target.order})")
        self.images = images.astype(_INDEX)
        if self.images[source.identity] != target.identity:
            raise ValueError("hom does not preserve the identity")
        if not _is_hom(source, target, self.images):
            raise ValueError("images do not define a homomorphism")

    @classmethod
    def _verified(cls, source: FiniteGroup, target: FiniteGroup, images):
        """Wrap an _INDEX image array that `_is_hom` has accepted."""
        hom = cls.__new__(cls)
        hom.source, hom.target, hom.images = source, target, images
        return hom

    def __call__(self, g: int) -> int:
        self.source._check_index(g)
        return int(self.images[g])

    def key(self) -> tuple:
        return tuple(int(x) for x in self.images)

    def __repr__(self):
        return (f"GroupHom({self.source.label}->{self.target.label}, "
                f"{self.key()})")


def _is_hom(G: FiniteGroup, H: FiniteGroup, images: np.ndarray):
    """phi(gs) = phi(g)phi(s) for every g and every s of `_short_generators`.

    The s at which this holds for all g are closed under products, so
    any generating set decides it for the whole group.  `images` is one
    image array or a (..., |G|) stack of them; the verdicts have the
    stack's shape.
    """
    gens = _short_generators(G)
    lhs = images[..., G.table[:, gens]]
    rhs = H.table[images[..., :, None], images[..., None, gens]]
    return (lhs == rhs).all(axis=(-2, -1))


# -- constructors ------------------------------------------------------

def _check_table_order(n: int) -> int:
    """n, if an n x n table is within the memory guard; checked by the
    constructors before they allocate a table."""
    if n > MAX_TABLE_ORDER:
        raise BoundError(
            f"table of order {n} exceeds the supported maximum "
            f"{MAX_TABLE_ORDER} (memory guard)")
    return n


def make_trivial() -> FiniteGroup:
    return FiniteGroup([[0]], label="C1", cyclic_factors=(1,))


def make_cyclic(n: int) -> FiniteGroup:
    """Z/n with table[a][b] = a+b mod n."""
    if n < 1:
        raise ValueError(f"cyclic group order must be >= 1, got {n}")
    ar = np.arange(_check_table_order(n), dtype=_INDEX)
    table = ar[:, None] + ar[None, :]  # at most 2n - 2
    return FiniteGroup(np.remainder(table, n, out=table), label=f"C{n}",
                       cyclic_factors=(n,))


def direct_product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """Componentwise product; element (a, b) gets index a*|B| + b."""
    m = B.order
    n = _check_table_order(A.order * m)
    # table[(a, b), (c, d)] = (ac)*|B| + bd < n, built once as _INDEX; a
    # wider numpy scalar factor would promote the n^2 temporary
    table = (A.table[:, None, :, None] * _INDEX(m)
             + B.table[None, :, None, :]).reshape(n, n)
    factors = None
    if A.cyclic_factors is not None and B.cyclic_factors is not None:
        factors = A.cyclic_factors + B.cyclic_factors
    return FiniteGroup(table, label=f"{A.label}x{B.label}",
                       cyclic_factors=factors)


def make_symmetric(m: int) -> FiniteGroup:
    """S(m), elements in lexicographic one-line order."""
    return _perm_group(_permutations("S", m), f"S{m}")


def make_alternating(m: int) -> FiniteGroup:
    """A(m): even permutations, lexicographic one-line order."""
    return _perm_group(_permutations("A", m), f"A{m}")


def _permutations(name: str, m: int) -> np.ndarray:
    """The elements of S(m) (name "S") or A(m) ("A") as rows of one-line
    notation, in lexicographic order, once m passes the size guards."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if m > 8:
        raise BoundError(f"{name}({m}) exceeds the m <= 8 bound")
    order = math.factorial(m) // (2 if name == "A" else 1)
    if order > MAX_TABLE_ORDER:
        raise BoundError(
            f"{name}({m}) has order {order}; its table exceeds the "
            f"memory guard ({MAX_TABLE_ORDER})")
    P = np.array(list(itertools.permutations(range(m))), dtype=np.int64)
    if name == "A":
        # an even permutation has an even number of inversions
        i, j = np.triu_indices(m, 1)
        P = P[(P[:, i] > P[:, j]).sum(axis=1) % 2 == 0]
    return P


def _perm_group(P: np.ndarray, label: str) -> FiniteGroup:
    """The group of the permutations in the rows of P, in row order."""
    n, m = P.shape
    # a permutation's base-m digits index it directly (m^m <= 7^7 cells)
    weights = m ** np.arange(m, dtype=np.int64)
    index = np.zeros(m ** m, dtype=_INDEX)
    index[P @ weights] = np.arange(n, dtype=_INDEX)
    table = np.empty((n, n), dtype=_INDEX)
    # new rows per gather: with 2^15 cells the allocator reuses the
    # temporaries' memory (the gather's intp copy of the indices is the
    # largest); larger blocks built S7 and A7 no faster
    b = max(1, (1 << 15) // n)
    built = np.zeros(n, dtype=bool)
    seeds: list[int] = []
    while not built.all():
        s = int(np.argmin(built))  # the least row not yet built
        # greedy ascending seeds are composed: (p_s o p_j)(x) = p_s(p_j(x))
        table[s] = index[P[s][P] @ weights]
        built[s] = True
        seeds.append(s)
        frontier = np.nonzero(built)[0]
        while len(frontier):
            # p_i = p_t o p_k for a seed t has row T[t][T[k]]
            found = []
            for t in seeds:
                new = table[t, frontier]
                fresh = ~built[new]
                new, ks = np.unique(new[fresh], return_index=True)
                ks = frontier[fresh][ks]
                for a in range(0, len(new), b):
                    table[new[a:a + b]] = np.take(table[t], table[ks[a:a + b]])
                built[new] = True
                found.append(new)
            frontier = np.concatenate(found)
    return FiniteGroup(table, label=label)


# -- conjugacy, centralizers, subgroups --------------------------------

def conjugacy_classes(G: FiniteGroup) -> ConjugacyClassData:
    """Conjugation orbits; representative = minimal index in each class."""
    if "conjugacy" in G._cache:
        return G._cache["conjugacy"]
    T = G.table
    # conjugation x -> s^-1 x s by each generator; their orbits are the classes
    maps = [T[T[G.inverse[s]], s] for s in generating_sequence(G)]
    # label[x] stays in x's class and at most x; at the fixed point it is
    # constant on each generator's cycles, so it is the class minimum
    label = np.arange(G.order)
    while True:
        before = label
        for c in maps:
            label = np.minimum(label, label[c])
        while not np.array_equal(label[label], label):
            label = label[label]  # pointer jumping
        if np.array_equal(label, before):
            break
    reps, class_of, sizes = np.unique(label, return_inverse=True,
                                      return_counts=True)
    data = ConjugacyClassData(class_of.astype(_INDEX),
                              reps.astype(_INDEX), sizes.astype(np.int64))
    G._cache["conjugacy"] = data
    return data


def centralizer(G: FiniteGroup, S) -> tuple[int, ...]:
    """{h : hs = sh for all s in S}, as a sorted element tuple."""
    S = sorted(set(int(s) for s in S))
    if not S:
        raise ValueError("centralizer of an empty set is not defined here")
    G._check_index(*S)
    T = G.table
    mask = np.ones(G.order, dtype=bool)
    for s in S:
        mask &= T[:, s] == T[s, :]
    return tuple(int(x) for x in np.nonzero(mask)[0])


def center(G: FiniteGroup) -> tuple[int, ...]:
    """Elements commuting with each generator (the identity, if none)."""
    return centralizer(G, generating_sequence(G) or [G.identity])


def _reached(G: FiniteGroup, gens) -> np.ndarray:
    """Mask of the products of gens, the identity included."""
    reached = np.zeros(G.order, dtype=bool)
    reached[G.identity] = True
    for rows in _bfs_layers(G, gens):
        reached[rows[:, 0]] = True
    return reached


def _bfs_layers(G: FiniteGroup, gens) -> list[np.ndarray]:
    """Rows (element, parent, generator position), element = parent*gen,
    one array per distance from the identity.

    Breadth-first from the identity by right multiplication, so the rows
    reach every product of generators but the identity, parents first.
    """
    gens = np.asarray(gens, dtype=np.int64)
    k = len(gens)
    seen = np.zeros(G.order, dtype=bool)
    seen[G.identity] = True
    frontier = np.array([G.identity])
    layers = []
    while len(frontier) and k:
        cand = G.table[np.ix_(frontier, gens)].ravel()
        first = np.unique(cand, return_index=True)[1]
        first = np.sort(first[~seen[cand[first]]])
        parents = frontier[first // k]
        frontier = cand[first]
        seen[frontier] = True
        if len(frontier):
            layers.append(np.column_stack([frontier, parents, first % k]))
    return layers


def subgroup(G: FiniteGroup, elements) -> tuple[FiniteGroup, np.ndarray]:
    """Reindex a closed element subset as a group of its own.

    Returns (H, embed) with embed[i] = the G-index of H's element i.
    Elements are sorted ascending, so G's identity lands at H-index 0
    whenever it is G-index 0.  All of G gives G itself, caches and all.
    """
    elems = sorted(set(int(x) for x in elements))
    G._check_index(*elems)
    if elems == list(range(G.order)):
        return G, np.arange(G.order, dtype=_INDEX)
    if G.identity not in elems:
        raise ValueError("subset does not contain the identity")
    embed = np.array(elems, dtype=_INDEX)
    pos = np.full(G.order, -1, dtype=_INDEX)
    pos[embed] = np.arange(len(elems), dtype=_INDEX)
    sub_table = pos[G.table[np.ix_(embed, embed)]]
    if (sub_table < 0).any():
        a, b = np.argwhere(sub_table < 0)[0]
        raise ValueError(
            f"subset not closed: {elems[a]}*{elems[b]} falls outside it")
    return FiniteGroup(sub_table, label=f"{G.label}-sub{len(elems)}"), embed


# -- generating sequences and homomorphisms ----------------------------

def generating_sequence(G: FiniteGroup) -> list[int]:
    """Greedy minimal generating sequence (scan elements ascending).

    Computed once per group and cached.  Homomorphism enumeration
    backtracks over it, and an identity that fails at the short
    generating set is scanned at it for its first failure (see
    `_failure_certificate`).
    """
    if "gens" not in G._cache:
        gens: list[int] = []
        reached = _reached(G, gens)
        for g in range(G.order):
            if not reached[g]:
                gens.append(g)
                if len(gens) == G.order.bit_length():
                    # a group's generators each at least double the subgroup
                    # reached, so this table is no group's; refuse if not Latin
                    G._refuse()
                reached = _reached(G, gens)
        G._cache["gens"] = gens
    return G._cache["gens"]


def _short_generators(G: FiniteGroup) -> list[int]:
    """A generating set of G no longer than `generating_sequence`.

    With c = g1*g2*...*gk and c' = gk*...*g1 over the greedy generators
    g1..gk, the first pair (gi, c), then (gi, c'), that `_reached` proves
    generating; the greedy sequence itself if it has at most two
    elements, if they commute pairwise (an abelian group needs its full
    rank), or if no such pair generates.  Uses only `_reached` and table
    lookups, so it is sound on a table not yet known to be associative.
    """
    if "short_gens" not in G._cache:
        gens = generating_sequence(G)
        T = G.table
        short = gens
        if len(gens) > 2 and not G.is_abelian():
            c = c_rev = gens[0]
            for g in gens[1:]:
                c, c_rev = int(T[c, g]), int(T[g, c_rev])
            short = next(([g, t] for t in (c, c_rev) for g in gens
                          if _reached(G, [g, t]).all()), gens)
        G._cache["short_gens"] = short
    return G._cache["short_gens"]


def _failure_certificate(G: FiniteGroup, slab) -> tuple | None:
    """The lexicographically first failure of an identity on G, or None.

    `slab(g)` gives, as consecutive blocks of rows (any iterable of
    arrays), an array that is nonzero exactly where the identity fails
    on the tuples starting at g; blocks after a failing one are not
    read.  For an identity whose good g (zero slab) include e and are
    closed under products, as for
    associativity (Light's test; Clifford & Preston, Algebraic Theory of
    Semigroups I, 1961) and the cocycle identity, any generating set
    decides it, so it runs at `_short_generators` first.  Only when one
    of those fails does the greedy scan run, to name the first failure:
    if m is the least bad g, the greedy generators below m are good, so
    all they generate is good and the scan takes m itself, after no
    failing generator.
    """
    if all(_first_nonzero(slab(s)) is None for s in _short_generators(G)):
        return None
    for s in generating_sequence(G):
        first = _first_nonzero(slab(s))
        if first is not None:
            return (s,) + first
    return None


def _first_nonzero(blocks) -> tuple | None:
    """Index of the first nonzero entry of the row blocks' concatenation."""
    offset = 0
    for bad in blocks:
        if bad.any():
            first = np.argwhere(bad)[0]
            return (offset + int(first[0]),) + tuple(int(x) for x in first[1:])
        offset += len(bad)
    return None


def enumerate_homomorphisms(G: FiniteGroup, H: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms G -> H, lexicographic in generator images.

    The order and the exact check, once per candidate, are those of
    `_hom_batches`.  More than MAX_HOMS homomorphisms are refused as
    soon as that many are collected.
    """
    homs = []
    for batch in _hom_batches(G, H):
        homs.extend(GroupHom._verified(G, H, images) for images in batch)
        if len(homs) > MAX_HOMS:
            raise ValueError(
                f"more than {MAX_HOMS} homomorphisms {G.label} -> {H.label}; "
                "enumeration declined")
    return homs


def _hom_batches(G: FiniteGroup, H: FiniteGroup):
    """Yield every homomorphism G -> H as rows of (m, |G|) image arrays.

    Candidates are tuples of images of the greedy generating sequence,
    in lexicographic order, in which each image, and each product of two
    images, has an order dividing that of its generator or product of
    generators; the filters act on a whole level of prefixes at once.
    A candidate's images are filled one `_bfs_layers` distance from the
    identity at a time, with one gather per distance, and
    each batch is checked exactly, once per candidate, by one call of
    `_is_hom`; the batches come out in candidate order.  Prefixes are
    extended in chunks, so no temporary exceeds a fixed multiple of
    `_BLOCK_CELLS` cells, whatever the number of candidates.
    """
    if G.order > FULL_CHECK_ORDER:
        raise ValueError(
            f"|G| = {G.order} exceeds the {FULL_CHECK_ORDER} enumeration bound")
    gens = generating_sequence(G)
    if len(gens) > 5:
        raise ValueError(
            f"greedy generating sequence has length {len(gens)} > 5; "
            "enumeration declined")
    ordG = G.element_orders()
    ordH = H.element_orders()
    TG, TH = G.table, H.table
    k, n = len(gens), G.order
    cand = [np.nonzero(ordG[g] % ordH == 0)[0] for g in gens]
    layers = [(rows[:, 0], rows[:, 1], rows[:, 2])
              for rows in _bfs_layers(G, gens)]
    per_check = max(1, _BLOCK_CELLS
                    // (n * max(1, len(_short_generators(G)))))

    def extend(prefix, level):
        if level == k:
            for a in range(0, len(prefix), per_check):
                choice = prefix[a:a + per_check]
                phi = np.empty((len(choice), n), dtype=_INDEX)
                phi[:, G.identity] = H.identity
                for ys, xs, gis in layers:
                    phi[:, ys] = TH[phi[:, xs], choice[:, gis]]
                ok = _is_hom(G, H, phi)
                if ok.any():
                    yield phi[ok]
            return
        c = cand[level]
        step = max(1, _BLOCK_CELLS // (len(c) * (level + 1)))
        for a in range(0, len(prefix), step):
            p = prefix[a:a + step]
            keep = np.ones((len(p), len(c)), dtype=bool)
            for b in range(level):
                # ord(phi(g_b)phi(g)) | ord(g_b g); g g_b is conjugate to
                # g_b g, so the products in the other order add nothing
                o = ordG[TG[gens[b], gens[level]]]
                keep &= o % ordH[TH[p[:, b, None], c]] == 0
            i, j = np.nonzero(keep)  # row-major, so still lexicographic
            if len(i):
                yield from extend(np.column_stack([p[i], c[j]]), level + 1)

    yield from extend(np.empty((1, 0), dtype=np.int64), 0)


# -- prime factors -----------------------------------------------------

def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- file format and CLI group specs -----------------------------------

def group_from_json(data: dict) -> tuple[FiniteGroup, np.ndarray | None]:
    """Build a group from {"order", "table", "label"} JSON data.

    The identity is normalized to index 0; when the input had it
    elsewhere, the applied relabeling (old index -> new index) is
    returned alongside the group.
    """
    if not isinstance(data, dict):
        raise ValueError("group JSON must be an object")
    for key in ("order", "table"):
        if key not in data:
            raise ValueError(f"group JSON missing field {key!r}")
    n = data["order"]
    table = data["table"]
    if type(n) is not int or n < 1:  # JSON true loads as a bool, an int
        raise ValueError(f"bad group order {n!r}")
    if not (isinstance(table, list) and len(table) == n
            and all(isinstance(row, list) and len(row) == n
                    for row in table)):
        raise ValueError("group table shape does not match its order")
    lbl = data.get("label") or f"file-order{n}"
    G = FiniteGroup(table, label=lbl)
    if G.identity == 0:
        return G, None
    e = G.identity
    new_order = [e] + [g for g in range(n) if g != e]
    relabel = np.argsort(new_order).astype(_INDEX)
    new_table = relabel[G.table[np.ix_(new_order, new_order)]]
    G2 = FiniteGroup(new_table, label=lbl)
    G2.relabeling = relabel
    return G2, relabel


def load_group(path: str) -> tuple[FiniteGroup, np.ndarray | None]:
    """Load a group table file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return group_from_json(data)


_SPEC_RE = re.compile(r"^(C\d+(?:xC\d+)*|S\d+|A\d+)$")


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse a CLI group spec: C<n>, C<a>xC<b>..., S<m>, A<m>, file:<path>."""
    spec = spec.strip()
    if spec.startswith("file:"):
        G, relabel = load_group(spec[5:])
        return G
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(
            f"unrecognized group spec {spec!r} "
            "(expected C<n>, C<a>xC<b>..., S<m>, A<m>, or file:<path>)")
    if spec[0] == "S":
        return make_symmetric(int(spec[1:]))
    if spec[0] == "A":
        return make_alternating(int(spec[1:]))
    parts = [int(p[1:]) for p in spec.split("x")]
    order = 1  # refuse an oversize product before building any factor
    for n in parts:
        if n < 1:
            break  # make_cyclic refuses it
        order = _check_table_order(order * _check_table_order(n))
    G = make_cyclic(parts[0])
    for n in parts[1:]:
        G = direct_product(G, make_cyclic(n))
    G.label = spec
    return G
