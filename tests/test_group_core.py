"""Tables, constructors, class data, subgroup machinery, hom enumeration."""

import itertools
import json
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from zcenter import group_core
from zcenter.cohomology import Cochain
from zcenter.group_core import (FiniteGroup, GroupHom, center, centralizer,
                                conjugacy_classes, direct_product,
                                enumerate_homomorphisms, generating_sequence,
                                group_from_json, load_group, make_alternating,
                                make_cyclic, make_symmetric, make_trivial,
                                parse_group_spec, subgroup, _hom_batches,
                                _is_hom, _short_generators)
from zcenter.pointed_center import kernel_of_characteristic

from oracles import brute_force_hom_images


# -- validation --------------------------------------------------------

def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        FiniteGroup([[0, 1, 0], [1, 0, 1]])


def test_rejects_empty():
    with pytest.raises(ValueError):
        FiniteGroup(np.zeros((0, 0), dtype=int))


def test_rejects_out_of_range_entries():
    with pytest.raises(ValueError, match="out of range"):
        FiniteGroup([[0, 1], [1, 2]])


def test_rejects_non_latin():
    with pytest.raises(ValueError, match="Latin"):
        FiniteGroup([[0, 0], [1, 1]])


def test_rejects_no_identity():
    # a Latin square in which no row acts as the identity
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]])


def _search_loops(n, want_bad_inverse):
    """Backtrack over Latin squares with identity row/col 0; return the
    first whose inverse structure (or associativity) is broken."""
    rows = [list(range(n))]
    cols = [set([r]) for r in range(n)]

    def ok_table(T):
        Ta = np.array(T)
        # two-sided inverse present for every element?
        good_inv = all(
            any(T[g][h] == 0 and T[h][g] == 0 for h in range(n))
            for g in range(n))
        if want_bad_inverse:
            return not good_inv
        if not good_inv:
            return False
        # want an associativity failure
        for g in range(n):
            if not np.array_equal(Ta[Ta[g]], Ta[g][Ta]):
                return True
        return False

    def rec(r):
        if r == n:
            return list(rows) if ok_table(rows) else None
        used = set([r])
        row = [r]

        def fill(c):
            if c == n:
                rows.append(row.copy())
                for cc_, v in enumerate(row):
                    cols[cc_].add(v)
                got = rec(r + 1)
                if got:
                    return got
                rows.pop()
                for cc_, v in enumerate(row):
                    cols[cc_].discard(v)
                return None
            for v in range(n):
                if v not in used and v not in cols[c]:
                    used.add(v)
                    row.append(v)
                    got = fill(c + 1)
                    if got:
                        return got
                    row.pop()
                    used.discard(v)
            return None

        return fill(1)

    return rec(1)


def test_rejects_one_sided_inverses():
    T = _search_loops(5, want_bad_inverse=True)
    assert T is not None
    with pytest.raises(ValueError, match="inverse"):
        FiniteGroup(T)


def test_rejects_non_associative_loop():
    T = _search_loops(5, want_bad_inverse=False)
    assert T is not None
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup(T)
    # on L x C2 the first generator 1 = (e, 1) associates with everything
    # and the next one does not; the refusal names the first failing
    # triple of a brute-force sweep
    T = (np.repeat(np.repeat(np.array(T), 2, axis=0), 2, axis=1) * 2
         + np.tile([[0, 1], [1, 0]], (5, 5)))
    g, h, k = next(t for t in itertools.product(range(10), repeat=3)
                   if T[T[t[0], t[1]], t[2]] != T[t[0], T[t[1], t[2]]])
    assert g > 1
    with pytest.raises(ValueError,
                       match=rf"associativity fails at \({g},{h},{k}\)$"):
        FiniteGroup(T)


def test_rejects_intercalate_swapped_s6():
    """Rows a and a*t of S6 swapped on columns c and d, with t = c*d^-1
    an involution, give a Latin square with identity and inverses that is
    not associative.  A 20,000-triple sample accepts most such tables;
    the exact check refuses every one, and its certificate is a failing
    triple."""
    S6 = make_symmetric(6)
    T, inv, e = S6.table, S6.inverse, S6.identity
    involutions = [t for t in range(S6.order) if t != e and T[t, t] == e]
    rng = np.random.default_rng(720)
    refused = 0
    while refused < 20:
        a, c = (int(x) for x in rng.integers(0, S6.order, 2))
        t = int(rng.choice(involutions))
        d, at = int(T[t, c]), int(T[a, t])  # t = c*d^-1, so d = t*c
        if e in (a, at, c, d, T[a, c], T[a, d]):
            continue  # keep the identity's row, column and inverses
        bad = T.copy()
        rows, cols = [a, a, at, at], [c, d, c, d]
        bad[rows, cols] = T[rows, [d, c, d, c]]
        with pytest.raises(ValueError, match="associativity fails at") as err:
            FiniteGroup(bad)
        g, h, k = (int(x) for x in
                   str(err.value).rsplit("(", 1)[1].rstrip(")").split(","))
        assert bad[bad[g, h], k] != bad[g, bad[h, k]]
        refused += 1


def test_row_blocks_past_the_first_block():
    """Inverses and Light's slabs are read in blocks of rows: on S6 (720
    rows, 364 per block) the inverses match a whole-table search, and
    each refused intercalate swap names the first failing (h, k) of its
    whole slab at the first failing greedy generator, some of them past
    the first block."""
    S6 = make_symmetric(6)
    T, e = S6.table, S6.identity
    assert np.array_equal(S6.inverse, np.argwhere(T == e)[:, 1])
    involutions = [t for t in range(S6.order) if t != e and T[t, t] == e]
    rng = np.random.default_rng(256)
    hs = []
    while len(hs) < 6:
        a = int(rng.integers(400, S6.order))
        c = int(rng.integers(0, S6.order))
        t = int(rng.choice(involutions))
        d, at = int(T[t, c]), int(T[a, t])
        if e in (a, at, c, d, T[a, c], T[a, d]):
            continue
        bad = T.copy()
        rows, cols = [a, a, at, at], [c, d, c, d]
        bad[rows, cols] = T[rows, [d, c, d, c]]
        g = next(g for g in generating_sequence(S6)
                 if (bad[bad[g]] != bad[g][bad]).any())
        h, k = np.argwhere(bad[bad[g]] != bad[g][bad])[0]
        with pytest.raises(ValueError,
                           match=rf"^associativity fails at \({g},{h},{k}\)$"):
            FiniteGroup(bad)
        hs.append(h)
    assert max(hs) >= group_core._BLOCK_CELLS // S6.order


def test_tables_built_in_final_dtype(S3, C4):
    """Cyclic and product tables are built as int16 in place: the right
    entries, and traced peaks for C3000 and C50xC60 well below the two
    tables that an out-of-place remainder, or one wider temporary, would
    hold."""
    P = direct_product(S3, C4)
    assert P.table.dtype == np.int16
    assert P.table.tolist() == [
        [int(S3.table[a, c]) * 4 + int(C4.table[b, d])
         for c in range(6) for d in range(4)]
        for a in range(6) for b in range(4)]
    tracemalloc.start()
    C = make_cyclic(3000)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    ar = np.arange(3000)
    assert C.table.dtype == np.int16
    assert np.array_equal(C.table, (ar[:, None] + ar[None, :]) % 3000)
    assert peak < 1.3 * C.table.nbytes
    C50, C60 = make_cyclic(50), make_cyclic(60)
    tracemalloc.start()
    Q = direct_product(C50, C60)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert Q.table.dtype == np.int16
    assert peak < 1.3 * Q.table.nbytes
    with pytest.raises(ValueError, match="table of order 10100 exceeds"):
        direct_product(make_cyclic(101), make_cyclic(100))


def test_index_width_holds_the_table_bound():
    """The constructors' sums reach 2n - 2 before a remainder, so the
    entry dtype must hold twice the largest accepted order."""
    G = make_cyclic(2)
    assert 2 * group_core.MAX_TABLE_ORDER <= np.iinfo(G.table.dtype).max


def test_corner_entries_at_the_table_bound(S3):
    """The last entries of tables near MAX_TABLE_ORDER, where a narrow
    dtype would wrap first, and S3 x C1666 against a table built apart."""
    assert make_cyclic(10000).table[9999, 9999] == 9998
    C100 = make_cyclic(100)
    assert direct_product(C100, C100).table[-1, -1] == 9898
    G = direct_product(S3, make_cyclic(1666))
    ar = np.arange(1666, dtype=np.int32)
    cyc = (ar[:, None] + ar[None, :]) % 1666
    for a, c in itertools.product(range(6), repeat=2):
        # the block of rows (a, .) and columns (c, .)
        block = G.table[a * 1666:(a + 1) * 1666, c * 1666:(c + 1) * 1666]
        assert np.array_equal(block, int(S3.table[a, c]) * 1666 + cyc)


def _reference_verdict(T):
    """The checks in their original order (Latin square, identity,
    inverses, associativity), each over the whole table: ("ok", identity,
    inverse) or ("error", message).  The associativity message names the
    lexicographically first failing triple."""
    T = np.asarray(T)
    n = len(T)
    ar = np.arange(n)
    if not ((np.sort(T, axis=1) == ar).all()
            and (np.sort(T, axis=0) == ar[:, None]).all()):
        return ("error", "table is not a Latin square")
    ident = next((int(e) for e in range(n)
                  if (T[e] == ar).all() and (T[:, e] == ar).all()), None)
    if ident is None:
        return ("error", "table has no two-sided identity")
    inv = np.argwhere(T == ident)[:, 1]  # Latin: one e in each row
    if not (T[inv, ar] == ident).all():
        return ("error", "table has an element without a two-sided inverse")
    bad = np.argwhere(T[T] != T[:, T])  # [g, h, k]: (gh)k against g(hk)
    if len(bad):
        return ("error", "associativity fails at ({},{},{})".format(*bad[0]))
    return ("ok", ident, tuple(int(x) for x in inv))


def _verdict(T):
    try:
        G = FiniteGroup(T)
    except ValueError as err:
        return ("error", str(err))
    return ("ok", G.identity, tuple(int(x) for x in G.inverse))


def _relabeled(T, perm):
    """The table with element g renamed perm[g]."""
    back = np.argsort(perm)
    return perm[np.asarray(T)[np.ix_(back, back)]]


def test_verdicts_match_reference_on_all_3x3_tables():
    """Validation runs the Latin check only when refusing; every verdict,
    identity, inverse and message is unchanged."""
    seen = set()
    for cells in itertools.product(range(3), repeat=9):
        T = np.array(cells).reshape(3, 3)
        want = _reference_verdict(T)
        assert _verdict(T) == want, T.tolist()
        seen.add(want[1] if want[0] == "error" else "ok")
    # a 3x3 Latin square with an identity is C3
    assert seen == {"ok", "table is not a Latin square",
                    "table has no two-sided identity"}


def test_verdicts_match_reference_on_random_tables():
    """Random 4-8 tables with an identity row and column, some with
    two-sided inverses placed, renamed so that e may be any element."""
    rng = np.random.default_rng(9)
    for _ in range(2000):
        n = int(rng.integers(4, 9))
        T = rng.integers(0, n, (n, n))
        T[0], T[:, 0] = np.arange(n), np.arange(n)
        if rng.integers(2):
            # pair every element with an inverse, so that the table
            # passes the identity and inverse checks
            pairs = rng.permutation(np.arange(1, n))
            for a, b in zip(pairs[::2], pairs[1::2]):
                T[a, b] = T[b, a] = 0
            if len(pairs) % 2:
                T[pairs[-1], pairs[-1]] = 0
        T = _relabeled(T, rng.permutation(n))
        assert _verdict(T) == _reference_verdict(T), T.tolist()


def test_verdicts_match_reference_on_intercalate_swaps(S3, D4, Q8, A4):
    """Latin squares one intercalate away from a group table: rows a and
    a*t, columns c and t*c, for every a, c and involution t."""
    refused = set()
    for G in (S3, D4, Q8, A4):
        T = G.table
        involutions = [t for t in range(G.order)
                       if t != G.identity and T[t, t] == G.identity]
        for a, c, t in itertools.product(range(G.order), range(G.order),
                                         involutions):
            at, d = T[a, t], T[t, c]
            bad = T.copy()
            bad[[a, a, at, at], [c, d, c, d]] = T[[a, a, at, at],
                                                  [d, c, d, c]]
            want = _reference_verdict(bad)
            assert _verdict(bad) == want, (G.label, a, c, t)
            refused.add(want[0] == "ok" or want[1].split(" at ")[0])
    assert refused == {"table has no two-sided identity",
                       "table has an element without a two-sided inverse",
                       "associativity fails"}


def test_identity_found_among_candidate_rows():
    """Only rows with g*0 = 0 are tried as the identity: tables with no
    such row, with one that is not the identity, and with several keep
    the reference verdict and message."""
    S3 = make_symmetric(3)
    e3 = _relabeled(S3.table, np.array([3, 1, 2, 0, 4, 5]))  # e renamed 3
    tables = []
    # Latin, one candidate row 0 that is not an identity: x - y mod 5
    ar = np.arange(5)
    tables.append((ar[:, None] - ar[None, :]) % 5)
    # no candidate row at all: column 0 holds no 0
    no_candidate = e3.copy()
    no_candidate[:, 0] = 1
    tables.append(no_candidate)
    # several candidate rows, the identity (3) not the first of them
    several = e3.copy()
    several[[1, 2], 0] = 0
    tables.append(several)
    # several candidate rows, none of them an identity
    several_none = several.copy()
    several_none[3, 5] = 4
    tables.append(several_none)
    assert [int((T[:, 0] == 0).sum()) for T in tables] == [1, 0, 3, 3]
    for T in tables:
        assert _verdict(T) == _reference_verdict(T), T.tolist()
    assert _verdict(tables[0]) == ("error", "table has no two-sided identity")
    assert FiniteGroup(e3).identity == 3


def test_associativity_certificate_past_the_short_generators(S4):
    """Intercalate swaps of S4 whose first failing triple starts at the
    greedy generator 2, outside the short set {1, c}: 1 associates with
    everything, so the short set fails only at its product c, and the
    greedy scan still names the brute-force first failure."""
    T = S4.table
    short, gens = _short_generators(S4), generating_sequence(S4)
    assert short[0] == gens[0] and short[1] not in gens
    involutions = [t for t in range(S4.order)
                   if t != S4.identity and T[t, t] == S4.identity]
    firsts = set()
    for a, c, t in itertools.product(range(S4.order), range(S4.order),
                                     involutions):
        at, d = T[a, t], T[t, c]
        bad = T.copy()
        bad[[a, a, at, at], [c, d, c, d]] = T[[a, a, at, at], [d, c, d, c]]
        want = _reference_verdict(bad)
        assert _verdict(bad) == want, (a, c, t)
        if want[0] == "error" and want[1].startswith("associativity"):
            firsts.add(int(want[1].split("(")[1].split(",")[0]))
    assert firsts == {1, 2}


def test_non_latin_table_with_many_greedy_generators_is_refused_fast():
    """Identity 0 and g*h = 0 for g, h >= 1: the identity and inverse
    checks pass, and every element but 0 would be a greedy generator.  A
    group has at most log2 n of them, so the scan stops there and the
    table is refused as not Latin, without n generator searches."""
    n = 2000
    T = np.zeros((n, n), dtype=np.int32)
    T[0], T[:, 0] = np.arange(n), np.arange(n)
    assert _verdict(T[:8, :8]) == _reference_verdict(T[:8, :8])
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="table is not a Latin square"):
        FiniteGroup(T)
    assert time.monotonic() - t0 < 10.0


def test_large_symmetric_groups_fail_fast():
    with pytest.raises(ValueError):
        make_symmetric(8)
    with pytest.raises(ValueError):
        make_alternating(8)
    with pytest.raises(ValueError):
        make_symmetric(9)


# -- constructors ------------------------------------------------------

def test_trivial_group():
    G = make_trivial()
    assert G.order == 1 and G.identity == 0 and G.exponent() == 1


def test_cyclic_basics(C6):
    assert C6.order == 6
    assert C6.is_abelian()
    assert C6.exponent() == 6
    assert sorted(int(x) for x in C6.element_orders()) == [1, 2, 3, 3, 6, 6]
    assert C6.cyclic_factors == (6,)
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_direct_product_structure(C2xC4):
    assert C2xC4.order == 8
    assert C2xC4.cyclic_factors == (2, 4)
    assert C2xC4.exponent() == 4
    # index convention: (a, b) -> a*4 + b
    assert C2xC4.mul(4, 1) == 5


def test_c2xc3_is_cyclic():
    G = direct_product(make_cyclic(2), make_cyclic(3))
    assert G.exponent() == 6 and G.order == 6


def test_symmetric_order_statistics(S3, S4):
    assert S3.order == 6 and S4.order == 24
    def stats(G):
        vals, counts = np.unique(G.element_orders(), return_counts=True)
        return dict(zip(map(int, vals), map(int, counts)))
    assert stats(S3) == {1: 1, 2: 3, 3: 2}
    assert stats(S4) == {1: 1, 2: 9, 3: 8, 4: 6}
    assert not S3.is_abelian()


def test_alternating_group(A4, A5):
    assert A4.order == 12 and A5.order == 60
    vals, counts = np.unique(A4.element_orders(), return_counts=True)
    assert dict(zip(map(int, vals), map(int, counts))) == {1: 1, 2: 3, 3: 8}


def test_handbuilt_dihedral_quaternion(D4, Q8):
    assert D4.order == 8 and Q8.order == 8
    assert not D4.is_abelian() and not Q8.is_abelian()
    assert D4.exponent() == 4 and Q8.exponent() == 4
    # Q8 has a unique element of order 2; D4 has five
    assert int((Q8.element_orders() == 2).sum()) == 1
    assert int((D4.element_orders() == 2).sum()) == 5


def _reference_orders(G):
    """One table step per power until every element reaches e."""
    ar = np.arange(G.order)
    cur = ar.copy()
    orders = np.zeros(G.order, dtype=np.int64)
    orders[G.identity] = 1
    k = 1
    while (orders == 0).any():
        k += 1
        cur = G.table[cur, ar]
        orders[(orders == 0) & (cur == G.identity)] = k
    return orders


def test_element_orders_match_stepwise_powers(test_universe, perm_groups):
    S7, A7 = perm_groups[2], perm_groups[5]
    for G in test_universe + [S7, A7, parse_group_spec("C10000")]:
        got, want = G.element_orders(), _reference_orders(G)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), G.label


def test_power_and_power_table(S4):
    rng = np.random.default_rng(0)
    P = S4.power_table(13)
    for g in rng.integers(0, 24, 20):
        acc = S4.identity
        for k in range(13):
            assert P[g, k] == acc
            assert S4.power(int(g), k) == acc
            acc = S4.mul(acc, int(g))
    assert S4.exponent() == 12


def test_negative_powers_are_inverses(S4):
    for g in range(S4.order):
        assert S4.power(g, -1) == S4.inverse[g]
        for k in range(1, 13):
            assert S4.mul(S4.power(g, k), S4.power(g, -k)) == S4.identity


# -- conjugacy and centralizers ---------------------------------------

def test_class_sizes(S3, S4, A4, D4, Q8):
    for G, sizes in ((S3, [1, 2, 3]), (S4, [1, 3, 6, 6, 8]),
                     (A4, [1, 3, 4, 4]), (D4, [1, 1, 2, 2, 2]),
                     (Q8, [1, 1, 2, 2, 2])):
        cc = conjugacy_classes(G)
        assert sorted(int(s) for s in cc.class_sizes) == sizes
        assert cc.count == len(sizes)


def test_class_data_consistency(test_universe):
    for G in test_universe:
        cc = conjugacy_classes(G)
        assert int(cc.class_sizes.sum()) == G.order
        for i in range(cc.count):
            rep = int(cc.representatives[i])
            assert cc.class_of[rep] == i
        # identity sits in its own class
        eclass = int(cc.class_of[G.identity])
        assert int(cc.class_sizes[eclass]) == 1
        assert int(cc.representatives[eclass]) == G.identity


def test_classes_match_definition(S4, A5, D4, Q8, C3):
    """Orbits under conjugation by the generators are the classes: each
    class is {h^-1 g h : h in G}, numbered by its least element."""
    back = np.roll(np.arange(24), -1)  # S4 with the identity renamed 23
    S4_relabeled = FiniteGroup(_relabeled(S4.table, np.argsort(back)))
    assert S4_relabeled.identity == 23
    for G in (S4, A5, D4, Q8, direct_product(make_symmetric(3), C3),
              S4_relabeled):
        T = G.table
        orbits = sorted({frozenset(int(T[T[G.inverse[h], g], h])
                                   for h in range(G.order))
                         for g in range(G.order)}, key=min)
        cc = conjugacy_classes(G)
        assert cc.count == len(orbits), G.label
        for i, orbit in enumerate(orbits):
            members = np.nonzero(cc.class_of == i)[0]
            assert set(members.tolist()) == orbit, G.label
            assert cc.representatives[i] == min(orbit)
            assert cc.class_sizes[i] == len(orbit)


def test_orbit_stabilizer(test_universe):
    for G in test_universe:
        cc = conjugacy_classes(G)
        for g in range(G.order):
            size = int(cc.class_sizes[cc.class_of[g]])
            assert size * len(centralizer(G, [g])) == G.order


def test_center_values(S3, A4, D4, Q8, C6):
    assert center(S3) == (S3.identity,)
    assert center(A4) == (A4.identity,)
    assert len(center(D4)) == 2
    assert center(Q8) == (0, 1)
    assert center(C6) == tuple(range(6))


def test_center_and_abelian_match_definitions(C2, C3, S3, S4, A4, D4, Q8):
    """Both are decided at the generators; the trivial group, whose
    generating sequence is empty, is its own center and abelian."""
    back = np.roll(np.arange(24), -1)  # S4 with the identity renamed 23
    S4_relabeled = FiniteGroup(_relabeled(S4.table, np.argsort(back)))
    assert S4_relabeled.identity == 23
    groups = [make_trivial(), S3, S4, A4, D4, Q8,
              direct_product(make_cyclic(4), C2), direct_product(S3, C3),
              S4_relabeled]
    for G in groups:
        T = G.table
        assert center(G) == tuple(
            g for g in range(G.order) if (T[g] == T[:, g]).all()), G.label
        assert G.is_abelian() == bool((T == T.T).all()), G.label
    assert center(groups[0]) == (0,) and groups[0].is_abelian()


def test_perm_group_tables_match_composition():
    """Rows gathered from earlier rows equal direct composition:
    table[i][j] is the index of p_i o p_j, lexicographic one-line order."""
    for m in range(1, 7):
        for make, even in ((make_symmetric, False), (make_alternating, True)):
            perms = [p for p in itertools.permutations(range(m))
                     if not even or sum(p[i] > p[j] for i in range(m)
                                        for j in range(i + 1, m)) % 2 == 0]
            pos = {p: i for i, p in enumerate(perms)}
            want = [[pos[tuple(p[x] for x in q)] for q in perms]
                    for p in perms]
            assert make(m).table.tolist() == want, (make.__name__, m)


def test_permutations_are_the_lexicographic_even_ones():
    for m in range(1, 6):
        perms = list(itertools.permutations(range(m)))
        even = [p for p in perms
                if sum(p[i] > p[j] for i in range(m)
                       for j in range(i + 1, m)) % 2 == 0]
        for name, want in (("S", perms), ("A", even)):
            got = group_core._permutations(name, m).tolist()
            assert got == [list(p) for p in want], (name, m)
        assert make_alternating(m).order == len(even)


def test_order_one_permutation_groups():
    for G, label in ((make_symmetric(1), "S1"), (make_alternating(1), "A1")):
        assert (G.order, G.label, G.table.tolist()) == (1, label, [[0]])


def test_centralizer_intersection(S3):
    # a transposition and a 3-cycle generate S3, centralizer is trivial
    orders = S3.element_orders()
    t = int(np.nonzero(orders == 2)[0][0])
    r = int(np.nonzero(orders == 3)[0][0])
    assert centralizer(S3, [t, r]) == (S3.identity,)
    assert len(centralizer(S3, [t])) == 2
    assert centralizer(S3, [S3.identity]) == tuple(range(6))


# -- subgroups ---------------------------------------------------------

def test_subgroup_embedding(S4):
    for seed in ([1], [1, 2], [5]):
        elems = centralizer(S4, seed)
        H, embed = subgroup(S4, elems)
        assert H.order == len(elems)
        assert list(embed) == sorted(embed)
        for a in range(H.order):
            for b in range(H.order):
                assert embed[H.table[a, b]] == S4.table[embed[a], embed[b]]
    # all of G is G itself, not a re-validated copy
    H, embed = subgroup(S4, range(S4.order))
    assert H is S4 and list(embed) == list(range(S4.order))


@pytest.mark.parametrize("call", [
    lambda: subgroup(make_cyclic(4), [0, -2]),
    lambda: subgroup(make_cyclic(4), [0, 4]),
    lambda: centralizer(make_symmetric(3), [-1]),
    lambda: make_cyclic(4).mul(-1, 1),
    lambda: make_cyclic(4).mul(1, 4),
    lambda: make_cyclic(4).power(-1, 1),
    lambda: GroupHom(make_cyclic(4), make_cyclic(4), [0, 1, 2, 3])(-1),
    lambda: Cochain.zero(make_cyclic(4), 2, 4)(-1, 2),
], ids=["subgroup", "subgroup-high", "centralizer", "mul", "mul-high",
        "power", "hom", "cochain"])
def test_element_index_out_of_range_is_refused(call):
    # numpy would read a negative index from the end of the table
    with pytest.raises(ValueError, match=r"element index (-1|-2|4) out"):
        call()


def test_subgroup_rejects_non_closed(S3):
    orders = S3.element_orders()
    t = int(np.nonzero(orders == 2)[0][0])
    r = int(np.nonzero(orders == 3)[0][0])
    with pytest.raises(ValueError):
        subgroup(S3, [S3.identity, t, r])


def test_quotient_rejects_non_subgroups(S3):
    """The exact texts refusing a subset that is not a subgroup, written
    for quotients first; `subgroup` is now their one source."""
    orders = S3.element_orders()
    t = int(np.nonzero(orders == 2)[0][0])
    r = int(np.nonzero(orders == 3)[0][0])
    with pytest.raises(ValueError,
                       match="^subset does not contain the identity$"):
        subgroup(S3, [t])
    elems = (S3.identity, t, r)
    a, b = min((a, b) for a in elems for b in elems
               if S3.table[a, b] not in elems)
    with pytest.raises(ValueError, match=(
            rf"^subset not closed: {a}\*{b} falls outside it$")):
        subgroup(S3, list(elems))


def test_generating_sequence(test_universe):
    for G in test_universe:
        gens = generating_sequence(G)
        got = {G.identity}
        frontier = [G.identity]
        for g in gens:
            if g not in got:
                got.add(g)
                frontier.append(g)
        while frontier:
            nxt = []
            for a in list(got):
                for b in frontier:
                    for c in (G.mul(a, b), G.mul(b, a)):
                        if c not in got:
                            got.add(c)
                            nxt.append(c)
            frontier = nxt
        assert len(got) == G.order
        assert len(gens) <= max(1, G.order.bit_length())


def _generated(G, gens):
    """Mask of the closure of {e} under right multiplication by gens."""
    reached = np.zeros(G.order, dtype=bool)
    reached[G.identity] = True
    while True:
        grown = reached.copy()
        grown[G.table[np.ix_(np.nonzero(reached)[0], gens)]] = True
        if np.array_equal(grown, reached):
            return reached
        reached = grown


@pytest.fixture(scope="module")
def perm_groups(S5, A5):
    """S5, S6, S7, A5, A6, A7."""
    return [S5, make_symmetric(6), make_symmetric(7),
            A5, make_alternating(6), make_alternating(7)]


def test_short_generators(test_universe, perm_groups):
    """The short set generates G, is never longer than the greedy
    sequence, and has two elements on S4-S7 and A5-A7.  S3xC2xC2 needs
    three generators, and no candidate pair generates the centralizers
    of order 48 in S7, so those keep the greedy sequence."""
    S7 = perm_groups[2]
    centralizers = [subgroup(S7, centralizer(S7, [int(r)]))[0]
                    for r in conjugacy_classes(S7).representatives]
    S3xC2xC2 = direct_product(make_symmetric(3),
                              direct_product(make_cyclic(2), make_cyclic(2)))
    kept = []
    for G in test_universe + perm_groups + centralizers + [S3xC2xC2]:
        short, gens = _short_generators(G), generating_sequence(G)
        assert _generated(G, short).all(), G.label
        assert len(short) <= len(gens)
        if G.label in ("S4", "S5", "S6", "S7", "A5", "A6", "A7"):
            assert len(short) == 2, G.label
        if len(gens) > 2 and not G.is_abelian():
            assert len(short) == 2 or short == gens
            if short == gens:
                kept.append(G.order)
    assert kept == [48, 48, 24]


def test_light_test_on_s7_runs_two_slabs(monkeypatch):
    slabs = []
    real = group_core._failure_certificate

    def counting(G, slab):
        def counted(g):
            slabs.append(g)
            return slab(g)
        return real(G, counted)

    monkeypatch.setattr(group_core, "_failure_certificate", counting)
    S7 = make_symmetric(7)
    assert slabs == _short_generators(S7)
    assert len(slabs) == 2 < len(generating_sequence(S7)) == 6


def test_hom_checks_past_the_short_generators(S4):
    """Maps multiplicative at every s of H = {0..5} = <1, 2> but not on
    S4: failures that the short set {1, c} of S4 sees only at c."""
    T = S4.table
    # phi(r a) = y_r a on the left cosets r H, with y_e = e
    rng = np.random.default_rng(24)
    H = list(range(6))
    reps = sorted({int(T[g, H].min()) for g in range(S4.order)})
    for _ in range(10):
        y = {r: (int(rng.integers(0, S4.order)) if r else 0) for r in reps}
        phi = np.empty(S4.order, dtype=np.int32)
        for r in reps:
            phi[T[r, H]] = T[y[r], H]
        assert all(phi[T[g, s]] == T[phi[g], phi[s]]
                   for g in range(S4.order) for s in H)
        definition = np.array_equal(
            phi[T], T[phi[:, None], phi[None, :]])
        assert _is_hom(S4, S4, phi) == definition
        if not definition:
            with pytest.raises(ValueError,
                               match="^images do not define a homomorphism$"):
                GroupHom(S4, S4, phi)


# -- homomorphisms -----------------------------------------------------

def test_hom_validation(S3, C2):
    with pytest.raises(ValueError):
        GroupHom(C2, S3, [0, 0, 0])  # wrong length
    with pytest.raises(ValueError):
        GroupHom(C2, S3, [1, 0])  # identity not preserved
    with pytest.raises(ValueError):
        GroupHom(S3, C2, [0, 1, 1, 1, 1, 0])  # not multiplicative
    a = GroupHom(C2, C2, [0, 1])
    assert a(1) == 1 and a(0) == 0


@pytest.mark.parametrize("images", [
    np.array([0, 2 ** 32 + 1]),  # was cast to [0 1]: the identity map
    [0, 2 ** 32 + 1],            # was a bare OverflowError
    np.array([0, 2 ** 16 + 1]),  # would wrap to 1 in int16
    [0, -1],
    [0, 2 ** 64],                # past int64: an object array
    [0, 1.0],
])
def test_hom_images_out_of_range(C2, images):
    with pytest.raises(ValueError, match=r"^images must be integers in "
                                         r"range\(0, 2\)$"):
        GroupHom(C2, C2, images)


def test_hom_check_matches_definition(S3, S4, C2xC4, D4):
    """The check at the generators agrees with phi(gh) = phi(g)phi(h) on
    all n^2 pairs, on homomorphisms, one-entry changes of them and
    random image arrays."""
    rng = np.random.default_rng(5)
    for G, H in ((S3, C2xC4), (S4, S3), (C2xC4, D4), (D4, S4), (S4, S4)):
        homs = [h.images for h in enumerate_homomorphisms(G, H)]
        arrays = []
        for phi in homs[:10]:
            arrays.append(phi)
            changed = phi.copy()
            x = int(rng.integers(1, G.order))
            changed[x] = (changed[x] + int(rng.integers(1, H.order))) % H.order
            arrays.append(changed)
        for _ in range(20):
            phi = rng.integers(0, H.order, G.order).astype(np.int32)
            phi[G.identity] = H.identity
            arrays.append(phi)
        # multiplicative at the first generator s only: phi(r s^i) =
        # phi(r) h^i from random phi(r) on coset representatives r
        s, = generating_sequence(G)[:1]
        for h in np.nonzero(G.element_orders()[s] % H.element_orders() == 0)[0]:
            phi = np.full(G.order, -1, dtype=np.int32)
            for r in range(G.order):
                x, y = r, (int(rng.integers(0, H.order)) if r else H.identity)
                while phi[x] < 0:
                    phi[x], x, y = y, G.mul(x, s), H.mul(y, int(h))
            arrays.append(phi)
        verdicts = set()
        for phi in arrays:
            definition = np.array_equal(
                phi[G.table], H.table[phi[:, None], phi[None, :]])
            assert _is_hom(G, H, phi) == definition
            verdicts.add(definition)
        assert verdicts == {True, False}


def test_hom_counts(S3, C2, C6, C2xC2, D4, Q8):
    assert len(enumerate_homomorphisms(C2, S3)) == 4
    assert len(enumerate_homomorphisms(S3, S3)) == 10
    assert len(enumerate_homomorphisms(C6, C6)) == 6
    assert len(enumerate_homomorphisms(S3, C2)) == 2
    assert len(enumerate_homomorphisms(D4, C2)) == 4
    assert len(enumerate_homomorphisms(Q8, C2)) == 4
    assert len(enumerate_homomorphisms(C2xC2, C2xC2)) == 16
    assert len(enumerate_homomorphisms(make_trivial(), S3)) == 1


def test_hom_enumeration_refuses_past_its_bound(monkeypatch, C2xC2):
    monkeypatch.setattr(group_core, "MAX_HOMS", 16)
    assert len(enumerate_homomorphisms(C2xC2, C2xC2)) == 16
    monkeypatch.setattr(group_core, "MAX_HOMS", 15)
    with pytest.raises(ValueError, match="more than 15 homomorphisms"):
        enumerate_homomorphisms(C2xC2, C2xC2)


def test_hom_enumeration_matches_brute_force(test_universe):
    """On every pair of the test universe ((A4, A4) and (S4, S4) among
    them) the list is the brute-force scan of every tuple of images of
    the greedy generators, in its lexicographic order; where scanning
    every map G -> H is cheap, that scan finds the same homs."""
    for G, H in itertools.product(test_universe, repeat=2):
        got = [h.key() for h in enumerate_homomorphisms(G, H)]
        want = brute_force_hom_images(G, H, gens=generating_sequence(G))
        assert got == want, (G.label, H.label)
        if H.order ** G.order <= 10 ** 5:
            assert set(got) == set(brute_force_hom_images(G, H))


def test_each_enumerated_candidate_verified_once(monkeypatch, S3, S4, D4):
    """Every candidate, a tuple of generator images passing the order
    filters, goes through one batched `_is_hom` call exactly once, in
    lexicographic order, and the list is the candidates that pass."""
    checked = []
    real = group_core._is_hom

    def recording(G, H, images):
        checked.extend(tuple(int(x) for x in row)
                       for row in np.atleast_2d(images))
        return real(G, H, images)

    monkeypatch.setattr(group_core, "_is_hom", recording)
    for G, H in ((S3, S3), (S4, S3), (D4, S4)):
        checked.clear()
        homs = enumerate_homomorphisms(G, H)
        gens = generating_sequence(G)
        ordG, ordH = G.element_orders(), H.element_orders()
        candidates = [
            c for c in itertools.product(range(H.order), repeat=len(gens))
            if all(ordG[g] % ordH[x] == 0 for g, x in zip(gens, c))
            and all(ordG[G.mul(gens[a], gens[b])] % ordH[H.mul(c[a], c[b])]
                    == 0 for a in range(len(gens)) for b in range(len(gens))
                    if a != b)]
        assert [tuple(key[g] for g in gens) for key in checked] == candidates
        assert len(checked) == len(set(checked))
        assert [h.key() for h in homs] == [
            key for key in checked
            if np.array_equal(np.array(key)[G.table],
                              H.table[np.ix_(key, key)])]


def test_batched_hom_check_and_refusal(S3, S4):
    """`_is_hom` on a stack gives each row's verdict, and `GroupHom`
    still refuses a map that the batches reject."""
    rng = np.random.default_rng(12)
    homs = np.array([h.images for h in enumerate_homomorphisms(S4, S3)])
    rows = rng.integers(0, S3.order, (40, S4.order)).astype(np.int32)
    rows[:, S4.identity] = S3.identity
    stack = np.concatenate([homs, rows]).reshape(2, -1, S4.order)
    verdicts = _is_hom(S4, S3, stack)
    assert verdicts.shape == stack.shape[:2]
    assert verdicts.tolist() == [[bool(_is_hom(S4, S3, r)) for r in half]
                                 for half in stack]
    assert verdicts.reshape(-1)[:len(homs)].all()
    bad = next(r for r, ok in zip(stack.reshape(-1, S4.order),
                                  verdicts.reshape(-1)) if not ok)
    with pytest.raises(ValueError,
                       match="^images do not define a homomorphism$"):
        GroupHom(S4, S3, bad)


def test_hom_enumeration_memory_is_bounded(monkeypatch):
    """Iterating the batches holds a bounded number of cells: with the
    budget lowered to 2^12 cells, 16 times the candidates (8^4 against
    16^4, all of them homs) leave the peak where it was; at the default
    budget the peak stays far below the 16 MB that checking all 16^4
    candidates at once would take."""
    G = parse_group_spec("C2xC2xC2xC2")

    def peaks():
        out = []
        for H in (parse_group_spec("C2xC2xC2"), G):
            tracemalloc.start()
            count = sum(len(batch) for batch in _hom_batches(G, H))
            out.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert count == H.order ** 4
        return out

    assert peaks()[1] < 8 * 2 ** 20
    monkeypatch.setattr(group_core, "_BLOCK_CELLS", 2 ** 12)
    few, many = peaks()
    assert many < 1.25 * few


# -- abelian invariants ------------------------------------------------

def _invariants(G):
    """Invariant factors of an abelian G, read as those of Hom(G, Z/e)
    at e = exp(G), which is isomorphic to G.  kernel_of_characteristic
    reads only the group and the modulus of its category, so this needs
    no degree-3 cochain, which is bounded at order 128."""
    return kernel_of_characteristic(
        SimpleNamespace(group=G, modulus=G.exponent()))


def test_abelian_invariants_values(C6, C2xC4, C2cubed, S3):
    assert _invariants(C6) == (6,)
    assert _invariants(C2xC4) == (2, 4)
    assert _invariants(C2cubed) == (2, 2, 2)
    assert _invariants(make_trivial()) == ()
    assert _invariants(
        direct_product(make_cyclic(2), make_cyclic(3))) == (6,)
    assert _invariants(
        direct_product(make_cyclic(4), make_cyclic(6))) == (2, 12)
    for spec, factors in (("C4xC6xC9", (6, 36)), ("C2xC8xC4", (2, 4, 8)),
                          ("C12xC18", (6, 36)), ("C2xC3xC4xC5", (2, 60))):
        assert _invariants(parse_group_spec(spec)) == factors
    # on a non-abelian group the characters see only G / [G, G]
    assert _invariants(S3) == (2,)


def test_abelian_invariants_chain(test_universe):
    for G in test_universe:
        if not G.is_abelian():
            continue
        inv = _invariants(G)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        assert math.prod(inv) == G.order


# -- serialization -----------------------------------------------------

def test_group_json_round_trip(S3):
    data = {"order": 6, "table": S3.table.tolist(), "label": "S3"}
    G, relabel = group_from_json(data)
    assert relabel is None
    assert np.array_equal(G.table, S3.table)
    assert G.label == "S3"


def test_group_json_normalizes_identity():
    # C2 written with the identity at index 1
    data = {"order": 2, "table": [[1, 0], [0, 1]]}
    G, relabel = group_from_json(data)
    assert G.identity == 0
    assert relabel is not None
    assert G.relabeling is not None


def test_group_json_errors():
    with pytest.raises(ValueError, match="missing"):
        group_from_json({"order": 2})
    with pytest.raises(ValueError, match="shape"):
        group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(ValueError):
        group_from_json({"order": 0, "table": []})
    with pytest.raises(ValueError, match="bad group order True"):
        group_from_json({"order": True, "table": [[0]]})  # was C1
    with pytest.raises(ValueError):
        group_from_json([[0]])


def test_load_group_file(tmp_path, C6):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"order": 6, "table": C6.table.tolist()}))
    G, relabel = load_group(str(path))
    assert G.order == 6 and relabel is None


def test_parse_group_spec(tmp_path):
    assert parse_group_spec("C6").order == 6
    G = parse_group_spec("C2xC2xC2")
    assert G.order == 8 and G.cyclic_factors == (2, 2, 2)
    assert G.label == "C2xC2xC2"
    assert parse_group_spec("S4").order == 24
    assert parse_group_spec("A4").order == 12
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"order": 2, "table": [[0, 1], [1, 0]], "label": "two"}))
    assert parse_group_spec(f"file:{path}").order == 2
    for bad in ("X9", "C", "C2x", "S3xC2", ""):
        with pytest.raises(ValueError):
            parse_group_spec(bad)
