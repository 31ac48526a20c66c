"""Exact modular linear solver, checked against exhaustive search."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import augmented
from zcenter.group_core import _prime_factors
from zcenter.snf import (MAX_MODULUS, _prime_power_echelons, _row_basis_mod_p,
                         solve_modular_linear)


def solve(A, b, N):
    """Solve A x = b (mod N) through the solver's augmented rows."""
    return solve_modular_linear(augmented(A, b, N), N)


def brute_solvable(A, b, N):
    cols = len(A[0]) if A else 0
    for x in itertools.product(range(N), repeat=cols):
        if all(sum(a * xi for a, xi in zip(row, x)) % N == r % N
               for row, r in zip(A, b)):
            return True
    return False


def check_witness(A, b, N, x):
    assert x is not None
    assert all(v % N == v for v in x)
    for row, r in zip(A, b):
        assert sum(a * xi for a, xi in zip(row, x)) % N == r % N


def test_small_random_grid():
    rng = np.random.default_rng(42)
    for trial in range(60):
        N = int(rng.integers(2, 13))
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 4))
        A = rng.integers(-10, 10, size=(rows, cols)).tolist()
        b = rng.integers(-10, 10, size=rows).tolist()
        x = solve(A, b, N)
        if x is None:
            assert not brute_solvable(A, b, N)
        else:
            check_witness(A, b, N, x)


def test_known_instances():
    # 2x = 1 mod 4 has no solution; 2x = 2 mod 4 does
    assert solve([[2]], [1], 4) is None
    x = solve([[2]], [2], 4)
    check_witness([[2]], [2], 4, x)
    # inconsistent pair
    assert solve([[1], [1]], [0, 1], 5) is None
    # underdetermined
    x = solve([[1, 1]], [3], 7)
    check_witness([[1, 1]], [3], 7, x)


def test_modulus_one_always_solvable():
    x = solve([[3, 1], [2, 2]], [5, 7], 1)
    assert x == [0, 0]


def test_degenerate_shapes():
    assert solve([], [], 6) == []
    x = solve([[0, 0]], [0], 6)
    check_witness([[0, 0]], [0], 6, x)
    assert solve([[0]], [3], 6) is None
    # zero row with zero rhs and a live row
    x = solve([[0], [2]], [0, 4], 6)
    check_witness([[0], [2]], [0, 4], 6, x)
    # no equations in three unknowns: the zero solution
    assert solve(np.zeros((0, 3), dtype=np.int64), [], 5) == [0, 0, 0]


def test_large_entries_stay_exact():
    A = [[10 ** 12 + 7, -(10 ** 9)], [3, 10 ** 15]]
    b = [123456789, -987654321]
    N = 997
    x = solve(A, b, N)
    if x is not None:
        check_witness(A, b, N, x)
    # compare against brute force on the reduced system
    Ar = [[a % N for a in row] for row in A]
    br = [v % N for v in b]
    xr = solve(Ar, br, N)
    assert (x is None) == (xr is None)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9),
       st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2),
                min_size=1, max_size=3),
       st.lists(st.integers(0, 8), min_size=1, max_size=3))
def test_planted_solutions_found(N, A, xs):
    """If b is built from a known x0, the solver must report solvable."""
    x0 = [xs[0] % N, xs[-1] % N]
    b = [sum(a * xi for a, xi in zip(row, x0)) % N for row in A]
    x = solve(A, b, N)
    check_witness(A, b, N, x)


def test_non_unit_pivot():
    # mod 4 the unit 1 must be the pivot: x2 = 1 - 2 x1 solves the first
    # system, while 2 x1 + 2 x2 is always even in the second
    x = solve([[2, 1]], [1], 4)
    check_witness([[2, 1]], [1], 4, x)
    assert solve([[2, 2]], [1], 4) is None


def test_prime_power_moduli_against_brute_force():
    rng = np.random.default_rng(7)
    for N in (4, 8, 9, 12, 16, 18, 36):
        for trial in range(25):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 4))
            # non-unit entries are common: multiples of the primes of N
            A = (rng.integers(0, N, size=(rows, cols))
                 * rng.choice([1, 2, 3, 4, 6], size=(rows, cols))).tolist()
            b = rng.integers(0, N, size=rows).tolist()
            X = np.array(list(itertools.product(range(N), repeat=cols)))
            hits = ((np.array(A) @ X.T - np.array(b)[:, None]) % N == 0)
            x = solve(A, b, N)
            if x is None:
                assert not hits.all(axis=0).any(), (N, A, b)
            else:
                check_witness(A, b, N, x)


def _rhs(A, x0, N):
    """A x0 mod N in exact Python integers."""
    return [sum(int(a) * int(v) for a, v in zip(row, x0)) % N for row in A]


def test_planted_system_near_the_modulus_bound():
    N = MAX_MODULUS - 1
    rng = np.random.default_rng(3)
    A = rng.integers(0, N, size=(60, 40))
    b = _rhs(A, rng.integers(0, N, size=40), N)
    x = solve(A, b, N)
    check_witness(A.tolist(), b, N, x)


def test_planted_composite_system_and_inconsistent_copy():
    N = 72
    rng = np.random.default_rng(5)
    # columns scaled by non-units, so pivots have positive valuation
    A = rng.integers(0, N, size=(200, 40)) * rng.choice(
        [1, 2, 3, 4, 6, 8, 9, 12], size=40) % N
    # 100 more rows, each a combination of the first 200
    A = np.concatenate([A, rng.integers(0, N, size=(100, 200)) @ A % N])
    b = _rhs(A, rng.integers(0, N, size=40), N)
    x = solve(A, b, N)
    check_witness(A.tolist(), b, N, x)
    # a dependent row with a shifted right-hand side contradicts the rows
    # it combines, so the perturbed copy has no solution
    b[250] = (b[250] + 1) % N
    assert solve(A, b, N) is None


def test_modulus_bound():
    rows = augmented([[1]], [1], 5)
    with pytest.raises(ValueError, match=str(MAX_MODULUS)):
        solve_modular_linear(rows, MAX_MODULUS)
    with pytest.raises(ValueError, match="modulus"):
        solve_modular_linear(rows, 0)


@pytest.mark.parametrize("N", [1, 2, 8, 12, 72, 2 ** 31 - 1, 2 ** 31 - 2])
def test_prime_power_echelons_split_the_modulus(N):
    """One prime power q exactly dividing N each, whose product is N; the
    rows themselves are eliminated when N is a prime power."""
    M = np.zeros((0, 1), dtype=np.int64)
    qs = []
    for q, Mq, found in _prime_power_echelons(M, N):
        assert len(_prime_factors(q)) == 1 and math.gcd(q, N // q) == 1
        assert (Mq is M) == (q == N) and found[0] == 0
        qs.append(q)
    assert len(set(qs)) == len(qs)
    assert math.prod(qs) == N


# -- row bases over F_p ------------------------------------------------

def _rank_mod_p(M, p):
    return len(_row_basis_mod_p(M, p)[0])


@pytest.mark.parametrize("p", [2, 3, 1048573])
def test_row_basis_and_kernel_mod_p(p):
    """Seeded matrices of rank at most r, as products of m x r and r x n
    factors; 1048573 is the largest Dixon prime below the bound."""
    rng = np.random.default_rng(p)
    for trial in range(40):
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        M = (rng.integers(0, p, size=(m, r))
             @ rng.integers(0, p, size=(r, n)) % p)
        B, pivots = _row_basis_mod_p(M, p)
        assert (B[:, pivots] == np.eye(len(B), dtype=np.int64)).all()
        assert len(B) <= r
        assert _rank_mod_p(np.vstack([B, M]), p) == len(B)
        if p < 5 and n <= 6:
            # M's kernel has p^(n - rank M) vectors, so this pins the rank
            X = np.array(list(itertools.product(range(p), repeat=n)))
            zeros = (~(M @ X.T % p).any(axis=0)).sum()
            assert zeros == p ** (n - len(B))
