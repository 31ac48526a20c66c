"""Independent brute-force oracles for the test suite.

The main one enumerates half-braiding families on a graded object
directly from the hexagon constraint, with no use of the library's
twisted-algebra or cohomology machinery.  All arithmetic is exact:
matrices are monomial over the group of M-th roots of unity, stored as
(permutation, exponent-vector) pairs, and traces are compared after
reduction modulo the M-th cyclotomic polynomial.

Derivation used here (from the hexagon alone).  Write X_g for the
simple of grade g, omega for the associator exponents, and for a
central object P = sum over a class C of X_g tensor V_g let
p_g(h): V_g -> V_{h^-1 g h} be the matrix part of the half-braiding
against X_h.  Chasing basis vectors through the two sides of
p(M tensor N) = (id tensor p(N)) o (p(M) tensor id) with the three
associators inserted gives

    p_g(hk) = zeta^{t(g;h,k)} p_{g^h}(k) p_g(h),
    t(g;h,k) = -omega(g,h,k) + omega(h,g^h,k) - omega(h,k,g^{hk}),

with g^h = h^-1 g h, plus p_g(e) = I.  Every family is isomorphic to a
framed one (p_{g0}(t_x) = I for a fixed transversal t_x conjugating the
class representative g0 to x), the framed family is determined by
A(s) = p_{g0}(s) on the centralizer S of g0, and the residual freedom
is simultaneous conjugation of the A(s) by one invertible matrix.  The
enumeration below walks all A valued in monomial matrices over mu_M,
M = N * exponent(S); that is exhaustive for multiplicity <= 2 (any
1-dim solution phi has phi^N a character of S, so phi takes values in
mu_M; a 2-dim solution is either a sum of two such or an irreducible
module over a central extension of S of order N|S| < 24, and every
group of order < 24 is monomial with entries in mu_{exponent} and the
exponent of the extension divides M).  Each surviving candidate is
reconstructed to the full family and the raw hexagon is re-verified on
every (g in C, h, k) triple, so the reduction above is a search
strategy, not a trusted step.  Isomorphism classes are counted by
trace fingerprints: solutions of the S-level equations are semisimple
module structures, and those are conjugate iff their traces agree.

Classes never mix: the half-braiding and any morphism of central
objects both preserve the grade decomposition by conjugacy class, so
the count for a multi-class multiplicity vector is the product of the
per-class counts.
"""

import itertools

import numpy as np

from zcenter.group_core import FiniteGroup, conjugacy_classes


# -- exact monomial matrices over mu_M --------------------------------
# (perm, diag): matrix D P with P[i, j] = [j == perm[i]], D = diag(zeta^d).

def mono_identity(m):
    return (tuple(range(m)), (0,) * m)


def mono_mul(a, b, M):
    """Matrix product a . b."""
    sa, da = a
    sb, db = b
    m = len(sa)
    perm = tuple(sb[sa[i]] for i in range(m))
    diag = tuple((da[i] + db[sa[i]]) % M for i in range(m))
    return (perm, diag)


def mono_scale(exp, a, M):
    sa, da = a
    return (sa, tuple((x + exp) % M for x in da))


def cyclotomic(M):
    """Coefficients of the M-th cyclotomic polynomial, low degree first."""
    # Phi_M = (x^M - 1) / prod of Phi_d over proper divisors d
    poly = [0] * M + [1]
    poly[0] = -1
    for d in range(1, M):
        if M % d:
            continue
        phi_d = cyclotomic(d) if d > 1 else [-1, 1]
        poly = _polydiv_exact(poly, phi_d)
    return poly


def _polydiv_exact(num, den):
    """Exact quotient of integer polynomials (den monic up to sign, exact division)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        q, r = divmod(num[i], lead)
        assert r == 0
        out[i - dd] = q
        for j in range(dd + 1):
            num[i - dd + j] -= q * den[j]
    assert not any(num), "division was not exact"
    return out


def _polyrem(coeffs, phi):
    """Remainder of an integer polynomial modulo monic phi."""
    num = list(coeffs)
    dd = len(phi) - 1
    while len(num) > dd:
        c = num.pop()
        if c:
            for j in range(dd):
                num[len(num) - dd + j] -= c * phi[j]
    return tuple(num + [0] * (dd - len(num)))


def mono_trace_counts(a, M):
    sa, da = a
    counts = [0] * M
    for i, j in enumerate(sa):
        if i == j:
            counts[da[i]] += 1
    return counts


class _Fingerprints:
    def __init__(self, M):
        self.M = M
        self.phi = cyclotomic(M)

    def trace(self, mat):
        return _polyrem(mono_trace_counts(mat, self.M), self.phi)

    def of_family(self, A, order):
        return tuple(self.trace(A[s]) for s in order)


# -- raw-table group helpers (kept independent of the library) ---------

def _local_closure(T, seed, identity):
    got = {identity}
    frontier = list(set(seed) | {identity})
    while frontier:
        nxt = []
        for a in list(got):
            for b in frontier:
                for c in (T[a][b], T[b][a]):
                    c = int(c)
                    if c not in got:
                        got.add(c)
                        nxt.append(c)
        frontier = nxt
    return got


def _local_gens(T, elements, identity):
    gens = []
    closed = {identity}
    for s in elements:
        if s not in closed:
            gens.append(s)
            closed = _local_closure(T, gens, identity)
    return gens


# -- the enumeration ---------------------------------------------------

_CLASS_COUNT_CACHE = {}


def halfbraiding_class_count(G: FiniteGroup, omega, class_index: int,
                             mult: int) -> int:
    """Number of iso classes of half-braiding families on the class sum
    of class_index with every grade of multiplicity mult."""
    if mult == 0:
        return 1
    if mult > 2:
        raise ValueError("oracle is exhaustive only for multiplicity <= 2")
    key = (id(G), omega.dense.tobytes(), omega.modulus, class_index, mult)
    if key in _CLASS_COUNT_CACHE:
        return _CLASS_COUNT_CACHE[key]

    T = [[int(x) for x in row] for row in G.table]
    inv = [int(x) for x in G.inverse]
    e = G.identity
    n = G.order
    N = omega.modulus
    W = omega.dense

    cc = conjugacy_classes(G)
    g0 = int(cc.representatives[class_index])

    def cj(g, h):
        return T[T[inv[h]][g]][h]

    cls_elems = sorted({cj(g0, t) for t in range(n)})
    S = [s for s in range(n) if T[s][g0] == T[g0][s]]
    exp_S = 1
    for s in S:
        o, p = 1, s
        while p != e:
            p = T[p][s]
            o += 1
        exp_S = exp_S * o // np.gcd(exp_S, o)
    M = N * exp_S
    lift = M // N  # embed Z/N scalars into Z/M

    # transversal: t_x conjugates g0 to x, with t_{g0} = e
    trans = {}
    for x in cls_elems:
        trans[x] = e if x == g0 else next(
            t for t in range(n) if cj(g0, t) == x)

    def t_exp(g, h, k):
        gh = cj(g, h)
        ghk = cj(g, T[h][k])
        val = -int(W[g, h, k]) + int(W[h, gh, k]) - int(W[h, k, ghk])
        return (val * lift) % M

    gens = _local_gens(T, S, e)
    ident = mono_identity(mult)

    def close(assign):
        """Fixed-point closure of the partial family under the S-level
        rule A(uv) = zeta^{t(g0;u,v)} A(v) A(u); None on conflict."""
        A = dict(assign)
        changed = True
        while changed:
            changed = False
            known = list(A.items())
            for u, Au in known:
                for v, Av in known:
                    w = T[u][v]
                    val = mono_scale(t_exp(g0, u, v), mono_mul(Av, Au, M), M)
                    if w in A:
                        if A[w] != val:
                            return None
                    else:
                        A[w] = val
                        changed = True
        return A

    if mult == 1:
        candidates = [((0,), (d,)) for d in range(M)]
    else:
        candidates = [(perm, d)
                      for perm in ((0, 1), (1, 0))
                      for d in itertools.product(range(M), repeat=2)]

    solutions = []

    def dfs(level, assign):
        if level == len(gens):
            if len(assign) == len(S):
                solutions.append(assign)
            return
        g = gens[level]
        for cand in candidates:
            trial = dict(assign)
            trial[g] = cand
            closed = close(trial)
            if closed is not None:
                dfs(level + 1, closed)

    dfs(0, close({e: ident}))

    fps = _Fingerprints(M)
    order = sorted(S)
    verified = set()
    seen_bad = set()
    for A in solutions:
        fp = fps.of_family(A, order)
        if fp in verified or fp in seen_bad:
            continue
        if _full_hexagon_ok(A, T, inv, W, N, M, lift, g0, cls_elems, trans,
                            S, t_exp, cj, mult):
            verified.add(fp)
        else:
            seen_bad.add(fp)
    count = len(verified)
    _CLASS_COUNT_CACHE[key] = count
    return count


def _full_hexagon_ok(A, T, inv, W, N, M, lift, g0, cls_elems, trans, S,
                     t_exp, cj, mult):
    """Reconstruct the full family from A and check the hexagon on every
    (g in class, h, k) triple plus the unit constraint."""
    n = len(T)
    Sset = set(S)
    inv_trans = {x: inv[trans[x]] for x in cls_elems}

    def p_g0(w):
        xp = cj(g0, w)
        sp = T[w][inv_trans[xp]]
        assert sp in Sset
        return mono_scale(t_exp(g0, sp, trans[xp]), A[sp], M)

    p = {}
    for x in cls_elems:
        tx = trans[x]
        row = []
        for h in range(n):
            val = mono_scale((-t_exp(g0, tx, h)) % M, p_g0(T[tx][h]), M)
            row.append(val)
        p[x] = row

    ident = mono_identity(mult)
    e = None
    for g in range(n):
        if T[g][g] == g:
            e = g
            break
    for x in cls_elems:
        if p[x][e] != ident:
            return False
    for g in cls_elems:
        for h in range(n):
            gh = cj(g, h)
            ph = p[g][h]
            for k in range(n):
                lhs = p[g][T[h][k]]
                rhs = mono_scale(t_exp(g, h, k),
                                 mono_mul(p[gh][k], ph, M), M)
                if lhs != rhs:
                    return False
    return True


def oracle_lift_count(G: FiniteGroup, omega, multiplicities) -> int:
    """Iso classes of central objects with the given per-class grades."""
    total = 1
    for i, a in enumerate(multiplicities):
        if a:
            total *= halfbraiding_class_count(G, omega, i, a)
            if not total:
                return 0
    return total


# -- exhaustive homomorphism oracle ------------------------------------

def brute_force_hom_images(G: FiniteGroup, H: FiniteGroup, gens=None):
    """All hom image arrays by scanning every function G -> H.

    With `gens`, a generating set of G, it scans instead every tuple of
    their images in H, in lexicographic order: each extends along words
    in `gens` (found by a plain queue) to one function, kept if it
    satisfies phi(gh) = phi(g)phi(h) on all |G|^2 pairs.  A hom is
    determined by its images at generators, so this too finds every
    hom, in lexicographic order of those images.
    """
    n, m = G.order, H.order
    TG, TH = G.table, H.table
    if gens is not None:
        word = {G.identity: None}  # element -> (prefix element, gen index)
        queue = [G.identity]
        for x in queue:
            for i, s in enumerate(gens):
                y = int(TG[x, s])
                if y not in word:
                    word[y] = (x, i)
                    queue.append(y)
        assert len(word) == n, "gens do not generate G"
        k = len(gens)
        tuples = np.array(list(itertools.product(range(m), repeat=k)),
                          dtype=np.int32).reshape(m ** k, k)
        F = np.empty((len(tuples), n), dtype=np.int32)
        F[:, G.identity] = H.identity
        for y in queue[1:]:
            x, i = word[y]
            F[:, y] = TH[F[:, x], tuples[:, i]]
        ok = np.ones(len(F), dtype=bool)
        for g in range(n):
            ok &= (TH[F[:, g, None], F] == F[:, TG[g]]).all(axis=1)
        return [tuple(int(x) for x in row) for row in F[ok]]
    total = m ** n
    if total > 2 * 10 ** 6:
        raise ValueError(f"{total} candidate maps is too many to scan")
    F = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int32)
    ok = np.ones(len(F), dtype=bool)
    for g in range(n):
        for h in range(n):
            ok &= TH[F[:, g], F[:, h]] == F[:, TG[g, h]]
    return [tuple(int(x) for x in row) for row in F[ok]]
