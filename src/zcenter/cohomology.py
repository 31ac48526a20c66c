"""Normalized group cochains with values in Z/N.

Roots of unity are modeled additively: the residue v in Z/N stands for
zeta^v with zeta a fixed primitive N-th root.  Cochains are normalized
(zero whenever an argument is the identity) and the coboundary is the
bar differential with trivial action.  Cocycle and coboundary decisions
are exact; the latter solves an integer linear system mod N by Smith
normal form, which stays correct for composite N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .group_core import FiniteGroup, center
from .snf import solve_modular_linear

__all__ = [
    "Cochain",
    "CocycleError",
    "CohomologyClassVerdict",
    "coboundary",
    "is_cocycle",
    "is_coboundary",
    "cup3",
    "gamma",
    "embed_modulus",
    "cochain_from_json",
    "load_cocycle",
    "cochain_to_json",
]

# Dense iteration guards: |G|^(k+1) sweeps get large fast.
MAX_ORDER_DEG_LE2 = 512
MAX_ORDER_DEG3 = 128


class CocycleError(ValueError):
    """A cochain failed the cocycle condition; carries the witness tuple."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class Cochain:
    """A normalized function G^k -> Z/N (k = 0..3), stored dense.

    The sparse `values` map (absent tuple = 0) is derived lazily for
    serialization; all arithmetic runs on the dense array.
    """

    def __init__(self, group: FiniteGroup, degree: int, modulus: int,
                 values=None, dense=None):
        if not 0 <= degree <= 3:
            raise ValueError(f"degree must be 0..3, got {degree}")
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        limit = MAX_ORDER_DEG3 if degree == 3 else MAX_ORDER_DEG_LE2
        if group.order > limit:
            raise ValueError(
                f"group order {group.order} exceeds the degree-{degree} "
                f"bound {limit}")
        self.group = group
        self.degree = degree
        self.modulus = modulus
        n = group.order
        if dense is not None:
            arr = np.asarray(dense, dtype=np.int64) % modulus
            if arr.shape != (n,) * degree:
                raise ValueError(
                    f"dense shape {arr.shape} does not match degree {degree}")
        else:
            arr = np.zeros((n,) * degree, dtype=np.int64)
            for key, v in (values or {}).items():
                key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
                if len(key) != degree:
                    raise ValueError(f"key {key} has wrong arity")
                if any(not 0 <= g < n for g in key):
                    raise ValueError(f"element index out of range in {key}")
                arr[key] = v % modulus
        e = group.identity
        if degree > 0:
            for axis in range(degree):
                sl = tuple(e if a == axis else slice(None)
                           for a in range(degree))
                if np.any(arr[sl]):
                    raise ValueError(
                        "cochain is not normalized (nonzero on an identity "
                        f"argument, axis {axis})")
        self.dense = arr
        self._values = None

    @property
    def values(self) -> dict:
        if self._values is None:
            nz = np.argwhere(self.dense) if self.degree else None
            if self.degree == 0:
                self._values = {(): int(self.dense)} if self.dense else {}
            else:
                self._values = {tuple(int(i) for i in idx):
                                int(self.dense[tuple(idx)]) for idx in nz}
        return self._values

    def __call__(self, *args) -> int:
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        return int(self.dense[args]) if self.degree else int(self.dense)

    def is_zero(self) -> bool:
        return not np.any(self.dense)

    def __eq__(self, other):
        return (isinstance(other, Cochain)
                and self.group is other.group
                and self.degree == other.degree
                and self.modulus == other.modulus
                and np.array_equal(self.dense, other.dense))

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        return Cochain(self.group, self.degree, self.modulus,
                       dense=self.dense + other.dense)

    def __sub__(self, other):
        self._check_compatible(other)
        return Cochain(self.group, self.degree, self.modulus,
                       dense=self.dense - other.dense)

    def _check_compatible(self, other):
        if (not isinstance(other, Cochain) or other.group is not self.group
                or other.degree != self.degree
                or other.modulus != self.modulus):
            raise ValueError("cochain mismatch (group/degree/modulus)")

    def restrict(self, H: FiniteGroup, embed: np.ndarray) -> "Cochain":
        """Pull back along a subgroup embedding (embed: H-index -> G-index)."""
        if self.degree == 0:
            return Cochain(H, 0, self.modulus, dense=self.dense)
        ix = np.ix_(*([embed] * self.degree))
        return Cochain(H, self.degree, self.modulus, dense=self.dense[ix])

    @classmethod
    def zero(cls, group: FiniteGroup, degree: int, modulus: int) -> "Cochain":
        return cls(group, degree, modulus)

    def __repr__(self):
        return (f"Cochain(deg={self.degree}, N={self.modulus}, "
                f"group={self.group.label})")


@dataclass
class CohomologyClassVerdict:
    is_cocycle: bool
    is_coboundary: bool | None = None
    witness: Cochain | None = None
    failure_certificate: tuple | None = None


# -- the bar differential ---------------------------------------------

def _delta_dense(T: np.ndarray, degree: int, F: np.ndarray,
                 modulus: int) -> np.ndarray:
    """Dense coboundary of a degree-0/1/2 array (trivial action)."""
    n = T.shape[0]
    if degree == 0:
        return np.zeros((n,), dtype=np.int64)
    if degree == 1:
        out = F[None, :] - F[T] + F[:, None]
        return out % modulus
    if degree == 2:
        g = np.arange(n)
        out = np.empty((n, n, n), dtype=np.int64)
        for a in g:
            out[a] = F - F[T[a]] + F[a][T] - F[a][:, None]
        return out % modulus
    raise ValueError(f"coboundary not supported in degree {degree}")


def coboundary(f: Cochain) -> Cochain:
    """delta(f), one degree up; defined for degrees 0..2."""
    if f.degree > 2:
        raise ValueError("coboundary implemented for degrees 0..2 only")
    out = _delta_dense(f.group.table, f.degree, f.dense, f.modulus)
    return Cochain(f.group, f.degree + 1, f.modulus, dense=out)


def _delta3_slab(W: np.ndarray, T: np.ndarray, g: int) -> np.ndarray:
    """delta(omega)(g, -, -, -) for a dense 3-cochain, one g at a time."""
    Wg = W[g]
    return (W - W[T[g]] + Wg[T] - Wg[:, T] + Wg[:, :, None])


def is_cocycle(f: Cochain) -> CohomologyClassVerdict:
    """Check the cocycle identity; certificate tuple on failure."""
    if f.degree not in (1, 2, 3):
        raise ValueError("cocycle check needs degree 1, 2, or 3")
    cached = f.__dict__.get("_cocycle_verdict")
    if cached is not None:
        return cached
    T = f.group.table
    N = f.modulus
    cert = None
    if f.degree in (1, 2):
        delta = _delta_dense(T, f.degree, f.dense, N)
        bad = np.argwhere(delta)
        if len(bad):
            cert = tuple(int(x) for x in bad[0])
    else:
        n = f.group.order
        W = f.dense
        for g in range(n):
            slab = _delta3_slab(W, T, g) % N
            if slab.any():
                h, k, l = np.argwhere(slab)[0]
                cert = (g, int(h), int(k), int(l))
                break
    verdict = CohomologyClassVerdict(is_cocycle=cert is None,
                                     failure_certificate=cert)
    f.__dict__["_cocycle_verdict"] = verdict
    return verdict


# -- coboundary decision ----------------------------------------------

def is_coboundary(f: Cochain) -> CohomologyClassVerdict:
    """Decide whether a 2- or 3-cocycle is a coboundary; witness if so.

    Solves delta(phi) = f in the normalized unknowns phi (indexed by
    tuples of non-identity elements) as an integer system mod N.
    Non-cocycles are rejected with their failure certificate.
    """
    if f.degree not in (2, 3):
        raise ValueError("coboundary decision needs degree 2 or 3")
    cv = is_cocycle(f)
    if not cv.is_cocycle:
        raise CocycleError(
            f"input fails the cocycle identity at {cv.failure_certificate}",
            certificate=cv.failure_certificate)
    G = f.group
    N = f.modulus
    n = G.order
    e = G.identity
    if f.is_zero():
        witness = Cochain.zero(G, f.degree - 1, N)
        return CohomologyClassVerdict(True, True, witness)

    others = [g for g in range(n) if g != e]
    pos = {g: i for i, g in enumerate(others)}
    T = G.table
    rows = []
    rhs = []
    if f.degree == 2:
        nv = len(others)
        for g in others:
            for h in others:
                row = [0] * nv
                row[pos[g]] += 1
                row[pos[h]] += 1
                gh = int(T[g, h])
                if gh != e:
                    row[pos[gh]] -= 1
                rows.append(row)
                rhs.append(int(f.dense[g, h]))
    else:
        nv = len(others) ** 2

        def var(a, b):
            return pos[a] * len(others) + pos[b]

        for g in others:
            for h in others:
                gh = int(T[g, h])
                for k in others:
                    hk = int(T[h, k])
                    row = [0] * nv
                    row[var(h, k)] += 1
                    if gh != e:
                        row[var(gh, k)] -= 1
                    if hk != e:
                        row[var(g, hk)] += 1
                    row[var(g, h)] -= 1
                    rows.append(row)
                    rhs.append(int(f.dense[g, h, k]))

    # duplicate equations are common; dedupe the augmented rows
    aug = np.concatenate([np.array(rows, dtype=np.int64),
                          np.array(rhs, dtype=np.int64)[:, None]], axis=1)
    aug = np.unique(aug, axis=0)
    x = solve_modular_linear(aug[:, :-1].tolist(), aug[:, -1].tolist(), N)
    if x is None:
        return CohomologyClassVerdict(True, False, None)
    if f.degree == 2:
        dense = np.zeros(n, dtype=np.int64)
        dense[others] = x
    else:
        dense = np.zeros((n, n), dtype=np.int64)
        for a in others:
            for b in others:
                dense[a, b] = x[pos[a] * len(others) + pos[b]]
    witness = Cochain(G, f.degree - 1, N, dense=dense)
    check = coboundary(witness)
    if not np.array_equal(check.dense, f.dense):
        raise AssertionError("internal error: witness fails delta(phi) = f")
    return CohomologyClassVerdict(True, True, witness)


# -- concrete cocycles -------------------------------------------------

def _factor_coords(G: FiniteGroup, idx: int) -> np.ndarray:
    """Coordinate of every element in cyclic factor idx (row-major)."""
    factors = G.cyclic_factors
    stride = 1
    for f in factors[idx + 1:]:
        stride *= f
    ar = np.arange(G.order, dtype=np.int64)
    return (ar // stride) % factors[idx]


def cup3(G: FiniteGroup, i: int, j: int, k: int, N: int) -> Cochain:
    """Triple cup product of coordinate characters on a product of cyclics.

    omega(x, y, z) = (N/g) * ((x_i * y_j * z_k) mod g), with g the gcd
    of the referenced factor orders.  N must be divisible by each
    referenced factor order.
    """
    if G.cyclic_factors is None:
        raise ValueError(
            "cup3 needs a group built as a direct product of cyclic factors")
    nf = len(G.cyclic_factors)
    for t in (i, j, k):
        if not 0 <= t < nf:
            raise ValueError(f"factor index {t} out of range (0..{nf - 1})")
        order = G.cyclic_factors[t]
        if N % order:
            raise ValueError(
                f"modulus {N} not divisible by factor order {order}")
    g = math.gcd(math.gcd(G.cyclic_factors[i], G.cyclic_factors[j]),
                 G.cyclic_factors[k])
    cx = _factor_coords(G, i) % g
    cy = _factor_coords(G, j) % g
    cz = _factor_coords(G, k) % g
    prod = (cx[:, None, None] * cy[None, :, None] * cz[None, None, :]) % g
    return Cochain(G, 3, N, dense=prod * (N // g))


def embed_modulus(f: Cochain, M: int) -> Cochain:
    """Rescale into a larger coefficient group mu_M, N | M.

    The residue v mod N stands for the root zeta_N^v; the same root is
    zeta_M^(v*M/N).  Cocycles stay cocycles and coboundaries stay
    coboundaries; the reverse fails, which is the point: deciding
    whether a class dies over the full unit group K^x needs room for
    the witness, and modulus N * exponent(G) always suffices, because
    any phi with delta(phi) = f has phi^N equal to a character.
    """
    if M % f.modulus:
        raise ValueError(f"target modulus {M} not a multiple of {f.modulus}")
    scale = M // f.modulus
    return Cochain(f.group, f.degree, M, dense=f.dense * scale)


def _gamma_dense(W: np.ndarray, z: int) -> np.ndarray:
    """omega(x,y,z) - omega(x,z,y) + omega(z,x,y) over all x, y.

    Reads three n x n planes of the dense 3-cochain W and sweeps nothing;
    callers that restrict to C(z) index the result by np.ix_(embed, embed).
    """
    return W[:, :, z] - W[:, z, :] + W[z, :, :]


def gamma(omega: Cochain, z: int) -> Cochain:
    """The obstruction 2-cocycle of a central element z.

    gamma(g, h) = omega(g,h,z) - omega(g,z,h) + omega(z,g,h) mod N.
    """
    if omega.degree != 3:
        raise ValueError("gamma needs a 3-cochain")
    cv = is_cocycle(omega)
    if not cv.is_cocycle:
        raise CocycleError(
            f"omega fails the cocycle identity at {cv.failure_certificate}",
            certificate=cv.failure_certificate)
    G = omega.group
    if not 0 <= z < G.order:
        raise ValueError(f"element index {z} out of range")
    if z not in center(G):
        raise ValueError(f"element {z} is not central in {G.label}")
    return Cochain(G, 2, omega.modulus, dense=_gamma_dense(omega.dense, z))


# -- serialization -----------------------------------------------------

def cochain_from_json(G: FiniteGroup, data: dict):
    """Build a cochain from {"modulus", "degree", "entries"} JSON data.

    Non-normalized cocycles are normalized by subtracting an explicit
    coboundary; the applied correction (a degree k-1 dense array) is
    returned alongside, None when nothing was subtracted.
    """
    if not isinstance(data, dict):
        raise ValueError("cocycle JSON must be an object")
    for key in ("modulus", "degree", "entries"):
        if key not in data:
            raise ValueError(f"cocycle JSON missing field {key!r}")
    N = data["modulus"]
    k = data["degree"]
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"bad modulus {N!r}")
    if not isinstance(k, int) or not 0 <= k <= 3:
        raise ValueError(f"bad degree {k!r}")
    n = G.order
    dense = np.zeros((n,) * k, dtype=np.int64)
    for entry in data["entries"]:
        if len(entry) != k + 1:
            raise ValueError(f"entry {entry!r} has wrong arity for degree {k}")
        *idx, v = entry
        if any(not isinstance(g, int) or not 0 <= g < n for g in idx):
            raise ValueError(f"element index out of range in entry {entry!r}")
        dense[tuple(idx)] = int(v) % N
    correction = _normalization_correction(G, k, N, dense)
    if correction is not None:
        dense = (dense - _delta_dense(G.table, k - 1, correction, N)) % N
    return Cochain(G, k, N, dense=dense), correction


def _normalization_correction(G: FiniteGroup, k: int, N: int,
                              dense: np.ndarray):
    """Degree k-1 array phi with dense - delta(phi) normalized, or None.

    Works for cocycles (degrees 2 and 3), where the identity-slot values
    are forced by the cocycle identity:
      degree 2: phi = const f(e,e);
      degree 3: phi(g,h) = omega(e,e,h) - omega(g,h,e).
    """
    e = G.identity
    if k == 0 or _is_normalized(dense, k, e):
        return None
    if k == 1:
        raise ValueError(
            "degree-1 cochain with nonzero value at the identity cannot be "
            "normalized by a coboundary")
    if k == 2:
        phi = np.full(G.order, int(dense[e, e]), dtype=np.int64)
    else:
        # phi(g, h) = omega(e, e, h) - omega(g, h, e)
        phi = (np.broadcast_to(dense[e, e, :], (G.order, G.order))
               - dense[:, :, e]) % N
    fixed = (dense - _delta_dense(G.table, k - 1, phi, N)) % N
    if not _is_normalized(fixed, k, e):
        raise CocycleError(
            "cochain cannot be normalized (it violates the cocycle "
            "identities that pin identity-argument values)")
    return phi


def _is_normalized(dense: np.ndarray, k: int, e: int) -> bool:
    for axis in range(k):
        sl = tuple(e if a == axis else slice(None) for a in range(k))
        if np.any(dense[sl]):
            return False
    return True


def load_cocycle(G: FiniteGroup, path: str):
    """Load a cocycle file; returns (Cochain, normalization or None)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return cochain_from_json(G, data)


def cochain_to_json(f: Cochain) -> dict:
    """Serialize to the sparse {"modulus","degree","entries"} format."""
    entries = sorted([list(k) + [v] for k, v in f.values.items()])
    return {"modulus": f.modulus, "degree": f.degree, "entries": entries}
