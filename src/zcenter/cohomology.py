"""Normalized group cochains with values in Z/N.

Roots of unity are modeled additively: the residue v in Z/N stands for
zeta^v with zeta a fixed primitive N-th root.  Cochains are normalized
(zero whenever an argument is the identity) and the coboundary is the
bar differential with trivial action.  Cocycle and coboundary decisions
are exact; the latter solves an integer linear system mod N by
elimination over each prime power of N (`snf`).  Moduli are bounded by
`snf.MAX_MODULUS` = 2^31, which keeps the int64 arithmetic on residues
exact.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .group_core import (BoundError, FiniteGroup, _bfs_layers,
                         _failure_certificate, _short_generators, center,
                         centralizer, subgroup)
from .snf import check_modulus, solve_modular_linear

__all__ = [
    "Cochain",
    "CocycleError",
    "BoundError",
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
# Loaded JSON entries are checked and stored this many at a time, which
# bounds the int64 copy (an order-128 degree-3 file has 2,097,152 entries)
_ENTRY_CHUNK = 16384


class CocycleError(ValueError):
    """A cochain failed the cocycle condition; carries the witness tuple."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class Cochain:
    """A normalized function G^k -> Z/N (k = 0..3), stored dense.

    The dense array is read-only, so the verdict `is_cocycle` keeps in
    `_verdict` stays true.  The sparse `values` map (absent tuple = 0) is
    built on first access; all arithmetic reads the dense array.
    """

    def __init__(self, group: FiniteGroup, degree: int, modulus: int,
                 values=None, dense=None):
        _check_bounds(group, degree, modulus)
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
        self._install(group, degree, modulus, arr)

    @classmethod
    def _owning(cls, group: FiniteGroup, degree: int, modulus: int,
                dense: np.ndarray) -> "Cochain":
        """A cochain that takes over `dense`, an int64 array of shape
        (n,) * degree already reduced mod `modulus`, without copying it;
        the bounds and the normalization are still checked."""
        _check_bounds(group, degree, modulus)
        f = cls.__new__(cls)
        f._install(group, degree, modulus, dense)
        return f

    def _install(self, group, degree, modulus, arr):
        """Set the fields, with arr frozen as the values, once normalized."""
        axis = _unnormalized_axis(arr, group.identity)
        if axis is not None:
            raise ValueError(
                "cochain is not normalized (nonzero on an identity "
                f"argument, axis {axis})")
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
        self.group = group
        self.degree = degree
        self.modulus = modulus
        self.dense = arr
        self._verdict = None  # is_cocycle's, once known

    @cached_property
    def values(self) -> dict:
        return {tuple(int(i) for i in idx): int(self.dense[tuple(idx)])
                for idx in np.argwhere(self.dense)}

    def __call__(self, *args) -> int:
        if len(args) != self.degree:
            raise ValueError(f"expected {self.degree} arguments")
        self.group._check_index(*args)
        return int(self.dense[args])

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
        ix = np.ix_(*([embed] * self.degree))
        return Cochain(H, self.degree, self.modulus, dense=self.dense[ix])

    @classmethod
    def zero(cls, group: FiniteGroup, degree: int, modulus: int) -> "Cochain":
        return cls(group, degree, modulus)

    def __repr__(self):
        return (f"Cochain(deg={self.degree}, N={self.modulus}, "
                f"group={self.group.label})")


def _check_bounds(group: FiniteGroup, degree: int, modulus: int) -> None:
    """Refuse a degree, modulus or group order no cochain may have."""
    if not 0 <= degree <= 3:
        raise ValueError(f"degree must be 0..3, got {degree}")
    check_modulus(modulus)
    limit = MAX_ORDER_DEG3 if degree == 3 else MAX_ORDER_DEG_LE2
    if group.order > limit:
        raise BoundError(
            f"group order {group.order} exceeds the degree-{degree} "
            f"bound {limit}")


@dataclass
class CohomologyClassVerdict:
    is_cocycle: bool
    is_coboundary: bool | None = None
    witness: Cochain | None = None
    failure_certificate: tuple | None = None


# -- the bar differential ---------------------------------------------

def _delta_slab(F: np.ndarray, T: np.ndarray, g: int, degree: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """delta(F)(g, h1, ..., hk) over all h for a degree-k array F.

    The faces of the bar differential with trivial action, unreduced:
      F(h1..hk) - F(g h1, h2..hk)
        + sum_{i<k} (-1)^(i+1) F(g, h1..h_i h_(i+1)..hk)
        + (-1)^(k+1) F(g, h1..h_(k-1)).
    Axes of F past `degree` ride along unchanged, so a stack of cochains
    (`_tree_rows`'s affine forms) goes through in one call.  The slab
    accumulates in `out` when given, so a sweep reuses one buffer.  This
    is the only place the face formula is written.
    """
    Fg = F[g]
    # T's entries are in range; mode "clip" only stops take from
    # buffering its result before copying it into `out`
    out = np.take(F, T[g], axis=0, out=out, mode="clip")
    np.subtract(F, out, out=out)
    for a in range(degree):
        # each face stays unnamed, so it is freed before the next is taken
        (np.subtract if a % 2 else np.add)(
            out, np.take(Fg, T, axis=a) if a < degree - 1
            else np.expand_dims(Fg, a), out=out)
    return out


def _delta_dense(T: np.ndarray, degree: int, F: np.ndarray,
                 modulus: int) -> np.ndarray:
    """Dense coboundary of a degree-k array: its slabs stacked, mod N."""
    n = T.shape[0]
    if degree == 0:
        return np.zeros((n,), dtype=np.int64)
    out = np.empty((n,) + F.shape, dtype=np.int64)
    for g in range(n):
        _delta_slab(F, T, g, degree, out=out[g])
    out %= modulus
    return out


def coboundary(f: Cochain) -> Cochain:
    """delta(f), one degree up; defined for degrees 0..2."""
    if f.degree > 2:
        raise ValueError("coboundary implemented for degrees 0..2 only")
    out = _delta_dense(f.group.table, f.degree, f.dense, f.modulus)
    return Cochain(f.group, f.degree + 1, f.modulus, dense=out)


def is_cocycle(f: Cochain) -> CohomologyClassVerdict:
    """Check the cocycle identity on the slabs at the generators.

    delta(delta f) = 0 gives D(ag, ..) = D(g, ..) wherever the slab
    D(a, ..) of D = delta(f) vanishes, so `_failure_certificate`'s rule
    applies; the certificate is the lexicographically first failure.
    """
    if f.degree not in (1, 2, 3):
        raise ValueError("cocycle check needs degree 1, 2, or 3")
    if f._verdict is not None:
        return f._verdict
    slab = np.empty_like(f.dense)

    def delta_at(g):
        _delta_slab(f.dense, f.group.table, g, f.degree, out=slab)
        return [np.remainder(slab, f.modulus, out=slab)]

    cert = _failure_certificate(f.group, delta_at)
    verdict = CohomologyClassVerdict(is_cocycle=cert is None,
                                     failure_certificate=cert)
    f._verdict = verdict
    return verdict


def _require_cocycle(f: Cochain, role: str) -> None:
    """Refuse f, naming `role` and the failure certificate, unless it is
    a cocycle; a verdict f already holds is read, not checked again."""
    cert = (f._verdict or is_cocycle(f)).failure_certificate
    if cert is not None:
        raise CocycleError(f"{role} fails the cocycle identity at {cert}",
                           certificate=cert)


# -- coboundary decision ----------------------------------------------

def _tree_rows(f: Cochain):
    """(F, A) mod N for a k-cochain f, k = 2 or 3.

    The unknowns are phi(s, ..) at the s of S = `_short_generators`
    (and non-identity second arguments).  On a tree edge x = s h,
    delta(phi)(s, h, ..) = f(s, h, ..) gives phi(x, ..) from phi(h, ..)
    and phi(s, ..); F[x, ..] holds its coefficients, then its constant.
    A holds the nonzero rows of delta(F) - f at each s in S, alike, in
    `snf`'s row format.
    """
    G, N, k = f.group, f.modulus, f.degree
    T, inv = G.table, G.inverse
    S = np.array(_short_generators(G), dtype=np.int64)
    others = np.flatnonzero(np.arange(G.order) != G.identity)
    u = len(S) * len(others) ** (k - 2)
    F = np.zeros((G.order,) * (k - 1) + (u + 1,), dtype=np.int64)
    at_s = np.ix_(S, *[others] * (k - 2)) + (slice(u),)
    F[at_s] = np.eye(u, dtype=np.int64).reshape(F[at_s].shape)
    # left multiplication's tree: right multiplication's by S^-1, inverted
    for rows in _bfs_layers(G, inv[S]):
        x, h, s = inv[rows[:, 0]], inv[rows[:, 1]], S[rows[:, 2]]
        F[x] = F[h] + (F[s] if k == 2 else
                       F[s[:, None], T[h]] - F[s, h][:, None])
        F[x, ..., u] -= f.dense[s, h]
    F %= N
    A = [np.empty((0, u + 1), dtype=np.int64)]  # S is empty on C1
    for s in S:
        slab = _delta_slab(F, T, s, k - 1)
        slab[..., u] -= f.dense[s]
        slab = np.remainder(slab, N, out=slab).reshape(-1, u + 1)
        A.append(slab[slab.any(axis=1)])
    return F, np.concatenate(A)


def is_coboundary(f: Cochain) -> CohomologyClassVerdict:
    """Decide whether a 2- or 3-cocycle is a coboundary; witness if so.

    Solves the rows of `_tree_rows` mod N.  Those at the generators
    suffice: the a with D(a, ..) = 0 for the cocycle D = f - delta(phi)
    contain e and, as delta(D) = 0, are closed under products.  In
    degree 3 delta(phi)(d, d, d) = 0 at each involution d, so
    f(d, d, d) != 0 refuses f before any row is built.  Non-cocycles
    are rejected with their failure certificate.
    """
    if f.degree not in (2, 3):
        raise ValueError("coboundary decision needs degree 2 or 3")
    _require_cocycle(f, "input")
    G, N, k = f.group, f.modulus, f.degree
    if f.is_zero():
        witness = Cochain.zero(G, k - 1, N)
        return CohomologyClassVerdict(True, True, witness)
    inv = np.flatnonzero(np.diagonal(G.table) == G.identity)
    if k == 3 and f.dense[inv, inv, inv].any():
        return CohomologyClassVerdict(True, False, None)
    F, A = _tree_rows(f)
    x = solve_modular_linear(A, N)
    if x is None:
        return CohomologyClassVerdict(True, False, None)
    # F . [x, 1], each product reduced first: a sum of raw ones overflows
    witness = Cochain(G, k - 1, N, dense=(F * np.append(x, 1) % N).sum(-1))
    if coboundary(witness) != f:
        raise AssertionError("internal error: witness fails delta(phi) = f")
    return CohomologyClassVerdict(True, True, witness)


# -- concrete cocycles -------------------------------------------------

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
    # before N // g, which must fit in int64, and the n^3 array
    _check_bounds(G, 3, N)
    for t in (i, j, k):
        if not 0 <= t < nf:
            raise ValueError(f"factor index {t} out of range (0..{nf - 1})")
        order = G.cyclic_factors[t]
        if N % order:
            raise ValueError(
                f"modulus {N} not divisible by factor order {order}")
    g = math.gcd(math.gcd(G.cyclic_factors[i], G.cyclic_factors[j]),
                 G.cyclic_factors[k])
    # each element's coordinates, in the row-major order of direct_product
    coords = np.unravel_index(np.arange(G.order), G.cyclic_factors)
    cx, cy, cz = (coords[t] % g for t in (i, j, k))
    prod = (cx[:, None, None] * cy[None, :, None] * cz[None, None, :]) % g
    return Cochain(G, 3, N, dense=prod * (N // g))


def embed_modulus(f: Cochain, M: int) -> Cochain:
    """Rescale into a larger coefficient group mu_M, N | M.

    The residue v mod N stands for the root zeta_N^v; the same root is
    zeta_M^(v*M/N).  Cocycles stay cocycles and coboundaries stay
    coboundaries; the reverse fails, which is the point: deciding
    whether a class dies over the full unit group K^x needs room for
    the witness.  Modulus N * exponent(G) suffices in degree 2, where any
    phi with delta(phi) = f has phi^N equal to a character; degree 3
    needs N * |G|, as |G|, not always exponent(G), kills phi^N's class.
    """
    check_modulus(M)  # before the rescaling, which must fit in int64
    if M % f.modulus:
        raise ValueError(f"target modulus {M} not a multiple of {f.modulus}")
    scale = M // f.modulus
    return Cochain(f.group, f.degree, M, dense=f.dense * scale)


def _gamma(omega: Cochain, g: int) -> Cochain:
    """gamma_g on the centralizer C(g), G itself for a central g.

    gamma_g(x, y) = omega(x,y,g) - omega(x,g,y) + omega(g,x,y) mod N, cut
    from three planes of omega, is a 2-cocycle on C(g) whenever omega is a
    3-cocycle (Dijkgraaf, Pasquier & Roche 1990): it takes omega's verdict.
    """
    _require_cocycle(omega, "omega")
    G, W = omega.group, omega.dense
    H, embed = subgroup(G, centralizer(G, [g]))
    planes = W[:, :, g] - W[:, g, :] + W[g]
    gam = Cochain(H, 2, omega.modulus, dense=planes[np.ix_(embed, embed)])
    gam._verdict = omega._verdict
    return gam


def gamma(omega: Cochain, z: int) -> Cochain:
    """The obstruction 2-cocycle of a central element z.

    gamma(g, h) = omega(g,h,z) - omega(g,z,h) + omega(z,g,h) mod N.
    """
    if omega.degree != 3:
        raise ValueError("gamma needs a 3-cochain")
    _require_cocycle(omega, "omega")
    G = omega.group
    G._check_index(z)
    if z not in center(G):
        raise ValueError(f"element {z} is not central in {G.label}")
    return _gamma(omega, z)


# -- serialization -----------------------------------------------------

def cochain_from_json(G: FiniteGroup, data: dict):
    """Build a cochain from {"modulus", "degree", "entries"} JSON data.

    Values are any integers, reduced mod N; a tuple listed more than
    once keeps its last value.  A malformed entry raises ValueError
    naming the first one.  Non-normalized cocycles are normalized by subtracting an explicit
    coboundary; the applied correction (a degree k-1 dense array) is
    returned alongside, None when nothing was subtracted.
    """
    N, k = _check_envelope(data)
    entries = data["entries"]
    return _cochain_from_rows(G, k, N, (
        _json_rows(entries[start:start + _ENTRY_CHUNK], k, G.order, N)
        for start in range(0, len(entries), _ENTRY_CHUNK)))


def _check_envelope(data) -> tuple[int, int]:
    """(modulus, degree) of cocycle JSON data, after checking every
    field but the entries themselves."""
    if not isinstance(data, dict):
        raise ValueError("cocycle JSON must be an object")
    for key in ("modulus", "degree", "entries"):
        if key not in data:
            raise ValueError(f"cocycle JSON missing field {key!r}")
    N = data["modulus"]
    k = data["degree"]
    # type() and not isinstance(): JSON true and false load as bool, an int
    if type(N) is not int:
        raise ValueError(f"bad modulus {N!r}")
    check_modulus(N)
    if type(k) is not int or not 0 <= k <= 3:
        raise ValueError(f"bad degree {k!r}")
    if not isinstance(data["entries"], list):
        raise ValueError("cocycle JSON field 'entries' must be a list")
    return N, k


def _cochain_from_rows(G: FiniteGroup, k: int, N: int, blocks):
    """The cochain (and normalization) whose entries are the rows of each
    (m, k + 1) int64 array of `blocks`, in order.

    Both cocycle readers end here: an out-of-range index raises for the
    first row holding one, a repeated tuple keeps its last value, values
    are reduced mod N and the result is normalized (`_normalize`).
    """
    _check_bounds(G, k, N)  # before the dense array is allocated
    n = G.order
    dense = np.zeros((n,) * k, dtype=np.int64)
    for rows in blocks:
        # a negative index reads as 2^64 - |i| unsigned: one comparison
        bad = (rows[:, :k].view(np.uint64) >= n).any(axis=1)
        if bad.any():
            _check_entry(rows[bad.argmax()].tolist(), k, n)
        flat = np.broadcast_to(  # a scalar 0 in degree 0
            np.ravel_multi_index(tuple(rows[:, :k].T), dense.shape), len(rows))
        # a repeated tuple keeps its last value, as when entries are written
        # one by one: the first occurrence of each index in reverse order
        last = len(rows) - 1 - np.unique(flat[::-1], return_index=True)[1]
        dense.flat[flat[last]] = rows[last, k] % N
    dense, correction = _normalize(G, k, N, dense)
    # dense is this reader's own, and reduced mod N: no copy is made
    return Cochain._owning(G, k, N, dense), correction


def _json_rows(chunk: list, k: int, n: int, N: int) -> np.ndarray:
    """Loaded JSON entries as (m, k + 1) int64 rows, values past int64
    reduced mod N; raises for the first malformed entry.

    A chunk of lists of k + 1 ints (not bools) that fit int64 converts
    in one call; any other is checked entry by entry (`_check_entry`).
    """
    if set(map(type, chunk)) == {list} and set(map(len, chunk)) == {k + 1}:
        flat = list(chain.from_iterable(chunk))
        if set(map(type, flat)) == {int}:
            try:
                return np.array(flat, dtype=np.int64).reshape(-1, k + 1)
            except OverflowError:
                pass
    for entry in chunk:
        _check_entry(entry, k, n)
    # every entry is well-formed: a value past int64 (or a list
    # subclass) is all that sends a chunk here, so reduce in Python
    return np.array([[*e[:k], e[k] % N] for e in chunk], dtype=np.int64)


def _check_entry(entry, k: int, n: int) -> None:
    """Raise the error for one malformed entry [g1, ..., gk, v]."""
    if not isinstance(entry, list) or len(entry) != k + 1:
        raise ValueError(f"entry {entry!r} has wrong arity for degree {k}")
    *idx, v = entry
    if any(type(g) is not int or not 0 <= g < n for g in idx):
        raise ValueError(f"element index out of range in entry {entry!r}")
    if type(v) is not int:
        raise ValueError(f"value in entry {entry!r} is not an integer")


# -- reading the entries array from the text ---------------------------
#
# A structural-index reader (after Langdale & Lemire, "Parsing gigabytes
# of JSON per second", VLDB J. 2019): each block of the array's text is
# stripped of whitespace, the positions of its brackets and commas are
# compared with the one layout of an entry, and its numbers are converted
# in one C-level pass.  It reads a subset of JSON, on which it agrees with
# `json.loads`, and returns None on anything else.

# Characters of the array's text read per block; a block ends at an entry's
# closing bracket, which bounds the temporaries of the passes over it
_BLOCK_CHARS = 1 << 18
# The opening of the entries array: JSON whitespace only, no escapes
_ENTRIES_KEY = re.compile(r'"entries"[ \t\n\r]*:[ \t\n\r]*\[')
# The array's ] when it is empty, and otherwise the second ] of its end
_EMPTY_ARRAY = re.compile(r"[ \t\n\r]*\]")
_ARRAY_END = re.compile(r"\][ \t\n\r]*\]")
_SPACED_SIGN = re.compile(rb"-[ \t\n\r]")
_JSON_SPACE = b" \t\n\r"
_UNBRACKET = bytes.maketrans(b"[],", b"   ")
# 18 decimal digits always fit int64
_MAX_DIGITS = 18


def _read_entries(text: str):
    """(envelope data, row blocks) of cocycle JSON text, or None.

    Taken when the text has no backslash and exactly one "entries" key
    opening an array, and that array is [[n, ..., n], ...] with the same
    count of integers in every entry, each of at most 18 digits, without
    leading zeros or whitespace inside.  The array's end is found once,
    and its entries are read in blocks of whole entries (`_entry_block`).
    The envelope data is `json.loads` of the text with the array
    replaced by [], so the entries field of a valid text is that []; the
    blocks hold the array's rows, as int64 (m, k + 1) arrays.  None
    leaves the text to `json.loads`, which gives the same data or raises.
    """
    if "\\" in text:
        return None
    found = _ENTRIES_KEY.finditer(text)
    key = next(found, None)
    if key is None or next(found, None) is not None:
        return None
    # without escapes the key's first quote opens a string, so a text
    # that parses holds the array as the value of an "entries" field.
    # Entries hold no brackets, so a wrong guess at the array's end
    # leaves a block that fails the entry layout
    pos = key.end()
    empty = _EMPTY_ARRAY.match(text, pos)
    end = empty or _ARRAY_END.search(text, pos)
    if end is None:
        return None
    last = pos if empty else end.start() + 1  # after the last entry's ]
    # k + 1 integers in each entry, as in the first
    k = text.count(",", pos, text.find("]", pos))
    blocks, lead = [], b","  # each entry is read as ,[n,...,n]
    while pos < last:
        # a block ends right after a ] up to 2 * _BLOCK_CHARS on, or fails
        stop = pos + _BLOCK_CHARS
        stop = min(text.find("]", stop, stop + _BLOCK_CHARS) + 1 or stop, last)
        raw = lead + text[pos:stop].encode("ascii", "replace")
        rows = _entry_block(raw, k)
        if rows is None:
            return None
        blocks.append(rows)
        pos, lead = stop, b""
    try:
        data = json.loads(text[:key.end()] + text[end.end() - 1:])
    except (ValueError, RecursionError):
        return None
    return data, blocks


def _entry_block(raw: bytes, k: int):
    """The (m, k + 1) int64 rows of a run of whole entries, or None.

    `raw` must be entries ,[n,...,n] of k + 1 integers each, with JSON
    whitespace anywhere but inside a number.
    """
    packed = raw.translate(None, _JSON_SPACE)
    c = np.frombuffer(packed, dtype=np.uint8)
    minus = c == ord("-")
    digit = np.subtract(c, ord("0"), dtype=np.uint8) < 10
    at = np.flatnonzero(~(digit | minus))  # brackets, commas, anything else
    marks = c[at]
    width = k + 3
    if len(at) % width:
        return None
    entry = np.full(width, ord(","), dtype=np.uint8)
    entry[[1, -1]] = ord("["), ord("]")
    gaps = np.diff(at, append=len(c)).reshape(-1, width)
    if (marks.reshape(-1, width) != entry).any() or (
            gaps[:, [0, -1]] != 1).any():
        return None
    # the numbers: what follows [ and each comma inside an entry
    starts = at.reshape(-1, width)[:, 1:-1].ravel() + 1
    signed = minus[starts]
    digits = gaps[:, 1:-1].ravel() - 1 - signed
    if (signed.sum() != minus.sum()  # - only first
            or not ((digits >= 1) & (digits <= _MAX_DIGITS)).all()
            or ((c[starts + signed] == ord("0")) & (digits > 1)).any()):
        return None
    # whitespace inside a number: the conversion reads "- 1" as -1, and
    # splits any other number in two, which the count check finds
    if signed.any() and _SPACED_SIGN.search(raw):
        return None
    values = np.fromstring(raw.translate(_UNBRACKET), dtype=np.int64, sep=" ")
    if len(values) != len(starts):
        return None
    return values.reshape(-1, k + 1)


def _normalize(G: FiniteGroup, k: int, N: int, dense: np.ndarray):
    """(dense - delta(phi), phi) with the first normalized; phi is None
    when dense already is.

    Works for cocycles (degrees 2 and 3), where the identity-slot values
    are forced by the cocycle identity:
      degree 2: phi = const f(e,e);
      degree 3: phi(g,h) = omega(e,e,h) - omega(g,h,e).
    """
    e = G.identity
    if _unnormalized_axis(dense, e) is None:
        return dense, None
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
    if _unnormalized_axis(fixed, e) is not None:
        raise CocycleError(
            "cochain cannot be normalized (it violates the cocycle "
            "identities that pin identity-argument values)")
    return fixed, phi


def _unnormalized_axis(dense: np.ndarray, e: int):
    """First axis on which dense is nonzero at the identity, else None."""
    for axis in range(dense.ndim):
        if dense.take(e, axis=axis).any():
            return axis
    return None


def load_cocycle(G: FiniteGroup, path: str):
    """Load a cocycle file; returns (Cochain, normalization or None).

    Any JSON layout is read, with the result or error of
    `cochain_from_json` on `json.loads` of the text.  An entries array
    of plain integer entries, the layout `cochain_to_json` writes, is
    read from the text in fixed-size blocks (`_read_entries`).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    read = _read_entries(text)
    if read is not None:
        data, blocks = read
        N, k = _check_envelope(data)
        # entries of another arity are the JSON reader's error to name
        if not blocks or blocks[0].shape[1] == k + 1:
            del text  # before the dense arrays are built
            return _cochain_from_rows(G, k, N, blocks)
    return cochain_from_json(G, json.loads(text))


def cochain_to_json(f: Cochain) -> dict:
    """Serialize to the sparse {"modulus","degree","entries"} format."""
    # row-major order is the sorted order of the index tuples
    d = np.atleast_1d(f.dense)  # nonzero refuses a 0-d array
    nz = np.nonzero(d)
    entries = np.column_stack(nz[:f.degree] + (d[nz],)).tolist()
    return {"modulus": f.modulus, "degree": f.degree, "entries": entries}
