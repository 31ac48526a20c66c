"""The four benchmark workloads: seeded zcenter CLI command sequences.

Each builder writes its input files into a work directory and returns
the commands of one pass plus the name of its top rung (the command
whose time is reported as `largest_s`).  The seed changes the inputs
but not their cost: it picks one of several isomorphic cup triples or
twists, adds a coboundary of fixed support size to every cocycle file,
and permutes the order of a universe.  What each command must print is
checked in one of two ways: by an exact property the benchmark derives
itself (a coboundary witness, a non-coboundary verdict, a Burnside
count, a refusal naming its bound), or by a seed-invariant summary
recorded in expected.json at the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

# Nonzero entries of each seeded phi; fixed, so file sizes and solver
# systems do not change with the seed.
SUPPORT = 8


@dataclass
class Command:
    rung: str
    argv: list
    summarize: Callable | None = None  # JSON stdout -> recorded summary
    exact: Callable | None = None      # JSON stdout -> failure reason or None
    corrupt: Callable | None = None    # JSON stdout -> a wrong JSON stdout
    refusal: str | None = None         # stderr fragment of an exit-1 refusal


def check(cmd: Command, code: int, out: str, err: str, expected: dict):
    """None when the command's result is right, else the reason."""
    if cmd.refusal is not None:
        if code == 1 and cmd.refusal in err:
            return None
        return f"expected exit 1 naming {cmd.refusal!r}, got exit {code}"
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}"
    try:
        payload = json.loads(out)
        if cmd.exact is not None:
            reason = cmd.exact(payload)
            if reason:
                return reason
        if cmd.summarize is not None:
            got, want = cmd.summarize(payload), expected.get(cmd.rung)
            if got != want:
                return f"summary {got} differs from recorded {want}"
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed output: {e!r}"
    return None


def corrupted(cmd: Command, code: int, out: str, err: str):
    """A wrong result for the command, built from a right one."""
    if cmd.refusal is not None:
        return 0, out, ""
    return code, json.dumps(cmd.corrupt(json.loads(out))), err


# -- summaries and corruptions per subcommand ---------------------------

def _report_summary(p):
    return {"classes": len(p["obstructions"]),
            "vanishing": sum(o["vanishes"] for o in p["obstructions"]),
            "lifts": sorted(x["count"] for x in p["lifts"]),
            "simples": p["simple_central_objects"]}


def _flip_first_verdict(p):
    p["obstructions"][0]["vanishes"] = not p["obstructions"][0]["vanishes"]
    return p


def _bump(key):
    def corrupt(p):
        p[key] += 1
        return p
    return corrupt


def _drop_last(key):
    def corrupt(p):
        p[key] = p[key][:-1]
        return p
    return corrupt


def _burnside(T):
    """Exact check for a cocycle cohomologous to zero: every class
    vanishes and the simples number #commuting triples / |G|."""
    simples = gen.commuting_triples(T) // len(T)

    def exact(p):
        s = _report_summary(p)
        if s["simples"] != simples or s["vanishing"] != s["classes"]:
            return (f"untwisted report {s} violates Burnside count "
                    f"{simples} or has a non-vanishing class")
        return None
    return exact


def report(rung, group, cocycle, exact=None):
    return Command(rung, ["center-report", "--group", group, "--cocycle",
                          cocycle, "--json"],
                   summarize=_report_summary, exact=exact,
                   corrupt=_flip_first_verdict)


def coboundary(rung, group, path, T, f, N):
    """cohomology on a file holding f = delta(phi): the witness must satisfy
    delta(witness) = f, computed here, not by zcenter."""
    def exact(p):
        if not (p["is_cocycle"] and p["is_coboundary"]):
            return f"coboundary not recognised: {p}"
        if p["normalization_correction"]:
            return "normalized input reported a normalization correction"
        w = np.zeros((len(T),) * (f.ndim - 1), dtype=np.int64)
        for *idx, v in p["witness_entries"]:
            w[tuple(idx)] = v
        if not np.array_equal(gen.delta(T, w, N), f % N):
            return "delta(witness) differs from the input cocycle"
        return None

    def corrupt(p):
        entries = p["witness_entries"]
        if entries:
            entries[0][-1] += 1
        else:
            p["is_coboundary"] = False
        return p
    return Command(rung, ["cohomology", "--group", group, "--cocycle",
                          f"file:{path}", "--json"],
                   exact=exact, corrupt=corrupt)


def non_coboundary(rung, group, path):
    """cohomology on a cocycle whose class is nonzero by construction."""
    def exact(p):
        if p["is_cocycle"] is True and p["is_coboundary"] is False:
            return None
        return f"expected a cocycle that is not a coboundary: {p}"

    def corrupt(p):
        p["is_coboundary"] = True
        return p
    return Command(rung, ["cohomology", "--group", group, "--cocycle",
                          f"file:{path}", "--json"],
                   exact=exact, corrupt=corrupt)


def _write(work: Path, name: str, dense: np.ndarray, N: int) -> str:
    path = work / name
    path.write_text(json.dumps(gen.cocycle_json(dense % N, N)))
    return str(path)


def _element(factors, coords) -> int:
    """Row-major index of the element with the given coordinates."""
    idx = 0
    for f, c in zip(factors, coords):
        idx = idx * f + c % f
    return idx


def _spec(factors) -> str:
    return "x".join(f"C{f}" for f in factors)


# -- workloads ------------------------------------------------------------

def center_abelian(rng, work: Path):
    """cup cocycles on abelian groups of order 27-32, built in-process."""
    c2, c3, c442 = (2,) * 5, (3,) * 3, (4, 4, 2)
    pi = rng.permutation(5)                # factor permutation of C2^5
    sigma = rng.permutation(3)             # factor permutation of C3^3
    tau = (1, 0, 2) if rng.integers(2) else (0, 1, 2)  # swap the C4s

    def unit(i):
        coords = [0] * 5
        coords[pi[i]] = 1
        return coords

    e0, e3 = _element(c2, unit(0)), _element(c2, unit(3))
    e01 = _element(c2, np.add(unit(0), unit(1)))
    lift_spec = ",".join(f"{c}:{m}" for c, m in
                          sorted({e0: 2, e01: 4, e3: 1}.items()))
    cup2 = "cup:{},{},{}".format(*pi[:3])
    cup3 = "cup:{},{},{}".format(*sigma)
    cup442 = "cup:{},{},{}".format(*tau)
    commands = [
        Command("lift C2^5", ["lift", "--group", _spec(c2), "--cocycle",
                              cup2, "--spec", lift_spec, "--json"],
                summarize=lambda p: p["count"], corrupt=_bump("count")),
        Command("simples C3^3", ["simples", "--group", _spec(c3),
                                 "--cocycle", cup3, "--json"],
                summarize=lambda p: p["simple_central_objects"],
                corrupt=_bump("simple_central_objects")),
        report("center-report C3^3", _spec(c3), cup3),
        report("center-report C2^5", _spec(c2), cup2),
        Command("obstruction C4xC4xC2",
                ["obstruction", "--group", _spec(c442), "--cocycle", cup442,
                 "--json"],
                summarize=lambda p: {
                    "classes": len(p["obstructions"]),
                    "vanishing": sum(o["vanishes"]
                                     for o in p["obstructions"])},
                corrupt=_flip_first_verdict),
        report("center-report C4xC4xC2", _spec(c442), cup442),
    ]
    return commands, "center-report C4xC4xC2"


def center_nonabelian(rng, work: Path):
    """File cocycles on A4, S4, A5, S5, and the zero cocycle on S4, A4.

    A file holds the pullback along the abelianisation G -> Z/m of the
    generator of H^3(Z/m, U(1)) (sign for S_n, A4 -> Z/3; A5 is perfect,
    so nothing) plus a seeded sparse coboundary.  Its modulus is
    exponent(G), the CLI default, so the central extensions on the Dixon
    path have order exponent(G) |C(g)| (720 for a transposition in S5).
    """
    commands = []
    for m, even, label in ((4, False, "S4"), (4, True, "A4")):
        T, _ = gen.permutation_group(m, even)
        commands.append(report(f"center-report {label} zero", label, "zero",
                               exact=_burnside(T)))
    for m, even, label in ((4, True, "A4"), (4, False, "S4"),
                           (5, True, "A5"), (5, False, "S5")):
        T, parity = gen.permutation_group(m, even)
        N = int(np.lcm.reduce(gen.element_orders(T)))
        if not even:
            omega = gen.carry_pullback(parity, 2, N)
        elif m == 4:
            omega = gen.carry_pullback(gen.a4_to_c3(T), 3, N)
        else:
            omega = np.zeros((len(T),) * 3, dtype=np.int64)
        phi = gen.sparse_cochain(rng, len(T), 2, SUPPORT, N)
        path = _write(work, f"{label}.json", omega + gen.delta(T, phi, N), N)
        # A5 gets a coboundary only; for S_n, gamma of the sign pullback at
        # z is (N/2) s(z) s(x) s(y), symmetric and killed over K^x.  Both
        # reports must therefore equal the untwisted one.
        commands.append(report(f"center-report {label} file", label,
                               f"file:{path}",
                               exact=None if label == "A4" else _burnside(T)))
    return commands, "center-report S5 file"


def coboundary_solve(rng, work: Path):
    """cohomology in degree 2 on C8xC8 and in degree 3 on C4xC4, each on a
    coboundary delta(phi) and on a class that is nonzero by construction:
    a non-symmetric bicharacter in degree 2 (coboundaries of an abelian
    group are symmetric), and in degree 3 the carry cocycle
    x_a [y_b + z_b >= 4], which survives in H^3(G, U(1)) and so is no
    coboundary mod N either.  Every file adds a fresh delta(phi)."""
    commands = []
    for factors, degree in (((8, 8), 2), ((4, 4), 3)):
        T = gen.cyclic_product(factors)
        coords = gen.coordinates(factors)
        n, N = len(T), math.lcm(*factors)
        if degree == 2:
            unit = int(rng.choice([1, 3, 5, 7]))
            cls = gen.bicharacter(coords, factors, unit, N)
        else:
            cls = gen.carry_cross(coords, factors, int(rng.choice([1, 3])), N,
                                  swap=bool(rng.integers(2)))
        cob, twist = (gen.delta(T, gen.sparse_cochain(rng, n, degree - 1,
                                                      SUPPORT, N), N)
                      for _ in range(2))
        name = f"{_spec(factors)} deg{degree}"
        path = _write(work, f"{_spec(factors)}-cob.json", cob, N)
        commands.append(coboundary(f"cohomology {name} coboundary",
                                   _spec(factors), path, T, cob, N))
        path = _write(work, f"{_spec(factors)}-cls.json", cls + twist, N)
        commands.append(non_coboundary(f"cohomology {name} class",
                                       _spec(factors), path))
    return commands, "cohomology C4xC4 deg3 coboundary"


def groups_bands(rng, work: Path):
    """Table construction and homomorphism enumeration, plus refusals."""
    universe = ["S3", "C4", "S4", "C6", "A4"]
    # Refused groups have two factors each: building the table costs the
    # same whichever the seed picks.
    big3 = ["C16xC16", "C8xC32", "C4xC64", "C2xC128"]

    def info(label):
        return Command(f"group-info {label}",
                       ["group-info", "--group", label, "--json"],
                       summarize=lambda p: {
                           "order": p["order"], "exponent": p["exponent"],
                           "center_order": p["center_order"],
                           "class_sizes": sorted(c["size"]
                                                 for c in p["classes"])},
                       corrupt=_bump("center_order"))

    def types(label):
        return Command(f"bands types {label}",
                       ["bands", "types", "--group", label, "--json"],
                       summarize=lambda p: p["types"],
                       corrupt=_drop_last("types"))

    commands = [
        info("S6"),
        Command("bands families",
                ["bands", "families", "--universe",
                 ",".join(rng.permutation(universe)), "--json"],
                summarize=lambda p: p["families"],
                corrupt=_drop_last("families")),
        types("S5"),
        Command("refuse center-report order 256",
                ["center-report", "--group", str(rng.choice(big3)),
                 "--cocycle", "zero"], refusal="degree-3 bound 128"),
        Command("refuse bands types S6", ["bands", "types", "--group", "S6"],
                refusal="512 enumeration bound"),
        types("A6"),
        info("S7"),
    ]
    return commands, "group-info S7"


WORKLOADS = {
    "center-abelian": center_abelian,
    "center-nonabelian": center_nonabelian,
    "coboundary-solve": coboundary_solve,
    "groups-bands": groups_bands,
}


def build(name: str, seed: int, work: Path):
    """(commands, top rung) of one pass of the named workload."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, work)
