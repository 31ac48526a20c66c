"""Run the CLI's size-budget cases, each within its time and memory limits.

Usage, from anywhere:  python tools/budgets.py

Each row of CASES runs `python -m zcenter.cli <argv>` from this checkout's
src/ under timeout(1).  A case passes when it exits with the expected
code, prints the expected fragment (if any) on stdout or stderr, and
peaks within its RSS bound (if any).  os.wait4 on timeout(1) reports the
larger peak of it and its child.  A child's peak RSS counts its parent's
at the fork, so this launcher imports neither numpy nor zcenter, starts
the cases with posix_spawn, and leaves the input files to a separate
process.  Exits 1 if any case misses its budget.
"""

import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
C2_5 = "x".join(["C2"] * 5)
C2_6 = C2_5 + "xC2"
C2_7 = C2_6 + "xC2"

# (argv, seconds, peak RSS bound in MB or None, exit code, fragment or
# None); "{dir}" in an argument names the directory of the input files
CASES = [
    # tables: S7 is the top rung of groups-bands, A7 the largest
    # alternating group and C10000 the table bound (MAX_TABLE_ORDER).
    # C10000's int16 table is 200 MB; int32 tables peaked at 134 and
    # 422 MB.  C10000xC2 is refused before C10000 is built (that build
    # peaked at 225 MB)
    (["group-info", "--group", "S7", "--json"], 120, 120, 0, None),
    (["group-info", "--group", "A7", "--json"], 120, 120, 0, None),
    (["group-info", "--group", "C10000", "--json"], 120, 300, 0, None),
    (["group-info", "--group", "C10000xC2"], 10, 60, 1,
     "table of order 20000 exceeds the supported maximum 10000 "
     "(memory guard)"),
    # enumerations: A6 is the top bands rung of groups-bands; C2^5
    # (2^25 candidate homomorphisms) is the largest accepted elementary
    # abelian case
    (["bands", "types", "--group", "A6", "--json"], 120, None, 0, None),
    (["bands", "types", "--group", C2_5, "--json"], 120, None, 0, None),
    # cocycle files: degree-3 cochains are bounded at order 128
    # (MAX_ORDER_DEG3); dense128 lists all 128^3 entries of cup:0,1,2 on
    # C2^7 (about 36 MB), zeros included, which holds the reader to its
    # fixed-size blocks (one block over the whole array peaks at about
    # 700 MB).  dense128_json adds [0, 0, 0, 10**19]: a 20-digit value
    # sends it to json.loads + cochain_from_json, and it reduces to 0
    # mod 2, so the cocycle is the same (measured 4.4-4.6 s at 317 MB on
    # a 2-core VM)
    (["center-report", "--group", C2_7, "--cocycle",
      "file:{dir}/dense128.json", "--json"], 120, 320, 0, None),
    (["center-report", "--group", C2_7, "--cocycle",
      "file:{dir}/dense128_json.json", "--json"], 120, 400, 0, None),
    # coboundary decisions: C4xC2^3 cup:0,1,2:4 vanishes on every
    # involution diagonal, so it is decided by elimination on the
    # generator-tree rows; C2^5 cup:0,1,2 is refused at an involution
    # diagonal before any row is built (measured 42 and 30 MB; the full
    # (n-1)^3-row system peaked at 418 and 279 MB).  Degree-3
    # coboundaries on C4xC12 and C2^6 and C4xC4xC8 cup:0,1,2:8 took
    # 25-29 s at 312 MB, 61 s at 1.3 GB and a 6.2 GB system on a basis
    # of unit cochains (measured 40, 197 and 353 MB; C4xC4xC8 peaked at
    # 403 MB while the solver copied its rows)
    (["cohomology", "--group", "C4xC2xC2xC2", "--cocycle", "cup:0,1,2:4",
      "--json"], 120, 200, 0, '"is_coboundary": false'),
    (["cohomology", "--group", C2_5, "--cocycle", "cup:0,1,2", "--json"],
     120, 200, 0, '"is_coboundary": false'),
    (["cohomology", "--group", "C4xC12", "--cocycle",
      "file:{dir}/C4xC12.json", "--json"], 120, 80, 0,
     '"is_coboundary": true'),
    (["cohomology", "--group", C2_6, "--cocycle",
      f"file:{{dir}}/{C2_6}.json", "--json"], 120, 260, 0,
     '"is_coboundary": true'),
    (["cohomology", "--group", "C4xC4xC8", "--cocycle", "cup:0,1,2:8",
      "--json"], 120, 400, 0, '"is_coboundary": false'),
    # abelian reports: C2^7 has 128 classes, each with centralizer C2^7
    # itself, so every class algebra reuses the validated group and
    # omega's verdict.  C4xC4xC8 at N = 8 is the order-128 report whose
    # prime-power parts exceed p; its regular subgroups, decided at the
    # generators, give 1600 simples (0.5 s on a 2-core VM)
    (["center-report", "--group", C2_7, "--cocycle", "cup:0,1,2",
      "--json"], 120, None, 0, None),
    (["center-report", "--group", "C4xC4xC8", "--cocycle", "cup:0,1,2:8",
      "--json"], 120, None, 0, '"simple_central_objects": 1600'),
    # the non-abelian report at the degree-3 order bound: D4xC2^4, read
    # from a group file, has 80 classes, each class algebra on a
    # centralizer of order 64 or 128 through the class-algebra path;
    # untwisted it has 22 * 256 = 5632 simples (4.2-5.2 s at 61-62 MB on
    # a 2-core VM)
    (["center-report", "--group", "file:{dir}/D4xC2_4.json", "--cocycle",
      "zero", "--json"], 120, 120, 0, '"simple_central_objects": 5632'),
    # lifts: every class algebra of C2^7 with omega = 0 has 128
    # irreducibles, so multiplicity 2^17 is exactly MAX_LIFT_WORK = 2^24
    # big-integer additions; one more is refused, naming the bound
    (["lift", "--group", C2_7, "--cocycle", "zero", "--spec", "0:131072"],
     120, None, 0, None),
    (["lift", "--group", C2_7, "--cocycle", "zero", "--spec", "0:131073"],
     10, None, 1, "MAX_LIFT_WORK = 2^24"),
]


def write_inputs(d: str) -> None:
    """Write the input files of CASES into d; run in its own process."""
    import itertools
    import json

    import numpy as np

    from zcenter.cohomology import Cochain, coboundary, cochain_to_json
    from zcenter.group_core import (FiniteGroup, direct_product,
                                    parse_group_spec)

    entries = [[g, h, k, (g >> 6) & (h >> 5) & (k >> 4) & 1]
               for g, h, k in itertools.product(range(128), repeat=3)]
    for name, extra in (("dense128", []),
                        ("dense128_json", [[0, 0, 0, 10**19]])):
        with open(os.path.join(d, f"{name}.json"), "w") as fh:
            json.dump({"modulus": 2, "degree": 3,
                       "entries": entries + extra}, fh)
    rng = np.random.default_rng(0)
    for group, N in (("C4xC12", 12), (C2_6, 2)):
        G = parse_group_spec(group)
        phi = rng.integers(0, N, size=(G.order,) * 2)
        phi[G.identity, :] = phi[:, G.identity] = 0
        f = coboundary(Cochain(G, 2, N, dense=phi))
        with open(os.path.join(d, f"{group}.json"), "w") as fh:
            json.dump(cochain_to_json(f), fh)
    # D4 as r^a s^b at index a + 4b: (a, b)(c, e) = (a + (-1)^b c, b + e)
    D4 = FiniteGroup([[(a + (-1) ** b * c) % 4 + 4 * ((b + e) % 2)
                       for e, c in itertools.product(range(2), range(4))]
                      for b, a in itertools.product(range(2), range(4))])
    G = direct_product(D4, parse_group_spec("C2xC2xC2xC2"))
    with open(os.path.join(d, "D4xC2_4.json"), "w") as fh:
        json.dump({"order": G.order, "table": G.table.tolist(),
                   "label": "D4xC2^4"}, fh)


def spawn(argv, env, stdout=None, stderr=None):
    """Start argv with stdout and stderr sent to the given files; a pid."""
    actions = [(os.POSIX_SPAWN_DUP2, fh.fileno(), fd)
               for fh, fd in ((stdout, 1), (stderr, 2)) if fh is not None]
    return os.posix_spawnp(argv[0], argv, env, file_actions=actions)


def run_case(case, d: str, env) -> bool:
    """Run one case, print its outcome, and say whether it passed."""
    argv, seconds, bound, want_code, fragment = case
    argv = [a.format(dir=d) for a in argv]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        pid = spawn(["timeout", str(seconds), sys.executable, "-m",
                     "zcenter.cli", *argv], env, out, err)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        text = out.read().decode() + err.read().decode()
    code = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024
    ok = (code == want_code and (bound is None or peak_mb <= bound)
          and (fragment is None or fragment in text))
    limits = f"{seconds} s" + (f", {bound} MB" if bound else "")
    print(f"{'ok  ' if ok else 'FAIL'} {' '.join(argv)}: exit {code} "
          f"(want {want_code}), {elapsed:.1f} s, peak RSS {peak_mb:.0f} MB "
          f"(limits {limits})", flush=True)
    if not ok and fragment is not None and fragment not in text:
        print(f"     missing {fragment!r} in: {text[-400:]!r}", flush=True)
    return ok


def main() -> int:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory() as d:
        writer = spawn([sys.executable, "-c",
                        "import sys, budgets; budgets.write_inputs(sys.argv[1])",
                        d],
                       dict(env, PYTHONPATH=os.pathsep.join(
                           [src, os.path.dirname(os.path.abspath(__file__))])))
        if os.waitstatus_to_exitcode(os.waitpid(writer, 0)[1]):
            print("FAIL writing the input files", flush=True)
            return 1
        passed = [run_case(case, d, env) for case in CASES]
    print(f"{sum(passed)} of {len(passed)} cases within budget")
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
