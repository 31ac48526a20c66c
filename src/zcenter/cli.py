"""Command line front end.

Subcommands: group-info, cohomology, obstruction, center-report, lift,
simples, bands (types | families).  Exit status 0 on success, 2 for
malformed requests (bad specs, unreadable files, out-of-range indices,
conflicting moduli), 1 for computation failures and size-bound
refusals; cocycle-condition violations print their certificate tuple.

Group specs: "C<n>", "C<a>xC<b>x...", "S<m>", "A<m>", "file:<path>".
Cocycle specs: "zero", "cup:<i>,<j>,<k>[:<N>]", "file:<path>".
Spec vectors: "classIndex:multiplicity,..." with absent classes 0 and
none named twice.
The modulus defaults to exponent(G); an explicit --modulus must be a
multiple of it.  A cocycle file or a cup suffix carries its own
modulus, which then must not conflict with --modulus.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from math import lcm

from .bands import band_center_families, conjugacy_types
from .cohomology import (BoundError, CocycleError, Cochain, cochain_to_json,
                         cup3, is_cocycle, is_coboundary, load_cocycle)
from .group_core import FiniteGroup, center, conjugacy_classes, parse_group_spec
from .pointed_center import (CentralObjectSpec, PointedCategory,
                             _obstruction_json, center_report,
                             count_simple_central_objects, lift_count,
                             obstruction, report_to_json)

__all__ = ["main"]


class UsageError(Exception):
    pass


@contextmanager
def _reading(kind: str):
    """Turn a failure to read a group or cocycle into a UsageError (exit
    2); size bounds and cocycle violations pass through (exit 1)."""
    try:
        yield
    except (BoundError, CocycleError):
        raise
    except FileNotFoundError as e:
        raise UsageError(f"cannot read {kind} file: {e.filename}")
    except json.JSONDecodeError as e:
        raise UsageError(f"{kind} file is not valid JSON: {e}")
    except RecursionError:
        raise UsageError(f"{kind} file is nested too deeply to read")
    except (OSError, ValueError) as e:
        raise UsageError(str(e))


def _load_group(spec: str) -> FiniteGroup:
    with _reading("group"):
        return parse_group_spec(spec)


def _resolve_cocycle(G: FiniteGroup, spec: str, modulus, degree_needed=None):
    """Build the cochain named by a cocycle spec, resolving the modulus."""
    exp = G.exponent()
    if modulus is not None:
        if modulus < 1:
            raise UsageError("--modulus must be positive")
        if modulus % exp:
            raise UsageError(
                f"--modulus {modulus} is not a multiple of exponent(G) = {exp}")
    correction = None
    if spec == "zero":
        N = modulus if modulus is not None else exp
        f = Cochain.zero(G, 3 if degree_needed is None else degree_needed, N)
    elif spec.startswith("cup:"):
        body = spec[4:].split(":")
        if len(body) not in (1, 2):
            raise UsageError(f"malformed cup spec: {spec!r}")
        try:
            i, j, k = (int(t) for t in body[0].split(","))
        except ValueError:
            raise UsageError(f"malformed cup spec: {spec!r}")
        if len(body) == 2:
            try:
                N = int(body[1])
            except ValueError:
                raise UsageError(f"malformed cup modulus in: {spec!r}")
            if modulus is not None and modulus != N:
                raise UsageError(
                    f"--modulus {modulus} conflicts with cup modulus {N}")
        else:
            N = modulus if modulus is not None else exp
        with _reading("cocycle"):
            f = cup3(G, i, j, k, N)
    elif spec.startswith("file:"):
        with _reading("cocycle"):
            f, correction = load_cocycle(G, spec[5:])
        if modulus is not None and modulus != f.modulus:
            raise UsageError(
                f"--modulus {modulus} conflicts with file modulus {f.modulus}")
    else:
        raise UsageError(
            f"unrecognized cocycle spec {spec!r} "
            "(expected zero, cup:i,j,k[:N], or file:path)")
    if degree_needed is not None and f.degree != degree_needed:
        raise UsageError(
            f"cocycle has degree {f.degree}, need degree {degree_needed}")
    return f, correction


def _parse_spec_vector(text: str, class_count: int) -> CentralObjectSpec:
    mult = [0] * class_count
    given = set()
    text = text.strip()
    if text:
        for part in text.split(","):
            try:
                idx, m = part.split(":")
                idx, m = int(idx), int(m)
            except ValueError:
                raise UsageError(f"malformed spec entry {part!r}")
            if not 0 <= idx < class_count:
                raise UsageError(
                    f"class index {idx} out of range (0..{class_count - 1})")
            if idx in given:
                raise UsageError(f"class index {idx} given more than once")
            given.add(idx)
            if m < 0:
                raise UsageError("multiplicities must be non-negative")
            mult[idx] = m
    return CentralObjectSpec(tuple(mult))


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(args, payload: dict, text_lines) -> int:
    if args.json:
        print(_dumps(payload))
    else:
        for line in text_lines:
            print(line)
    return 0


# -- subcommand bodies -------------------------------------------------

def _cmd_group_info(args) -> int:
    G = _load_group(args.group)
    cc = conjugacy_classes(G)
    abelian = G.is_abelian()
    center_order = len(center(G))
    payload = {
        "label": G.label,
        "order": G.order,
        "exponent": G.exponent(),
        "abelian": abelian,
        "center_order": center_order,
        "classes": [{"index": i,
                     "representative": int(cc.representatives[i]),
                     "size": int(cc.class_sizes[i])}
                    for i in range(cc.count)],
        "relabeled": G.relabeling is not None,
    }
    lines = [
        f"group: {G.label}",
        f"order: {G.order}",
        f"exponent: {G.exponent()}",
        f"abelian: {'yes' if abelian else 'no'}",
        f"conjugacy classes: {cc.count}",
        "class sizes: " + " ".join(str(int(s)) for s in cc.class_sizes),
        f"center order: {center_order}",
    ]
    if G.relabeling is not None:
        lines.append("note: input table was relabeled so that the identity "
                     "has index 0")
    return _emit(args, payload, lines)


def _cmd_cohomology(args) -> int:
    G = _load_group(args.group)
    f, correction = _resolve_cocycle(G, args.cocycle, args.modulus)
    payload = {
        "group": G.label,
        "degree": f.degree,
        "modulus": f.modulus,
        "normalization_correction": correction is not None,
    }
    lines = [f"group: {G.label}",
             f"degree: {f.degree}",
             f"modulus: {f.modulus}"]
    if correction is not None:
        lines.append("note: input was normalized by subtracting a coboundary")
    if f.degree == 0:
        payload["is_cocycle"] = True
        lines.append("cocycle: yes (degree 0, trivial action)")
        return _emit(args, payload, lines)
    verdict = is_cocycle(f)
    payload["is_cocycle"] = verdict.is_cocycle
    if not verdict.is_cocycle:
        cert = [int(x) for x in verdict.failure_certificate]
        payload["failure_certificate"] = cert
        lines.append("cocycle: no")
        lines.append("failure certificate: " + " ".join(str(x) for x in cert))
        return _emit(args, payload, lines)
    lines.append("cocycle: yes")
    if f.degree in (2, 3):
        cb = is_coboundary(f)
        payload["is_coboundary"] = cb.is_coboundary
        lines.append(f"coboundary: {'yes' if cb.is_coboundary else 'no'}")
        if cb.is_coboundary:
            entries = cochain_to_json(cb.witness)["entries"]
            payload["witness_entries"] = entries
            lines.append(f"witness entries: {len(entries)} nonzero")
    return _emit(args, payload, lines)


def _category(args, G: FiniteGroup) -> PointedCategory:
    f, _ = _resolve_cocycle(G, args.cocycle, args.modulus, degree_needed=3)
    return PointedCategory(G, f)


def _obstruction_line(o) -> str:
    word = "vanishes" if o.vanishes else "non-vanishing"
    return f"class {o.class_index} (representative {o.representative}): {word}"


def _cmd_obstruction(args) -> int:
    G = _load_group(args.group)
    C = _category(args, G)
    cc = conjugacy_classes(G)
    results = [obstruction(C, i) for i in range(cc.count)]
    payload = {
        "group": G.label,
        "modulus": C.modulus,
        "obstructions": [_obstruction_json(r) for r in results],
    }
    lines = [f"group: {G.label}", f"modulus: {C.modulus}"]
    lines += [_obstruction_line(r) for r in results]
    return _emit(args, payload, lines)


def _cmd_center_report(args) -> int:
    G = _load_group(args.group)
    C = _category(args, G)
    report = center_report(C)
    payload = report_to_json(report)
    lines = [f"group: {G.label}",
             f"modulus: {C.modulus}",
             f"kernel invariant factors: "
             f"{list(report.kernel_invariant_factors)}",
             f"simple central objects: {report.simple_central_objects}"]
    lines += [_obstruction_line(o) for o in report.obstructions]
    for spec, count in report.lifts:
        sup = ",".join(f"{i}:{spec.multiplicities[i]}"
                       for i in spec.support()) or "0"
        lines.append(f"lift {sup}: {count}")
    return _emit(args, payload, lines)


def _cmd_lift(args) -> int:
    G = _load_group(args.group)
    C = _category(args, G)
    cc = conjugacy_classes(G)
    spec = _parse_spec_vector(args.spec, cc.count)
    count = lift_count(C, spec)
    payload = {"group": G.label, "modulus": C.modulus,
               "spec": list(spec.multiplicities), "count": count}
    return _emit(args, payload, [f"count: {count}"])


def _cmd_simples(args) -> int:
    G = _load_group(args.group)
    C = _category(args, G)
    s = count_simple_central_objects(C)
    payload = {"group": G.label, "modulus": C.modulus,
               "simple_central_objects": s}
    return _emit(args, payload, [f"simple central objects: {s}"])


def _cmd_bands_types(args) -> int:
    G = _load_group(args.group)
    result = conjugacy_types(G)
    types = sorted(result.types)
    payload = {
        "group": G.label,
        "exponent": result.modulus,
        "types": types,
        "witnesses": [{"type": n,
                       "images": [int(x) for x in result.witnesses[n].images]}
                      for n in types],
    }
    lines = [f"group: {G.label}",
             f"exponent: {result.modulus}",
             "types: " + " ".join(str(n) for n in types)]
    return _emit(args, payload, lines)


def _cmd_bands_families(args) -> int:
    groups = [_load_group(s) for s in args.universe.split(",")]
    fams = sorted(band_center_families(groups))
    L = lcm(*(G.exponent() for G in groups))
    payload = {"universe": [G.label for G in groups],
               "modulus": L,
               "families": fams}
    lines = ["universe: " + " ".join(str(G.label) for G in groups),
             f"modulus: {L}",
             "families: " + " ".join(str(n) for n in fams)]
    return _emit(args, payload, lines)


# -- wiring ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zcenter",
        description="Exact center invariants of finite groups with "
                    "associator cocycles, plus a conjugacy-type harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, cocycle=False, spec=False):
        p.set_defaults(handler=handler)
        p.add_argument("--group", required=True,
                       help="C<n>, C<a>xC<b>..., S<m>, A<m>, or file:<path>")
        if cocycle:
            p.add_argument("--cocycle", required=True,
                           help="zero, cup:i,j,k[:N], or file:<path>")
            p.add_argument("--modulus", type=int, default=None,
                           help="coefficient modulus (multiple of exponent)")
        if spec:
            p.add_argument("--spec", required=True,
                           help='multiplicities "classIndex:mult,..."')
        p.add_argument("--json", action="store_true",
                       help="emit a canonical JSON report")

    add_common(sub.add_parser("group-info", help="order, classes, center"),
               _cmd_group_info)
    add_common(sub.add_parser("cohomology",
                              help="cocycle and coboundary verdicts"),
               _cmd_cohomology, cocycle=True)
    add_common(sub.add_parser("obstruction",
                              help="per-class obstruction verdicts"),
               _cmd_obstruction, cocycle=True)
    add_common(sub.add_parser("center-report", help="full page/lift report"),
               _cmd_center_report, cocycle=True)
    add_common(sub.add_parser("lift", help="central structures on a spec"),
               _cmd_lift, cocycle=True, spec=True)
    add_common(sub.add_parser("simples", help="count simple central objects"),
               _cmd_simples, cocycle=True)

    bands = sub.add_parser("bands", help="conjugacy-type harness")
    bsub = bands.add_subparsers(dest="bands_command", required=True)
    bt = bsub.add_parser("types", help="conjugacy types of endomorphisms")
    bt.set_defaults(handler=_cmd_bands_types)
    bt.add_argument("--group", required=True)
    bt.add_argument("--json", action="store_true")
    bf = bsub.add_parser("families", help="universe-wide residue families")
    bf.set_defaults(handler=_cmd_bands_families)
    bf.add_argument("--universe", required=True,
                    help="comma-separated group specs")
    bf.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CocycleError as e:
        print(f"computation error: {e}", file=sys.stderr)
        if e.certificate is not None:
            print("failure certificate: "
                  + " ".join(str(int(x)) for x in e.certificate),
                  file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"computation error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
