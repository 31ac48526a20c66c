"""Run one zcenter CLI command with spans around its public functions.

    python3 perfbench/tracer.py SPANS_JSON COMMAND_ID -- <zcenter arguments>

The program is not changed: after `import zcenter.cli` this launcher
replaces each function named in LAYERS at every module binding that
holds it (the defining module, the `zcenter` namespace and every
`from .x import f` copy), and the two methods on their classes.  Each
call records a span (name, start, end, parent) and the counters of its
layer; the spans of one command share its COMMAND_ID.  Spans stay in
memory and are written to SPANS_JSON when the command ends; stdout,
stderr and the exit status are the command's own.
"""

from __future__ import annotations

import json
import os
import sys
import time

LAYERS = {
    "group_core": ["FiniteGroup.__init__", "parse_group_spec",
                   "conjugacy_classes", "subgroup", "enumerate_homomorphisms"],
    "cohomology": ["is_cocycle", "is_coboundary", "gamma", "embed_modulus",
                   "load_cocycle"],
    "snf": ["solve_modular_linear"],
    "twisted_rep": ["irrep_profile", "central_extension",
                    "ordinary_character_degrees", "regular_classes"],
    "pointed_center": ["PointedCategory.class_algebra", "obstruction",
                       "lift_count", "count_simple_central_objects",
                       "center_report"],
    "bands": ["conjugacy_types", "band_center_families"],
    "cli": ["main"],
}


class Recorder:
    """Spans and counters of one command, kept in memory."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans = []    # [name, start, end, parent index]
        self.stack = []
        self.counters = {}
        self.seen = {}     # (kind, id) -> object, held so ids stay unique

    def add(self, key: str, amount: int = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def first_time(self, kind: str, obj) -> bool:
        """True on the first sighting of this object under this kind."""
        key = (kind, id(obj))
        if key in self.seen:
            return False
        self.seen[key] = obj
        return True

    def count(self, name: str, args, result):
        """Counters that the call `name(*args) -> result` adds."""
        if name == "cohomology.is_cocycle":
            f = args[0]
            if f.degree == 3 and self.first_time(name, f):
                n = f.group.order
                cert = result.failure_certificate
                self.add(name + ".sweeps")
                self.add(name + ".sweep_cells",
                         n ** 4 if cert is None else (cert[0] + 1) * n ** 3)
        elif name == "pointed_center.PointedCategory.class_algebra":
            if self.first_time(name, result):
                self.add(name + ".builds")
        elif name == "snf.solve_modular_linear":
            rows = len(args[0])
            cols = len(args[0][0]) if rows else 0
            self.add(name + ".calls")
            self.add(name + ".rows", rows)
            self.add(name + ".cols", cols)
            self.add(name + ".cells", rows * cols)
        elif name == "twisted_rep.irrep_profile":
            path = ("abelian" if result.method == "abelian-fast-path"
                    else "extension")
            self.add(f"{name}.calls_{path}")
        elif name == "twisted_rep.central_extension":
            self.add(name + ".calls")
            key = name + ".order_max"
            self.counters[key] = max(self.counters.get(key, 0),
                                     result[0].order)
        elif name == "group_core.FiniteGroup":
            self.add(name + ".calls")
            self.add(name + ".cells", args[0].order ** 2)
        elif name == "group_core.enumerate_homomorphisms":
            self.add(name + ".homs", len(result))
        elif name == "cohomology.load_cocycle":
            self.add(name + ".bytes", os.path.getsize(args[1]))
        elif name in ("cohomology.is_coboundary", "group_core.subgroup",
                      "twisted_rep.regular_classes"):
            self.add(name + ".calls")

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            try:
                self.count(name, args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                pass  # the call's shape changed; its counters read zero
            return result
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Replace every listed function at each binding that holds it.

        A function the program no longer has is skipped; its metrics
        then read zero.
        """
        modules = [m for k, m in list(sys.modules.items())
                   if k == "zcenter" or k.startswith("zcenter.")]
        for mod_name, names in LAYERS.items():
            home = sys.modules.get("zcenter." + mod_name)
            for qual in names if home is not None else ():
                owner, _, attr = qual.rpartition(".")
                if owner:
                    cls = getattr(home, owner, None)
                    if not hasattr(cls, attr):
                        continue
                    label = f"{mod_name}.{owner}"
                    if attr != "__init__":
                        label += "." + attr
                    setattr(cls, attr, self.wrap(label, getattr(cls, attr)))
                    continue
                fn = getattr(home, attr, None)
                if fn is None:
                    continue
                wrapped = self.wrap(f"{mod_name}.{attr}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def dump(self, path: str, import_s: float):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": self.command_id, "import_s": import_s,
                       "spans": self.spans, "counters": self.counters}, fh)


def main() -> int:
    spans_path, command_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON COMMAND_ID -- ARGS...")
    t0 = time.perf_counter()
    import zcenter.cli
    import_s = time.perf_counter() - t0
    rec = Recorder(int(command_id))
    rec.install()
    try:
        return zcenter.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
