"""Record the seed-invariant summaries that run.py checks outputs against.

    python3 perfbench/record.py [--seeds 0 1 2]

Run from the root of a zcenter checkout whose outputs are trusted.  Each
workload runs once per seed; the summaries must agree across seeds (the
seed is meant to change inputs, not answers) and the exact checks must
pass.  The result replaces perfbench/expected.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

from run import HERE, Runner
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args(argv)
    root = Path.cwd()
    work = root / ".perfbench_work" / "record"
    recorded, problems = {}, []
    try:
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                commands, _ = workloads.build(name, seed, work)
                runner = Runner(root, work, time.monotonic() + 3600)
                for cmd in commands:
                    o = runner.run(cmd.argv)
                    got = (cmd.summarize(json.loads(o.out))
                           if cmd.summarize and o.code == 0 else None)
                    reason = workloads.check(cmd, o.code, o.out, o.err,
                                             {cmd.rung: got})
                    if reason:
                        problems.append(f"{cmd.rung} seed {seed}: {reason}")
                    if (cmd.summarize
                            and recorded.setdefault(cmd.rung, got) != got):
                        problems.append(f"{cmd.rung}: seed {seed} gives "
                                        f"{got}, not {recorded[cmd.rung]}")
                    print(f"{name} seed {seed} {cmd.rung}: {o.wall:.2f} s",
                          flush=True)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (HERE / "expected.json").write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
