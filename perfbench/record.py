"""Record reference.json: the canonical report digest and basis-invariant
summary of every report rung at seed 0, each analysed with no time limit.

    python3 perfbench/record.py

Run it only when the library's reports are meant to change; the benchmark
fails any rung whose output differs from what this recorded.  The dim-9
GF(3) rungs take minutes each at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys

import worker
from run import REFERENCE, Runner

NO_LIMIT_S = 3600.0


def main() -> int:
    worker.import_liestruct()
    import ladder

    runner = Runner(next(iter(ladder.WORKLOADS)), seed=0)
    reference = {}
    rungs = {r.key: r for rungs in ladder.WORKLOADS.values() for r in rungs if r.task == "report"}
    for key, rung in sorted(rungs.items()):
        out = runner.call(
            {"task": "report", "doc": runner.doc(rung, 0), "mode": "plain", "rung": key},
            NO_LIMIT_S,
        )
        reference[key] = {"digest": out["digest"], "summary": out["summary"]}
        print(f"{key:32s} {out['time_s']:8.3f} s  {out['digest'][:16]}", flush=True)
    lines = (f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reference.items()))
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
