"""liestruct benchmark: time to an exact structure report on a ladder of
algebras, with every output checked.

    python3 perfbench/run.py --workload report-q --seed 1 --seconds 24 --trace 0

A rung is one algebra over one field, analysed in a fresh interpreter as
``liestruct report --json`` (or ``oracle-check``) would analyse it, so no
process state carries from one rung to the next.  The loop is closed and
single-process: one rung at a time, in a fixed number of passes over the
ladder, one pass per PASS_S[workload] seconds of ``--seconds``.  The count
does not depend on how fast the library runs, so two commits measured with
the same arguments analyse the same inputs.  Pass j of seed s > 0 permutes
each rung's basis with a permutation drawn from (s, j, rung); seed 0 is the
ladder as generated.  Outputs are checked against ``reference.json``:
report digests at seed 0, basis-invariant summaries otherwise, and an empty
problem list for ``oracle_check``.

Times are the worker's own seconds for loading the document and analysing
it, without interpreter start-up, read on its calibrated clock
(``worker.Clock``): on a host whose cores are shared, the same analysis
runs half again as slow for a second or two at a time, and the clock scales
each analysis by the speed of a small fixed probe timed during it.  The
worker stops an analysis at its rung's limit on that same clock, so a rung
that finishes always counts less than one that reaches its limit.  The
unscaled sum is printed beside the result for comparison.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` one untraced pass, one traced pass and one pass that
counts scalar field operations give the per-layer metrics.  The process
exits 1 if any output is wrong or any rung raised, and 2 if the library
cannot be imported or set up.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import worker

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

UNITS = {
    "wall_s": "s",
    "done_ratio": "ratio",
    "certified_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Set-up is timed this many times a run, at even steps between the analyses:
# the host's speed drifts over seconds, and spread samples see more of it
# than back-to-back ones.
SETUP_REPEATS = 9
# Seconds of --seconds per pass over the ladder: about a pass's length at the
# commit that introduced the benchmark, interpreter start-up included.  At
# --seconds 24 that is 3 passes on report-q and report-gf3 and 8 on
# oracle-gf3.  On a 2-core x86-64 VM a run then takes 25-40 s (report-gf3's
# first pass also spends 8 s on its over-limit rungs), and up to 50 s while
# other tenants keep the host busy.
PASS_S = {"report-q": 8.0, "report-gf3": 8.0, "oracle-gf3": 3.0}
# A guard only: no analysis starts later than this many seconds into a run,
# and what is left counts as over its limit, so a run always ends well
# inside three minutes even if the library gets much slower.
DEADLINE_S = 150.0
# A worker still running after twice its limit and this many seconds more
# is killed and counts as over its limit.  The worker's own limit always
# comes first unless the host runs at less than half its calibrated speed.
GRACE_S = 10.0
# A traced or counting pass may take this many times the untraced limit.
TRACE_SLACK = 3.0


class WorkerError(RuntimeError):
    pass


@dataclass
class RungResult:
    times: list = field(default_factory=list)  # calibrated seconds, one per plain sample
    plain: list = field(default_factory=list)  # the same, unscaled
    timed_out: bool = False
    failures: list = field(default_factory=list)
    certified: tuple = (0, 0)  # (certified, all) statuses over the samples
    rss_kib: int = 0
    traced_s: float = 0.0  # unscaled, like the span times it sits beside
    layers: dict = field(default_factory=dict)


class Runner:
    def __init__(self, workload: str, seed: int):
        import ladder

        ladder.self_check()
        self.ladder = ladder
        self.workload = workload
        self.rungs = ladder.WORKLOADS[workload]
        self.seed = seed
        self.reference = json.loads(REFERENCE.read_text())
        self.start = time.perf_counter()
        self._docs: dict = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def doc(self, rung, sample: int) -> str:
        key = (rung, sample)
        if key not in self._docs:
            self._docs[key] = self.ladder.document(rung, self.seed, sample)
        return self._docs[key]

    def call(self, request: dict, timeout: float):
        """Run one worker; its result dict, or None when it was killed after
        ``timeout`` seconds."""
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(
                # -S: liestruct needs only the standard library, and site's
                # start-up hooks would add to every cold start
                [sys.executable, "-S", worker.__file__],
                input=json.dumps(request),
                capture_output=True,
                text=True,
                timeout=timeout,
                # a fixed hash seed makes set order, hence traced counts, repeat
                env=dict(os.environ, PYTHONHASHSEED="0"),
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            raise WorkerError(lines[-1] if lines else f"worker exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_once(self) -> float:
        """Seconds for a fresh interpreter to import liestruct and load (which
        validates) every ladder document."""
        docs = [self.doc(r, 0) for r in self.rungs]
        out = self.call({"task": "setup", "docs": docs}, DEADLINE_S - self.elapsed())
        if out is None:
            raise WorkerError("setup did not finish before the deadline")
        return out["time_s"]

    def analyse(self, rung, sample: int, mode: str, res: RungResult) -> None:
        limit = rung.limit_s * (1 if mode == "plain" else TRACE_SLACK)
        request = {"task": rung.task, "doc": self.doc(rung, sample), "mode": mode,
                   "rung": rung.key, "limit_s": limit}
        left = DEADLINE_S - self.elapsed()
        try:
            out = self.call(request, min(2 * limit + GRACE_S, left) if left > 0 else 0)
        except WorkerError as exc:
            res.failures.append(f"raised: {exc}")
            return
        if out is None or out["timed_out"]:
            res.timed_out = True
            return
        problem = self.check(rung, out)
        if problem:
            res.failures.append(problem)
        if mode == "plain":
            res.times.append(out["time_s"])
            res.plain.append(out["plain_s"])
            res.rss_kib = max(res.rss_kib, out["rss_kib"])
            if "certified" in out:
                res.certified = (res.certified[0] + out["certified"][0],
                                 res.certified[1] + out["certified"][1])
        elif mode == "trace":
            res.traced_s = out["plain_s"]
        res.layers.update(out.get("layers", {}))

    def check(self, rung, out: dict):
        """None when the output is right, else what is wrong with it."""
        if rung.task == "oracle":
            return f"oracle disagrees: {out['problems']}" if out["problems"] else None
        ref = self.reference.get(rung.key)
        if ref is None:
            return "no reference recorded"
        if self.seed == 0:
            return None if out["digest"] == ref["digest"] else "report digest differs from the reference"
        # An undecided fact (None) contradicts nothing; it lowers
        # certified_ratio instead.  Every decided fact must match.
        differ = [k for k, v in out["summary"].items()
                  if v is not None and ref["summary"][k] is not None and v != ref["summary"][k]]
        if differ:
            return f"basis-invariant {', '.join(differ)} of {out['summary']} differ from {ref['summary']}"
        return None


def charge(rung, res: RungResult) -> float:
    """A rung's seconds in wall_s: its limit once it reached it (or never
    ran), else the mean of its samples, each of which ended under the limit.
    The mean, not the median: under seed s > 0 each sample is another basis
    permutation, and some permutations take a slower route through the
    library, so a median of a few samples jumps between routes."""
    if res.timed_out or not res.times:
        return rung.limit_s
    return statistics.fmean(res.times)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    results = {r: RungResult() for r in runner.rungs}
    passes = max(1, round(seconds / PASS_S[runner.workload]))
    order = [(sample, rung) for sample in range(passes) for rung in runner.rungs]
    setup_at = {round(k * len(order) / SETUP_REPEATS) for k in range(SETUP_REPEATS)}
    setups = []
    for i, (sample, rung) in enumerate(order):
        if i in setup_at:
            setups.append(runner.setup_once())
        if not results[rung].timed_out:
            runner.analyse(rung, sample, "plain", results[rung])
    completed = [res for res in results.values() if res.times and not res.timed_out]
    done = [res for res in completed if not res.failures]
    if all(r.task == "oracle" for r in runner.rungs):
        # oracle rungs carry no statuses; an agreeing oracle check certifies
        # every verdict it compared.  A disagreeing one fails the run, so on
        # a run that passes this reads 1.
        certified_ratio = len(done) / max(len(completed), 1)
    else:
        certified = sum(res.certified[0] for res in completed)
        certified_ratio = certified / max(sum(res.certified[1] for res in completed), 1)
    metrics = {
        "wall_s": sum(charge(r, res) for r, res in results.items()),
        "done_ratio": len(done) / len(results),
        "certified_ratio": certified_ratio,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max((res.rss_kib for res in completed), default=0) / 1024,
    }
    return metrics, results


def per_layer(runner: Runner) -> tuple[dict, dict]:
    """Per-layer counts and times summed over the rungs within their limits."""
    results = {r: RungResult() for r in runner.rungs}
    for mode in ("plain", "trace", "count"):
        for rung in runner.rungs:
            res = results[rung]
            if not res.timed_out:
                runner.analyse(rung, 0, mode, res)
    totals = {name: 0 for name in spans.metric_units()}
    for res in results.values():
        if res.timed_out or not res.times:
            continue
        for name, value in res.layers.items():
            totals[name] += value
        # both unscaled: the traced pass probes only before and after its
        # work, so its calibration differs from the plain pass's
        totals[spans.OVERHEAD] += res.traced_s - res.plain[0]
    return totals, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0,
                    help="sets the number of passes over the ladder (see PASS_S)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be at least 0")

    try:
        worker.import_liestruct()
        runner = Runner(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import liestruct from this checkout: {exc}", file=sys.stderr)
        return 2
    except KeyError:
        import ladder

        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(ladder.WORKLOADS)}")

    try:
        if args.trace:
            metrics, results = per_layer(runner)
            units = spans.metric_units()
        else:
            metrics, results = end_to_end(runner, args.seconds)
            units = UNITS
    except WorkerError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    for rung, res in results.items():
        status = "FAILED" if res.failures else "over limit" if res.timed_out else "ok"
        mean = f"{statistics.fmean(res.times):8.3f} s" if res.times else "       - "
        print(f"{rung.key:32s} samples {len(res.times):2d}  mean {mean}  {status}"
              + (f"  ({res.failures[0]})" if res.failures else ""))
    if not args.trace:
        unscaled = sum(r.limit_s if res.timed_out or not res.plain else statistics.fmean(res.plain)
                       for r, res in results.items())
        print(f"wall_s unscaled by the probe: {unscaled:.4f} s")
    failed = sum(bool(res.failures) for res in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
