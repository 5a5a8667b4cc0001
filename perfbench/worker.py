"""One cold-start analysis, run in a fresh interpreter by run.py.

Reads one JSON request on stdin and prints one JSON result line:

- ``{"task": "setup", "docs": [...]}``: seconds (``time_s``) to import
  liestruct and load (which validates) every document.
- ``{"task": "report" | "oracle", "doc": ..., "mode": ..., "rung": ...}``:
  load the document and run ``build_report`` as ``liestruct report --json``
  does, or ``oracle_check`` with the CLI's default budget.  ``mode`` is
  ``plain`` (timed only), ``trace`` (spans around the layer calls) or
  ``count`` (scalar field operations only).  With ``limit_s`` set, the
  analysis stops after that many seconds and the result says
  ``timed_out``.

Times are read on the calibrated ``Clock`` (``time_s``); ``plain_s`` is the
same time unscaled.

A raised exception propagates, so the process exits non-zero with the
traceback on stderr.
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_liestruct():
    """Import liestruct from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import liestruct

    if Path(liestruct.__file__).resolve().parent.parent != src:
        raise ImportError(f"liestruct imported from {liestruct.__file__}, not {src}")
    return liestruct


def summary(report: dict) -> dict:
    """Basis-invariant facts of a report, compared across basis permutations.
    A fact the report leaves undecided is None."""
    factors = report["chief_series"]["factors"]
    crowns_certified = all(c["status"].startswith("certified") for c in report["crowns"])
    verdict = report["primitive"]["verdict"]
    return {
        "chief_dims": sorted(f["dim"] for f in factors),
        "frattini": sum(1 for f in factors if f["frattini"]),
        "crown_ranks": sorted(c["rank"] for c in report["crowns"]) if crowns_certified else None,
        "primitive": None if verdict == "undecided" else verdict,
        "radical_dim": len(report["radical"]["space"]),
        "solvable": report["solvable"],
        "nilpotent": report["nilpotent"],
    }


def certified_counts(report: dict) -> tuple[int, int]:
    """(certified, total) over the chief-series, crown, primitive and radical
    statuses and each factor's complemented flag (null is undecided)."""
    statuses = [
        report["chief_series"]["status"],
        report["primitive"]["status"],
        report["radical"]["status"],
    ] + [c["status"] for c in report["crowns"]]
    flags = [f["complemented"] is not None for f in report["chief_series"]["factors"]]
    certified = sum(1 for s in statuses if s.startswith("certified")) + sum(flags)
    return certified, len(statuses) + len(flags)


# The calibrated clock reads seconds on a machine on which probe() takes
# CALIBRATION_S: a 2-core x86-64 VM with Python 3.11 when nothing else
# competes for its cores, where calibrated and plain seconds agree.
CALIBRATION_S = 0.001
PROBE_STEPS = 6_000
PROBE_PERIOD_S = 0.05


def probe() -> float:
    """Seconds for a fixed loop of integer arithmetic: how fast the machine
    runs Python right now.  It allocates no container, so no garbage
    collection runs inside it, whatever the heap around it holds."""
    t = time.perf_counter()
    x = 1
    for i in range(PROBE_STEPS):
        x = (x * 48271 + i) % 2147483647
    return time.perf_counter() - t


class OverLimit(BaseException):
    """Raised from the timer signal when an analysis reaches its limit.  It is
    not an Exception, so no handler in the library swallows it."""


class Clock:
    """Calibrated seconds of some work.  On a shared host the same analysis
    can run half again as slow for a second or two at a time, so probe() is
    timed five times before and after the work and, with ``probing``, from a
    timer signal every PROBE_PERIOD_S during it; the work's own seconds
    (probing taken off) are scaled by CALIBRATION_S over the median probe.
    With ``limit_s``, the work stops once its calibrated seconds reach the
    limit, checked at each tick and at the end, so finished work always
    reads less than its limit."""

    def __init__(self, limit_s=None, probing: bool = True):
        self.limit_s = limit_s
        self.probing = probing

    def seconds(self) -> float:
        plain = time.perf_counter() - self.t0 - self.inside_s
        return plain * CALIBRATION_S / statistics.median(self.samples)

    def _tick(self, signum, frame):
        if self.probing:
            t = probe()
            self.samples.append(t)
            self.inside_s += t
        if self.limit_s and self.seconds() >= self.limit_s:
            raise OverLimit

    def run(self, work):
        """(calibrated seconds, plain seconds, result, timed_out) of work()."""
        self.samples = [probe() for _ in range(5)]
        self.inside_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        self.t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
                result, timed_out = work(), False
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OverLimit:
            # also covers a tick that fired after work() returned but before
            # the timer was disarmed
            result, timed_out = None, True
        plain = time.perf_counter() - self.t0 - self.inside_s
        self.samples += [probe() for _ in range(5)]
        elapsed = plain * CALIBRATION_S / statistics.median(self.samples)
        if self.limit_s and elapsed >= self.limit_s:
            result, timed_out = None, True
        return elapsed, plain, result, timed_out


def analyse(req: dict) -> dict:
    if req["task"] == "setup":
        def setup():
            liestruct = import_liestruct()
            for doc in req["docs"]:
                liestruct.load(doc)

        elapsed, plain, _, _ = Clock().run(setup)
        return {"time_s": elapsed, "plain_s": plain}

    liestruct = import_liestruct()

    from liestruct import cli, oracle
    import spans

    tracer, ops = None, [0]
    if req["mode"] == "trace":
        tracer = spans.Tracer(req["rung"])
        tracer.install()
    elif req["mode"] == "count":
        spans.count_field_ops(ops)

    def work():
        L = liestruct.load(req["doc"])
        if req["task"] == "report":
            return json.dumps(cli.build_report(L, None), sort_keys=True, indent=2)
        return oracle.oracle_check(L, oracle.EnumBudget())

    # no probing inside traced or counted work, whose spans it would inflate
    clock = Clock(req.get("limit_s"), probing=req["mode"] == "plain")
    elapsed, plain, result, timed_out = clock.run(work)
    out = {
        "time_s": elapsed,
        "plain_s": plain,
        "timed_out": timed_out,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if timed_out:
        return out
    if req["task"] == "report":
        report = json.loads(result)
        out["digest"] = hashlib.sha256(result.encode()).hexdigest()
        out["summary"] = summary(report)
        out["certified"] = certified_counts(report)
    else:
        out["problems"] = result
    if tracer is not None:
        out["layers"] = tracer.layer_counts()
    if req["mode"] == "count":
        out["layers"] = {spans.FIELD_OPS: ops[0]}
    return out


def main() -> int:
    result = analyse(json.loads(sys.stdin.read()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
