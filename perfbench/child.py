"""One timed pass over a workload, in a fresh interpreter.

Usage: child.py INSTANCES_JSON [--trace SPANS_JSON]

Imports ``genfrob.cli`` first, outside the timed region, then calls
``genfrob.cli.main(argv)`` once per instance with stdout and stderr
captured. While the pass runs, ``SpeedProbe`` times a fixed loop that
does not touch genfrob every 0.2 s, to follow the machine's speed; the
probes' own time is taken out of each instance's wall time. Prints one
JSON object: the pass's wall time, the process's peak RSS after the
pass, and each instance's exit code, output, wall time and median probe
time around it. With ``--trace`` the layer wrappers of layertrace.py are
installed before the pass and the spans are written to SPANS_JSON after
it.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time


PROBE_PERIOD = 0.2  # seconds of wall time between speed probes


def probe_work():
    """A fixed pure-Python loop of dict, tuple and integer work, about
    2 ms on a 2.1 GHz Xeon; it does not touch genfrob."""
    seen = {}
    acc = 0
    for i in range(4000):
        t = (i % 31, i & 7)
        seen[t] = seen.get(t, 0) + 1
        acc += i * 7 % 13
    return acc


class SpeedProbe:
    """Times probe_work() from a SIGALRM handler every PROBE_PERIOD
    seconds while the pass runs, to follow the machine's speed."""

    def __init__(self):
        self.samples = []

    def _probe(self, signum, frame):
        # A collection started by the probe's allocations would time the
        # program's heap, not the machine: keep the collector off meanwhile.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_work()
        self.samples.append((t0, time.perf_counter()))
        if enabled:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        self.idle(3 * PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        self.idle(3 * PROBE_PERIOD)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def idle(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def window(self, start, end):
        """(probe time inside [start, end], median probe time around it)."""
        inside = [(a, b) for a, b in self.samples if start <= a < end]
        before = [(a, b) for a, b in self.samples if b <= start][-2:]
        after = [(a, b) for a, b in self.samples if a >= end][:2]
        near = before + inside + after
        return sum(b - a for a, b in inside), statistics.median(b - a for a, b in near)


def run_instance(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed instance, not a failed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error,
            "start": t0, "end": time.perf_counter()}


def main():
    instances = json.loads(open(sys.argv[1], encoding="utf-8").read())
    spans_path = sys.argv[3] if len(sys.argv) > 3 and sys.argv[2] == "--trace" else None
    import genfrob.cli

    tracer = None
    if spans_path:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    with SpeedProbe() as probe:
        results = [run_instance(genfrob.cli.main, argv) for argv in instances]
    for res in results:
        start, end = res.pop("start"), res.pop("end")
        in_probe, res["ref_s"] = probe.window(start, end)
        res["wall_s"] = end - start - in_probe
    wall = sum(r["wall_s"] for r in results)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    json.dump({"wall_s": wall, "rss_kb": rss_kb, "results": results}, sys.stdout)


if __name__ == "__main__":
    main()
