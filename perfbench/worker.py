"""One benchmark process: set up a workload, then optionally run one pass.

Started by ``run.py`` in a fresh interpreter for every sample, so each pass
starts with cold library caches, as a ``latdiag`` command does. Prints one
JSON object on stdout.

    python3 perfbench/worker.py --root . --workload suite_desk --seed 1 \
        --mode pass --t0 <time.monotonic() of the parent before the spawn>
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

# The reference loop runs every SAMPLE_EVERY_S of wall time during a pass.
SAMPLE_EVERY_S = 0.1
# Nominal time of reference_loop: about its mean on the machine the benchmark
# was defined on (2-vCPU VM, Xeon at 2.1 GHz, Python 3.11).
REFERENCE_S = 0.003
# An op's speed is read from the samples taken within WINDOW_S of it, or from
# the MIN_SAMPLES nearest ones when that window holds fewer.
WINDOW_S = 0.5
MIN_SAMPLES = 5


def reference_loop() -> int:
    """Fixed work built from latdiag's ingredients (tuples, dicts, rationals)
    but none of its code; its duration tracks the machine's current speed."""
    acc = {}
    for i in range(1, 800):
        key = (i % 7, i % 11, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i % 5 + 1, i % 3 + 1)
    return len(acc)


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth. A mean, unlike a median,
    follows the share of time the machine spent slow."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class Speedometer:
    """Times the reference loop from a SIGALRM handler, so samples land
    inside long ops as well as between short ones. ``pauses`` lists each
    sample's (start, end); run_pass takes them out of the op latencies and
    the tracer out of its layers' self time."""

    def __init__(self):
        self.pauses: list[tuple[float, float]] = []

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_loop()
        self.pauses.append((start, time.perf_counter()))

    def __enter__(self):
        reference_loop()  # warm-up
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, timings: list[tuple[float, float]]) -> list[float]:
        """Op seconds at the reference speed: each latency times REFERENCE_S
        over the trimmed mean of the samples around that op."""
        starts = [start for start, _ in self.pauses]
        took = [end - start for start, end in self.pauses]
        out = []
        for start, seconds in timings:
            lo = bisect.bisect_left(starts, start - WINDOW_S)
            hi = bisect.bisect_right(starts, start + seconds + WINDOW_S)
            if hi - lo < MIN_SAMPLES:
                mid = (lo + hi) // 2
                lo, hi = max(mid - MIN_SAMPLES, 0), mid + MIN_SAMPLES
            out.append(seconds * REFERENCE_S / trimmed_mean(took[lo:hi]))
        return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--extra-checks", action="store_true")
    parser.add_argument("--spans", help="gzip file for the traced pass's spans")
    args = parser.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import workloads  # imports latdiag: part of the set-up being timed

    if not Path(workloads.latdiag.__file__).resolve().is_relative_to(src):
        print(f"latdiag was imported from {workloads.latdiag.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    with Speedometer() as speed:
        timings, failures = workloads.run_pass(
            workload, ops, tracer.op if tracer else None, speed.pauses)
    # Read before the extra checks, which build large objects of their own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.extra_checks:
        failures += workload.extra_checks(ops, args.seed)
    result.update(
        attempted=len(ops),
        raw_latencies=[seconds for _, seconds in timings],
        latencies=speed.scaled(timings),
        reference_samples=len(speed.pauses),
        failures=[[i, workload.command(ops[i]), message] for i, message in failures],
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(speed.pauses)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
