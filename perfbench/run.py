"""latdiag benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload suite_desk --seed 1 --seconds 22 --trace 0

Run from anywhere inside a source tree that has ``src/latdiag`` next to this
directory. Every sample runs in a fresh interpreter (``worker.py``), one at
a time:

- ``--trace 0``: a few set-up-only processes, then passes over the
  workload's ops, each in a new process, while the next pass still fits in
  ``--seconds``. Reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
- ``--trace 1``: one untraced pass and one traced pass. Reports the
  ``per_layer`` metrics of the traced pass and ``trace.overhead_s``, its
  wall time minus the untraced pass's.

Op latencies are in reference-speed seconds (see ``worker.Speedometer``
and README.md). Every op's output is checked exactly. The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with a run header, goes to ``perfbench/out/``. Exit status 1 when an
op failed (each failure is named on stderr with the command that replays
it), 2 when the tree has no ``src/latdiag``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 15
# A run must end within 180 s; workers get what is left of this budget.
TIME_LIMIT_S = 170.0
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0)
TAIL_MIN_OPS = 100


class WorkerError(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float, extra_checks: bool = False, spans: Path | None = None) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    t0 = time.monotonic()
    cmd = [sys.executable, "-E", "-s", str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode, "--t0", repr(t0)]
    if extra_checks:
        cmd.append("--extra-checks")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["elapsed_s"] = time.monotonic() - t0
    return report


def tail(latencies: list[float]) -> dict | None:
    """The highest percentile of the ladder with at least 10 samples beyond it
    (nearest rank), or None below TAIL_MIN_OPS samples."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    ordered = sorted(latencies)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return {"value": ordered[rank - 1] * 1000, "unit": "ms", "percentile": q, "samples": n}
    return None


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], dict]:
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(args, "pass", deadline, extra_checks=not passes))
        if time.monotonic() - start + passes[-1]["elapsed_s"] > args.seconds:
            break
    latencies = [x for p in passes for x in p["latencies"]]
    walls = [sum(p["latencies"]) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {"op_tail_ms": tail(latencies), "setup_probes_s": setups,
             "passes": [{"wall_s": w, "raw_wall_s": sum(p["raw_latencies"])}
                        | {k: v for k, v in p.items() if not k.endswith("latencies")}
                        for p, w in zip(passes, walls)]}
    return metrics, passes, extra


def per_layer(args, deadline: float) -> tuple[dict, list[dict], dict]:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz"
    plain = spawn(args, "pass", deadline, extra_checks=True)
    traced = spawn(args, "traced", deadline, spans=spans)
    untraced_wall = sum(plain["latencies"])
    traced_wall = sum(traced["latencies"])
    # Self times to reference-speed seconds, by the traced pass's own factor.
    factor = traced_wall / sum(traced["raw_latencies"])
    metrics = {k: v * factor if k.endswith(".self_s") else v for k, v in traced.pop("layers").items()}
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "spans_file": spans.name}
    return metrics, [plain, traced], extra


def git_commit() -> str | None:
    """The commit checked out at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "latdiag" / "__init__.py").is_file():
        print(f"error: no latdiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    uname = os.uname()
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": f"{uname.sysname} {uname.release} {uname.machine}",
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }
    run = per_layer if args.trace else end_to_end
    try:
        values, passes, extra = run(args, started + TIME_LIMIT_S)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    header["loadavg_end"] = os.getloadavg()
    header["run_s"] = time.monotonic() - started

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    summary = {"correct": not failures, "attempted": attempted, "failed": len(failures),
               "metrics": metrics}
    record = {"header": header, **summary, "error_rate": len(failures) / attempted,
              "failures": failures, **extra}
    if args.trace:
        record["layers"] = values
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for index, command, message in failures:
        print(f"FAIL op {index}: {command}\n  {message}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
