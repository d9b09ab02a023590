"""vfreps benchmark.

One workload per process, one thread, run from the root of a checkout:

    python3 perfbench/run.py --workload table-psl2z --seed 1 --seconds 28 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1
makes a separate traced run that reports the per-layer metrics and checks
that the pipeline composed from its public stages equals the production
path.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the details (sample counts, tail percentiles, input properties).

    python3 perfbench/run.py --workload all --seed 1 --seconds 28 [--out FILE]

runs every workload untraced and traced, each in its own process, prints
every metric by name with its unit, and optionally writes them to FILE.

End-to-end metrics are the same on every workload; the operation they
time is one cold table (table-*), one request (requests-mixed) or one
pass over the oracle point set (oracle-d2).  Every timing is scaled to a
reference host speed measured around it (harness.SpeedProbe); the wall
times are kept in the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import harness

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
WORKLOAD_NAMES = ("table-psl2z", "table-sl2z", "requests-mixed", "oracle-d2")
RUN_TIMEOUT = 600


def _unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def _import_vfreps():
    if not (harness.SRC / "vfreps" / "__init__.py").is_file():
        raise SystemExit(f"error: no vfreps sources under {harness.SRC}")
    if not harness.GOLDEN.is_file():
        raise SystemExit(f"error: golden tables missing at {harness.GOLDEN}")
    sys.path.insert(0, str(harness.SRC))
    import vfreps
    import vfreps.cli

    return vfreps


def run_one(args):
    vfreps = _import_vfreps()
    import workloads

    golden = json.loads(harness.GOLDEN.read_text())
    work = tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).resolve().parent)
    tracer = harness.Tracer()
    ctx = workloads.Context(vfreps, Path(work), args.seed, golden, tracer)
    workload = workloads.WORKLOADS[args.workload]()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    metrics = {}
    try:
        setup_file = workload.prepare(ctx)
        if args.trace:
            t0 = time.perf_counter()
            per_layer, extra = workload.traced(ctx, args.seconds)
            details["traced_run_s"] = time.perf_counter() - t0
            details["span_self_s"] = tracer.self_times()
            metrics = per_layer
        else:
            # set-up samples are spread over the run and, like every timing,
            # scaled to the reference speed measured around them
            setup = []

            def setup_sample():
                ctx.probe.sample()
                setup.append((time.perf_counter(), harness.setup_once(setup_file)))

            for _ in range(3):
                setup_sample()
            (latencies, samples, rounds), extra = workload.timed(ctx, args.seconds, setup_sample)
            while len(setup) < harness.SETUP_REPEATS:
                setup_sample()
            ctx.probe.sample()
            summary = harness.timing_summary(latencies)
            details.update(
                rounds=rounds,
                latency_s=summary,
                wall_s=harness.timing_summary(samples),
                reference_s=harness.timing_summary(ctx.probe.times),
                setup_wall_s=[dt for _, dt in setup],
            )
            metrics = {
                "op_p50_ms": summary["median"] * 1000.0,
                "op_p90_ms": summary["p90"] * 1000.0,
                "ops_per_s": len(latencies) / sum(latencies),
                "peak_rss_mib": harness.peak_rss_mib(),
                "setup_s": statistics.median(dt * ctx.probe.scale(t0, t0 + dt) for t0, dt in setup),
            }
        details.update(extra)
    except Exception as exc:  # reported as a failed operation, not a crash
        ctx.count([f"{type(exc).__name__}: {exc}", traceback.format_exc()[-2000:]])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["problems"] = ctx.problems[:20]
    result = {
        "correct": ctx.failed == 0,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": _unit_of(k)} for k, v in sorted(metrics.items())},
    }
    for k, v in result["metrics"].items():
        print(f"{args.workload} {k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    report = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT, text=True)
            lines = proc.stdout.strip().split("\n")
            if proc.returncode != 0 or not lines[-1].startswith("{"):
                status = 1
            for line in lines[:-2]:
                print(line)
            try:
                result = json.loads(lines[-1])
                details = json.loads(lines[-2])["details"]
            except (ValueError, IndexError, KeyError):
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                status = 1
                continue
            print(f"{name} trace={trace}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            report[f"{name}/trace{trace}"] = {"result": result, "details": details}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the collected results here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
