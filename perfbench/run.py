"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

Each workload pass runs in a fresh worker process (``worker.py``); passes
repeat until ``--seconds`` of measurement have elapsed (every workload's
pass is longer than the configured run time, so a run is one pass).  With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` a single traced pass reports the per-layer metrics.

Stdout: a context line (host fingerprint, seed, workload), then the result
as the last line::

    {"correct": true, "attempted": 1471, "failed": 0, "metrics": {...}}
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
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
WORKLOADS = ("augment", "table5", "serve")
#: A pass that runs longer than this is killed and the run fails.
PASS_TIMEOUT_S = 170.0


def host_fingerprint() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_pass(workload: str, seed: int, trace: int, work_dir: Path, spans_out: Path | None):
    """One worker process; returns its result dict (raises on failure)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--work-dir", str(work_dir),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(passes: list[dict]) -> dict:
    """Medians over the passes of one run."""

    def median(fn):
        return statistics.median(fn(p) for p in passes)

    return {
        name: median(lambda p: p[name])
        for name in ("setup_s", "ref_cpu_s", "pairs_per_ref_s", "peak_rss_mb")
    }


#: Serving metrics, read from the server and the load generator after the
#: ``high`` step (latencies also after ``low``); 0 in the other workloads.
SERVING_METRICS = {
    "serving.queue.p50_ms": "queue_p50_ms",
    "serving.queue.p95_ms": "queue_p95_ms",
    "serving.batch.mean_size": "batch_mean_size",
    "serving.cache.hit_ratio": "cache_hit_ratio",
    "serving.link.busy_s": "link_busy_s",
    "serving.decode.busy_s": "decode_busy_s",
    "serving.execute.busy_s": "execute_busy_s",
    "serving.degraded": "degraded",
    "serving.backlog_end": "backlog_end",
    "serve.gen_late_p95_ms": "gen_late_p95_ms",
    "serve.latency_high_p50_ms": "p50_ms",
    "serve.latency_high_p95_ms": "p95_ms",
}


def per_layer(result: dict) -> dict:
    values = dict(result["layers"])
    values["fail_ratio"] = result["failed"] / result["attempted"]
    steps = result.get("steps")
    high = steps["high"] if steps else {}
    low = steps["low"] if steps else {}
    for name, key in SERVING_METRICS.items():
        values[name] = high.get(key, 0)
    values["serve.latency_low_p50_ms"] = low.get("p50_ms", 0)
    values["serve.latency_low_p95_ms"] = low.get("p95_ms", 0)
    values["serve.max_ok_rps"] = result.get("max_ok_rps", 0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ScienceBenchmark repo benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_out = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    passes: list[dict] = []
    started = time.monotonic()
    try:
        while True:
            passes.append(
                run_pass(
                    args.workload, args.seed, args.trace,
                    work_dir / f"pass{len(passes)}",
                    spans_out if args.trace else None,
                )
            )
            if args.trace or time.monotonic() - started >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = per_layer(passes[0]) if args.trace else end_to_end(passes)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    # Layers a workload never reaches read 0 (no calls, no time).
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "host": host_fingerprint(),
    }
    if not args.trace:
        # The raw figures behind the reference seconds, per pass.
        context["raw"] = [
            {name: p[name] for name in ("wall_s", "work_cpu_s", "slowness")} for p in passes
        ]
    if "steps" in passes[0]:
        # Requests sent, answered and failed (by kind) in every step.
        context["requests"] = {
            label: {"sent": sum(step["outcomes"].values()), **step["outcomes"]}
            for label, step in passes[0]["steps"].items()
        }
    print(json.dumps(context, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": all(p["correct"] for p in passes),
                "attempted": sum(p["attempted"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
