"""One workload pass in a fresh process: set up, measure, check, report.

Run by ``run.py`` (one process per pass, because in-process state leaks
between tasks), never by hand except to debug::

    python3 perfbench/worker.py --workload augment --seed 1 --trace 0 --work-dir DIR

Prints one JSON object as its last stdout line.  The program under test is
driven only through its public API with its defaults: quick preset, native
engine, the program's own tracer off.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import gc
import hashlib
import importlib
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from loadgen import build_stream, percentile, run_closed, run_step  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: Samples the core's speed during untraced passes (see ``speed.py``).
PROBE = SpeedProbe()

#: Modules each workload imports before set-up is timed.
IMPORTS = {
    "augment": ("repro.adapters", "repro.llm.models", "repro.runtime", "repro.synthesis"),
    "table5": ("repro.experiments", "repro.experiments.tasks", "repro.runtime"),
    "serve": (
        "repro.experiments",
        "repro.experiments.tasks",
        "repro.runtime",
        "repro.serving.loader",
        "repro.serving.server",
    ),
}

#: Cheap set-up steps are repeated and the median reported.
SETUP_REPEATS = 3

# -- augment: quick-preset targets, scale and seeds, serial, no cache.
AUGMENT_TARGETS = {"cordis": 300, "sdss": 420, "oncomx": 260}
AUGMENT_SCALE = 0.3
AUGMENT_PRESET_SEED = 2023

# -- table5: the cordis rows (3 systems x 4 regimes), one worker, cold cache.
TABLE5_DOMAIN = "cordis"

# -- serve: ValueNet/both over cordis + sdss, execute on, open-loop ladder.
SERVE_DOMAINS = ("cordis", "sdss")
SERVE_SYSTEM, SERVE_REGIME = "valuenet", "both"
#: (label, offered requests/s).  There is no step above capacity: its
#: admission-control rejections would be failed requests and its drain rate
#: was not steady; ``pairs_per_ref_s`` measures capacity from CPU time instead.
SERVE_LADDER = (("low", 15.0), ("high", 25.0))
#: A step is "ok" when its p95 stays under this, nothing fails and the
#: backlog when the last request is due is at most one batch.
SERVE_P95_LIMIT_MS = 1000.0
SERVE_BACKLOG_LIMIT = 8


def split_digest(pairs) -> str:
    """sha256 over the (question, sql) sequence of one split."""
    digest = hashlib.sha256()
    for pair in pairs:
        digest.update(json.dumps([pair.question, pair.sql]).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def augment_order(seed: int) -> list[str]:
    """The seeded order the domains run in.  The splits must not depend on
    it: the pipeline is history-independent, so one digest set fits all."""
    return random.Random(f"perfbench-augment:{seed}").sample(
        list(AUGMENT_TARGETS), len(AUGMENT_TARGETS)
    )


def sql_digest(sql: str | None) -> str:
    return hashlib.sha256(repr(sql).encode("utf-8")).hexdigest()


def import_cpu_seconds(modules: tuple[str, ...]) -> float:
    """Median CPU seconds to import ``modules`` in a fresh interpreter
    (``SETUP_REPEATS`` of them)."""
    probe = (
        "import importlib, sys, time\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "t = time.process_time()\n"
        f"for m in {list(modules)!r}: importlib.import_module(m)\n"
        "print(time.process_time() - t)\n"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Meter:
    """Wall time and process CPU time of a block, the speed probe's own CPU
    time taken out; ``since``/``until`` bound the probe's samples in it.
    ``other_threads_cpu_s`` is the CPU time of every thread but this one
    (the probe runs on this one)."""

    def __enter__(self) -> "Meter":
        self.since = PROBE.mark()
        self._wall, self._cpu = time.perf_counter(), time.process_time()
        self._thread_cpu = time.thread_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.until = PROBE.mark()
        process_cpu_s = time.process_time() - self._cpu
        self.other_threads_cpu_s = process_cpu_s - (time.thread_time() - self._thread_cpu)
        self.cpu_s = process_cpu_s - PROBE.cpu_s(self.since, self.until)


def timed_repeats(fn):
    """Median CPU seconds over ``SETUP_REPEATS`` calls of ``fn``, and the
    last call's result.  Each result is dropped before the next call starts,
    so the repeats never hold more than one fixture in memory at a time."""
    samples, result = [], None
    for _ in range(SETUP_REPEATS):
        result = None
        gc.collect()
        with Meter() as meter:
            result = fn()
        samples.append(meter.cpu_s)
    return statistics.median(samples), result


# -- workloads -----------------------------------------------------------------
#
# Each returns a dict: fixture_cpu_s (median set-up CPU after imports),
# wall_s and work_cpu_s (the measured work), pairs and pairs_cpu_s (the CPU
# seconds they took), window (the probe samples taken during the work),
# attempted, failed (every output mismatch included), plus workload extras.


def run_augment(seed: int, work_dir: Path, expected: dict | None) -> dict:
    from repro import adapters
    from repro.llm.models import GPT3_PROFILE, make_model
    from repro.runtime import derive_seed
    from repro.synthesis import AugmentationPipeline, PipelineConfig

    def build_domains():
        return {
            name: adapters.get_adapter(name).build(scale=AUGMENT_SCALE)
            for name in AUGMENT_TARGETS
        }

    fixture_cpu_s, domains = timed_repeats(build_domains)

    reports = {}
    with Meter() as work:
        for name in augment_order(seed):
            # The seeds `tables` uses, so the splits are the suite's Synth splits.
            pipeline_seed = derive_seed(AUGMENT_PRESET_SEED, f"domain:{name}")
            pipeline = AugmentationPipeline(
                domains[name],
                model=make_model(GPT3_PROFILE, seed=pipeline_seed),
                config=PipelineConfig(
                    target_queries=AUGMENT_TARGETS[name], seed=pipeline_seed
                ),
            )
            reports[name] = pipeline.run(rng=random.Random(pipeline_seed))

    digests = {name: split_digest(r.split.pairs) for name, r in reports.items()}
    attempted = sum(r.n_generated_sql for r in reports.values())
    failed = sum(r.n_dead_lettered for r in reports.values())
    if expected is not None:
        want = expected["augment"]
        for name, report in reports.items():
            if digests[name] != want[name]:
                failed += report.n_generated_sql
    return {
        **work_figures(fixture_cpu_s, work),
        "pairs": sum(r.n_pairs for r in reports.values()),
        "attempted": attempted,
        "failed": min(failed, attempted),
        "record": digests,
    }


def run_table5(seed: int, work_dir: Path, expected: dict | None) -> dict:
    from repro.experiments import ExperimentConfig, Suite
    from repro.experiments.tasks import eval_grid
    from repro.runtime import Runtime

    cache_dirs = (work_dir / f"table5-cache-{index}" for index in itertools.count())

    def make_suite():
        return Suite.from_config(
            ExperimentConfig(domains=(TABLE5_DOMAIN,)),
            runtime=Runtime(workers=1, cache_dir=str(next(cache_dirs))),
        )

    fixture_cpu_s, suite = timed_repeats(make_suite)

    names = eval_grid(domains=(TABLE5_DOMAIN,), include_spider_control=False)
    with Meter() as work:
        cells = suite.ensure(names)

    record = {
        name: {"accuracy": cell.accuracy, "n_eval": cell.n_eval, "triage": cell.triage}
        for name, cell in cells.items()
    }
    report = suite.runtime.report
    attempted = len(report)
    failed = report.count("failed")
    if expected is not None:
        want = expected["table5"]
        mismatched = [name for name in names if record[name] != want.get(name)]
        if mismatched or set(want) != set(names):
            failed += max(1, len(mismatched))
    return {
        **work_figures(fixture_cpu_s, work),
        "pairs": sum(cell.n_eval for cell in cells.values()),
        "attempted": attempted,
        "failed": min(failed, attempted),
        "record": record,
    }


def run_serve(seed: int, work_dir: Path, expected: dict | None, open_loop: bool) -> dict:
    from repro.experiments import ExperimentConfig, Suite
    from repro.experiments.tasks import domain_task
    from repro.runtime import Runtime
    from repro.serving.loader import load_backends
    from repro.serving.server import InferenceServer, ServerConfig

    config = ExperimentConfig(domains=SERVE_DOMAINS)
    cache_dir = str(work_dir / "serve-cache")

    def load():
        suite = Suite.from_config(config, runtime=Runtime(workers=1, cache_dir=cache_dir))
        return suite, load_backends(
            suite, domains=SERVE_DOMAINS, system_name=SERVE_SYSTEM, regime=SERVE_REGIME
        )

    with Meter() as cold:
        load()  # trains and stores into the fresh cache
    warm_cpu_s, (suite, bundle) = timed_repeats(load)
    if not bundle.warm:
        raise RuntimeError("serve set-up: the second load was not warm")

    questions = [
        (name, pair.question)
        for name in SERVE_DOMAINS
        for pair in suite.artifact(domain_task(name)).dev.pairs
    ]
    server_config = ServerConfig(execute=True)

    async def on_fresh_server(stream, drive):
        for backend in bundle.backends.values():
            backend.system._link_cache.clear()  # cold link memo per step
        server = InferenceServer(bundle.backends, server_config)
        with Meter() as meter:
            async with server:
                step = await drive(server, stream)
        return stream, step, server.stats(), meter

    async def all_steps():
        # The closed-loop replay runs first, from the state set-up leaves,
        # so what it measures does not depend on the open-loop steps' timing.
        steps = {"replay": await on_fresh_server(
            build_stream(questions, seed * 10 + len(SERVE_LADDER)), run_closed
        )}
        for index, (label, rate) in enumerate(SERVE_LADDER if open_loop else ()):
            steps[label] = await on_fresh_server(
                build_stream(questions, seed * 10 + index),
                lambda server, stream: run_step(server, stream, rate),
            )
        return steps

    steps = asyncio.run(all_steps())

    # Offline reference: digests of the same systems' predict_batch output,
    # one batch per domain, recorded ahead (so a run does not pay for it).
    if expected is None:
        reference = {name: {} for name in SERVE_DOMAINS}
        for name in SERVE_DOMAINS:
            asked = [q for domain, q in questions if domain == name]
            predicted = bundle.backends[name].system.predict_batch(asked, name)
            reference[name].update(zip(asked, map(sql_digest, predicted)))
    else:
        reference = expected["serve"]

    attempted = failed = 0
    per_step = {}
    for label, (stream, step, stats, meter) in steps.items():
        outcomes: dict[str, int] = {}
        for (domain, question), result in zip(stream, step.results):
            outcome = result.status
            if outcome == "ok" and sql_digest(result.sql) != reference[domain].get(question):
                outcome = "mismatch"
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        bad = len(stream) - outcomes.get("ok", 0)
        attempted += len(stream)
        failed += bad
        latency_ms = [s * 1000.0 for s in step.latency_s]
        counters = stats.counters
        decoded = counters["served"] + counters["failed"] - counters["cache_hits"]
        hist = stats.latency_ms
        per_step[label] = {
            "rate": step.rate,
            "wall_s": meter.wall_s,
            "window": (meter.since, meter.until),
            "p50_ms": percentile(latency_ms, 0.50),
            "p95_ms": percentile(latency_ms, 0.95),
            "failed": bad,
            "outcomes": outcomes,
            "backlog_end": step.backlog_end,
            "cpu_s": meter.cpu_s,
            # The event loop runs on this thread; every other is a decode thread.
            "decode_cpu_s": meter.other_threads_cpu_s,
            "answered": sum(1 for r in step.results if r.status in ("ok", "degraded")),
            "gen_late_p95_ms": percentile(step.late_s, 0.95) * 1000.0 if step.late_s else 0.0,
            "queue_p50_ms": hist["queue"]["p50_ms"],
            "queue_p95_ms": hist["queue"]["p95_ms"],
            "batch_mean_size": decoded / counters["batches"] if counters["batches"] else 0.0,
            "cache_hit_ratio": counters["cache_hits"] / len(step.results),
            "link_busy_s": hist["link"]["mean_ms"] * hist["link"]["count"] / 1000.0,
            "decode_busy_s": hist["decode"]["mean_ms"] * hist["decode"]["count"] / 1000.0,
            "execute_busy_s": hist["execute"]["mean_ms"] * hist["execute"]["count"] / 1000.0,
            "degraded": counters["degraded"],
        }
    ok_rates = [
        s["rate"]
        for label, s in per_step.items()
        if label != "replay"
        and s["p95_ms"] <= SERVE_P95_LIMIT_MS
        and s["failed"] == 0
        and s["backlog_end"] <= SERVE_BACKLOG_LIMIT
    ]
    replay = per_step["replay"]
    return {
        "fixture_cpu_s": cold.cpu_s + warm_cpu_s,
        # The measured work is the closed-loop replay.  The open-loop steps'
        # batching and cache hits depend on timing, which moved their CPU
        # time by 10-15% between runs; their latencies spread 0.3-1.0
        # IQR/median, too wide for any bound, so they are per-layer metrics.
        "wall_s": replay["wall_s"],
        # The time the server spends answering: its decode threads' CPU time
        # (link, decode and execute run there).
        "work_cpu_s": replay["decode_cpu_s"],
        # Answers per second of process CPU time (event loop included).
        "pairs": replay["answered"],
        "pairs_cpu_s": replay["cpu_s"],
        "window": replay["window"],
        "attempted": attempted,
        "failed": failed,
        "steps": per_step,
        "max_ok_rps": max(ok_rates) if ok_rates else 0.0,
        "record": reference,
    }


def work_figures(fixture_cpu_s: float, work: Meter) -> dict:
    """The figures of a single-threaded workload whose work ``work`` timed."""
    return {
        "fixture_cpu_s": fixture_cpu_s,
        "wall_s": work.wall_s,
        "work_cpu_s": work.cpu_s,
        "pairs_cpu_s": work.cpu_s,
        "window": (work.since, work.until),
    }


def reference_figures(result: dict, import_cpu_s: float) -> dict:
    """CPU figures in reference seconds (see ``speed.py``): the work's over
    the probe samples taken during it, set-up's over the whole pass (its own
    windows are too short to sample well)."""
    since, until = result["window"]
    slowness = PROBE.slowness(since, until)
    return {
        "slowness": slowness,
        "ref_cpu_s": result["work_cpu_s"] / slowness,
        "pairs_per_ref_s": result["pairs"] / (result["pairs_cpu_s"] / slowness),
        "setup_s": (import_cpu_s + result["fixture_cpu_s"]) / PROBE.slowness(),
    }


WORKLOADS = {"augment": run_augment, "table5": run_table5, "serve": run_serve}


# -- tracing -------------------------------------------------------------------


class LayerHooks:
    """Extra per-layer counters gathered from wrapped calls' arguments."""

    def __init__(self) -> None:
        self.store_bytes = 0
        self.retries = 0
        self.generators: dict[int, object] = {}

    def hooks(self) -> dict:
        return {
            "runtime.cache.store": self._store,
            "synthesis.translate": self._translate,
            "synthesis.generate": self._generate,
        }

    def _store(self, args, result) -> None:
        cache, key = args[0], args[1]
        path = cache.path_for(key)
        if path.exists():
            self.store_bytes += path.stat().st_size

    def _translate(self, args, result) -> None:
        self.retries += max(0, result.attempts - 1)

    def _generate(self, args, result) -> None:
        self.generators[id(args[0])] = args[0]

    def accept_ratio(self) -> float:
        candidates = sum(g.stats.candidates for g in self.generators.values())
        accepted = sum(g.stats.accepted for g in self.generators.values())
        return accepted / candidates if candidates else 0.0


def layer_metrics(recorder: layers.SpanRecorder, extra: LayerHooks, wall_s: float) -> dict:
    totals = recorder.totals()
    out: dict[str, float] = {}
    for name in layers.ENTRY_POINTS:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0, "errors": 0})
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.errors"] = entry["errors"]
    out["runtime.cache.store.bytes"] = extra.store_bytes
    out["synthesis.translate.retries"] = extra.retries
    out["synthesis.generate.accept_ratio"] = extra.accept_ratio()
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = layers.wrapper_cost() * len(recorder.spans)
    out["unattributed_s"] = wall_s - sum(e["self_s"] for e in totals.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out", default=None, help="JSONL file for the traced spans")
    parser.add_argument("--record", action="store_true", help="skip the expected-value check")
    args = parser.parse_args(argv)

    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    expected = None
    if not args.record:
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

    import_cpu_s = import_cpu_seconds(IMPORTS[args.workload])
    if not args.trace:
        PROBE.start()
    for name in IMPORTS[args.workload]:
        importlib.import_module(name)
    recorder = extra = None
    patched = []
    if args.trace:
        recorder, extra = layers.SpanRecorder(), LayerHooks()
        patched = layers.install(recorder, hooks=extra.hooks())
    run_workload = WORKLOADS[args.workload]
    if run_workload is run_serve:
        # The open-loop ladder feeds only per-layer metrics: traced runs only.
        run_workload = functools.partial(run_serve, open_loop=bool(args.trace))
    started = time.perf_counter()
    result = run_workload(args.seed, work_dir, expected)
    region_s = time.perf_counter() - started
    layers.uninstall(patched)
    if not args.trace:
        PROBE.stop()
        result.update(reference_figures(result, import_cpu_s))

    # One rule for every workload: a run is correct when nothing failed,
    # and every output that differs from the recorded one counts as failed.
    result["correct"] = result["failed"] == 0
    result["import_cpu_s"] = import_cpu_s
    result["region_s"] = region_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, extra, region_s)
        if args.spans_out:
            recorder.write_jsonl(Path(args.spans_out))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
