"""Tests of the benchmark's own harness (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import speed  # noqa: E402
from loadgen import build_stream, percentile, run_closed  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)

    parse = rec.wrap(lambda: clock.advance(1.0), "sql.parse")

    def _execute():
        clock.advance(2.0)
        parse()
        clock.advance(0.5)
        parse()

    execute = rec.wrap(_execute, "engine.execute")

    def _train():
        clock.advance(3.0)
        execute()
        parse()

    train = rec.wrap(_train, "nl2sql.train")
    train()

    totals = rec.totals()
    assert totals["nl2sql.train"] == {"calls": 1, "self_s": 3.0, "errors": 0}
    assert totals["engine.execute"] == {"calls": 1, "self_s": 2.5, "errors": 0}
    assert totals["sql.parse"] == {"calls": 3, "self_s": 3.0, "errors": 0}
    # Self times partition the root span: nothing counted twice or lost.
    assert sum(t["self_s"] for t in totals.values()) == clock.now == 8.5


def test_errors_are_counted_and_reraised():
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)

    def boom():
        clock.advance(1.0)
        raise ValueError("bad sql")

    wrapped = rec.wrap(boom, "engine.execute")
    with pytest.raises(ValueError):
        wrapped()
    assert rec.totals()["engine.execute"] == {"calls": 1, "self_s": 1.0, "errors": 1}
    assert rec._stack() == []


def test_spans_on_another_thread_have_their_own_stack():
    rec = layers.SpanRecorder()
    inner = rec.wrap(lambda: None, "nl2sql.decode")

    def outer_body():
        thread = threading.Thread(target=inner)
        thread.start()
        thread.join()

    rec.wrap(outer_body, "outer")()
    by_name = {span.name: span for span in rec.spans}
    assert by_name["nl2sql.decode"].parent is None
    assert by_name["nl2sql.decode"].thread != by_name["outer"].thread
    assert by_name["outer"].child_s == 0.0


def test_on_return_hook_sees_arguments_and_result():
    rec = layers.SpanRecorder()
    seen = []
    wrapped = rec.wrap(lambda a, b: a + b, "x", on_return=lambda args, r: seen.append((args, r)))
    assert wrapped(2, 3) == 5
    assert seen == [((2, 3), 5)]


def test_spans_are_written_out_with_parents(tmp_path):
    clock = FakeClock()
    rec = layers.SpanRecorder(clock=clock)
    child = rec.wrap(lambda: clock.advance(1.0), "child")
    rec.wrap(lambda: child(), "root")()
    out = tmp_path / "spans.jsonl"
    rec.write_jsonl(out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["root", "child"]
    assert lines[1]["parent"] == lines[0]["id"]
    assert lines[0]["self_s"] == 0.0 and lines[1]["self_s"] == 1.0


def test_wrapper_cost_is_a_small_positive_number():
    cost = layers.wrapper_cost()
    assert 0.0 < cost < 1e-3


# -- the speed probe ------------------------------------------------------------


def test_speed_probe_scales_by_the_window_mean():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.samples = [ref, ref, 2 * ref, 2 * ref]
    assert probe.slowness(0, 2) == pytest.approx(1.0)
    assert probe.slowness(2) == pytest.approx(2.0)
    assert probe.slowness() == pytest.approx(1.5)
    assert probe.cpu_s(1, 3) == pytest.approx(3 * ref)
    with pytest.raises(RuntimeError):
        probe.slowness(4)


def test_speed_probe_samples_on_cpu_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    probe = speed.SpeedProbe().start()
    try:
        deadline = time.process_time() + 0.5
        while time.process_time() < deadline and probe.mark() < 3:
            speed.calibration_loop()
    finally:
        probe.stop()
    assert probe.mark() >= 3
    assert all(0.0 < sample < 0.1 for sample in probe.samples)
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


# -- installation ---------------------------------------------------------------


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines ``f`` and ``Thing``; ``fakepkg.b`` copies ``f``."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x * 2

    class Thing:
        def go(self):
            return "go"

    class Sub(Thing):
        pass

    a.f, a.Thing, a.Sub = f, Thing, Sub
    b.f = f  # ``from fakepkg.a import f``
    b.alias = f
    pkg.f = f  # re-export
    modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    yield types.SimpleNamespace(pkg=pkg, a=a, b=b, f=f, Thing=Thing, Sub=Sub)
    for name in modules:
        sys.modules.pop(name, None)


def test_install_patches_every_binding_of_a_function(fake_package):
    rec = layers.SpanRecorder()
    patched = layers.install(rec, {"layer.f": ("fakepkg.a:f",)}, package="fakepkg")
    assert len(patched) == 4
    for fn in (fake_package.a.f, fake_package.b.f, fake_package.b.alias, fake_package.pkg.f):
        assert fn is not fake_package.f
        assert fn(2) == 4
    assert rec.totals()["layer.f"]["calls"] == 4
    layers.uninstall(patched)
    assert fake_package.b.f is fake_package.f and fake_package.pkg.f is fake_package.f


def test_install_patches_methods_on_their_class(fake_package):
    rec = layers.SpanRecorder()
    patched = layers.install(rec, {"layer.go": ("fakepkg.a:Thing.go",)}, package="fakepkg")
    assert fake_package.Sub().go() == "go"  # inherited calls are traced too
    assert rec.totals()["layer.go"]["calls"] == 1
    layers.uninstall(patched)
    assert "go" in vars(fake_package.Thing) and fake_package.Thing().go() == "go"
    assert len(rec.spans) == 1


def test_install_fails_loudly(fake_package):
    rec = layers.SpanRecorder()
    for target in ("fakepkg.a:gone", "fakepkg.a:Thing.gone", "fakepkg.nope:f"):
        with pytest.raises(layers.EntryPointMissing):
            layers.install(rec, {"layer": (target,)}, package="fakepkg")
    # A method inherited, not defined, on the declared class is a miss too.
    with pytest.raises(layers.EntryPointMissing):
        layers.install(rec, {"layer": ("fakepkg.a:Sub.go",)}, package="fakepkg")
    # An override would bypass the wrapper: refuse it.
    fake_package.Sub.go = lambda self: "sub"
    with pytest.raises(layers.EntryPointMissing, match="overridden"):
        layers.install(rec, {"layer": ("fakepkg.a:Thing.go",)}, package="fakepkg")


def test_every_declared_entry_point_resolves():
    for targets in layers.ENTRY_POINTS.values():
        for target in targets:
            layers.resolve(target)


def test_installing_the_real_entry_points_round_trips():
    from repro import sql

    original = sql.parse
    rec = layers.SpanRecorder()
    patched = layers.install(rec)
    try:
        assert sql.parse is not original
        sql.parse("SELECT 1 FROM t")
    finally:
        layers.uninstall(patched)
    assert sql.parse is original
    assert rec.totals()["sql.parse"]["calls"] == 1


# -- the open-loop stream --------------------------------------------------------

QUESTIONS = [("cordis", f"question {i}") for i in range(84)] + [
    ("sdss", f"question {i}") for i in range(99)
]


def test_stream_is_deterministic_per_seed():
    assert build_stream(QUESTIONS, 7) == build_stream(QUESTIONS, 7)
    assert build_stream(QUESTIONS, 7) != build_stream(QUESTIONS, 8)


def test_closed_loop_sends_one_request_at_a_time_in_order():
    class Server:
        def __init__(self) -> None:
            self.in_flight = self.most_in_flight = 0
            self.asked: list[tuple[str, str]] = []

        async def submit(self, question, domain):
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
            self.asked.append((domain, question))
            await asyncio.sleep(0)
            self.in_flight -= 1
            return question.upper()

    server, stream = Server(), build_stream(QUESTIONS, 3)
    step = asyncio.run(run_closed(server, stream))
    assert server.asked == stream and server.most_in_flight == 1
    assert step.results == [question.upper() for _, question in stream]
    assert len(step.latency_s) == len(stream) and not step.late_s


def test_stream_sends_every_question_with_a_quarter_repeats():
    stream = build_stream(QUESTIONS, 3)
    assert len(stream) == 244  # >= 200 requests, so p95 has >= 10 samples above it
    assert set(stream) == set(QUESTIONS)
    seen = set()
    repeats = 0
    for item in stream:
        repeats += item in seen
        seen.add(item)
    assert repeats == len(stream) - len(QUESTIONS)
    assert 0.2 < repeats / len(stream) < 0.3


def test_percentile_is_nearest_rank():
    samples = list(range(1, 201))
    assert percentile(samples, 0.5) == 100
    assert percentile(samples, 0.95) == 190
    assert percentile([5.0], 0.95) == 5.0


# -- correctness digests ---------------------------------------------------------


def test_augment_order_is_a_seeded_permutation():
    orders = {tuple(worker.augment_order(seed)) for seed in range(20)}
    assert all(sorted(order) == sorted(worker.AUGMENT_TARGETS) for order in orders)
    assert len(orders) > 1
    assert worker.augment_order(5) == worker.augment_order(5)


def test_split_digest_is_stable_and_order_sensitive():
    pair = types.SimpleNamespace
    pairs = [pair(question="how many?", sql="SELECT count(*) FROM t"), pair(question="q", sql="s")]
    digest = worker.split_digest(pairs)
    assert digest == worker.split_digest(list(pairs))
    assert digest == "00a1799a879cfb8896fa81004814ce6518a11629e8e09d806a8a87b6fe9380de"
    assert digest != worker.split_digest(pairs[::-1])


def test_expected_values_cover_every_domain_and_cell():
    expected = json.loads((BENCH / "expected.json").read_text())
    assert set(expected["augment"]) == set(worker.AUGMENT_TARGETS)
    assert set(expected["serve"]) == set(worker.SERVE_DOMAINS)
    from repro.experiments.tasks import eval_grid

    assert set(expected["table5"]) == set(
        eval_grid(domains=(worker.TABLE5_DOMAIN,), include_spider_control=False)
    )
    assert all(cell["n_eval"] == 84 for cell in expected["table5"].values())


def test_setup_repeats_hold_one_fixture_at_a_time():
    """peak_rss_mb must be the program's figure, not the repeats' sum."""

    class Fixture:
        pass

    refs: list = []
    alive_at_call: list[int] = []

    def make():
        alive_at_call.append(sum(ref() is not None for ref in refs))
        fixture = Fixture()
        refs.append(weakref.ref(fixture))
        return fixture

    seconds, last = worker.timed_repeats(make)
    assert alive_at_call == [0] * worker.SETUP_REPEATS
    assert refs[-1]() is last and seconds >= 0.0


# -- the contract with BENCHMARK.json --------------------------------------------


def test_every_declared_metric_is_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_values = worker.layer_metrics(layers.SpanRecorder(), worker.LayerHooks(), 1.0)
    traced = run.per_layer({"layers": layer_values, "failed": 0, "attempted": 1})
    assert {m["name"] for m in spec["per_layer"]} <= set(traced)
    untraced = run.end_to_end(
        [{"setup_s": 1.0, "ref_cpu_s": 2.0, "pairs_per_ref_s": 5.0, "peak_rss_mb": 100.0}]
    )
    assert {m["name"] for m in spec["end_to_end"]} == set(untraced)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, exit non-zero
    and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "augment", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
