"""The static-analysis framework (repro.checks) and the lock-order monitor.

Every rule gets a true-positive fixture (it must fire) and a negative
(the compliant idiom must not fire); the suppression machinery, the JSON
report shape and the runtime lock-order detector are covered separately.
The meta-test at the bottom is the repo's own gate: ``sciencebenchmark
check`` must be clean on the shipped source.
"""

from __future__ import annotations

import json
import textwrap
import threading

import pytest

from repro import cli
from repro.analysis.diagnostics import Severity
from repro.checks import lockorder
from repro.checks.engine import FileChecker, apply_suppressions, parse_suppressions
from repro.checks.lockorder import LockOrderMonitor, LockOrderViolation, MonitoredLock
from repro.checks.report import render_json
from repro.checks.runner import ALL_RULES, run_checks, select_rules


def check(source: str, path: str = "repro/nl2sql/example.py", select=None):
    """Run the (selected) rules over inline source; suppressions applied."""
    rules = select_rules(select)
    raw, sups = FileChecker(path, textwrap.dedent(source), rules).run()
    kept, meta = apply_suppressions(raw, sups, path)
    return kept + meta


def fired(findings, rule_id: str) -> list:
    return [f for f in findings if f.rule == rule_id]


# -- determinism rules ------------------------------------------------------------


def test_wall_clock_flags_time_reads():
    findings = check("import time\nt = time.perf_counter()\n")
    assert fired(findings, "det.wall-clock")


def test_wall_clock_flags_datetime_now():
    findings = check("from datetime import datetime\nstamp = datetime.now()\n")
    assert fired(findings, "det.wall-clock")


def test_wall_clock_allows_the_clock_module():
    findings = check(
        "import time\nt = time.monotonic()\n",
        path="repro/resilience/clock.py",
    )
    assert not fired(findings, "det.wall-clock")


def test_wall_clock_ignores_injected_clock_calls():
    findings = check("start = clock.now()\n")
    assert not fired(findings, "det.wall-clock")


def test_unseeded_random_flags_module_rng():
    findings = check("import random\nx = random.choice([1, 2])\n")
    assert fired(findings, "det.unseeded-random")


def test_unseeded_random_flags_seedless_random():
    findings = check("import random\nrng = random.Random()\n")
    assert fired(findings, "det.unseeded-random")


def test_unseeded_random_allows_seeded_streams():
    findings = check("import random\nrng = random.Random(derive_seed(7, 'x'))\n")
    assert not fired(findings, "det.unseeded-random")


def test_env_read_flags_environ_and_getenv():
    findings = check("import os\na = os.environ.get('X')\nb = os.getenv('Y')\n")
    assert len(fired(findings, "det.env-read")) == 2


def test_env_read_allows_the_cli():
    findings = check("import os\na = os.environ.get('X')\n", path="repro/cli.py")
    assert not fired(findings, "det.env-read")


def test_set_iteration_flags_for_list_and_join():
    findings = check(
        """
        for item in set(items):
            use(item)
        ordered = list({1, 2, 3})
        text = ",".join({a for a in items})
        """
    )
    assert len(fired(findings, "det.set-iteration")) == 3


def test_set_iteration_allows_sorted():
    findings = check(
        """
        for item in sorted(set(items)):
            use(item)
        ordered = sorted({1, 2, 3})
        """
    )
    assert not fired(findings, "det.set-iteration")


#: The shape ``LearnedLexicon.observe`` had while its Counter order followed
#: the string-hash seed: sets bound to locals, iterated later.
OLD_OBSERVE = """
def observe(self, question, lifted):
    ngrams = set(content_ngrams(question))
    for ngram in ngrams:
        self.ngram_freq[ngram] += 1
    columns: set[tuple[str, str]] = set()
    tables: set[str] = set()
    values = {(t, c, v) for t, c, v in lifted.values}
    for node in lifted.tree.walk():
        columns.add((node.table, node.name))
        tables.add(node.table)
    for ngram in ngrams:
        for key in columns:
            self.column_assoc[ngram][key] += 1
        for key in tables:
            self.table_assoc[ngram][key] += 1
        for key in values:
            self.value_assoc[ngram][key] += 1
"""


def test_set_iteration_flags_set_valued_locals():
    findings = fired(check(OLD_OBSERVE), "det.set-iteration")
    # Both loops over ``ngrams`` plus one each over columns/tables/values.
    assert sorted(f.line for f in findings) == [4, 12, 13, 15, 17]


def test_set_iteration_follows_locals_into_closures_and_sinks():
    findings = check(
        """
        def f(items):
            seen = {i for i in items}
            text = ",".join(seen)
            ordered = list(seen)

            def inner():
                return [s for s in seen]

            def shadowed(seen):
                return list(seen)

            return text, ordered, inner, shadowed
        """
    )
    assert sorted(f.line for f in fired(findings, "det.set-iteration")) == [4, 5, 8]


def test_set_iteration_allows_locals_rebound_or_ordered():
    findings = check(
        """
        def f(items, other):
            ngrams = dict.fromkeys(items)
            for ngram in ngrams:
                use(ngram)
            keys = set(items)
            keys = sorted(keys)
            for key in keys:
                use(key)
            pool = set(items)
            for value in sorted(pool):
                use(value)
            if other in pool:
                use(other)
            for param in other:
                use(param)
        """
    )
    assert not fired(findings, "det.set-iteration")


# -- concurrency rules ------------------------------------------------------------

LOCKED_CLASS = """
import threading

class Shared:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0
        self.items = []

    def bump(self):
        {body}
"""


def locked_class(body: str):
    return check(
        LOCKED_CLASS.format(body=body), path="repro/runtime/example.py"
    )


def test_unlocked_mutation_flags_bare_assign_and_append():
    findings = locked_class("self.value += 1; self.items.append(1)")
    assert len(fired(findings, "con.unlocked-mutation")) == 2


def test_unlocked_mutation_allows_with_lock():
    findings = locked_class(
        "with self._lock:\n            self.value += 1"
    )
    assert not fired(findings, "con.unlocked-mutation")


def test_unlocked_mutation_exempts_locked_suffix_methods():
    source = LOCKED_CLASS.format(body="pass") + (
        "    def _bump_locked(self):\n        self.value += 1\n"
    )
    findings = check(source, path="repro/runtime/example.py")
    assert not fired(findings, "con.unlocked-mutation")


def test_unlocked_mutation_needs_a_lock_owning_class():
    findings = check(
        """
        class Plain:
            def bump(self):
                self.value = 1
        """,
        path="repro/runtime/example.py",
    )
    assert not fired(findings, "con.unlocked-mutation")


def test_unlocked_mutation_only_in_concurrent_packages():
    findings = locked_class("self.value += 1")
    assert fired(findings, "con.unlocked-mutation")
    outside = check(
        LOCKED_CLASS.format(body="self.value += 1"),
        path="repro/nl2sql/example.py",
    )
    assert not fired(outside, "con.unlocked-mutation")


def test_blocking_async_flags_open_sleep_result_shutdown():
    findings = check(
        """
        async def serve(executor, future):
            handle = open("data.txt")
            time.sleep(0.1)
            value = future.result()
            executor.shutdown(wait=True)
        """
    )
    assert len(fired(findings, "con.blocking-async")) == 4


def test_blocking_async_allows_awaited_and_offloaded():
    findings = check(
        """
        async def serve(executor):
            await asyncio.sleep(0.1)
            await loop.run_in_executor(None, executor.shutdown)
        """
    )
    assert not fired(findings, "con.blocking-async")


def test_contextvar_leak_flags_discarded_token():
    findings = check(
        """
        from contextvars import ContextVar
        CURRENT = ContextVar("current")

        def enter(value):
            CURRENT.set(value)
        """
    )
    assert fired(findings, "con.contextvar-leak")


def test_contextvar_leak_allows_kept_token():
    findings = check(
        """
        from contextvars import ContextVar
        CURRENT = ContextVar("current")

        def enter(value):
            token = CURRENT.set(value)
            return token
        """
    )
    assert not fired(findings, "con.contextvar-leak")


# -- hygiene rules ----------------------------------------------------------------


def test_bare_except_flags():
    findings = check("try:\n    work()\nexcept:\n    pass\n")
    assert fired(findings, "hyg.bare-except")


def test_broad_except_warns_without_binding():
    findings = check("try:\n    work()\nexcept Exception:\n    pass\n")
    hits = fired(findings, "hyg.broad-except")
    assert hits and hits[0].severity is Severity.WARNING


def test_broad_except_allows_binding_or_reraise():
    findings = check(
        """
        try:
            work()
        except Exception as exc:
            record(type(exc).__name__)
        try:
            work()
        except Exception:
            raise
        """
    )
    assert not fired(findings, "hyg.broad-except")


def test_swallowed_cancel_flags_async_baseexception():
    findings = check(
        """
        async def worker():
            try:
                await step()
            except BaseException:
                pass
        """
    )
    assert fired(findings, "hyg.swallowed-cancel")


def test_swallowed_cancel_allows_reraise_and_sync_code():
    findings = check(
        """
        async def worker():
            try:
                await step()
            except BaseException:
                cleanup()
                raise

        def sync_worker():
            try:
                step()
            except BaseException as exc:
                record(exc)
        """
    )
    assert not fired(findings, "hyg.swallowed-cancel")


def test_mutable_default_flags_literals_and_constructors():
    findings = check(
        "def f(a=[], b={}, *, c=set(), d=dict()):\n    return a, b, c, d\n"
    )
    assert len(fired(findings, "hyg.mutable-default")) == 4


def test_mutable_default_allows_none():
    findings = check("def f(a=None, b=()):\n    return a, b\n")
    assert not fired(findings, "hyg.mutable-default")


# -- suppressions -----------------------------------------------------------------


def test_justified_suppression_silences_the_finding():
    findings = check(
        "import os\n"
        "a = os.environ.get('X')  # checks: ignore[det.env-read] -- fixture\n"
    )
    assert not findings


def test_suppression_on_the_line_above_counts():
    findings = check(
        "import os\n"
        "# checks: ignore[det.env-read] -- fixture\n"
        "a = os.environ.get('X')\n"
    )
    assert not findings


def test_unjustified_suppression_is_an_error():
    findings = check(
        "import os\na = os.environ.get('X')  # checks: ignore[det.env-read]\n"
    )
    hits = fired(findings, "checks.unjustified-suppression")
    assert hits and hits[0].severity is Severity.ERROR
    assert not fired(findings, "det.env-read")


def test_useless_suppression_is_a_warning():
    findings = check("a = 1  # checks: ignore[det.env-read] -- stale\n")
    hits = fired(findings, "checks.useless-suppression")
    assert hits and hits[0].severity is Severity.WARNING


def test_suppression_for_unselected_rule_is_not_stale(tmp_path):
    target = tmp_path / "repro" / "mod.py"
    target.parent.mkdir()
    target.write_text(
        "try:\n"
        "    work()\n"
        "# checks: ignore[hyg.broad-except] -- fixture\n"
        "except Exception:\n"
        "    pass\n"
    )
    scoped = run_checks([str(tmp_path)], select=["det"])
    assert scoped.findings == []
    full = run_checks([str(tmp_path)])
    assert [f.rule for f in full.findings] == []


def test_marker_inside_a_string_is_not_a_suppression():
    source = 'DOC = "example: # checks: ignore[det.env-read] -- how-to"\n'
    assert parse_suppressions(source) == []


# -- reports and selection --------------------------------------------------------


def test_json_report_schema(tmp_path):
    bad = tmp_path / "repro" / "sub"
    bad.mkdir(parents=True)
    (bad / "bad.py").write_text("import os\nx = os.getenv('X')\n")
    report = run_checks([str(tmp_path)])
    payload = json.loads(render_json(report))
    assert payload["tool"] == "checks"
    assert payload["files_scanned"] == 1
    assert payload["rules"] == sorted(rule.id for rule in ALL_RULES)
    assert payload["summary"] == {"errors": 1, "warnings": 0, "total": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "det.env-read"
    assert finding["severity"] == "error"
    assert finding["file"].endswith("repro/sub/bad.py")
    assert finding["line"] == 2


def test_select_rules_by_pack_and_id():
    assert [r.id for r in select_rules(["det"])] == [
        "det.wall-clock", "det.unseeded-random", "det.env-read",
        "det.set-iteration",
    ]
    assert [r.id for r in select_rules(["hyg.bare-except"])] == ["hyg.bare-except"]
    with pytest.raises(ValueError):
        select_rules(["not-a-rule"])


# -- lock-order monitor -----------------------------------------------------------


@pytest.fixture
def monitor():
    previous = lockorder.uninstall()
    installed = lockorder.install(strict=False)
    yield installed
    lockorder.uninstall()
    if previous is not None:
        lockorder._MONITOR = previous


def test_new_lock_is_plain_when_monitoring_is_off():
    previous = lockorder.uninstall()
    try:
        assert not isinstance(lockorder.new_lock("x"), MonitoredLock)
    finally:
        if previous is not None:
            lockorder._MONITOR = previous


def test_consistent_order_is_clean(monitor):
    a = lockorder.new_lock("a")
    b = lockorder.new_lock("b")
    for _ in range(2):
        with a:
            with b:
                pass
    assert monitor.edges() == {"a": {"b"}}
    assert ("a", "b") in monitor.observed
    monitor.assert_clean()


def test_ab_ba_cycle_is_detected(monitor):
    a = lockorder.new_lock("a")
    b = lockorder.new_lock("b")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    assert monitor.violations
    violation = monitor.violations[0]
    assert (violation.name, violation.held) == ("a", "b")
    with pytest.raises(LockOrderViolation):
        monitor.assert_clean()


def test_cross_thread_cycle_is_detected(monitor):
    a = lockorder.new_lock("a")
    b = lockorder.new_lock("b")

    def forward():
        with a:
            with b:
                pass

    thread = threading.Thread(target=forward)
    thread.start()
    thread.join()
    with b:
        with a:
            pass
    assert monitor.violations


def test_strict_mode_raises_at_the_acquisition():
    previous = lockorder.uninstall()
    strict = lockorder.install(strict=True)
    try:
        a = lockorder.new_lock("a")
        b = lockorder.new_lock("b")
        with a:
            with b:
                pass
        with pytest.raises(LockOrderViolation):
            with b:
                with a:
                    pass
    finally:
        lockorder.uninstall()
        if previous is not None:
            lockorder._MONITOR = previous
    assert strict.violations


def test_monitored_lock_tracks_state(monitor):
    lock = lockorder.new_lock("solo")
    assert isinstance(lock, MonitoredLock)
    assert not lock.locked()
    with lock:
        assert lock.locked()
    assert not lock.locked()
    assert lock.acquire(blocking=False)
    # A failed try-lock from another thread rolls its held-stack entry back.
    probe: list[bool] = []
    thread = threading.Thread(
        target=lambda: probe.append(lock.acquire(blocking=False))
    )
    thread.start()
    thread.join()
    assert probe == [False]
    lock.release()
    monitor.assert_clean()


def test_instrumented_repo_locks_report(monitor):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.inc("requests")
    registry.observe("latency", 0.01)
    monitor.assert_clean()


# -- the repo gates itself --------------------------------------------------------


def test_repo_source_is_clean():
    report = run_checks()
    assert report.findings == [], "\n".join(
        finding.render() for finding in report.findings
    )


def test_check_command_exits_zero(capsys):
    assert cli.main(["check"]) == 0
    assert "clean" in capsys.readouterr().out


def test_check_command_fails_on_violations(tmp_path, capsys):
    bad = tmp_path / "repro" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("import time\nt = time.time()\n")
    assert cli.main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "det.wall-clock" in out


def test_check_command_json_format(tmp_path, capsys):
    bad = tmp_path / "repro" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("def f(x=[]):\n    return x\n")
    assert cli.main(["check", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "hyg.mutable-default"


def test_check_command_rejects_unknown_rule(capsys):
    assert cli.main(["check", "--select", "nope"]) == 2
